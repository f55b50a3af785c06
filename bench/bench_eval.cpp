// Dataset-scale evaluation through the serving path: runs SegHDC over a
// benchmark suite with eval::evaluate_seghdc and emits one
// machine-readable EVAL_*.json (mIoU aggregates, chained label
// fingerprint, wall clock, latency percentiles, measured op counts —
// with git SHA/backend/CPU provenance).
//
//   ./bench_eval [--dataset BBBC005|DSB2018|MoNuSeg] [--images 12]
//                [--dim 2000] [--paper] [--path server|batch|one_shot]
//                [--batch 64] [--disk] [--check-paths]
//                [--out out] [--tag eval] [--trace trace.json]
//
//   --disk         exports the synthetic suite to <out>/dataset_<name>
//                  as PNG and evaluates through the DiskDataset loader —
//                  the hermetic stand-in for a real on-disk corpus
//                  (exercises PNG I/O + loader + eval end to end).
//   --check-paths  runs the sweep on ALL three execution paths and
//                  exits 1 unless the label fingerprints and mIoU agree
//                  bit for bit — the CI eval-smoke gate.
//   --trace        records every span of the sweep and writes it as
//                  Chrome-trace JSON, the file tools/trace_lint.py
//                  checks.
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "bench_report.hpp"
#include "src/datasets/disk.hpp"
#include "src/obs/trace.hpp"
#include "src/util/cli.hpp"
#include "src/util/csv.hpp"

namespace {

using namespace seghdc;

bench::DatasetId parse_dataset(const std::string& name) {
  for (const auto id : {bench::DatasetId::kBbbc005,
                        bench::DatasetId::kDsb2018,
                        bench::DatasetId::kMonuseg}) {
    if (name == bench::dataset_name(id)) {
      return id;
    }
  }
  throw std::invalid_argument("bench_eval: unknown dataset '" + name +
                              "' (use BBBC005, DSB2018 or MoNuSeg)");
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  bench::Scale scale = cli.get_flag("paper") ? bench::Scale::paper_scale()
                                             : bench::Scale::host();
  const auto images = static_cast<std::size_t>(
      cli.get_int("images", static_cast<std::int64_t>(scale.images)));
  scale.seghdc_dim = static_cast<std::size_t>(cli.get_int(
      "dim", static_cast<std::int64_t>(scale.seghdc_dim)));
  const auto dataset_id = parse_dataset(cli.get("dataset", "DSB2018"));
  const bool use_disk = cli.get_flag("disk");
  const bool check_paths = cli.get_flag("check-paths");
  const auto out_dir = cli.get("out", "out");
  const auto tag = cli.get("tag", "eval");
  auto options = bench::eval_options_from_cli(cli);
  util::ensure_directory(out_dir);

  const auto generated = bench::make_dataset(dataset_id, scale);
  const auto config = bench::seghdc_config_for(*generated, scale);

  // --disk: materialise the suite as PNG files and reload it through
  // the real on-disk loader, so the measured pipeline is
  // files -> DiskDataset -> eval, not generator -> eval.
  const data::DatasetGenerator* dataset = generated.get();
  std::unique_ptr<data::DiskDataset> disk;
  if (use_disk) {
    const auto dir =
        out_dir + "/dataset_" + generated->profile().name;
    data::export_dataset(*generated, images, dir, "png");
    disk = std::make_unique<data::DiskDataset>(dir);
    dataset = disk.get();
    std::printf("exported %zu samples to %s (PNG), evaluating from disk\n",
                images, dir.c_str());
  }

  const std::string trace_path = cli.get("trace", "");
  std::optional<obs::TraceSession> trace;
  if (!trace_path.empty()) {
    trace.emplace();
  }
  std::vector<eval::SuiteResult> suites;
  if (check_paths) {
    for (const auto path : {eval::EvalPath::kOneShot, eval::EvalPath::kBatch,
                            eval::EvalPath::kServer}) {
      options.path = path;
      suites.push_back(
          eval::evaluate_seghdc(*dataset, images, config, options));
    }
  } else {
    suites.push_back(
        eval::evaluate_seghdc(*dataset, images, config, options));
  }
  if (trace.has_value()) {
    trace->write_json(trace_path);
    std::printf("trace json -> %s (%zu events, %llu dropped)\n",
                trace_path.c_str(), trace->events().size(),
                static_cast<unsigned long long>(
                    obs::Tracer::instance().dropped()));
  }

  std::printf("EVAL: %s, %zu images, d=%zu\n",
              dataset->profile().name.c_str(), images, config.dim);
  std::printf("%-10s %10s %10s %12s %12s %20s\n", "path", "mIoU", "p95 ms",
              "wall (s)", "img/s", "labels_hash");
  for (const auto& suite : suites) {
    std::printf("%-10s %10.4f %10.3f %12.3f %12.2f %20llu\n",
                suite.path.c_str(), suite.mean_iou(),
                suite.latency.p95_seconds * 1e3, suite.wall_seconds,
                suite.wall_seconds > 0.0
                    ? static_cast<double>(suite.records.size()) /
                          suite.wall_seconds
                    : 0.0,
                static_cast<unsigned long long>(suite.labels_hash));
  }

  bench::write_eval_json(out_dir + "/EVAL_" + tag + ".json", "bench_eval",
                         suites,
                         {{"disk", use_disk ? "true" : "false"}});

  if (check_paths) {
    // The determinism gate: every path must produce the same labels
    // (chained fingerprint) and therefore the same mIoU.
    for (std::size_t i = 1; i < suites.size(); ++i) {
      if (suites[i].labels_hash != suites[0].labels_hash) {
        std::fprintf(stderr,
                     "PATH DIVERGENCE: %s labels_hash %llu != %s %llu\n",
                     suites[i].path.c_str(),
                     static_cast<unsigned long long>(suites[i].labels_hash),
                     suites[0].path.c_str(),
                     static_cast<unsigned long long>(suites[0].labels_hash));
        return 1;
      }
      if (suites[i].mean_iou() != suites[0].mean_iou()) {
        std::fprintf(stderr, "PATH DIVERGENCE: %s mIoU %.12f != %s %.12f\n",
                     suites[i].path.c_str(), suites[i].mean_iou(),
                     suites[0].path.c_str(), suites[0].mean_iou());
        return 1;
      }
    }
    std::printf("check-paths: one_shot == batch == server (labels_hash "
                "%llu)\n",
                static_cast<unsigned long long>(suites[0].labels_hash));
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_eval failed: %s\n", error.what());
  return 1;
}
