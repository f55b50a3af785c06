// Many-image serving throughput: images/sec for the SegHDC pipeline
// through the session API, swept over thread counts.
//
//   ./bench_throughput [--images 16] [--width 128] [--height 96]
//                      [--dim 1000] [--beta 8] [--clusters 2]
//                      [--iterations 6] [--quantize 2] [--seed 42]
//                      [--threads 1,2,4,8] [--repeats 3] [--csv]
//                      [--backend scalar|harley-seal|avx2|neon|auto]
//                      [--single-image WxH] [--tile-rows 0,1,8]
//
// Batch mode (default): three configurations are timed over the same
// DSB2018-like batch:
//
//   legacy    — a fresh one-shot session per image (the stateless
//               SegHdc::segment cost: encoder state rebuilt every call),
//               single-threaded
//   session   — one SegHdcSession, sequential segment() loop on one
//               thread (encoder state reused; the serving baseline)
//   many@T    — SegHdcSession::segment_many sharding the batch across a
//               T-thread pool, for each T in --threads
//
// Single-image mode (--single-image WxH): ONE synthetic large image is
// segmented repeatedly — the paper's on-device latency shape — swept
// over --threads x --tile-rows (0 = the default band height; every
// value is rounded up to whole block rows), against a one-band
// single-thread baseline. The reported speedup is the intra-image
// scaling the banded encode buys.
//
// In both modes every configuration's label hash is checked against
// the baseline; any divergence is a hard failure (exit 1) — the
// speedup table of a wrong result is worthless. On a 1-core host the
// parallel rows legitimately show ~1x.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "src/core/session.hpp"
#include "src/datasets/dsb2018.hpp"
#include "src/hdc/simd/backend.hpp"
#include "src/hdc/simd/cpu_features.hpp"
#include "src/metrics/segmentation_metrics.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/cli.hpp"
#include "src/util/parallel.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace seghdc;

std::uint64_t batch_hash(const std::vector<core::SegmentationResult>& results) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const auto& result : results) {
    hash = metrics::label_map_hash(result.labels, hash);
  }
  return hash;
}

// Size-list parsing (comma/space separated, zeros kept only where they
// mean auto/unbounded) is shared with bench_serving via
// util::Cli::parse_size_list.
std::vector<std::size_t> parse_thread_list(const std::string& spec) {
  return util::Cli::parse_size_list(spec, /*allow_zero=*/false);
}

struct Row {
  std::string name;
  double seconds = 0.0;
  std::uint64_t hash = 0;
};

/// --single-image mode: one synthetic WxH image, segmented through a
/// session per (threads, tile_rows) cell; best-of-`repeats` latency,
/// intra-image speedup vs the untiled single-thread baseline, hard
/// failure on any label-hash divergence.
int run_single_image(const util::Cli& cli, core::SegHdcConfig config,
                     const std::vector<std::size_t>& thread_list,
                     std::size_t repeats, bool csv) {
  const auto size = util::Cli::parse_wxh(cli.get("single-image", "1024x768"));
  data::Dsb2018Config dataset_config;
  dataset_config.width = size.width;
  dataset_config.height = size.height;
  const img::ImageU8 image =
      data::Dsb2018Generator(dataset_config).generate(0).image;

  const auto tile_list =
      util::Cli::parse_size_list(cli.get("tile-rows", "0"),
                                 /*allow_zero=*/true);
  if (tile_list.empty() || thread_list.empty()) {
    // An empty sweep would "pass" after checking nothing — reject it so
    // a typo'd flag can't turn the CI hash gate into a no-op.
    std::fprintf(stderr,
                 "--tile-rows ('%s') and --threads must each name at least "
                 "one value\n",
                 cli.get("tile-rows", "0").c_str());
    return 1;
  }

  std::printf("bench_throughput --single-image: one %zux%zux3 image, "
              "dim=%zu, iterations=%zu, best of %zu repeats\n",
              size.width, size.height, config.dim, config.iterations, repeats);
  std::printf("kernel backend: %s | cpu: %s\n",
              hdc::simd::active_backend().name,
              hdc::simd::cpu_feature_string().c_str());

  const auto time_single = [&](const core::SegHdcSession& session) {
    Row row;
    for (std::size_t r = 0; r < repeats; ++r) {
      const util::Stopwatch watch;
      const auto result = session.segment(image);
      const double seconds = watch.seconds();
      row.hash = metrics::label_map_hash(result.labels,
                                         14695981039346656037ULL);
      row.seconds = r == 0 ? seconds : std::min(row.seconds, seconds);
    }
    return row;
  };

  std::vector<Row> rows;
  {
    // Baseline: one thread, one band — the untiled serial encode.
    util::ThreadPool one(1);
    auto baseline_config = config;
    baseline_config.tile_rows = size.height;
    const core::SegHdcSession session(
        baseline_config, core::SegHdcSession::Options{&one});
    auto row = time_single(session);
    row.name = "serial(untiled)";
    rows.push_back(row);
  }
  const double baseline_seconds = rows.front().seconds;
  const std::uint64_t expected_hash = rows.front().hash;

  for (const std::size_t threads : thread_list) {
    util::ThreadPool pool(threads);
    for (const std::size_t tile_rows : tile_list) {
      auto cell_config = config;
      cell_config.tile_rows = tile_rows;
      const core::SegHdcSession session(
          cell_config, core::SegHdcSession::Options{&pool});
      auto row = time_single(session);
      row.name = 't' + std::to_string(threads) + "/r" +
                 (tile_rows == 0 ? std::string("default")
                                 : std::to_string(tile_rows));
      rows.push_back(row);
    }
  }

  bool hashes_match = true;
  if (csv) {
    std::printf("mode,seconds,speedup_vs_serial,hash\n");
  } else {
    std::printf("%-16s %10s %9s  %s\n", "mode", "seconds", "speedup",
                "label hash");
  }
  for (const auto& row : rows) {
    const double speedup = baseline_seconds / row.seconds;
    if (csv) {
      std::printf("%s,%.4f,%.2f,%016llx\n", row.name.c_str(), row.seconds,
                  speedup, static_cast<unsigned long long>(row.hash));
    } else {
      std::printf("%-16s %10.4f %8.2fx  %016llx%s\n", row.name.c_str(),
                  row.seconds, speedup,
                  static_cast<unsigned long long>(row.hash),
                  row.hash == expected_hash ? "" : "  MISMATCH");
    }
    hashes_match = hashes_match && row.hash == expected_hash;
  }
  if (!hashes_match) {
    std::fprintf(stderr,
                 "FAIL: label hashes diverge across tile/thread cells\n");
    return 1;
  }
  std::printf(
      "all label hashes identical across thread counts and tile sizes\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto image_count =
      static_cast<std::size_t>(cli.get_int("images", 16));
  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats", 3));
  const bool csv = cli.get_flag("csv");

  core::SegHdcConfig config;
  config.dim = static_cast<std::size_t>(cli.get_int("dim", 1000));
  config.beta = static_cast<std::size_t>(cli.get_int("beta", 8));
  config.clusters = static_cast<std::size_t>(cli.get_int("clusters", 2));
  config.iterations =
      static_cast<std::size_t>(cli.get_int("iterations", 6));
  config.color_quantization_shift =
      static_cast<std::size_t>(cli.get_int("quantize", 2));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  const auto thread_list =
      parse_thread_list(cli.get("threads", "1,2,4,8"));

  // Kernel backend: --backend forces one (hard error on unknown or
  // unavailable names), otherwise the env/auto-dispatched selection is
  // reported so every run records which kernels produced its numbers.
  const std::string backend_flag = cli.get("backend", "");
  if (!backend_flag.empty()) {
    hdc::simd::force_backend(backend_flag);
  }

  if (cli.has("single-image")) {
    return run_single_image(cli, config, thread_list, repeats, csv);
  }

  data::Dsb2018Config dataset_config;
  dataset_config.width = static_cast<std::size_t>(cli.get_int("width", 128));
  dataset_config.height =
      static_cast<std::size_t>(cli.get_int("height", 96));
  const data::Dsb2018Generator dataset(dataset_config);
  std::vector<img::ImageU8> images;
  images.reserve(image_count);
  for (std::size_t i = 0; i < image_count; ++i) {
    images.push_back(dataset.generate(i).image);
  }

  std::printf("bench_throughput: %zu images %zux%zux3, dim=%zu, "
              "iterations=%zu, best of %zu repeats\n",
              images.size(), dataset_config.width, dataset_config.height,
              config.dim, config.iterations, repeats);
  std::printf("kernel backend: %s | cpu: %s\n",
              hdc::simd::active_backend().name,
              hdc::simd::cpu_feature_string().c_str());

  // Best-of-N wall time for one batch pass through `run`.
  const auto time_batch = [&](const auto& run) {
    Row row;
    for (std::size_t r = 0; r < repeats; ++r) {
      const util::Stopwatch watch;
      const auto results = run();
      const double seconds = watch.seconds();
      row.hash = batch_hash(results);
      row.seconds = r == 0 ? seconds : std::min(row.seconds, seconds);
    }
    return row;
  };

  std::vector<Row> rows;

  {
    util::ThreadPool one(1);
    auto row = time_batch([&] {
      std::vector<core::SegmentationResult> results;
      results.reserve(images.size());
      for (const auto& image : images) {
        // Fresh session per image: the legacy SegHdc::segment cost
        // (encoder item memories rebuilt for every call).
        const core::SegHdcSession session(config,
                                          core::SegHdcSession::Options{&one});
        results.push_back(session.segment(image));
      }
      return results;
    });
    row.name = "legacy(rebuild)";
    rows.push_back(row);
  }

  // Per-image latency of the serving baseline, recorded through the
  // same registry/histogram machinery the server exports — so the
  // percentiles in BENCH_throughput.json mean the same thing as the
  // ones in BENCH_serving.json.
  obs::MetricsRegistry registry;
  obs::Histogram& per_image_seconds = registry.histogram(
      "seghdc_bench_image_seconds",
      "Per-image segment() latency of the sequential session loop", "",
      images.size() * repeats);
  {
    util::ThreadPool one(1);
    const core::SegHdcSession session(config,
                                      core::SegHdcSession::Options{&one});
    auto row = time_batch([&] {
      std::vector<core::SegmentationResult> results;
      results.reserve(images.size());
      for (const auto& image : images) {
        const util::Stopwatch image_watch;
        results.push_back(session.segment(image));
        per_image_seconds.record(image_watch.seconds());
      }
      return results;
    });
    row.name = "session(seq)";
    rows.push_back(row);
  }
  const double baseline_seconds = rows.back().seconds;
  const std::uint64_t expected_hash = rows.back().hash;

  for (const std::size_t threads : thread_list) {
    util::ThreadPool pool(threads);
    const core::SegHdcSession session(config,
                                      core::SegHdcSession::Options{&pool});
    auto row = time_batch([&] { return session.segment_many(images); });
    row.name = "many@" + std::to_string(threads);
    rows.push_back(row);
  }

  bool hashes_match = true;
  if (csv) {
    std::printf("mode,seconds,images_per_sec,speedup_vs_session,hash\n");
  } else {
    std::printf("%-16s %10s %12s %9s  %s\n", "mode", "seconds",
                "images/sec", "speedup", "label hash");
  }
  for (const auto& row : rows) {
    const double ips = static_cast<double>(images.size()) / row.seconds;
    const double speedup = baseline_seconds / row.seconds;
    if (csv) {
      std::printf("%s,%.4f,%.2f,%.2f,%016llx\n", row.name.c_str(),
                  row.seconds, ips, speedup,
                  static_cast<unsigned long long>(row.hash));
    } else {
      std::printf("%-16s %10.4f %12.2f %8.2fx  %016llx%s\n",
                  row.name.c_str(), row.seconds, ips, speedup,
                  static_cast<unsigned long long>(row.hash),
                  row.hash == expected_hash ? "" : "  MISMATCH");
    }
    hashes_match = hashes_match && row.hash == expected_hash;
  }

  if (!hashes_match) {
    std::fprintf(stderr,
                 "FAIL: label hashes diverge across configurations\n");
    return 1;
  }
  std::printf("all label hashes identical across modes and thread counts\n");

  // Machine-readable headline: the fastest segment_many row for
  // throughput, the sequential loop's histogram for per-image latency.
  const Row* best = nullptr;
  double best_ips = 0.0;
  for (const auto& row : rows) {
    if (row.name.rfind("many@", 0) != 0) {
      continue;
    }
    const double ips = static_cast<double>(images.size()) / row.seconds;
    if (best == nullptr || ips > best_ips) {
      best = &row;
      best_ips = ips;
    }
  }
  if (best != nullptr) {
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof hash_hex, "\"%016llx\"",
                  static_cast<unsigned long long>(expected_hash));
    bench::write_bench_json(
        "BENCH_throughput.json", "bench_throughput", best_ips,
        per_image_seconds.percentiles(),
        {{"mode", "\"" + best->name + "\""},
         {"images", std::to_string(images.size())},
         {"repeats", std::to_string(repeats)},
         {"label_hash", hash_hex}});
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_throughput failed: %s\n", error.what());
  return 1;
}
