#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <thread>

#include "src/core/kmeans.hpp"
#include "src/hdc/simd/backend.hpp"
#include "src/hdc/simd/cpu_features.hpp"
#include "src/metrics/segmentation_metrics.hpp"
#include "stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace hdc = seghdc::hdc;
namespace metrics = seghdc::metrics;

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::uint64_t checked_label_hash(const img::LabelMap& labels, std::size_t width,
                                 std::size_t height, std::size_t clusters,
                                 std::uint64_t expected_hash) {
  if (labels.width() != width || labels.height() != height ||
      labels.channels() != 1) {
    return 0;
  }
  const auto pixels = labels.pixels();
  if (std::any_of(pixels.begin(), pixels.end(),
                  [&](std::uint32_t label) { return label >= clusters; })) {
    return 0;
  }
  const std::uint64_t hash = metrics::label_map_hash(labels);
  return expected_hash == 0 || hash == expected_hash ? hash : 0;
}

double iou_of(const img::LabelMap& labels, std::size_t clusters,
              const img::ImageU8& mask) {
  return metrics::best_foreground_iou(labels, clusters, mask).iou;
}

std::string render_config(const core::SegHdcConfig& c) {
  return JsonObject()
      .num("dim", static_cast<double>(c.dim))
      .num("alpha", c.alpha)
      .num("beta", static_cast<double>(c.beta))
      .num("gamma", static_cast<double>(c.gamma))
      .num("clusters", static_cast<double>(c.clusters))
      .num("iterations", static_cast<double>(c.iterations))
      .num("seed", static_cast<double>(c.seed))
      .num("position_encoding", static_cast<double>(c.position_encoding))
      .num("color_encoding", static_cast<double>(c.color_encoding))
      .num("flip_unit_basis", static_cast<double>(c.flip_unit_basis))
      .num("cluster_distance", static_cast<double>(c.cluster_distance))
      .num("assign_mode", static_cast<double>(c.assign_mode))
      .add("deduplicate", c.deduplicate ? "true" : "false")
      .num("color_quantization_shift", static_cast<double>(c.color_quantization_shift))
      .num("bit_error_rate", c.bit_error_rate)
      .add("stop_on_convergence", c.stop_on_convergence ? "true" : "false")
      .add("compute_margins", c.compute_margins ? "true" : "false")
      .num("tile_rows", static_cast<double>(c.tile_rows))
      .add("trace", c.trace ? "true" : "false")
      .str("kernel_backend", c.kernel_backend)
      .render();
}

void add_provenance(Report& report, const Args& args) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  report.details.str("workload", args.workload)
      .num("seed", static_cast<double>(args.seed))
      .num("seconds", args.seconds)
      .add("traced", args.trace ? "true" : "false")
      .str("scale", args.tiny ? "tiny" : "full")
      .num("nproc", static_cast<double>(nproc()))
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", compiler)
      .str("kernel_backend", hdc::simd::active_backend().name)
      .str("cpu_features", hdc::simd::cpu_feature_string())
      .str("source_id", args.source_id);
}

void add_generator_facts(const std::vector<const Phase*>& phases,
                         LoadFacts& facts) {
  std::vector<double> lag;
  for (const Phase* phase : phases) {
    lag.insert(lag.end(), phase->lag_s.begin(), phase->lag_s.end());
    facts.backlog_max =
        std::max(facts.backlog_max, static_cast<double>(phase->backlog));
  }
  facts.lag_tail_s = tail_of(lag).value;
}

namespace {

double span_total_s(const std::vector<obs::TraceEvent>& events,
                    const std::string& name) {
  double total = 0.0;
  for (const auto& event : events) {
    if (name == event.name) {
      total += static_cast<double>(event.dur_ns) * 1e-9;
    }
  }
  return total;
}

std::vector<double> span_durations_s(const std::vector<obs::TraceEvent>& events,
                                     const std::string& name) {
  std::vector<double> out;
  for (const auto& event : events) {
    if (name == event.name) {
      out.push_back(static_cast<double>(event.dur_ns) * 1e-9);
    }
  }
  return out;
}

double timed(const auto& fn) {
  const double start = now_seconds();
  fn();
  return now_seconds() - start;
}

// Per-image measurements of the layer split, summed over the inputs.
struct SplitTotals {
  double images = 0.0;
  double pixels = 0.0;
  double segment_s = 0.0;         // untraced segment(), median of rounds
  double segment_traced_s = 0.0;  // traced segment(), median of rounds
  double finalize_s = 0.0;  // segment() total - encode - cluster timings
  double label_map_span_s = 0.0;
  double encode_s = 0.0;
  double kmeans_s = 0.0;
  double assign_s = 0.0;
  double update_s = 0.0;
  double unique = 0.0;
  double hv_bytes = 0.0;
  double iterations = 0.0;
  double converged_iter = 0.0;
  double distance_evals = 0.0;
  double words_scanned = 0.0;
  std::vector<double> segment_each_s;
  bool split_matches = true;
};

void split_one(const LayerInput& input, util::ThreadPool& pool,
               SplitTotals& totals) {
  const auto& session = *input.session;
  const auto& image = *input.image;
  const auto& config = session.config();

  core::HvKMeansConfig kmeans_config{
      .clusters = config.clusters,
      .iterations = config.iterations,
      .distance = config.cluster_distance,
      .assign_mode = config.assign_mode,
      .stop_on_convergence = config.stop_on_convergence,
      .pool = &pool,
  };
  // Rounds of: segment() untraced (the reference the split must
  // reproduce), segment() traced, then the split. Each figure is the
  // median over the rounds, so one disturbed call cannot skew a share.
  std::vector<double> untraced, traced, finalize, label_map, encode, kmeans,
      assign, update;
  core::EncodedImage encoded;
  core::HvKMeansResult clustering;
  std::vector<std::size_t> seeds;
  for (int round = 0; round < 2; ++round) {
    core::SegmentationResult reference;
    untraced.push_back(timed([&] { reference = session.segment(image); }));
    const auto& t = reference.timings;
    finalize.push_back(t.total_seconds - t.encode_seconds - t.cluster_seconds);
    {
      const obs::TraceSession trace;
      traced.push_back(timed([&] { (void)session.segment(image); }));
      label_map.push_back(span_total_s(trace.events(), "label_map"));
    }

    core::SegHdcSession::Scratch scratch;
    encode.push_back(timed([&] { encoded = session.encode(image, scratch); }));
    seeds = core::largest_color_difference_seeds(encoded.intensities,
                                                 config.clusters);
    {
      const obs::TraceSession trace;
      kmeans.push_back(timed([&] {
        clustering = core::HvKMeans(kmeans_config)
                         .run(encoded.unique_hvs, encoded.weights, seeds);
      }));
      const auto events = trace.events();
      assign.push_back(span_total_s(events, "kmeans_assign"));
      update.push_back(span_total_s(events, "kmeans_iter") - assign.back());
    }
    img::LabelMap labels(encoded.width, encoded.height, 1, 0);
    auto out = labels.pixels();
    for (std::size_t p = 0; p < out.size(); ++p) {
      out[p] = clustering.assignment[encoded.pixel_to_unique[p]];
    }
    totals.split_matches = totals.split_matches && labels == reference.labels;
  }

  // The first iteration that changes no point, from one extra run that
  // stops on convergence (budget + 1 when no iteration in the budget is
  // stable).
  kmeans_config.stop_on_convergence = true;
  const auto converging = core::HvKMeans(kmeans_config)
                              .run(encoded.unique_hvs, encoded.weights, seeds);

  totals.images += 1.0;
  totals.pixels += static_cast<double>(image.pixel_count());
  totals.segment_s += median(untraced);
  totals.segment_each_s.push_back(median(untraced));
  totals.segment_traced_s += median(traced);
  totals.finalize_s += median(finalize);
  totals.label_map_span_s += median(label_map);
  totals.encode_s += median(encode);
  totals.kmeans_s += median(kmeans);
  totals.assign_s += median(assign);
  totals.update_s += median(update);
  totals.unique += static_cast<double>(encoded.unique_hvs.size());
  totals.hv_bytes += static_cast<double>(encoded.unique_hvs.size()) *
                     static_cast<double>(config.dim) / 8.0;
  totals.iterations += static_cast<double>(clustering.iterations_run);
  totals.converged_iter +=
      static_cast<double>(converging.converged ? converging.iterations_run
                                               : config.iterations + 1);
  totals.distance_evals += static_cast<double>(clustering.ops.distance_evals);
  totals.words_scanned += static_cast<double>(clustering.ops.words_scanned);
}

// segment_many images/s over the inputs, each session's images
// replicated until every pool thread has one.
double batch_ceiling_ips(const std::vector<LayerInput>& inputs) {
  std::map<const core::SegHdcSession*, std::vector<img::ImageU8>> groups;
  for (const auto& input : inputs) {
    groups[input.session].push_back(*input.image);
  }
  double images = 0.0;
  double seconds = 0.0;
  for (auto& [session, batch] : groups) {
    const std::size_t distinct = batch.size();
    for (std::size_t i = 0; batch.size() < nproc(); ++i) {
      batch.push_back(batch[i % distinct]);
    }
    seconds += timed([&] { (void)session->segment_many(batch); });
    images += static_cast<double>(batch.size());
  }
  return seconds > 0.0 ? images / seconds : 0.0;
}

}  // namespace

void probe_layers(const std::vector<LayerInput>& inputs,
                  util::ThreadPool& pool, const LoadFacts& facts,
                  Report& report) {
  SplitTotals t;
  for (const auto& input : inputs) {
    split_one(input, pool, t);
  }
  if (!t.split_matches) {
    report.problem("layer split (encode, HvKMeans::run, pixel_to_unique) "
                   "differs from segment() labels");
  }
  const double n = std::max(1.0, t.images);
  const double ms = 1e3 / n;  // seconds summed over images -> ms per image
  report.layer("encode.ms", t.encode_s * ms, "ms");
  report.layer("encode.share", t.encode_s / t.segment_s, "frac");
  report.layer("encode.unique_ratio", t.unique / t.pixels, "frac");
  report.layer("encode.hv_mb", t.hv_bytes / 1e6 / n, "MB");
  report.layer("kmeans.ms", t.kmeans_s * ms, "ms");
  report.layer("kmeans.share", t.kmeans_s / t.segment_s, "frac");
  report.layer("kmeans.assign_ms", t.assign_s * ms, "ms");
  report.layer("kmeans.update_ms", t.update_s * ms, "ms");
  report.layer("kmeans.iterations", t.iterations / n, "count");
  report.layer("kmeans.converged_iter", t.converged_iter / n, "count");
  report.layer("kmeans.distance_evals", t.distance_evals / n, "count");
  report.layer("kmeans.words_scanned", t.words_scanned / n, "count");
  report.layer("kmeans.assign_gbps",
               t.assign_s > 0.0 ? t.words_scanned * 8.0 / t.assign_s / 1e9 : 0.0,
               "GB/s");
  report.layer("finalize.ms", t.finalize_s * ms, "ms");
  report.layer("finalize.label_map_ms", t.label_map_span_s * ms, "ms");

  const double frames = std::max(1.0, facts.stream_frames);
  const double computed = std::max(1.0, facts.stream_frames - facts.stream_replayed);
  report.layer("stream.tiles_reused_frac",
               facts.stream_tiles_total > 0.0
                   ? facts.stream_tiles_reused / facts.stream_tiles_total
                   : 0.0,
               "frac");
  report.layer("stream.replayed_frac", facts.stream_replayed / frames, "frac");
  report.layer("stream.iters_per_frame",
               facts.stream_frames > 0.0 ? facts.stream_iterations / computed : 0.0,
               "count");
  report.layer("stream.compute_ms", median(facts.stream_compute_s) * 1e3, "ms");

  const double service_s = median(t.segment_each_s);
  const auto queue_wait = span_durations_s(facts.events, "queue_wait");
  report.layer("serve.service_ms", service_s * 1e3, "ms");
  report.layer("serve.overhead_ms", (facts.latency_p50_s - service_s) * 1e3, "ms");
  report.layer("serve.queue_wait_p50_ms", median(queue_wait) * 1e3, "ms");
  report.layer("serve.queue_wait_tail_ms", tail_of(queue_wait).value * 1e3, "ms");
  report.layer("serve.cpu_util", facts.cpu_util, "frac");
  report.layer("serve.batch_ceiling_ips", batch_ceiling_ips(inputs), "img/s");
  report.layer("gen.lag_tail_ms", facts.lag_tail_s * 1e3, "ms");
  report.layer("gen.backlog_max", facts.backlog_max, "count");
  report.layer("trace.overhead_frac", t.segment_traced_s / t.segment_s - 1.0,
               "frac");

  report.details.num("layer_images", t.images)
      .num("queue_wait_tail_percentile",
           static_cast<double>(tail_of(queue_wait).percentile))
      .num("queue_wait_samples", static_cast<double>(queue_wait.size()));
}

}  // namespace perfbench
