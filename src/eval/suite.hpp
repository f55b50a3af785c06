// Dataset-sweep evaluation: run any segmentation method over a
// generated suite, score every image against its ground truth with the
// optimal cluster->foreground matching, and aggregate — the measurement
// loop behind the paper's Table I, exposed as a public API so users can
// benchmark their own configurations (or their own methods) against
// SegHDC on the same footing.
//
// For the library's own method there are three execution paths, all
// producing bit-identical labels (a tier-1 invariant):
//   - EvalPath::kOneShot — sequential SegHdcSession::segment, the
//     debugging shape;
//   - EvalPath::kBatch   — SegHdcSession::segment_many waves, the
//     offline-sweep shape;
//   - EvalPath::kServer  — serve::SegHdcServer::submit, the production
//     shape: reproducing the paper's accuracy tables IS a serving
//     workload, with queue admission, pipelined stages, and real
//     submit-to-done tail latencies in the report.
#ifndef SEGHDC_EVAL_SUITE_HPP
#define SEGHDC_EVAL_SUITE_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/baseline/kim_segmenter.hpp"
#include "src/core/op_counts.hpp"
#include "src/core/seghdc.hpp"
#include "src/datasets/dataset.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/server.hpp"

namespace seghdc::eval {

/// Outcome of one method on one image.
struct ImageRecord {
  std::string id;
  double iou = 0.0;
  double seconds = 0.0;        ///< pipeline time (timings.total_seconds)
  std::size_t instances = 0;   ///< ground-truth instance count
  /// FNV-1a fingerprint of the label map (0 for methods evaluated
  /// through the generic functor API, which does not expose labels).
  std::uint64_t label_hash = 0;
  /// Work actually performed (measured accounting: every assignment
  /// mode counts the distances, skips and kernels it ran, never a
  /// blanket formula). Zero for generic-functor evaluation.
  core::OpCounts ops;
  std::size_t unique_points = 0;
  std::size_t iterations_run = 0;
};

/// Aggregate of a method over a suite.
struct SuiteResult {
  std::string dataset;
  std::string method;
  /// Execution-path name ("one_shot", "batch", "server", or
  /// "functor" for the generic evaluate_suite loop).
  std::string path = "functor";
  std::vector<ImageRecord> records;

  /// Chained label_map_hash over the per-image label maps in sample
  /// order, seeded with the FNV-1a offset basis — one fingerprint for
  /// the whole sweep, comparable across paths/pools/backends. 0 for
  /// generic-functor evaluation.
  std::uint64_t labels_hash = 0;
  /// Wall-clock of the whole sweep (includes sample generation and
  /// scoring, unlike the per-image pipeline seconds).
  double wall_seconds = 0.0;
  /// Latency distribution: submit-to-done percentiles from the server's
  /// metrics registry on the server path, per-image pipeline seconds on
  /// the other paths.
  obs::LatencyPercentiles latency;

  double mean_iou() const;
  double min_iou() const;
  double max_iou() const;
  /// Sample standard deviation of the per-image IoU (0 for < 2 images).
  double stddev_iou() const;
  double mean_seconds() const;
  double total_seconds() const;
  /// Sum of the per-image measured op counts.
  core::OpCounts total_ops() const;
};

/// A segmentation method under evaluation: sample in, label map out
/// (any number of labels; scoring handles the matching).
using Method = std::function<img::LabelMap(const data::Sample&)>;

/// Runs `method` over samples [0, images) of `dataset`, timing each
/// call and scoring with metrics::best_foreground_iou_any.
SuiteResult evaluate_suite(const data::DatasetGenerator& dataset,
                           std::size_t images,
                           const std::string& method_name,
                           const Method& method);

/// Which execution machinery carries the SegHDC sweep.
enum class EvalPath {
  kOneShot,  ///< sequential SegHdcSession::segment
  kBatch,    ///< SegHdcSession::segment_many waves
  kServer,   ///< serve::SegHdcServer::submit (the production path)
};

/// Parses "one_shot" / "batch" / "server"; anything else is a hard
/// std::invalid_argument naming the value (no silent fallback).
EvalPath parse_eval_path(const std::string& name);
const char* eval_path_name(EvalPath path);

/// Knobs for evaluate_seghdc. None of them change result content — the
/// per-image labels (and so iou/label hashes) are bit-identical across
/// every path/batch_size/pool/server combination; only throughput,
/// latency, and memory shape differ.
struct EvalOptions {
  EvalPath path = EvalPath::kOneShot;
  /// Images in flight per wave on the batch and server paths (bounds
  /// peak memory for thousand-image sweeps). 0 = the whole suite in one
  /// wave. Ignored on the one-shot path.
  std::size_t batch_size = 64;
  /// Pool for the session's data parallelism (and the locally built
  /// server's, unless server_options.pool is set). nullptr = the
  /// process-wide shared pool.
  util::ThreadPool* pool = nullptr;
  /// Server path only: evaluate through this existing server instead of
  /// building one (the fleet/shared-traffic shape; its config must match
  /// `config` — enforced with a hard error). The reported latency then
  /// covers every request in the server's window, not just this sweep's.
  serve::SegHdcServer* server = nullptr;
  /// Server path only, ignored when `server` is set: options for the
  /// locally built server (queue capacity, worker counts, ...). The
  /// SEGHDC_TEST_QUEUE_CAP harness override applies to it like to any
  /// other server.
  serve::ServerOptions server_options;
  /// Window for the non-server latency percentiles.
  std::size_t latency_window = 65536;
  /// Optional per-image tap, invoked in sample order after scoring —
  /// the hook the qualitative benches (Fig. 6/8 mask writers) use.
  /// Called on the evaluating thread; keep it short on serving paths.
  std::function<void(std::size_t index, const data::Sample& sample,
                     const core::SegmentationResult& result)>
      sink;
};

/// Runs SegHDC with `config` over samples [0, images) of `dataset`
/// through the selected execution path. Records carry measured op
/// counts and label hashes; SuiteResult.labels_hash pins the whole
/// sweep. See EvalOptions for the path-identity guarantee.
SuiteResult evaluate_seghdc(const data::DatasetGenerator& dataset,
                            std::size_t images,
                            const core::SegHdcConfig& config,
                            const EvalOptions& options = {});

/// Writes one CSV row per image plus a trailing "mean" row.
void write_suite_csv(const SuiteResult& result, const std::string& path);

/// The library's own methods as evaluation functors.
Method seghdc_method(const core::SegHdcConfig& config);
/// `train_downscale` > 1 trains the CNN at reduced resolution and
/// upsamples the labels (DESIGN.md §4).
Method kim_method(const baseline::KimConfig& config,
                  std::size_t train_downscale = 1);
Method otsu_method(bool equalize_first = false);

}  // namespace seghdc::eval

#endif  // SEGHDC_EVAL_SUITE_HPP
