// Serving stats snapshots: the ServerStats view SegHdcServer exposes
// over its obs::MetricsRegistry. The percentile machinery
// (LatencyPercentiles, LatencyRecorder, percentile_nearest_rank) lives
// in src/obs/metrics.hpp now — sliding-window percentile math is
// generic observability, shared with obs::Histogram — and is re-exported
// here under the historical serve:: names.
#ifndef SEGHDC_SERVE_STATS_HPP
#define SEGHDC_SERVE_STATS_HPP

#include <cstddef>
#include <cstdint>

#include "src/obs/metrics.hpp"

namespace seghdc::serve {

using LatencyPercentiles = obs::LatencyPercentiles;
using LatencyRecorder = obs::LatencyRecorder;
using obs::percentile_nearest_rank;

/// Aggregate counters for the temporal stream path (see
/// SegHdcServer::open_stream): how much work the warm-start machinery
/// actually saved, summed over every stream frame this server served.
/// Stream frames ALSO count in the ServerStats request counters and the
/// latency window — these totals break down what kind of frames they
/// were, they do not add a separate population.
struct StreamServingStats {
  std::uint64_t frames = 0;           ///< stream frames completed
  std::uint64_t warm_frames = 0;      ///< seeded from previous centroids
  std::uint64_t replayed_frames = 0;  ///< byte-identical, result replayed
  std::uint64_t tiles_reused = 0;     ///< row bands served from cache
  std::uint64_t tiles_encoded = 0;    ///< row bands re-encoded
  std::uint64_t kmeans_iterations = 0;  ///< iterations actually run
};

/// Snapshot of a SegHdcServer's counters and latency distribution — a
/// view assembled from the server's obs::MetricsRegistry handles.
/// Counters increase monotonically over the server's lifetime; once the
/// pipeline is idle, `submitted == completed + failed + cancelled` (a
/// rejected request was never accepted, so `rejected` counts separately).
/// Mid-flight snapshots read each counter atomically but not the set of
/// them together, so transient sums may be off by in-transit requests.
struct ServerStats {
  std::uint64_t submitted = 0;  ///< requests accepted into the queue
  std::uint64_t completed = 0;  ///< results delivered (future set)
  std::uint64_t rejected = 0;   ///< refused by the kReject backpressure
  std::uint64_t cancelled = 0;  ///< failed by shutdown(kCancel)
  std::uint64_t failed = 0;     ///< stage threw (bad image, OOM, ...)
  std::size_t queued = 0;       ///< waiting in the submit queue right now
  std::size_t in_flight = 0;    ///< popped by a stage, not yet completed
  double uptime_seconds = 0.0;  ///< since server construction
  /// completed / uptime — the sustained rate since construction, not a
  /// windowed instantaneous rate.
  double throughput_images_per_sec = 0.0;
  /// Submit-to-completion wall latency of completed requests.
  LatencyPercentiles latency;
  /// Temporal stream-path breakdown (all zero when no stream was used).
  StreamServingStats stream;
};

}  // namespace seghdc::serve

#endif  // SEGHDC_SERVE_STATS_HPP
