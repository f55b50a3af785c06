// MetricsRegistry: named counters, gauges, and histograms for the
// serving stack, with Prometheus-text rendering. The serving layers
// (SegHdcServer, SegHdcFleet) register their counters here and read
// snapshots back out, so ServerStats / FleetStats are views over the
// registry, not parallel bookkeeping.
//
//   obs::MetricsRegistry metrics;
//   obs::Counter& served = metrics.counter("seghdc_served_total");
//   served.add();
//   std::cout << metrics.render();   // Prometheus text exposition
//
// Handles are plain atomics returned by reference (stable for the
// registry's lifetime), so the hot-path cost of a registered counter is
// exactly one relaxed fetch_add — identical to the raw atomic members
// they replaced. Like the tracer, metrics are observational only: they
// never influence scheduling or results.
//
// LatencyPercentiles / LatencyRecorder / percentile_nearest_rank moved
// here from src/serve/stats.hpp (serve re-exports them): sliding-window
// percentile math is generic observability, and obs::Histogram builds
// on the recorder for its window percentiles.
#ifndef SEGHDC_OBS_METRICS_HPP
#define SEGHDC_OBS_METRICS_HPP

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace seghdc::obs {

/// Latency percentiles over a set of samples, in seconds. All zero when
/// no sample was recorded.
///
/// Two sample counts on purpose: `count` is every sample ever recorded
/// (what `mean_seconds` covers), `window_count` is how many of them are
/// still in the sliding window (what min/max/p50/p95/p99 cover). They
/// are equal until the recorder's window wraps; after that, reading the
/// percentiles as if they covered `count` samples overstates their
/// support — display code must cite `window_count` next to percentiles.
struct LatencyPercentiles {
  std::uint64_t count = 0;         ///< lifetime samples (mean covers these)
  std::uint64_t window_count = 0;  ///< samples behind min/max/percentiles
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  double mean_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
};

/// Nearest-rank percentile: the ceil(q/100 * n)-th smallest sample
/// (1-indexed), the classical definition — p100 is the maximum, p50 of
/// {1..100} is 50. `sorted` must be ascending and non-empty; `q` in
/// (0, 100].
double percentile_nearest_rank(std::span<const double> sorted, double q);

/// Thread-safe latency accumulator. Percentiles and min/max are computed
/// over a sliding window of the most recent `window_capacity` samples
/// (bounded memory under sustained traffic); count and mean cover every
/// sample ever recorded. All methods are safe to call concurrently.
class LatencyRecorder {
 public:
  /// `window_capacity` must be >= 1; the default keeps the last 64k
  /// request latencies, plenty for p99 stability.
  explicit LatencyRecorder(std::size_t window_capacity = 65536);

  /// Records one request latency (seconds, >= 0).
  void record(double seconds);

  /// Snapshot of the current percentiles (sorts a copy of the window;
  /// O(window log window), intended for stats views and tests, not per
  /// request).
  LatencyPercentiles snapshot() const;

 private:
  const std::size_t window_capacity_;
  mutable std::mutex mutex_;
  std::vector<double> window_;  ///< ring buffer, size <= window_capacity_
  std::size_t next_slot_ = 0;   ///< ring write cursor
  std::uint64_t total_count_ = 0;
  double total_seconds_ = 0.0;
};

/// Monotonic counter. add() is one relaxed fetch_add — safe and cheap
/// from any thread, exactly like the raw atomics it replaces.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (queue depth, in-flight requests).
class Gauge {
 public:
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Seconds-valued distribution: power-of-two exponential buckets for
/// the Prometheus exposition plus a LatencyRecorder window for the
/// p50/p95/p99 snapshots ServerStats reports. record() is one mutex'd
/// ring append plus one relaxed bucket increment.
class Histogram {
 public:
  /// Bucket upper bounds: 1us * 2^i for i in [0, kBucketCount), i.e.
  /// 1us .. ~33.5s, plus the implicit +Inf bucket.
  static constexpr std::size_t kBucketCount = 26;

  explicit Histogram(std::size_t window_capacity = 65536);

  void record(double seconds);

  /// Sliding-window percentile snapshot (see LatencyRecorder).
  LatencyPercentiles percentiles() const { return window_.snapshot(); }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  static double bucket_upper_bound(std::size_t index);

  /// Cumulative (Prometheus-style) per-bucket counts, +Inf last.
  std::array<std::uint64_t, kBucketCount + 1> cumulative_buckets() const;

 private:
  LatencyRecorder window_;
  std::array<std::atomic<std::uint64_t>, kBucketCount + 1> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Named metric registry with get-or-create handles and Prometheus-text
/// rendering. Handle references stay valid for the registry's lifetime;
/// re-requesting a (name, labels) pair returns the SAME handle, and
/// requesting an existing pair as a different metric kind throws
/// std::invalid_argument. `labels` is a pre-rendered Prometheus label
/// body without braces, e.g. `tenant="nuclei"`.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& help = "",
                   const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& help = "",
               const std::string& labels = "");
  Histogram& histogram(const std::string& name, const std::string& help = "",
                       const std::string& labels = "",
                       std::size_t window_capacity = 65536);

  /// Prometheus text exposition: # HELP / # TYPE headers (once per
  /// metric name) followed by the samples, in registration order.
  /// Histograms render cumulative _bucket{le=...} series plus _sum and
  /// _count.
  std::string render() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;
    std::string help;
    std::string labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& get_or_create(Kind kind, const std::string& name,
                       const std::string& help, const std::string& labels,
                       std::size_t window_capacity);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< registration order
};

}  // namespace seghdc::obs

#endif  // SEGHDC_OBS_METRICS_HPP
