#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "src/util/contracts.hpp"

namespace seghdc::obs {

double percentile_nearest_rank(std::span<const double> sorted, double q) {
  util::expects(!sorted.empty(),
                "percentile_nearest_rank needs at least one sample");
  util::expects(q > 0.0 && q <= 100.0,
                "percentile_nearest_rank needs q in (0, 100]");
  const double exact_rank =
      q / 100.0 * static_cast<double>(sorted.size());
  // Nearest rank = ceil(exact), floored at 1 so q -> 0+ still indexes
  // the smallest sample; clamp against rounding at q = 100.
  const std::size_t rank = std::min<std::size_t>(
      sorted.size(),
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   std::ceil(exact_rank - 1e-9))));
  return sorted[rank - 1];
}

LatencyRecorder::LatencyRecorder(std::size_t window_capacity)
    : window_capacity_(window_capacity) {
  util::expects(window_capacity >= 1,
                "LatencyRecorder window_capacity must be >= 1");
  window_.reserve(std::min<std::size_t>(window_capacity, 1024));
}

void LatencyRecorder::record(double seconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++total_count_;
  total_seconds_ += seconds;
  if (window_.size() < window_capacity_) {
    window_.push_back(seconds);
  } else {
    window_[next_slot_] = seconds;
  }
  next_slot_ = (next_slot_ + 1) % window_capacity_;
}

LatencyPercentiles LatencyRecorder::snapshot() const {
  std::vector<double> sorted;
  LatencyPercentiles result;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (total_count_ == 0) {
      return result;
    }
    sorted = window_;
    result.count = total_count_;
    result.window_count = window_.size();
    result.mean_seconds = total_seconds_ / static_cast<double>(total_count_);
  }
  std::sort(sorted.begin(), sorted.end());
  result.min_seconds = sorted.front();
  result.max_seconds = sorted.back();
  result.p50_seconds = percentile_nearest_rank(sorted, 50.0);
  result.p95_seconds = percentile_nearest_rank(sorted, 95.0);
  result.p99_seconds = percentile_nearest_rank(sorted, 99.0);
  return result;
}

Histogram::Histogram(std::size_t window_capacity) : window_(window_capacity) {}

double Histogram::bucket_upper_bound(std::size_t index) {
  return 1e-6 * static_cast<double>(std::uint64_t{1} << index);
}

void Histogram::record(double seconds) {
  window_.record(seconds);
  count_.fetch_add(1, std::memory_order_relaxed);
  // atomic<double>::fetch_add is C++20 but not universally lowered;
  // a CAS loop is portable and this is not a per-pixel path.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + seconds,
                                     std::memory_order_relaxed)) {
  }
  std::size_t bucket = kBucketCount;  // +Inf
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    if (seconds <= bucket_upper_bound(i)) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::array<std::uint64_t, Histogram::kBucketCount + 1>
Histogram::cumulative_buckets() const {
  std::array<std::uint64_t, kBucketCount + 1> cumulative{};
  std::uint64_t running = 0;
  for (std::size_t i = 0; i <= kBucketCount; ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    cumulative[i] = running;
  }
  return cumulative;
}

MetricsRegistry::Entry& MetricsRegistry::get_or_create(
    Kind kind, const std::string& name, const std::string& help,
    const std::string& labels, std::size_t window_capacity) {
  util::expects(!name.empty(), "MetricsRegistry metric name must be non-empty");
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : entries_) {
    if (entry->name == name && entry->labels == labels) {
      if (entry->kind != kind) {
        throw std::invalid_argument("MetricsRegistry metric '" + name +
                                    "' already registered as a different kind");
      }
      return *entry;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->kind = kind;
  entry->name = name;
  entry->help = help;
  entry->labels = labels;
  switch (kind) {
    case Kind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry->histogram = std::make_unique<Histogram>(window_capacity);
      break;
  }
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const std::string& labels) {
  return *get_or_create(Kind::kCounter, name, help, labels, 0).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const std::string& labels) {
  return *get_or_create(Kind::kGauge, name, help, labels, 0).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      const std::string& labels,
                                      std::size_t window_capacity) {
  return *get_or_create(Kind::kHistogram, name, help, labels, window_capacity)
              .histogram;
}

namespace {

std::string labeled(const std::string& name, const std::string& labels) {
  if (labels.empty()) {
    return name;
  }
  return name + "{" + labels + "}";
}

std::string with_extra_label(const std::string& name,
                             const std::string& labels,
                             const std::string& extra) {
  if (labels.empty()) {
    return name + "{" + extra + "}";
  }
  return name + "{" + labels + "," + extra + "}";
}

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

}  // namespace

std::string MetricsRegistry::render() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  std::string last_header;
  for (const auto& entry : entries_) {
    // One HELP/TYPE header per metric name; labeled series of the same
    // name (e.g. per-tenant counters) share it, matching the exposition
    // format's grouping rule for consecutive entries.
    if (entry->name != last_header) {
      if (!entry->help.empty()) {
        out << "# HELP " << entry->name << " " << entry->help << "\n";
      }
      out << "# TYPE " << entry->name << " ";
      switch (entry->kind) {
        case Kind::kCounter:
          out << "counter";
          break;
        case Kind::kGauge:
          out << "gauge";
          break;
        case Kind::kHistogram:
          out << "histogram";
          break;
      }
      out << "\n";
      last_header = entry->name;
    }
    switch (entry->kind) {
      case Kind::kCounter:
        out << labeled(entry->name, entry->labels) << " "
            << entry->counter->value() << "\n";
        break;
      case Kind::kGauge:
        out << labeled(entry->name, entry->labels) << " "
            << entry->gauge->value() << "\n";
        break;
      case Kind::kHistogram: {
        const auto cumulative = entry->histogram->cumulative_buckets();
        for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
          out << with_extra_label(
                     entry->name + "_bucket", entry->labels,
                     "le=\"" + format_double(Histogram::bucket_upper_bound(i)) +
                         "\"")
              << " " << cumulative[i] << "\n";
        }
        out << with_extra_label(entry->name + "_bucket", entry->labels,
                                "le=\"+Inf\"")
            << " " << cumulative[Histogram::kBucketCount] << "\n";
        out << labeled(entry->name + "_sum", entry->labels) << " "
            << format_double(entry->histogram->sum()) << "\n";
        out << labeled(entry->name + "_count", entry->labels) << " "
            << entry->histogram->count() << "\n";
        break;
      }
    }
  }
  return out.str();
}

}  // namespace seghdc::obs
