// Pure, deterministic helpers of the benchmark: percentiles, the
// tail-percentile rule, the seeded open-loop arrival schedule and the
// balanced input picks. Everything here is covered by `perfbench --selftest`.
#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/util/rng.hpp"

namespace perfbench {

namespace util = seghdc::util;

/// Samples a tail percentile must leave beyond it.
inline constexpr std::size_t kTailMinBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 <= p < 100) among `n`
/// sorted samples.
inline std::size_t nearest_rank(double p, std::size_t n) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// The tail rule: the highest whole percentile whose nearest-rank sample
/// still has at least `min_beyond` samples above it. nullopt when `n` is
/// too small for any percentile to qualify. With fewer than
/// 2 * min_beyond samples the rule lands below the median, as it should:
/// the sample cannot support a higher percentile.
inline std::optional<int> tail_percentile(std::size_t n,
                                          std::size_t min_beyond = kTailMinBeyond) {
  for (int p = 99; p >= 0; --p) {
    if (n >= min_beyond + 1 && n - nearest_rank(p, n) >= min_beyond) {
      return p;
    }
  }
  return std::nullopt;
}

/// Nearest-rank percentile of `values` (copied and sorted); 0 when empty.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return values[nearest_rank(p, values.size()) - 1];
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// A value at the tail rule's percentile, plus the rule's outcome.
struct Tail {
  double value = 0.0;
  int percentile = 100;  ///< 100 = the maximum (too few samples for the rule)
  std::size_t samples = 0;
};

inline Tail tail_of(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) {
    return tail;
  }
  const auto p = tail_percentile(values.size());
  tail.percentile = p.value_or(100);
  tail.value = p ? percentile(values, *p)
                 : *std::max_element(values.begin(), values.end());
  return tail;
}

/// SplitMix64 finaliser: derives independent sub-seeds from the workload
/// seed (one per generator, schedule and stream).
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Send times (seconds from the phase start) of `count` requests at
/// `rate` req/s: Poisson arrivals with exactly `count` of them in
/// [0, count / rate). The exponential gaps are stratified: gap i sits at
/// the exponential's (i + 0.5) / (count + 1) quantile, and the seed
/// shuffles their order. Every run then offers the same gap distribution
/// (the share of arrivals close enough to queue behind another), while
/// the arrival pattern varies with the seed; with independent draws that
/// share, and with it the median latency, moved by ~10% between seeds at
/// 4 req/s and 96 requests. The gaps are normalised so the window is exact.
inline std::vector<double> poisson_schedule(std::size_t count, double rate,
                                            std::uint64_t seed) {
  std::vector<double> due(count);
  if (count == 0) {
    return due;
  }
  util::Rng rng(seed);
  std::vector<double> gaps(count + 1);
  double total = 0.0;
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(gaps.size());
    gaps[i] = -std::log(1.0 - q);
    total += gaps[i];
  }
  for (std::size_t i = gaps.size(); i > 1; --i) {
    std::swap(gaps[i - 1], gaps[rng.next_below(i)]);
  }
  const double window = static_cast<double>(count) / rate;
  double t = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    t += gaps[k];
    due[k] = window * t / total;
  }
  return due;
}

/// `count` picks from [0, n): consecutive passes over fresh seeded
/// permutations of all n, so every index is picked equally often (to
/// within one) and a phase times the same mix of inputs on every run;
/// only the order varies with the seed.
inline std::vector<std::size_t> balanced_picks(std::size_t count, std::size_t n,
                                               std::uint64_t seed) {
  std::vector<std::size_t> picks;
  if (n == 0) {
    return picks;
  }
  picks.reserve(count);
  util::Rng rng(seed);
  std::vector<std::size_t> pass(n);
  while (picks.size() < count) {
    for (std::size_t i = 0; i < n; ++i) {
      pass[i] = i;
    }
    for (std::size_t i = n; i > 1; --i) {
      std::swap(pass[i - 1], pass[rng.next_below(i)]);
    }
    for (std::size_t i = 0; i < n && picks.size() < count; ++i) {
      picks.push_back(pass[i]);
    }
  }
  return picks;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_HPP
