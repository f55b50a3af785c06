#include "src/core/kmeans.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/obs/trace.hpp"
#include "src/util/contracts.hpp"
#include "src/util/parallel.hpp"

namespace seghdc::core {

namespace {

/// Assignment work of a block of points. Each block tallies privately
/// and folds into the run's total once; integer sums commute, so the
/// totals are identical at every pool size.
struct AssignTally {
  std::uint64_t changed = 0;       ///< points whose cluster changed
  std::uint64_t evals = 0;         ///< distance_evals
  std::uint64_t kernel_evals = 0;  ///< evals whose full dot/scan ran
  std::uint64_t pruned = 0;        ///< candidates_pruned
  std::uint64_t words = 0;         ///< words_scanned

  AssignTally& operator+=(const AssignTally& other) {
    changed += other.changed;
    evals += other.evals;
    kernel_evals += other.kernel_evals;
    pruned += other.pruned;
    words += other.words;
    return *this;
  }
};

/// Runs body(i, tally) for every point in [0, n) on `pool`, in blocks of
/// 64 points, and returns the summed tallies.
template <typename Body>
AssignTally for_each_point(util::ThreadPool& pool, std::size_t n,
                           const Body& body) {
  constexpr std::size_t kBlock = 64;
  AssignTally total;
  std::mutex mutex;
  pool.parallel_for(0, (n + kBlock - 1) / kBlock, [&](std::size_t block) {
    AssignTally local;
    const std::size_t end = std::min(n, (block + 1) * kBlock);
    for (std::size_t i = block * kBlock; i < end; ++i) {
      body(i, local);
    }
    const std::lock_guard<std::mutex> lock(mutex);
    total += local;
  });
  return total;
}

// --- Exact triangle-inequality bounds for the cosine assignment (Elkan,
// ICML 2003), in chord units: for unit directions x^ and c^,
// |x^ - c^| = sqrt(2 * cosine distance), a metric, so the triangle
// inequality moves every bound by at most its centroid's drift
// |c^_old - c^_new| between two snapshots.
//
// Error budget (u = 2^-53). The shared cosine expression
// 1 - dot / (|x| |c|) takes an exact integer dot and norms that are
// correctly rounded square roots of exact integers, so
// q = dot / (|x| |c|), a real number in [0, 1], carries <= 6u relative
// error and the computed distance is within 7u ~ 7.8e-16 of the real
// one. |sqrt(2a) - sqrt(2b)| <= sqrt(2 |a - b|), so a chord taken from a
// computed distance is within sqrt(1.6e-15) ~ 4e-8 of the real chord
// (the worst case is near zero distance), which kChordSlack covers. The
// drift is computed from the exact integer dot D and sums of squares
// S1, S2 of the two count vectors (128-bit sums: S passes 2^63 once a
// centroid of dimension 10,000 holds ~5e7 pixels) as
// 1 - cos = (S1 S2 - D^2) / (sqrt(S1 S2) (sqrt(S1 S2) + D)): the
// numerator is an exact 128-bit integer, so nothing cancels and the
// chord carries <= 6u relative error (<= 1.4e-15 absolute for a chord
// <= 2). When S1 S2 does not fit in 128 bits the drift is the trivial
// over-estimate 2 + kDriftSlack: that centroid skips no point for an
// iteration, and the labels stay exact. kDriftSlack covers the rounding
// above plus the rounding of the bound updates
// u += drift and l -= drift (<= 3.6e-15 each while the bounds stay below
// 32 in magnitude, which a few dozen drifts <= 2 cannot exceed). Every
// bound is therefore a true real-number bound.
//
// A point keeps its cluster a without a distance only when every other
// centroid's lower bound exceeds its upper bound by kChordMargin. The
// real chords then differ by more than m = 1e-6 (less the ~4e-16
// rounding of the test itself), so the real distances differ by more
// than (chord_c^2 - chord_a^2) / 2 > m^2 / 2 = 5e-13, and the computed
// ones, each within 7.8e-16 of the real value, keep the strict order:
// the exhaustive argmin picks a, whatever its lowest-index tie rule.
// Exact ties and near-ties never pass the test, so they are always
// evaluated. The same test drops single candidates from a partial scan.
// The test reads one bound per centroid, so the filter pays at every K:
// it replaces a distance per skipped pair with a few double compares.
// ---
constexpr double kChordSlack = 1e-7;
constexpr double kChordMargin = 1e-6;
constexpr double kDriftSlack = 1e-12;
/// distance_to_own marker for a point skipped this iteration (every
/// computed cosine distance is >= -1e-15).
constexpr double kStaleDistance = -1.0;

double chord_of(double cosine_distance) {
  return std::sqrt(2.0 * std::max(cosine_distance, 0.0));
}

/// Over-estimate of |c^_before - c^_after| for two non-negative count
/// vectors with nonzero norms (see the error budget above); exactly 0
/// when the directions coincide.
double chord_drift(std::span<const std::int64_t> before,
                   std::span<const std::int64_t> after) {
  __extension__ using i128 = __int128;
  __extension__ using u128 = unsigned __int128;
  // Non-negative counts keep every partial sum below the full sums of
  // squares, which the accumulators hold exactly in 128 bits
  // (|D| <= max(S1, S2)).
  i128 dot = 0;
  i128 s1 = 0;
  i128 s2 = 0;
  for (std::size_t j = 0; j < before.size(); ++j) {
    dot += static_cast<i128>(before[j]) * after[j];
    s1 += static_cast<i128>(before[j]) * before[j];
    s2 += static_cast<i128>(after[j]) * after[j];
  }
  const auto u1 = static_cast<u128>(s1);
  const auto u2 = static_cast<u128>(s2);
  if (u2 != 0 && u1 > ~u128{0} / u2) {
    // S1 * S2 has no exact 128-bit form: two unit directions are at
    // most 2 apart.
    return 2.0 + kDriftSlack;
  }
  // Exact and >= 0 by Cauchy-Schwarz.
  const u128 gap = u1 * u2 - static_cast<u128>(dot) * static_cast<u128>(dot);
  if (gap == 0) {
    return 0.0;
  }
  const double root =
      std::sqrt(static_cast<double>(s1) * static_cast<double>(s2));
  const double one_minus_cos =
      static_cast<double>(gap) / (root * (root + static_cast<double>(dot)));
  return std::sqrt(2.0 * one_minus_cos) + kDriftSlack;
}

std::uint32_t weight_at(std::span<const std::uint32_t> weights,
                        std::size_t i) {
  return weights.empty() ? 1u : weights[i];
}

// --- Point models. The iteration skeleton (`cluster` below) reads the
// points only through one of these two classes, which share one shape:
//   count(), dim(), popcount(i);
//   add_to(accumulator, i, weight): one point into a dense centroid (the
//     seeds and the reseed patches);
//   Snapshot, snapshot_cosine / snapshot_majority(centroid, snapshot):
//     one centroid's per-iteration table, then dot(snapshot, i) and
//     hamming(snapshot, i), exact integers, and reads(snapshot): the
//     entries one such distance reads (OpCounts::words_scanned);
//   Bank, make_bank(k), move(bank, c, in, out, weights) and
//     merge(banks, centroids): one chunk's persistent partial centroids,
//     moved by the update step and merged in chunk order.
// The centroids themselves are dense hdc::Accumulators in both models,
// so seeding, the chord drift, the reseed and the result are shared. ---

/// Packed rows (an HvBlock): the model of the kRandom codebooks, of bit
/// errors, and the reference the coded model is tested against. A dot
/// streams plane_count() fused AND+popcount passes over the row
/// (kernels::CountPlanes), a Hamming distance one XOR+popcount pass, and
/// a bank applies the moved rows bit-sliced (hdc::StagedSum).
class DenseModel {
 public:
  explicit DenseModel(const hdc::HvBlock& points)
      : points_(points), backend_(hdc::simd::active_backend()) {
    // The distance kernels index centroid counts by set-bit position, so
    // a stray bit above dim would read out of bounds; enforce the
    // padding invariant once up front (one word test per row).
    if (points.dim() % 64 != 0) {
      for (std::size_t i = 0; i < points.count(); ++i) {
        util::expects(
            hdc::kernels::padding_is_zero(points.row(i), points.dim()),
            "HvKMeans::run block rows must have zero padding bits");
      }
    }
  }

  std::size_t count() const { return points_.count(); }
  std::size_t dim() const { return points_.dim(); }
  std::uint64_t popcount(std::size_t i) const { return points_.popcount(i); }
  void add_to(hdc::Accumulator& centroid, std::size_t i,
              std::uint32_t weight) const {
    centroid.add(points_.row(i), weight);
  }

  struct Snapshot {
    hdc::kernels::CountPlanes planes;  ///< cosine
    hdc::HyperVector majority;         ///< Hamming
    std::size_t passes = 0;            ///< row passes per distance
  };
  void snapshot_cosine(const hdc::Accumulator& centroid,
                       Snapshot& snapshot) const {
    centroid.snapshot_planes(snapshot.planes);
    snapshot.passes = snapshot.planes.plane_count();
  }
  void snapshot_majority(const hdc::Accumulator& centroid,
                         Snapshot& snapshot) const {
    snapshot.majority = centroid.to_majority();
    snapshot.passes = 1;
  }
  std::int64_t dot(const Snapshot& snapshot, std::size_t i) const {
    return hdc::kernels::dot_planes(snapshot.planes, points_.row(i),
                                    backend_);
  }
  std::size_t hamming(const Snapshot& snapshot, std::size_t i) const {
    return backend_.hamming(snapshot.majority.words(), points_.row(i));
  }
  /// Words one distance streams: a pass per cosine plane, or one
  /// Hamming pass.
  std::uint64_t reads(const Snapshot& snapshot) const {
    return snapshot.passes * points_.words_per_hv();
  }

  /// k partial centroids and the StagedSum one update stages into,
  /// reused cluster after cluster so its planes do not grow with k.
  struct Bank {
    std::vector<hdc::Accumulator> centroids;
    hdc::StagedSum staged;
  };
  Bank make_bank(std::size_t k) const {
    return Bank{std::vector<hdc::Accumulator>(k, hdc::Accumulator(dim())),
                hdc::StagedSum(dim())};
  }
  /// Stages cluster c's moved-in rows and then its moved-out rows
  /// bit-sliced and applies the exact integer delta to the bank once.
  void move(Bank& bank, std::size_t c, std::span<const std::uint32_t> in,
            std::span<const std::uint32_t> out,
            std::span<const std::uint32_t> weights) const {
    for (const std::uint32_t i : in) {
      bank.staged.add(points_.row(i), weight_at(weights, i));
    }
    for (const std::uint32_t i : out) {
      bank.staged.sub(points_.row(i), weight_at(weights, i));
    }
    bank.centroids[c].apply(bank.staged);
  }
  void merge(std::span<const Bank> banks,
             std::vector<hdc::Accumulator>& centroids) const {
    for (std::size_t c = 0; c < centroids.size(); ++c) {
      centroids[c] = banks[0].centroids[c];
      for (std::size_t chunk = 1; chunk < banks.size(); ++chunk) {
        centroids[c].merge(banks[chunk].centroids[c]);
      }
    }
  }

 private:
  const hdc::HvBlock& points_;
  const hdc::simd::KernelBackend& backend_;
};

/// Interval-coded points (hdc::CodedPoints): point i is B XOR the runs
/// [e_2k, e_2k+1) of its sorted endpoints. Everything linear in a
/// point's bits is a sum over its runs of differences of a prefix table
/// over the dimension, so each distance, popcount and bank move costs
/// O(endpoints), and each snapshot one O(d) pass per cluster:
///   popcount(x) = popcount(B) + sum (R[e_2k+1] - R[e_2k]),
///     R[t] = sum_{j<t} (1 - 2 B_j);
///   dot(c, x) = dot_B + sum (Q[e_2k+1] - Q[e_2k]),
///     Q[t] = sum_{j<t} c_j (1 - 2 B_j), dot_B = sum_j B_j c_j;
///   hamming(M, x) = popcount(X) + sum (S[e_2k+1] - S[e_2k]), X = M ^ B,
///     S[t] = sum_{j<t} (1 - 2 X_j).
/// A bank keeps, per cluster, a difference array over F_j, the weight
/// of its members whose runs cover bit j, so a moved point changes only
/// the entries at its endpoints; the merge prefix-sums it into the
/// counts c_j = B_j ? W - F_j : F_j. Every value is an exact integer, so
/// the dots, norms and centroids equal the dense model's bit for bit.
class CodedModel {
 public:
  explicit CodedModel(const hdc::CodedPoints& points)
      : points_(points),
        base_bits_(points.dim()),
        base_prefix_(points.dim() + 1, 0) {
    // An endpoint past dim would index past the prefix tables.
    util::expects(points.well_formed(),
                  "HvKMeans::run coded points need sorted endpoints "
                  "within the dimension");
    const auto base = points.base().words();
    for (std::size_t j = 0; j < dim(); ++j) {
      base_bits_[j] = static_cast<std::uint8_t>((base[j / 64] >> (j % 64)) & 1);
      base_prefix_[j + 1] = base_prefix_[j] + 1 - 2 * base_bits_[j];
    }
    base_popcount_ = points.base().popcount();
  }

  std::size_t count() const { return points_.count(); }
  std::size_t dim() const { return points_.dim(); }
  std::uint64_t popcount(std::size_t i) const {
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(base_popcount_) +
        run_sum(base_prefix_.data(), i));
  }
  void add_to(hdc::Accumulator& centroid, std::size_t i,
              std::uint32_t weight) const {
    centroid.add(points_.to_hypervector(i), weight);
  }

  struct Snapshot {
    std::vector<std::int64_t> prefix;  ///< Q (cosine) or S (Hamming)
    std::int64_t at_base = 0;          ///< dot_B or popcount(X)
  };
  void snapshot_cosine(const hdc::Accumulator& centroid,
                       Snapshot& snapshot) const {
    const auto counts = centroid.counts();
    snapshot.prefix.resize(dim() + 1);
    std::int64_t running = 0;
    std::int64_t at_base = 0;
    snapshot.prefix[0] = 0;
    for (std::size_t j = 0; j < dim(); ++j) {
      const std::int64_t c = counts[j];
      at_base += base_bits_[j] != 0 ? c : 0;
      running += base_bits_[j] != 0 ? -c : c;
      snapshot.prefix[j + 1] = running;
    }
    snapshot.at_base = at_base;
  }
  void snapshot_majority(const hdc::Accumulator& centroid,
                         Snapshot& snapshot) const {
    const auto majority = centroid.to_majority();
    const auto bits = majority.words();
    snapshot.prefix.resize(dim() + 1);
    std::int64_t running = 0;
    std::int64_t at_base = 0;
    snapshot.prefix[0] = 0;
    for (std::size_t j = 0; j < dim(); ++j) {
      const int x =
          static_cast<int>((bits[j / 64] >> (j % 64)) & 1) ^ base_bits_[j];
      at_base += x;
      running += 1 - 2 * x;
      snapshot.prefix[j + 1] = running;
    }
    snapshot.at_base = at_base;
  }
  std::int64_t dot(const Snapshot& snapshot, std::size_t i) const {
    return snapshot.at_base + run_sum(snapshot.prefix.data(), i);
  }
  std::size_t hamming(const Snapshot& snapshot, std::size_t i) const {
    return static_cast<std::size_t>(dot(snapshot, i));
  }
  /// Prefix entries one distance reads: one per endpoint.
  std::uint64_t reads(const Snapshot& /*snapshot*/) const {
    return points_.stride();
  }

  /// Per cluster, the difference array of F (dim + 1 entries, an
  /// endpoint may be dim) and the total weight.
  struct Bank {
    std::vector<std::vector<std::int64_t>> diff;
    std::vector<std::uint64_t> weight;
  };
  Bank make_bank(std::size_t k) const {
    return Bank{std::vector<std::vector<std::int64_t>>(
                    k, std::vector<std::int64_t>(dim() + 1, 0)),
                std::vector<std::uint64_t>(k, 0)};
  }
  void move(Bank& bank, std::size_t c, std::span<const std::uint32_t> in,
            std::span<const std::uint32_t> out,
            std::span<const std::uint32_t> weights) const {
    auto& diff = bank.diff[c];
    const auto stage = [&](std::uint32_t i, std::int64_t w) {
      const auto ends = points_.endpoints(i);
      for (std::size_t k = 0; k < ends.size(); k += 2) {
        diff[ends[k]] += w;
        diff[ends[k + 1]] -= w;
      }
    };
    for (const std::uint32_t i : in) {
      const std::uint32_t w = weight_at(weights, i);
      stage(i, w);
      bank.weight[c] += w;
    }
    for (const std::uint32_t i : out) {
      const std::uint32_t w = weight_at(weights, i);
      stage(i, -static_cast<std::int64_t>(w));
      bank.weight[c] -= w;
    }
  }
  void merge(std::span<const Bank> banks,
             std::vector<hdc::Accumulator>& centroids) const {
    std::vector<std::int64_t> diff(dim() + 1);
    std::vector<std::int64_t> counts(dim());
    for (std::size_t c = 0; c < centroids.size(); ++c) {
      std::ranges::copy(banks[0].diff[c], diff.begin());
      std::uint64_t weight = banks[0].weight[c];
      for (std::size_t chunk = 1; chunk < banks.size(); ++chunk) {
        const auto& other = banks[chunk].diff[c];
        for (std::size_t j = 0; j <= dim(); ++j) {
          diff[j] += other[j];
        }
        weight += banks[chunk].weight[c];
      }
      const auto total = static_cast<std::int64_t>(weight);
      std::int64_t covered = 0;  // F_j
      for (std::size_t j = 0; j < dim(); ++j) {
        covered += diff[j];
        counts[j] = base_bits_[j] != 0 ? total - covered : covered;
      }
      centroids[c].assign(counts, weight);
    }
  }

 private:
  /// Sum over point i's runs of prefix[end] - prefix[begin].
  std::int64_t run_sum(const std::int64_t* prefix, std::size_t i) const {
    const auto ends = points_.endpoints(i);
    std::int64_t sum = 0;
    for (std::size_t k = 0; k < ends.size(); k += 2) {
      sum += prefix[ends[k + 1]] - prefix[ends[k]];
    }
    return sum;
  }

  const hdc::CodedPoints& points_;
  std::vector<std::uint8_t> base_bits_;    ///< B_j
  std::vector<std::int64_t> base_prefix_;  ///< R
  std::size_t base_popcount_ = 0;
};

/// The one K-Means iteration loop, over either point model: snapshot,
/// assignment (behind the bound filter when it runs), update, reseed,
/// convergence. Exactly one of `seed_points` (indices into the points)
/// and `seed_centroids` (binary HVs) is non-empty; each seed enters its
/// centroid with weight 1.
template <typename Model>
HvKMeansResult cluster(const Model& points, const HvKMeansConfig& config,
                       AssignMode assign_mode,
                       std::span<const std::uint32_t> weights,
                       std::span<const std::size_t> seed_points,
                       std::span<const hdc::HyperVector> seed_centroids) {
  util::expects(points.count() != 0, "HvKMeans::run needs at least one point");
  util::expects(points.count() >= config.clusters,
                "HvKMeans::run needs at least as many points as clusters");
  util::expects(weights.empty() || weights.size() == points.count(),
                "HvKMeans::run weights must be empty or match points");
  util::expects(points.count() <= std::numeric_limits<std::uint32_t>::max(),
                "HvKMeans::run supports at most 2^32 - 1 points");

  const std::size_t n = points.count();
  const std::size_t dim = points.dim();
  const std::size_t k = config.clusters;
  util::ThreadPool& pool =
      config.pool != nullptr ? *config.pool : util::ThreadPool::shared();

  HvKMeansResult result;
  result.assignment.assign(n, 0);
  result.centroids.assign(k, hdc::Accumulator(dim));
  result.cluster_weights.assign(k, 0);

  // Initial centroids: a seed defines a direction, not a mass.
  for (std::size_t c = 0; c < k; ++c) {
    if (seed_centroids.empty()) {
      util::expects(seed_points[c] < n, "HvKMeans seed index in range");
      points.add_to(result.centroids[c], seed_points[c], 1);
    } else {
      result.centroids[c].add(seed_centroids[c], 1);
    }
  }

  // Cached per-point cosine norms: sqrt(popcount).
  std::vector<double> point_norm(n);
  pool.parallel_for(
      0, n,
      [&](std::size_t i) {
        point_norm[i] = std::sqrt(static_cast<double>(points.popcount(i)));
      },
      /*grain=*/256);
  result.ops.popcount_bits += static_cast<std::uint64_t>(n) * dim;

  // kAuto puts the exact chord-bound filter in front of the exhaustive
  // cosine scan at every K; the Hamming ablation always scans
  // exhaustively.
  const bool hamming = config.distance == ClusterDistance::kHamming;
  const bool bounded_assign = assign_mode == AssignMode::kAuto && !hamming;

  // Update-step state: one bank of k partial centroids per chunk of
  // points. Banks persist across iterations, each the exact integer sum
  // of its contiguous slice of points under `bank_assignment`
  // (kNotAdded before iteration 0), so chunks update without any shared
  // mutable state and the merge walks them in fixed order. Chunk count
  // depends only on the pool, not on the data.
  constexpr auto kNotAdded = std::numeric_limits<std::uint32_t>::max();
  const std::size_t update_chunks =
      util::SerialScope::active()
          ? 1
          : std::min<std::size_t>({n, pool.thread_count(), 16});
  std::vector<typename Model::Bank> banks;
  banks.reserve(update_chunks);
  for (std::size_t chunk = 0; chunk < update_chunks; ++chunk) {
    banks.push_back(points.make_bank(k));
  }
  std::vector<std::uint32_t> bank_assignment(n, kNotAdded);
  // Per chunk, its moved points bucketed by destination (`in`) and by
  // source (`out`) cluster, bucket c being [in_start[c], in_start[c + 1])
  // of `in`.
  struct ChunkMoves {
    std::vector<std::uint32_t> in;
    std::vector<std::uint32_t> out;
    std::vector<std::size_t> in_start;
    std::vector<std::size_t> out_start;
  };
  std::vector<ChunkMoves> chunk_moves(update_chunks);

  std::vector<double> distance_to_own(n, 0.0);
  // Per-iteration snapshots of the centroid state (the model's distance
  // tables), so the parallel assignment reads plain arrays instead of
  // calling into Accumulator per (point, centroid) pair.
  std::vector<typename Model::Snapshot> snapshots(k);
  std::vector<double> centroid_norm(k);

  // Bound-filter state, allocated only when it runs: per point an upper
  // bound on the chord to its own centroid followed by a lower bound per
  // centroid (k + 1 doubles), and the previous snapshot's counts, which
  // the per-centroid drift is measured against. `bounds_valid` says the
  // bounds are true bounds for the previous snapshot: false at iteration
  // 0, after a reseed (which moves a point without its bounds), and after
  // a snapshot with a zero-norm centroid (whose 1.0 shortcut is no chord).
  const std::size_t bound_stride = k + 1;
  std::vector<double> bounds(bounded_assign ? n * bound_stride : 0);
  std::vector<std::vector<std::int64_t>> previous_counts(
      bounded_assign ? k : 0, std::vector<std::int64_t>(dim));
  std::vector<double> drift(bounded_assign ? k : 0);
  bool bounds_valid = false;

  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    obs::SpanScope iter_span("kmeans_iter", "core", "iter", iter);
    // Points may skip this iteration's distances only if the bounds are
    // valid and every centroid has a direction to drift along.
    bool skip_allowed = false;
    {
      const obs::SpanScope snapshot_span("centroid_snapshot", "core");
      for (std::size_t c = 0; c < k; ++c) {
        if (hamming) {
          points.snapshot_majority(result.centroids[c], snapshots[c]);
        } else {
          points.snapshot_cosine(result.centroids[c], snapshots[c]);
        }
        centroid_norm[c] = result.centroids[c].norm();
      }
      if (bounded_assign) {
        const bool directed = std::ranges::none_of(
            centroid_norm, [](double norm) { return norm == 0.0; });
        skip_allowed = bounds_valid && directed;
        for (std::size_t c = 0; c < k; ++c) {
          const auto counts = result.centroids[c].counts();
          if (skip_allowed) {
            drift[c] = chord_drift(previous_counts[c], counts);
          }
          std::ranges::copy(counts, previous_counts[c].begin());
        }
        bounds_valid = directed;
      }
    }
    // The cosine distance of one (point, centroid) pair: the zero-norm
    // shortcut, else the shared float expression over the exact dot.
    const auto cosine_to = [&](std::size_t c, std::size_t i,
                               AssignTally& t) {
      ++t.evals;
      const double cn = centroid_norm[c];
      const double pn = point_norm[i];
      if (cn == 0.0 || pn == 0.0) {
        return 1.0;
      }
      ++t.kernel_evals;
      t.words += points.reads(snapshots[c]);
      return hdc::kernels::cosine_distance_from_dot(
          points.dot(snapshots[c], i), cn, pn);
    };
    // --- Assignment step (data parallel over points). The distance-mode
    // and assign-mode branches are hoisted out of the inner loops: each
    // iteration selects one of three loop bodies (exhaustive Hamming,
    // exhaustive cosine, and the bound-filtered cosine) up front. The
    // filtered body produces the exhaustive assignment bit for bit — it
    // only skips candidates it can PROVE lose the argmin, index
    // tie-break included. Every body counts the distances it actually
    // ran. ---
    AssignTally tally;
    {
      obs::SpanScope assign_span("kmeans_assign", "core", "iter", iter);
      const auto commit = [&](std::size_t i, std::uint32_t best_cluster,
                              double best, AssignTally& t) {
        if (result.assignment[i] != best_cluster) {
          ++t.changed;
          result.assignment[i] = best_cluster;
        }
        distance_to_own[i] = best;
      };
      if (hamming) {
        tally = for_each_point(pool, n, [&](std::size_t i, AssignTally& t) {
          std::size_t best = std::numeric_limits<std::size_t>::max();
          std::uint32_t best_cluster = 0;
          for (std::size_t c = 0; c < k; ++c) {
            const std::size_t dist = points.hamming(snapshots[c], i);
            if (dist < best) {
              best = dist;
              best_cluster = static_cast<std::uint32_t>(c);
            }
            t.words += points.reads(snapshots[c]);
          }
          t.evals += k;
          t.kernel_evals += k;
          commit(i, best_cluster, static_cast<double>(best), t);
        });
      } else if (bounded_assign) {
        tally = for_each_point(pool, n, [&](std::size_t i, AssignTally& t) {
          double& upper = bounds[i * bound_stride];
          double* const lower = &upper + 1;
          const std::uint32_t own = result.assignment[i];
          const bool filter = skip_allowed && point_norm[i] != 0.0;
          // Candidate c cannot beat the own centroid (see the error
          // budget at the top of this file).
          const auto beaten = [&](std::size_t c) {
            return upper + kChordMargin < lower[c];
          };
          const auto all_beaten = [&] {
            for (std::size_t c = 0; c < k; ++c) {
              if (c != own && !beaten(c)) {
                return false;
              }
            }
            return true;
          };
          double own_distance = 0.0;
          if (filter) {
            upper += drift[own];
            for (std::size_t c = 0; c < k; ++c) {
              lower[c] -= drift[c];
            }
            if (all_beaten()) {
              // Nearest centroid unchanged, nothing computed: the
              // reseed refreshes the stale distance if it needs it.
              t.pruned += k;
              distance_to_own[i] = kStaleDistance;
              return;
            }
            own_distance = cosine_to(own, i, t);
            upper = chord_of(own_distance) + kChordSlack;
          }
          // The exhaustive scan (index order, strict <) over the
          // candidates the bounds leave open, own distance reused.
          double best = std::numeric_limits<double>::infinity();
          std::uint32_t best_cluster = 0;
          for (std::size_t c = 0; c < k; ++c) {
            double dist = own_distance;
            if (!filter || c != own) {
              if (filter && beaten(c)) {
                ++t.pruned;
                continue;
              }
              dist = cosine_to(c, i, t);
            }
            lower[c] = chord_of(dist) - kChordSlack;
            if (dist < best) {
              best = dist;
              best_cluster = static_cast<std::uint32_t>(c);
            }
          }
          upper = chord_of(best) + kChordSlack;
          commit(i, best_cluster, best, t);
        });
      } else {
        tally = for_each_point(pool, n, [&](std::size_t i, AssignTally& t) {
          double best = std::numeric_limits<double>::infinity();
          std::uint32_t best_cluster = 0;
          for (std::size_t c = 0; c < k; ++c) {
            const double dist = cosine_to(c, i, t);
            if (dist < best) {
              best = dist;
              best_cluster = static_cast<std::uint32_t>(c);
            }
          }
          commit(i, best_cluster, best, t);
        });
      }
      result.ops.distance_evals += tally.evals;
      result.ops.candidates_pruned += tally.pruned;
      result.ops.dot_adds += tally.kernel_evals * dim;
      result.ops.words_scanned += tally.words;
      assign_span.arg("evaluated", tally.evals);
      assign_span.arg("pruned", tally.pruned);
      assign_span.arg("pruned_pct", tally.pruned * 100 /
                                        (static_cast<std::uint64_t>(n) * k));
    }

    // --- Update step: move only the points whose assignment differs
    // from the one their chunk's bank holds them under (iteration 0
    // moves every point in). Each chunk buckets its moves by destination
    // and by source cluster and hands each cluster's buckets to the
    // model's bank; then the banks merge into the centroids in chunk
    // order. Integer sums commute exactly, so the centroids (and every
    // label derived from them) equal a from-scratch re-sum of the
    // assignment, bit for bit, at any thread count. ---
    std::atomic<std::uint64_t> moved{0};
    {
      obs::SpanScope update_span("kmeans_update", "core");
      pool.parallel_for(
          0, update_chunks,
          [&](std::size_t chunk) {
            auto& moves = chunk_moves[chunk];
            const std::size_t lo = chunk * n / update_chunks;
            const std::size_t hi = (chunk + 1) * n / update_chunks;
            // Counting sort: count each bucket, take the running sums as
            // bucket ends, then fill from the back so every bucket keeps
            // index order and its end moves down to its start.
            moves.in_start.assign(k + 1, 0);
            moves.out_start.assign(k + 1, 0);
            for (std::size_t i = lo; i < hi; ++i) {
              const std::uint32_t from = bank_assignment[i];
              const std::uint32_t to = result.assignment[i];
              if (from != to) {
                ++moves.in_start[to];
                if (from != kNotAdded) {
                  ++moves.out_start[from];
                }
              }
            }
            std::partial_sum(moves.in_start.begin(), moves.in_start.end(),
                             moves.in_start.begin());
            std::partial_sum(moves.out_start.begin(), moves.out_start.end(),
                             moves.out_start.begin());
            moves.in.resize(moves.in_start[k]);
            moves.out.resize(moves.out_start[k]);
            for (std::size_t i = hi; i-- > lo;) {
              const std::uint32_t from = bank_assignment[i];
              const std::uint32_t to = result.assignment[i];
              if (from != to) {
                const auto point = static_cast<std::uint32_t>(i);
                moves.in[--moves.in_start[to]] = point;
                if (from != kNotAdded) {
                  moves.out[--moves.out_start[from]] = point;
                }
                bank_assignment[i] = to;
              }
            }
            for (std::size_t c = 0; c < k; ++c) {
              const auto in = std::span(moves.in).subspan(
                  moves.in_start[c], moves.in_start[c + 1] - moves.in_start[c]);
              const auto out = std::span(moves.out).subspan(
                  moves.out_start[c],
                  moves.out_start[c + 1] - moves.out_start[c]);
              if (!in.empty() || !out.empty()) {
                points.move(banks[chunk], c, in, out, weights);
              }
            }
            moved.fetch_add(moves.in.size(), std::memory_order_relaxed);
          },
          /*grain=*/1);
      points.merge(banks, result.centroids);
      for (std::size_t c = 0; c < k; ++c) {
        result.cluster_weights[c] = result.centroids[c].total_weight();
      }
      // Iteration 0 adds every point; each later move is a sub and an
      // add, dim elements apiece.
      const std::uint64_t adds = moved.load() * dim * (iter == 0 ? 1 : 2);
      result.ops.centroid_update_adds += adds;
      update_span.arg("moved", moved.load());
      update_span.arg("adds", adds);
    }
    iter_span.arg("moved", moved.load());
    result.moved_per_iteration.push_back(moved.load());

    // --- Empty-cluster repair: reseed with the point farthest from its
    // own centroid (deterministic: highest distance, lowest index). ---
    const std::size_t reseeds_before = result.reseeds;
    if (bounded_assign &&
        std::ranges::find(result.cluster_weights, std::uint64_t{0}) !=
            result.cluster_weights.end()) {
      // The farthest-point pick reads exact distances: recompute the
      // ones the bound filter skipped, against this iteration's snapshot.
      const AssignTally refreshed =
          for_each_point(pool, n, [&](std::size_t i, AssignTally& t) {
            if (distance_to_own[i] == kStaleDistance) {
              distance_to_own[i] = cosine_to(result.assignment[i], i, t);
            }
          });
      result.ops.dot_adds += refreshed.kernel_evals * dim;
      result.ops.words_scanned += refreshed.words;
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (result.cluster_weights[c] != 0) {
        continue;
      }
      std::size_t farthest = 0;
      double farthest_distance = -1.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (result.cluster_weights[result.assignment[i]] >
                weight_at(weights, i) &&
            distance_to_own[i] > farthest_distance) {
          farthest_distance = distance_to_own[i];
          farthest = i;
        }
      }
      const std::uint32_t old_cluster = result.assignment[farthest];
      const std::uint32_t w = weight_at(weights, farthest);
      result.assignment[farthest] = static_cast<std::uint32_t>(c);
      // Move the point's mass between clusters. Only the destination
      // centroid is patched, because the next assignment reads it. The
      // banks still hold the point under its old cluster, so the next
      // update moves it like any other point and its merge overwrites
      // the patch with the exact sums.
      points.add_to(result.centroids[c], farthest, w);
      result.cluster_weights[c] += w;
      result.cluster_weights[old_cluster] -= w;
      ++result.reseeds;
    }
    if (result.reseeds != reseeds_before) {
      bounds_valid = false;
    }
    result.iterations_run = iter + 1;

    // Convergence: iteration 0 always "changes" every point relative to
    // the zero-initialised assignment, so only later iterations count;
    // a reseed also perturbs the state and voids the fixed point.
    if (config.stop_on_convergence && iter > 0 && tally.changed == 0 &&
        result.reseeds == reseeds_before) {
      result.converged = true;
      break;
    }
  }

  return result;
}

/// Per-point cosine margins against final centroids, through the model's
/// snapshot and dot: the same exact integers and float expression as the
/// assignment step.
template <typename Model>
std::vector<float> margins(const Model& points,
                           std::span<const hdc::Accumulator> centroids,
                           util::ThreadPool& pool) {
  const std::size_t k = centroids.size();
  std::vector<typename Model::Snapshot> snapshots(k);
  std::vector<double> centroid_norm(k);
  for (std::size_t c = 0; c < k; ++c) {
    points.snapshot_cosine(centroids[c], snapshots[c]);
    centroid_norm[c] = centroids[c].norm();
  }
  std::vector<float> margin(points.count(), 0.0F);
  pool.parallel_for(
      0, points.count(),
      [&](std::size_t i) {
        const double point_norm =
            std::sqrt(static_cast<double>(points.popcount(i)));
        double best = std::numeric_limits<double>::infinity();
        double second = std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < k; ++c) {
          const double d = hdc::kernels::cosine_distance_from_dot(
              points.dot(snapshots[c], i), centroid_norm[c], point_norm);
          if (d < best) {
            second = best;
            best = d;
          } else if (d < second) {
            second = d;
          }
        }
        margin[i] = static_cast<float>(second - best);
      },
      /*grain=*/64);
  return margin;
}

void expect_seed_centroids(std::span<const hdc::HyperVector> seed_centroids,
                           std::size_t clusters, std::size_t dim) {
  util::expects(seed_centroids.size() == clusters,
                "HvKMeans::run_from_centroids needs exactly `clusters` "
                "seed centroids");
  for (const auto& seed : seed_centroids) {
    util::expects(seed.dim() == dim,
                  "HvKMeans::run_from_centroids seed centroid dimension "
                  "must match the points");
  }
}

util::ThreadPool& pool_or_shared(util::ThreadPool* pool) {
  return pool != nullptr ? *pool : util::ThreadPool::shared();
}

}  // namespace

HvKMeans::HvKMeans(const HvKMeansConfig& config) : config_(config) {
  util::expects(config_.clusters >= 2 && config_.clusters <= 4096,
                "HvKMeans supports 2..4096 clusters");
  util::expects(config_.iterations >= 1,
                "HvKMeans needs at least one iteration");
  // Assignment-mode resolution order mirrors the other knobs (config >
  // environment > auto), with malformed overrides a hard error — a
  // forced CI assignment mode that silently fell back would make the
  // filter-vs-exhaustive matrix meaningless.
  resolved_assign_mode_ = config_.assign_mode;
  if (resolved_assign_mode_ == AssignMode::kAuto) {
    const char* env = std::getenv("SEGHDC_ASSIGN_MODE");
    if (env != nullptr && *env != '\0') {
      const std::string_view value(env);
      if (value == "exhaustive") {
        resolved_assign_mode_ = AssignMode::kExhaustive;
      } else if (value != "auto") {
        throw std::invalid_argument(
            std::string("SEGHDC_ASSIGN_MODE must be one of "
                        "auto|exhaustive, got '") +
            env + "'");
      }
    }
  }
}

HvKMeansResult HvKMeans::run(std::span<const hdc::HyperVector> points,
                             std::span<const std::uint32_t> weights,
                             std::span<const std::size_t> seed_points) const {
  // from_hvs validates uniform dimensions; the block overload validates
  // the rest (an empty span packs to an empty block, which it rejects).
  return run(hdc::HvBlock::from_hvs(points), weights, seed_points);
}

HvKMeansResult HvKMeans::run(const hdc::HvBlock& points,
                             std::span<const std::uint32_t> weights,
                             std::span<const std::size_t> seed_points) const {
  util::expects(seed_points.size() == config_.clusters,
                "HvKMeans::run needs exactly `clusters` seed points");
  return cluster(DenseModel(points), config_, resolved_assign_mode_, weights,
                 seed_points, {});
}

HvKMeansResult HvKMeans::run(const hdc::CodedPoints& points,
                             std::span<const std::uint32_t> weights,
                             std::span<const std::size_t> seed_points) const {
  util::expects(seed_points.size() == config_.clusters,
                "HvKMeans::run needs exactly `clusters` seed points");
  return cluster(CodedModel(points), config_, resolved_assign_mode_, weights,
                 seed_points, {});
}

HvKMeansResult HvKMeans::run_from_centroids(
    const hdc::HvBlock& points, std::span<const std::uint32_t> weights,
    std::span<const hdc::HyperVector> seed_centroids) const {
  expect_seed_centroids(seed_centroids, config_.clusters, points.dim());
  return cluster(DenseModel(points), config_, resolved_assign_mode_, weights,
                 {}, seed_centroids);
}

HvKMeansResult HvKMeans::run_from_centroids(
    const hdc::CodedPoints& points, std::span<const std::uint32_t> weights,
    std::span<const hdc::HyperVector> seed_centroids) const {
  expect_seed_centroids(seed_centroids, config_.clusters, points.dim());
  return cluster(CodedModel(points), config_, resolved_assign_mode_, weights,
                 {}, seed_centroids);
}

std::vector<float> cosine_margins(const hdc::HvBlock& points,
                                  std::span<const hdc::Accumulator> centroids,
                                  util::ThreadPool* pool) {
  return margins(DenseModel(points), centroids, pool_or_shared(pool));
}

std::vector<float> cosine_margins(const hdc::CodedPoints& points,
                                  std::span<const hdc::Accumulator> centroids,
                                  util::ThreadPool* pool) {
  return margins(CodedModel(points), centroids, pool_or_shared(pool));
}

std::vector<std::size_t> largest_color_difference_seeds(
    std::span<const std::uint8_t> intensities, std::size_t clusters) {
  util::expects(clusters >= 2, "need at least two clusters");
  util::expects(intensities.size() >= clusters,
                "need at least `clusters` points");

  std::vector<std::size_t> seeds;
  seeds.reserve(clusters);

  // The pair with the largest color difference: global min and max.
  std::size_t min_index = 0;
  std::size_t max_index = 0;
  for (std::size_t i = 1; i < intensities.size(); ++i) {
    if (intensities[i] < intensities[min_index]) {
      min_index = i;
    }
    if (intensities[i] > intensities[max_index]) {
      max_index = i;
    }
  }
  if (min_index == max_index) {
    // Degenerate flat image: fall back to distinct indices.
    for (std::size_t c = 0; c < clusters; ++c) {
      seeds.push_back(c);
    }
    return seeds;
  }
  seeds.push_back(max_index);
  seeds.push_back(min_index);

  // Remaining seeds: farthest-point sampling on intensity. gap[i] is
  // point i's smallest intensity gap to a chosen seed, or -1 once i is
  // chosen, so it is never picked again (when every unchosen gap is 0
  // the lowest unchosen index wins). Each pass folds the seeds chosen
  // since the last pass into gap and picks the next seed in the same
  // sweep, so K = 3 makes one pass and no pass follows the last seed.
  const auto level = [&](std::size_t i) {
    return static_cast<int>(intensities[i]);
  };
  std::vector<int> gap(clusters > 2 ? intensities.size() : 0,
                       std::numeric_limits<int>::max());
  std::size_t folded = 0;
  while (seeds.size() < clusters) {
    for (std::size_t s = folded; s < seeds.size(); ++s) {
      gap[seeds[s]] = -1;
    }
    std::size_t best_index = 0;
    int best_gap = -1;
    for (std::size_t i = 0; i < intensities.size(); ++i) {
      for (std::size_t s = folded; s < seeds.size(); ++s) {
        gap[i] = std::min(gap[i], std::abs(level(i) - level(seeds[s])));
      }
      if (gap[i] > best_gap) {
        best_gap = gap[i];
        best_index = i;
      }
    }
    folded = seeds.size();
    seeds.push_back(best_index);
  }
  return seeds;
}

}  // namespace seghdc::core
