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
// it replaces a d-bit dot per skipped pair with a few double compares.
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
  return run_impl(points, weights,
                  [&](std::vector<hdc::Accumulator>& centroids) {
                    // Initial centroids: the seed points themselves
                    // (weight 1 — a seed defines a direction, not a
                    // mass).
                    for (std::size_t c = 0; c < centroids.size(); ++c) {
                      util::expects(seed_points[c] < points.count(),
                                    "HvKMeans seed index in range");
                      centroids[c].add(points.row(seed_points[c]), 1);
                    }
                  });
}

HvKMeansResult HvKMeans::run_from_centroids(
    const hdc::HvBlock& points, std::span<const std::uint32_t> weights,
    std::span<const hdc::HyperVector> seed_centroids) const {
  util::expects(seed_centroids.size() == config_.clusters,
                "HvKMeans::run_from_centroids needs exactly `clusters` "
                "seed centroids");
  for (const auto& seed : seed_centroids) {
    util::expects(seed.dim() == points.dim(),
                  "HvKMeans::run_from_centroids seed centroid dimension "
                  "must match the points");
  }
  return run_impl(points, weights,
                  [&](std::vector<hdc::Accumulator>& centroids) {
                    for (std::size_t c = 0; c < centroids.size(); ++c) {
                      centroids[c].add(seed_centroids[c], 1);
                    }
                  });
}

HvKMeansResult HvKMeans::run_impl(
    const hdc::HvBlock& points, std::span<const std::uint32_t> weights,
    const std::function<void(std::vector<hdc::Accumulator>&)>&
        init_centroids) const {
  util::expects(!points.empty(), "HvKMeans::run needs at least one point");
  util::expects(points.count() >= config_.clusters,
                "HvKMeans::run needs at least as many points as clusters");
  util::expects(weights.empty() || weights.size() == points.count(),
                "HvKMeans::run weights must be empty or match points");
  util::expects(points.count() <= std::numeric_limits<std::uint32_t>::max(),
                "HvKMeans::run supports at most 2^32 - 1 points");
  // The distance kernels index centroid counts by set-bit position, so a
  // stray bit above dim would read out of bounds; enforce the padding
  // invariant once up front (one word test per row).
  if (points.dim() % 64 != 0) {
    for (std::size_t i = 0; i < points.count(); ++i) {
      util::expects(hdc::kernels::padding_is_zero(points.row(i), points.dim()),
                    "HvKMeans::run block rows must have zero padding bits");
    }
  }

  const auto weight_of = [&](std::size_t i) -> std::uint32_t {
    return weights.empty() ? 1u : weights[i];
  };

  const std::size_t n = points.count();
  const std::size_t dim = points.dim();
  const std::size_t k = config_.clusters;
  util::ThreadPool& pool =
      config_.pool != nullptr ? *config_.pool : util::ThreadPool::shared();

  HvKMeansResult result;
  result.assignment.assign(n, 0);
  result.centroids.assign(k, hdc::Accumulator(dim));
  result.cluster_weights.assign(k, 0);

  init_centroids(result.centroids);

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
  const bool bounded_assign = resolved_assign_mode_ == AssignMode::kAuto &&
                              config_.distance == ClusterDistance::kCosine;
  // One backend resolve for the whole run; every distance scan below
  // goes through this vtable reference instead of re-dispatching per
  // (point, centroid) pair.
  const hdc::simd::KernelBackend& backend = hdc::simd::active_backend();
  const std::size_t wph = points.words_per_hv();

  // Update-step state: one bank of k accumulators per chunk of points.
  // Banks persist across iterations, each the exact integer sum of its
  // contiguous slice of points under `bank_assignment` (kNotAdded before
  // iteration 0), so chunks update without any shared mutable state and
  // the merge walks them in fixed order. Chunk count depends only on the
  // pool, not on the data.
  constexpr auto kNotAdded = std::numeric_limits<std::uint32_t>::max();
  const std::size_t update_chunks =
      util::SerialScope::active()
          ? 1
          : std::min<std::size_t>({n, pool.thread_count(), 16});
  std::vector<std::vector<hdc::Accumulator>> banks(
      update_chunks, std::vector<hdc::Accumulator>(k, hdc::Accumulator(dim)));
  std::vector<std::uint32_t> bank_assignment(n, kNotAdded);
  // Per chunk, what one update stages: a single StagedSum, reused
  // cluster after cluster, so its planes do not grow with k; and the
  // chunk's moved points bucketed by destination (`in`) and by source
  // (`out`) cluster, bucket c being [in_start[c], in_start[c + 1]) of
  // `in`.
  struct ChunkMoves {
    hdc::StagedSum staged;
    std::vector<std::uint32_t> in;
    std::vector<std::uint32_t> out;
    std::vector<std::size_t> in_start;
    std::vector<std::size_t> out_start;
  };
  std::vector<ChunkMoves> chunk_moves(update_chunks);
  for (auto& moves : chunk_moves) {
    moves.staged = hdc::StagedSum(dim);
  }

  std::vector<double> distance_to_own(n, 0.0);
  // Majority-binarized centroids for the Hamming variant; every row is
  // fully overwritten at the top of each iteration.
  hdc::HvBlock binary_centroids;
  if (config_.distance == ClusterDistance::kHamming) {
    binary_centroids = hdc::HvBlock(dim, k);
  }
  // Per-iteration snapshots of the centroid state, so the parallel
  // assignment reads plain arrays instead of calling into Accumulator
  // or re-resolving block rows per (point, centroid) pair. For cosine,
  // the snapshot is the bit-plane decomposition of each centroid
  // (kernels::CountPlanes): building it costs about one point's worth
  // of work per centroid and turns every subsequent dot into
  // plane_count() fused AND+popcount passes — the same bandwidth-bound
  // shape (and SIMD backends) as the Hamming kernel, with bit-identical
  // integer dots.
  std::vector<hdc::kernels::CountPlanes> centroid_planes(
      config_.distance == ClusterDistance::kCosine ? k : 0);
  std::vector<double> centroid_norm(k);
  std::vector<std::span<const std::uint64_t>> binary_centroid_rows(k);

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

  for (std::size_t iter = 0; iter < config_.iterations; ++iter) {
    obs::SpanScope iter_span("kmeans_iter", "core", "iter", iter);
    // Points may skip this iteration's distances only if the bounds are
    // valid and every centroid has a direction to drift along.
    bool skip_allowed = false;
    {
      const obs::SpanScope snapshot_span("centroid_snapshot", "core");
      if (config_.distance == ClusterDistance::kHamming) {
        for (std::size_t c = 0; c < k; ++c) {
          const auto majority = result.centroids[c].to_majority();
          const auto src = majority.words();
          const auto dst = binary_centroids.row(c);
          std::copy(src.begin(), src.end(), dst.begin());
          binary_centroid_rows[c] = dst;
        }
      } else {
        for (std::size_t c = 0; c < k; ++c) {
          result.centroids[c].snapshot_planes(centroid_planes[c]);
        }
      }
      for (std::size_t c = 0; c < k; ++c) {
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
    // shortcut of cosine_distance_planes, else the shared float
    // expression over the plane dot, with the backend hoisted.
    const auto cosine_to = [&](std::size_t c,
                               std::span<const std::uint64_t> point,
                               double pn, AssignTally& t) {
      ++t.evals;
      const double cn = centroid_norm[c];
      if (cn == 0.0 || pn == 0.0) {
        return 1.0;
      }
      ++t.kernel_evals;
      t.words += centroid_planes[c].plane_count() * wph;
      return hdc::kernels::cosine_distance_from_dot(
          hdc::kernels::dot_planes(centroid_planes[c], point, backend), cn,
          pn);
    };
    // --- Assignment step (data parallel over block rows; fused
    // word-span kernels, no per-point HyperVector temporaries). The
    // distance-mode and assign-mode branches are hoisted out of the
    // inner loops: each iteration selects one of three loop bodies
    // (exhaustive Hamming, exhaustive cosine, and the bound-filtered
    // cosine) up front. The filtered body produces the exhaustive
    // assignment bit for bit — it only skips candidates it can PROVE
    // lose the argmin, index tie-break included. Every body counts the
    // kernels it actually ran. ---
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
      if (config_.distance == ClusterDistance::kHamming) {
        tally = for_each_point(pool, n, [&](std::size_t i, AssignTally& t) {
          const auto point = points.row(i);
          std::size_t best = std::numeric_limits<std::size_t>::max();
          std::uint32_t best_cluster = 0;
          for (std::size_t c = 0; c < k; ++c) {
            const std::size_t dist =
                backend.hamming(binary_centroid_rows[c], point);
            if (dist < best) {
              best = dist;
              best_cluster = static_cast<std::uint32_t>(c);
            }
          }
          t.evals += k;
          t.kernel_evals += k;
          t.words += k * wph;
          commit(i, best_cluster, static_cast<double>(best), t);
        });
      } else if (bounded_assign) {
        tally = for_each_point(pool, n, [&](std::size_t i, AssignTally& t) {
          const auto point = points.row(i);
          const double pn = point_norm[i];
          double& upper = bounds[i * bound_stride];
          double* const lower = &upper + 1;
          const std::uint32_t own = result.assignment[i];
          const bool filter = skip_allowed && pn != 0.0;
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
            own_distance = cosine_to(own, point, pn, t);
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
              dist = cosine_to(c, point, pn, t);
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
          const auto point = points.row(i);
          const double pn = point_norm[i];
          double best = std::numeric_limits<double>::infinity();
          std::uint32_t best_cluster = 0;
          for (std::size_t c = 0; c < k; ++c) {
            const double dist = cosine_to(c, point, pn, t);
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
    // and by source cluster, stages a cluster's moved-in rows and then
    // its moved-out rows bit-sliced, and applies the exact integer delta
    // to the bank once; then the banks merge into the centroids in chunk
    // order. Integer sums commute exactly, so the centroids (and every
    // label derived from them) equal a from-scratch re-sum of the
    // assignment, bit for bit, at any thread count. ---
    std::atomic<std::uint64_t> moved{0};
    {
      obs::SpanScope update_span("kmeans_update", "core");
      pool.parallel_for(
          0, update_chunks,
          [&](std::size_t chunk) {
            auto& bank = banks[chunk];
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
              if (in.empty() && out.empty()) {
                continue;
              }
              for (const std::uint32_t i : in) {
                moves.staged.add(points.row(i), weight_of(i));
              }
              for (const std::uint32_t i : out) {
                moves.staged.sub(points.row(i), weight_of(i));
              }
              bank[c].apply(moves.staged);
            }
            moved.fetch_add(moves.in.size(), std::memory_order_relaxed);
          },
          /*grain=*/1);
      for (std::size_t c = 0; c < k; ++c) {
        result.centroids[c] = banks[0][c];
        for (std::size_t chunk = 1; chunk < update_chunks; ++chunk) {
          result.centroids[c].merge(banks[chunk][c]);
        }
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
              distance_to_own[i] = cosine_to(result.assignment[i],
                                             points.row(i), point_norm[i], t);
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
        if (result.cluster_weights[result.assignment[i]] > weight_of(i) &&
            distance_to_own[i] > farthest_distance) {
          farthest_distance = distance_to_own[i];
          farthest = i;
        }
      }
      const std::uint32_t old_cluster = result.assignment[farthest];
      result.assignment[farthest] = static_cast<std::uint32_t>(c);
      // Move the point's mass between clusters. Only the destination
      // centroid is patched, because the next assignment reads it. The
      // banks still hold the point under its old cluster, so the next
      // update moves it like any other point and its merge overwrites
      // the patch with the exact sums.
      result.centroids[c].add(points.row(farthest), weight_of(farthest));
      result.cluster_weights[c] += weight_of(farthest);
      result.cluster_weights[old_cluster] -= weight_of(farthest);
      ++result.reseeds;
    }
    if (result.reseeds != reseeds_before) {
      bounds_valid = false;
    }
    result.iterations_run = iter + 1;

    // Convergence: iteration 0 always "changes" every point relative to
    // the zero-initialised assignment, so only later iterations count;
    // a reseed also perturbs the state and voids the fixed point.
    if (config_.stop_on_convergence && iter > 0 && tally.changed == 0 &&
        result.reseeds == reseeds_before) {
      result.converged = true;
      break;
    }
  }

  return result;
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
