// Hypervector K-Means (paper Section III-④).
//
// The paper's clusterer, restated: centroids are the integer SUMS of the
// member pixel HVs (never re-binarized between iterations), points are
// assigned by COSINE distance (Eq. 7) because summation scales centroid
// length but not direction, and the initial centroids are the pixels
// with the largest color difference rather than random picks. The
// iteration count is a fixed budget (default 10).
//
// This implementation adds engineering features with identical
// semantics: (1) points carry integer multiplicities, so deduplicated
// pixel sets cluster exactly like the full pixel set; (2) the assignment
// step runs data-parallel, with the cosine dot reformulated word-blocked
// (per-centroid bit-plane snapshots, kernels::CountPlanes) so it streams
// fused AND+popcount passes through the dispatched SIMD backend instead
// of walking set bits serially — the integer dot, and therefore every
// label, is bit-identical to the serial formulation; (3) the update step
// keeps one persistent bank of partial centroids per chunk of points and
// each iteration moves only the points whose assignment changed, in
// parallel per chunk: the chunk buckets its moves by destination and by
// source cluster, and per cluster stages the moved-in rows and then the
// moved-out rows in one bit-sliced hdc::StagedSum (8 rows per
// carry-save vertical count, a few word operations per row word) and
// applies the exact integer delta to its bank once (Accumulator::apply).
// The banks then merge in fixed order — integer sums are
// order-independent, so the centroids equal a from-scratch re-sum and
// are bit-identical for every thread count; (4) the assignment skips
// work it can prove does not change the argmin. Below the pruning
// threshold (the paper's K = 2/3) each point keeps Elkan's
// triangle-inequality bounds in chord units, |x^ - c^| =
// sqrt(2 * cosine distance): an upper bound to its own centroid and a
// lower bound per centroid, moved each iteration by the centroid's
// drift. A point whose bounds separate by a margin keeps its cluster
// with no dot product; otherwise it computes its own distance first and
// the other distances only if that does not settle it. At large cluster
// counts the assignment instead prunes candidates per point (norm
// bounds plus early-exit bounded kernels that abort a scan once the
// running distance loses to the best so far). Both are EXACT: ties are
// still broken by the lowest index, so every path is bit-identical to
// the exhaustive scan and rides the same golden hashes (see AssignMode
// and the error budget in kmeans.cpp).
#ifndef SEGHDC_CORE_KMEANS_HPP
#define SEGHDC_CORE_KMEANS_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/op_counts.hpp"
#include "src/hdc/accumulator.hpp"
#include "src/hdc/hypervector.hpp"
#include "src/hdc/kernels.hpp"
#include "src/util/parallel.hpp"

namespace seghdc::core {

struct HvKMeansConfig {
  std::size_t clusters = 2;
  std::size_t iterations = 10;
  ClusterDistance distance = ClusterDistance::kCosine;
  /// Assignment strategy (see core::AssignMode). kAuto prunes when
  /// clusters >= prune_min_clusters, runs the cosine scan behind the
  /// triangle-inequality bound filter below it, and defers to the
  /// SEGHDC_ASSIGN_MODE environment variable when set (resolved once at
  /// construction; unknown values are hard errors). Every skip is EXACT:
  /// the bounds, norm bounds and early-exit bounded kernels only skip
  /// pairs that provably cannot win the argmin — including index
  /// tie-breaks — so assignments, centroids, and convergence behaviour
  /// are bit-identical in every mode, at every backend and pool size.
  /// kExhaustive is the reference the others are tested against.
  AssignMode assign_mode = AssignMode::kAuto;
  /// kAuto threshold: prune per candidate when clusters >= this, else
  /// run the bound filter (cosine; the Hamming ablation scans
  /// exhaustively). At very small K the per-point candidate ordering
  /// costs more than the scans it skips; from roughly this K up the
  /// pruned scan wins and keeps widening (see bench_assign).
  std::size_t prune_min_clusters = 8;
  /// Stop as soon as an assignment step changes no point (the paper runs
  /// a fixed budget but observes saturation by iteration ~4; with this
  /// flag the clusterer banks that saving automatically). The result is
  /// identical to running the full budget.
  bool stop_on_convergence = false;
  /// Thread pool for the assignment and update steps (nullptr = the
  /// process-wide shared pool). Results are bit-identical for every pool
  /// size: the assignment writes per-point slots and the update keeps
  /// integer partial sums, which are order-independent.
  util::ThreadPool* pool = nullptr;
};

struct HvKMeansResult {
  /// Cluster index per input point.
  std::vector<std::uint32_t> assignment;
  /// Final integer centroids (sum of member HVs, weighted).
  std::vector<hdc::Accumulator> centroids;
  /// Total member weight per cluster after the final assignment.
  std::vector<std::uint64_t> cluster_weights;
  std::size_t iterations_run = 0;
  /// True when the run ended because assignments stopped changing.
  bool converged = false;
  /// Number of empty-cluster reseeds performed.
  std::size_t reseeds = 0;
  /// True when the run used the per-candidate pruned assignment path
  /// (resolved mode kPruned, or kAuto with clusters >=
  /// prune_min_clusters). False for the exhaustive scan and the bound
  /// filter. Purely informational — every path produces bit-identical
  /// results.
  bool pruned_assignment = false;
  /// Work performed. Assignment accounting is measured, not assumed,
  /// and every path counts the kernels it ran: `distance_evals` counts
  /// pairs whose exact distance was computed (the zero-norm 1.0
  /// shortcut included), `candidates_pruned` counts pairs skipped by the
  /// chord bounds, norm bounds or aborted bounded-kernel scans (evals +
  /// pruned == points * clusters per iteration in every mode; a point
  /// the bound filter skips adds `clusters`), `dot_adds` adds `dim` per
  /// dot/scan that ran to completion (n*k*dim for an exhaustive run
  /// without zero rows), and `words_scanned` counts the words the
  /// kernels actually streamed, partial scans included. The exact
  /// distances a reseed recomputes for skipped points add to `dot_adds`
  /// and `words_scanned` only.
  /// `centroid_update_adds` is measured too, as the op model's logical
  /// count: `dim` per point added or removed by the update step, so
  /// n*dim at iteration 0 plus 2*dim per point that moved cluster
  /// afterwards (the staged update does fewer word operations).
  OpCounts ops;
};

class HvKMeans {
 public:
  explicit HvKMeans(const HvKMeansConfig& config);

  /// Clusters `points` (all of equal dimension) with per-point integer
  /// `weights` (empty span = all 1). `seed_points` are the indices used
  /// to initialise the centroids and must contain exactly `clusters`
  /// distinct indices — the caller implements the paper's
  /// "largest color difference" selection (see SegHdc::segment).
  /// Convenience overload: packs into an HvBlock and delegates.
  HvKMeansResult run(std::span<const hdc::HyperVector> points,
                     std::span<const std::uint32_t> weights,
                     std::span<const std::size_t> seed_points) const;

  /// The primary entry point: clusters the rows of a packed `HvBlock`
  /// (at most 2^32 - 1 of them; an image has fewer pixels). The
  /// assignment step streams the fused word-span kernels over block
  /// rows in parallel — no per-point HyperVector is ever materialised.
  HvKMeansResult run(const hdc::HvBlock& points,
                     std::span<const std::uint32_t> weights,
                     std::span<const std::size_t> seed_points) const;

  /// Warm-start entry point: the initial centroids are given DIRECTLY as
  /// binary HVs instead of as indices into `points`. Each seed HV is
  /// added with weight 1, exactly the seed-point semantics of `run` (a
  /// seed defines a direction, not a mass), so the two entry points
  /// differ only in where the initial directions come from. This is the
  /// temporal/video serving hook: seeding from the previous frame's
  /// majority-binarized centroids starts the iteration near the previous
  /// solution, so near-identical frames converge in a fraction of the
  /// iterations (bank the saving with stop_on_convergence). Requires
  /// exactly `clusters` seed HVs of the points' dimension, zero-padded
  /// like every HyperVector. Deterministic like `run`: same points,
  /// weights, and seed centroids give bit-identical assignments at every
  /// pool size and backend.
  HvKMeansResult run_from_centroids(
      const hdc::HvBlock& points, std::span<const std::uint32_t> weights,
      std::span<const hdc::HyperVector> seed_centroids) const;

 private:
  /// Shared iteration core; `init_centroids` seeds `centroids` (already
  /// sized to `clusters`, all zero) with the initial directions.
  HvKMeansResult run_impl(
      const hdc::HvBlock& points, std::span<const std::uint32_t> weights,
      const std::function<void(std::vector<hdc::Accumulator>&)>&
          init_centroids) const;

  HvKMeansConfig config_;
  /// config_.assign_mode with the SEGHDC_ASSIGN_MODE environment
  /// override folded in (kAuto only; resolved once in the constructor,
  /// hard error on unknown values).
  AssignMode resolved_assign_mode_ = AssignMode::kAuto;
};

/// Farthest-point sampling over scalar intensities: returns `clusters`
/// distinct point indices, starting with the min/max pair (the "largest
/// color difference" of the paper) and greedily maximising the minimum
/// intensity gap for the rest. Weighted duplicates are allowed; indices
/// are deterministic (ties resolve to the lowest index).
std::vector<std::size_t> largest_color_difference_seeds(
    std::span<const std::uint8_t> intensities, std::size_t clusters);

}  // namespace seghdc::core

#endif  // SEGHDC_CORE_KMEANS_HPP
