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
// pixel sets cluster exactly like the full pixel set; (2) one iteration
// loop (snapshot, assign, update, reseed, convergence) runs over either
// of two point models, and every distance, popcount and centroid is the
// same exact integer in both:
//   - dense rows (hdc::HvBlock): each centroid is snapshotted as bit
//     planes (kernels::CountPlanes), so a cosine dot is plane_count()
//     fused AND+popcount passes through the dispatched SIMD backend;
//     the model of the kRandom codebooks and of bit errors;
//   - coded points (hdc::CodedPoints): every HV is a base B XOR a few
//     flip runs, so each centroid is snapshotted as one prefix-sum table
//     over the dimension and a dot, a popcount or a Hamming distance is
//     a sum over the point's run endpoints — O(endpoints), not d/64
//     words per plane;
// (3) the assignment step runs data-parallel over points, and the update
// step keeps one persistent bank of partial centroids per chunk of
// points: each iteration moves only the points whose assignment
// changed, in parallel per chunk, bucketed by destination and by source
// cluster. A dense bank stages a cluster's moved rows in one bit-sliced
// hdc::StagedSum and applies the exact integer delta once
// (Accumulator::apply); a coded bank keeps a difference array over the
// dimension per cluster, so a moved point changes only the entries at
// its endpoints, and the merge prefix-sums it into counts. The banks
// merge in fixed order — integer sums are order-independent, so the
// centroids equal a from-scratch re-sum and are bit-identical for every
// thread count and for both models; (4) the assignment skips
// work it can prove does not change the argmin. At every cluster count
// each point keeps Elkan's triangle-inequality bounds in chord units,
// |x^ - c^| = sqrt(2 * cosine distance): an upper bound to its own
// centroid and a lower bound per centroid, moved each iteration by the
// centroid's drift. A point whose bounds separate by a margin keeps its
// cluster with no dot product; otherwise it computes its own distance
// first and then only the distances its bounds leave open. The filter
// is EXACT: ties are still broken by the lowest index, so it is
// bit-identical to the exhaustive scan and rides the same golden hashes
// (see AssignMode and the error budget in kmeans.cpp).
#ifndef SEGHDC_CORE_KMEANS_HPP
#define SEGHDC_CORE_KMEANS_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/op_counts.hpp"
#include "src/hdc/accumulator.hpp"
#include "src/hdc/coded_points.hpp"
#include "src/hdc/hypervector.hpp"
#include "src/hdc/kernels.hpp"
#include "src/util/parallel.hpp"

namespace seghdc::core {

struct HvKMeansConfig {
  std::size_t clusters = 2;
  std::size_t iterations = 10;
  ClusterDistance distance = ClusterDistance::kCosine;
  /// Assignment strategy (see core::AssignMode). kAuto runs the cosine
  /// scan behind the triangle-inequality bound filter at every K (the
  /// Hamming ablation scans exhaustively) and defers to the
  /// SEGHDC_ASSIGN_MODE environment variable when set (resolved once at
  /// construction; unknown values are hard errors). Every skip is EXACT:
  /// the bounds only skip pairs that provably cannot win the argmin —
  /// including index tie-breaks — so assignments, centroids, and
  /// convergence behaviour are bit-identical in both modes, at every
  /// backend and pool size. kExhaustive is the reference kAuto is
  /// tested against; it allocates no bounds (the filter keeps
  /// points * (clusters + 1) doubles).
  AssignMode assign_mode = AssignMode::kAuto;
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
  /// Points the update step moved, one entry per iteration run:
  /// iteration 0 adds every point, later entries count the points whose
  /// cluster changed (a reseeded point moves in the next iteration's
  /// update). A converged run ends on 0.
  std::vector<std::uint64_t> moved_per_iteration;
  /// Work performed. Assignment accounting is measured, not assumed,
  /// and every path counts the kernels it ran: `distance_evals` counts
  /// pairs whose exact distance was computed (the zero-norm 1.0
  /// shortcut included), `candidates_pruned` counts pairs skipped by the
  /// chord bounds (evals + pruned == points * clusters per iteration in
  /// both modes; a point the bound filter skips adds `clusters`),
  /// `dot_adds` adds `dim` per dot/scan that ran (n*k*dim for an
  /// exhaustive run without zero rows), and `words_scanned` counts the
  /// words the dense kernels streamed, or the prefix entries a coded
  /// distance read (its endpoints). The exact distances a reseed
  /// recomputes for skipped points add to `dot_adds` and
  /// `words_scanned` only.
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

  /// The dense entry point: clusters the rows of a packed `HvBlock`
  /// (at most 2^32 - 1 of them; an image has fewer pixels). The
  /// assignment step streams the fused word-span kernels over block
  /// rows in parallel — no per-point HyperVector is ever materialised.
  HvKMeansResult run(const hdc::HvBlock& points,
                     std::span<const std::uint32_t> weights,
                     std::span<const std::size_t> seed_points) const;

  /// The coded entry point: clusters interval-coded points, each a base
  /// HV XOR its flip runs (see hdc::CodedPoints; endpoints must be
  /// sorted and within the dimension). Returns exactly what the dense
  /// `run` returns on the same points expanded to rows — assignment,
  /// centroids, reseeds, iterations and op counts — except
  /// `ops.words_scanned`, which counts prefix entries read here.
  HvKMeansResult run(const hdc::CodedPoints& points,
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
  /// pool size and backend, and for both point models.
  HvKMeansResult run_from_centroids(
      const hdc::HvBlock& points, std::span<const std::uint32_t> weights,
      std::span<const hdc::HyperVector> seed_centroids) const;
  HvKMeansResult run_from_centroids(
      const hdc::CodedPoints& points, std::span<const std::uint32_t> weights,
      std::span<const hdc::HyperVector> seed_centroids) const;

 private:
  HvKMeansConfig config_;
  /// config_.assign_mode with the SEGHDC_ASSIGN_MODE environment
  /// override folded in (kAuto only; resolved once in the constructor,
  /// hard error on unknown values).
  AssignMode resolved_assign_mode_ = AssignMode::kAuto;
};

/// Per-point confidence margins against `centroids` (a clustering's
/// final ones): the cosine distance to the second-closest centroid minus
/// the distance to the closest, through the same exact dot and float
/// expression as the assignment step, for either point model. `pool`
/// nullptr = the shared pool; the values do not depend on it.
std::vector<float> cosine_margins(const hdc::HvBlock& points,
                                  std::span<const hdc::Accumulator> centroids,
                                  util::ThreadPool* pool = nullptr);
std::vector<float> cosine_margins(const hdc::CodedPoints& points,
                                  std::span<const hdc::Accumulator> centroids,
                                  util::ThreadPool* pool = nullptr);

/// Farthest-point sampling over scalar intensities: returns `clusters`
/// distinct point indices, starting with the min/max pair (the "largest
/// color difference" of the paper) and greedily maximising the minimum
/// intensity gap for the rest. Weighted duplicates are allowed; indices
/// are deterministic (ties resolve to the lowest index).
std::vector<std::size_t> largest_color_difference_seeds(
    std::span<const std::uint8_t> intensities, std::size_t clusters);

}  // namespace seghdc::core

#endif  // SEGHDC_CORE_KMEANS_HPP
