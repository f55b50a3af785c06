// Integer accumulator over binary hypervectors — the "bundling" operation
// of HDC and the centroid representation of the paper's clusterer
// (Section III-④): "all HVs in the same class will be summed to produce
// the new centroid HV". Cosine distance is used against these integer
// centroids precisely because summation changes vector length but not
// direction (paper Eq. 7 and surrounding discussion).
#ifndef SEGHDC_HDC_ACCUMULATOR_HPP
#define SEGHDC_HDC_ACCUMULATOR_HPP

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/hdc/hypervector.hpp"
#include "src/hdc/kernels.hpp"

namespace seghdc::hdc {

class StagedSum;

/// Element-wise integer sum of (weighted) binary hypervectors.
class Accumulator {
 public:
  Accumulator() = default;
  explicit Accumulator(std::size_t dim);

  std::size_t dim() const { return counts_.size(); }

  /// Resets all components to zero and the total weight to zero.
  void clear();

  /// Adds `hv` with multiplicity `weight` (component-wise: counts[i] +=
  /// weight for every set bit i). Weighted adds are what make the
  /// deduplicated K-Means exactly equivalent to the per-pixel version.
  /// Forwards through the packed-span overload below, so there is one
  /// implementation (and one op/kernel path) for both.
  void add(const HyperVector& hv, std::uint32_t weight = 1);

  /// Same, over pre-packed words (e.g. an `HvBlock` row): exactly
  /// ceil(dim/64) words, padding bits zero. A set-bit walk over the row
  /// (kernels::accumulate_counts_words) — the path for single rows, such
  /// as the K-Means seeds and reseed patches; many rows at once go
  /// through a StagedSum and apply().
  void add(std::span<const std::uint64_t> packed_bits,
           std::uint32_t weight = 1);

  /// Applies everything `staged` holds, then empties it: counts[i] gains
  /// the staged additions less the staged removals at i, the total
  /// weight changes by added_weight() - removed_weight(), and the sum of
  /// squares by 2 * x * delta + delta^2 per changed element (as merge
  /// does). The integers are exactly those of adding (and, for
  /// removals, taking back) each staged row one at a time, so removing
  /// rows this accumulator holds restores the counts, weight and norm it
  /// had before they were added — what lets the K-Means update move only
  /// the points that changed cluster, with one pass over the counts per
  /// cluster. It is the only way to remove rows: there is no per-row
  /// sub. Throws std::invalid_argument, leaving both sides untouched,
  /// when the dimensions differ or when the removals exceed
  /// total_weight() plus the staged additions.
  void apply(StagedSum& staged);

  /// Component-wise sum with another accumulator of the same dimension:
  /// counts, total weight, and the incremental norm all merge exactly.
  /// Integer sums are order-independent, which is what lets the K-Means
  /// update step keep per-chunk partial banks and merge them in any
  /// grouping with bit-identical results.
  void merge(const Accumulator& other);

  /// Replaces the contents with `counts` (one per dimension) and
  /// `total_weight`, recomputing the exact 128-bit sum of squares: the
  /// result equals an accumulator that had the members behind those
  /// counts added. The coded K-Means update rebuilds its centroids this
  /// way from per-cluster difference arrays.
  void assign(std::span<const std::int64_t> counts, std::uint64_t total_weight);

  /// Sum of the weights added, less those removed, since the last
  /// clear().
  std::uint64_t total_weight() const { return total_weight_; }

  /// Component value at `index`.
  std::int64_t at(std::size_t index) const;

  std::span<const std::int64_t> counts() const { return counts_; }

  /// Rebuilds `out` as the bit-plane snapshot of the current counts
  /// (kernels::CountPlanes), the layout the clusterer's word-blocked
  /// cosine assignment streams over. Counts stay non-negative while
  /// apply() only removes rows that were added, so the build never
  /// throws.
  void snapshot_planes(kernels::CountPlanes& out) const;

  /// Dot product with a binary HV: sum of counts at the HV's set bits.
  std::int64_t dot(const HyperVector& hv) const;

  /// Same, over pre-packed words with zero padding.
  std::int64_t dot(std::span<const std::uint64_t> packed_bits) const;

  /// Euclidean norm of the accumulator (sqrt of sum of squares). The sum
  /// of squares is kept exact in signed 128-bit: it passes 2^63 once a
  /// centroid of dimension 10,000 holds ~5e7 pixels, which a large image
  /// reaches. It is rounded to double once, here, so every norm below
  /// 2^63 is the same double a 64-bit sum gives.
  double norm() const;

  /// Cosine distance to a binary HV per paper Eq. 7:
  ///   1 - (y . z) / (|y| |z|).
  /// Returns 1.0 when either vector has zero norm (maximally distant by
  /// convention, so empty centroids never attract points).
  double cosine_distance(const HyperVector& hv) const;

  /// Majority-rule binarization: bit i set iff counts[i]*2 > total_weight.
  /// Ties (exactly half) resolve to 0. Classical HDC bundling output;
  /// used by the Hamming-distance clustering variant.
  HyperVector to_majority() const;

 private:
  __extension__ using Int128 = __int128;

  std::vector<std::int64_t> counts_;
  std::uint64_t total_weight_ = 0;
  // Norm bookkeeping: kept incrementally so the clusterer's per-point
  // cosine distance never rescans the full accumulator.
  Int128 sum_squares_ = 0;
};

/// A signed, weighted sum of packed rows staged bit-sliced, for applying
/// many rows to an Accumulator at once (the positional population count;
/// Klarqvist, Mula and Lemire, 2021). Additions and removals are kept
/// apart, each as bit planes: plane p of word w holds bit p of the 64
/// lane sums of that word. add() or sub() queues a row once per set bit
/// b of its weight, at level b; when a level holds 8 rows they fold into
/// a 4-bit vertical sum (a branch-free carry-save tree over the row
/// words), which ripple-adds into the planes at offset b until the carry
/// is zero. A row then costs a few word operations per row word, where
/// Accumulator::add read-modifies-writes 64 int64 counts. Each side's
/// planes are sized from the bit width of its staged weight, so a carry
/// never runs past the last plane, whatever the weights. Memory is the
/// planes, independent of how many rows are staged.
///
/// The staged rows are referenced, not copied: each row's words must
/// stay alive and unchanged until Accumulator::apply() consumes the
/// staged sum. A plain container: mutation is the caller's to
/// synchronise.
class StagedSum {
 public:
  StagedSum() = default;
  explicit StagedSum(std::size_t dim);

  std::size_t dim() const { return dim_; }

  /// Stages `weight` copies of the row: exactly ceil(dim/64) words,
  /// padding bits zero.
  void add(std::span<const std::uint64_t> packed_bits,
           std::uint32_t weight = 1);

  /// Stages the removal of `weight` copies of the row.
  void sub(std::span<const std::uint64_t> packed_bits,
           std::uint32_t weight = 1);

  /// Weight staged by add() and by sub() since the last apply.
  std::uint64_t added_weight() const { return sides_[0].weight; }
  std::uint64_t removed_weight() const { return sides_[1].weight; }

 private:
  friend class Accumulator;

  static constexpr std::size_t kLevels = 32;  // bits of a uint32 weight
  static constexpr std::size_t kFoldRows = 8;
  // A fold writes the 4 planes at offsets b..b+3; b is below the plane
  // count, so 3 planes of headroom keep that window in bounds. They end
  // every fold at zero: no lane sum reaches 2^plane_count.
  static constexpr std::size_t kFoldSpan = 4;

  /// The rows staged with one sign.
  struct Side {
    std::uint64_t weight = 0;
    std::size_t plane_count = 0;  // bit width of `weight`
    std::vector<std::uint64_t> planes;  // (plane_count + 3) planes
    std::array<std::array<const std::uint64_t*, kFoldRows>, kLevels>
        queued{};
    std::array<std::size_t, kLevels> queued_count{};
  };

  void stage(Side& side, std::span<const std::uint64_t> packed_bits,
             std::uint32_t weight);
  /// Folds `level`'s queued rows into `side` (zero rows fill the empty
  /// slots).
  void fold(Side& side, std::size_t level);
  /// Folds every partly filled level of both sides.
  void fold_partial_levels();
  /// Empties both sides, keeping their storage.
  void clear();

  std::size_t dim_ = 0;
  std::size_t words_ = 0;
  std::array<Side, 2> sides_;  // additions, removals
  std::vector<std::uint64_t> carry_;  // one word per row word
  std::vector<std::uint64_t> zero_row_;
};

}  // namespace seghdc::hdc

#endif  // SEGHDC_HDC_ACCUMULATOR_HPP
