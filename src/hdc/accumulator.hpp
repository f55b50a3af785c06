// Integer accumulator over binary hypervectors — the "bundling" operation
// of HDC and the centroid representation of the paper's clusterer
// (Section III-④): "all HVs in the same class will be summed to produce
// the new centroid HV". Cosine distance is used against these integer
// centroids precisely because summation changes vector length but not
// direction (paper Eq. 7 and surrounding discussion).
#ifndef SEGHDC_HDC_ACCUMULATOR_HPP
#define SEGHDC_HDC_ACCUMULATOR_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "src/hdc/hypervector.hpp"
#include "src/hdc/kernels.hpp"

namespace seghdc::hdc {

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
  /// ceil(dim/64) words, padding bits zero. Runs on the dispatched
  /// accumulate kernel (word-blocked masked adds on SIMD backends), not
  /// a bit-serial set-bit walk; every backend produces identical counts
  /// and norms.
  void add(std::span<const std::uint64_t> packed_bits,
           std::uint32_t weight = 1);

  /// Exact inverse of add: counts[i] -= weight for every set bit i, on
  /// the same signed accumulate kernel, with the incremental norm kept
  /// exact (the sum of squares changes by -2w * dot_before + w^2 *
  /// popcount). Removing a point this accumulator holds restores the
  /// counts, total weight, and norm it had before that point's add —
  /// what lets the K-Means update move only the points that changed
  /// cluster. Throws std::invalid_argument when `weight` exceeds
  /// total_weight().
  void sub(std::span<const std::uint64_t> packed_bits,
           std::uint32_t weight = 1);

  /// Component-wise sum with another accumulator of the same dimension:
  /// counts, total weight, and the incremental norm all merge exactly.
  /// Integer sums are order-independent, which is what lets the K-Means
  /// update step keep per-chunk partial banks and merge them in any
  /// grouping with bit-identical results.
  void merge(const Accumulator& other);

  /// Sum of the weights added, less those subtracted, since the last
  /// clear().
  std::uint64_t total_weight() const { return total_weight_; }

  /// Component value at `index`.
  std::int64_t at(std::size_t index) const;

  std::span<const std::int64_t> counts() const { return counts_; }

  /// Rebuilds `out` as the bit-plane snapshot of the current counts
  /// (kernels::CountPlanes), the layout the clusterer's word-blocked
  /// cosine assignment streams over. Counts stay non-negative while sub
  /// only removes points that were added, so the build never throws.
  void snapshot_planes(kernels::CountPlanes& out) const;

  /// Dot product with a binary HV: sum of counts at the HV's set bits.
  std::int64_t dot(const HyperVector& hv) const;

  /// Same, over pre-packed words with zero padding.
  std::int64_t dot(std::span<const std::uint64_t> packed_bits) const;

  /// Euclidean norm of the accumulator (sqrt of sum of squares).
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
  /// Shared body of add/sub: validates the packed span, then adds the
  /// signed `weight` at every set bit and updates the sum of squares.
  void accumulate(std::span<const std::uint64_t> packed_bits,
                  std::int64_t weight);

  std::vector<std::int64_t> counts_;
  std::uint64_t total_weight_ = 0;
  // Norm bookkeeping: kept incrementally so the clusterer's per-point
  // cosine distance never rescans the full accumulator.
  std::int64_t sum_squares_ = 0;
};

}  // namespace seghdc::hdc

#endif  // SEGHDC_HDC_ACCUMULATOR_HPP
