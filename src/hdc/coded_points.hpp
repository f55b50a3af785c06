// Interval-coded hypervectors: a set of binary HVs stored as one shared
// base HV B plus, per HV, the sorted endpoints of the flip runs that turn
// B into it.
//
// SegHDC builds every pixel HV from contiguous flip runs (paper
// Section III-① and ②, Fig. 3-5): the row and column ladders flip runs
// that start at fixed bits of their regions, and colour level v flips
// the prefix [0, offset(v)) of its channel's slice. A unique point is
// therefore B XOR a handful of intervals, where B is the HV of row 0,
// column 0 and colour level 0 — a few integers instead of d bits.
//
// Endpoint semantics: the endpoints e_0 <= e_1 <= ... <= e_{s-1} of a
// point (s even, every e <= dim) give it the parity mask
// [e_0, e_1) u [e_2, e_3) u ..., and the point is B XOR that mask. Any
// collection of intervals, overlapping or empty, sorts into this form:
// bit j of an XOR of intervals is the parity of the number of endpoints
// <= j. Quantities linear in the bits then cost O(s) per point against
// a prefix-sum table over the dimension, which is what the clusterer's
// coded point model (src/core/kmeans.cpp) does.
#ifndef SEGHDC_HDC_CODED_POINTS_HPP
#define SEGHDC_HDC_CODED_POINTS_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/hdc/hypervector.hpp"

namespace seghdc::hdc {

class CodedPoints {
 public:
  CodedPoints() = default;

  /// `count` points over `base`, each with `stride` endpoints (even, at
  /// least 2), all zero until written through endpoints(i).
  CodedPoints(HyperVector base, std::size_t stride, std::size_t count);

  /// Dimensionality of every point (the base HV's).
  std::size_t dim() const { return base_.dim(); }
  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Endpoints per point.
  std::size_t stride() const { return stride_; }

  /// The HV every point is coded against.
  const HyperVector& base() const { return base_; }

  /// Point i's endpoints. Writers must leave them sorted ascending and
  /// <= dim(); consumers check that once per run.
  std::span<std::uint32_t> endpoints(std::size_t i) {
    return {endpoints_.data() + i * stride_, stride_};
  }
  std::span<const std::uint32_t> endpoints(std::size_t i) const {
    return {endpoints_.data() + i * stride_, stride_};
  }

  /// True when every point's endpoints are sorted and within dim().
  bool well_formed() const;

  /// Point i as a dense HV: B with each [e_2k, e_2k+1) flipped.
  HyperVector to_hypervector(std::size_t i) const;

 private:
  HyperVector base_;
  std::size_t stride_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint32_t> endpoints_;
};

}  // namespace seghdc::hdc

#endif  // SEGHDC_HDC_CODED_POINTS_HPP
