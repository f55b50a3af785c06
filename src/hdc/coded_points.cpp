#include "src/hdc/coded_points.hpp"

#include <algorithm>
#include <utility>

#include "src/util/contracts.hpp"

namespace seghdc::hdc {

CodedPoints::CodedPoints(HyperVector base, std::size_t stride,
                         std::size_t count)
    : base_(std::move(base)),
      stride_(stride),
      count_(count),
      endpoints_(stride * count, 0) {
  util::expects(stride >= 2 && stride % 2 == 0,
                "CodedPoints stride must be even and at least 2");
}

bool CodedPoints::well_formed() const {
  for (std::size_t i = 0; i < count_; ++i) {
    const auto ends = endpoints(i);
    if (!std::ranges::is_sorted(ends) || ends.back() > dim()) {
      return false;
    }
  }
  return true;
}

HyperVector CodedPoints::to_hypervector(std::size_t i) const {
  util::expects(i < count_, "CodedPoints::to_hypervector index in range");
  HyperVector hv = base_;
  const auto ends = endpoints(i);
  for (std::size_t k = 0; k < stride_; k += 2) {
    hv.flip_range(ends[k], ends[k + 1]);
  }
  return hv;
}

}  // namespace seghdc::hdc
