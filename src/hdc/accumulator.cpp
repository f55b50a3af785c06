#include "src/hdc/accumulator.hpp"

#include <cmath>

#include "src/hdc/kernels.hpp"
#include "src/util/contracts.hpp"

namespace seghdc::hdc {

Accumulator::Accumulator(std::size_t dim) : counts_(dim, 0) {}

void Accumulator::clear() {
  counts_.assign(counts_.size(), 0);
  total_weight_ = 0;
  sum_squares_ = 0;
}

void Accumulator::add(const HyperVector& hv, std::uint32_t weight) {
  util::expects(hv.dim() == counts_.size(),
                "Accumulator::add dimension mismatch");
  add(hv.words(), weight);
}

void Accumulator::add(std::span<const std::uint64_t> packed_bits,
                      std::uint32_t weight) {
  accumulate(packed_bits, static_cast<std::int64_t>(weight));
  total_weight_ += weight;
}

void Accumulator::sub(std::span<const std::uint64_t> packed_bits,
                      std::uint32_t weight) {
  util::expects(weight <= total_weight_,
                "Accumulator::sub weight exceeds the total weight held");
  accumulate(packed_bits, -static_cast<std::int64_t>(weight));
  total_weight_ -= weight;
}

void Accumulator::accumulate(std::span<const std::uint64_t> packed_bits,
                             std::int64_t weight) {
  util::expects(packed_bits.size() == kernels::words_for_dim(counts_.size()),
                "Accumulator packed word count mismatch");
  util::expects(kernels::padding_is_zero(packed_bits, counts_.size()),
                "Accumulator padding bits must be zero");
  // The fused kernel returns the pre-update dot, so the incremental norm
  // stays a single pass over the counts: summing (x+w)^2 - x^2 =
  // 2xw + w^2 over the set bits is 2w * dot_old + w^2 * popcount, for a
  // negative w (sub) as for a positive one. The popcount is a second
  // read of the packed words, but those are 1/8 the bytes of the counts
  // pass and cache-hot, so folding it into the kernel's return isn't
  // worth widening the vtable signature.
  const std::int64_t old_dot =
      kernels::accumulate_counts_words(counts_, packed_bits, weight);
  const auto set_bits =
      static_cast<std::int64_t>(kernels::popcount_words(packed_bits));
  sum_squares_ += 2 * weight * old_dot + weight * weight * set_bits;
}

void Accumulator::merge(const Accumulator& other) {
  util::expects(other.counts_.size() == counts_.size(),
                "Accumulator::merge dimension mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::int64_t b = other.counts_[i];
    if (b == 0) {
      continue;
    }
    // (x+b)^2 - x^2 = 2xb + b^2 keeps sum_squares_ exact under merging,
    // so norm() is independent of how adds were grouped into partials.
    sum_squares_ += 2 * counts_[i] * b + b * b;
    counts_[i] += b;
  }
  total_weight_ += other.total_weight_;
}

void Accumulator::snapshot_planes(kernels::CountPlanes& out) const {
  out.build(counts_);
}

std::int64_t Accumulator::at(std::size_t index) const {
  util::expects(index < counts_.size(),
                "Accumulator::at index within dimension");
  return counts_[index];
}

std::int64_t Accumulator::dot(const HyperVector& hv) const {
  util::expects(hv.dim() == counts_.size(),
                "Accumulator::dot dimension mismatch");
  return dot(hv.words());
}

std::int64_t Accumulator::dot(std::span<const std::uint64_t> packed_bits) const {
  util::expects(packed_bits.size() == kernels::words_for_dim(counts_.size()),
                "Accumulator::dot packed word count mismatch");
  util::expects(kernels::padding_is_zero(packed_bits, counts_.size()),
                "Accumulator::dot padding bits must be zero");
  return kernels::dot_counts_words(counts_, packed_bits);
}

double Accumulator::norm() const {
  return std::sqrt(static_cast<double>(sum_squares_));
}

double Accumulator::cosine_distance(const HyperVector& hv) const {
  util::expects(hv.dim() == counts_.size(),
                "Accumulator::cosine_distance dimension mismatch");
  return kernels::cosine_distance_words(
      counts_, norm(), hv.words(),
      std::sqrt(static_cast<double>(hv.popcount())));
}

HyperVector Accumulator::to_majority() const {
  HyperVector hv(counts_.size());
  const auto threshold = static_cast<std::int64_t>(total_weight_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] * 2 > threshold) {
      hv.set(i, true);
    }
  }
  return hv;
}

}  // namespace seghdc::hdc
