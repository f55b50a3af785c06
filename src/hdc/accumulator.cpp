#include "src/hdc/accumulator.hpp"

#include <algorithm>
#include <array>
#include <bit>
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
  util::expects(packed_bits.size() == kernels::words_for_dim(counts_.size()),
                "Accumulator packed word count mismatch");
  util::expects(kernels::padding_is_zero(packed_bits, counts_.size()),
                "Accumulator padding bits must be zero");
  // The walk returns the pre-update dot, so the incremental norm stays a
  // single pass over the counts: summing (x+w)^2 - x^2 = 2xw + w^2 over
  // the set bits is 2w * dot_old + w^2 * popcount.
  const std::int64_t old_dot =
      kernels::accumulate_counts_words(counts_, packed_bits, weight);
  const auto set_bits =
      static_cast<std::int64_t>(kernels::popcount_words(packed_bits));
  const Int128 w = weight;
  sum_squares_ += 2 * w * old_dot + w * w * set_bits;
  total_weight_ += weight;
}

void Accumulator::apply(StagedSum& staged) {
  util::expects(staged.dim() == counts_.size(),
                "Accumulator::apply dimension mismatch");
  util::expects(
      staged.removed_weight() <= total_weight_ + staged.added_weight(),
      "Accumulator::apply removes more weight than the accumulator holds");
  staged.fold_partial_levels();
  const std::size_t words = staged.words_;
  // One pass per word: gather the signed lane sums of both sides from
  // their planes, then add each to its count.
  std::array<std::int64_t, 64> delta{};
  for (std::size_t w = 0; w < words; ++w) {
    bool changed = false;
    for (std::size_t side = 0; side < 2; ++side) {
      const auto& staged_side = staged.sides_[side];
      const std::int64_t sign = side == 0 ? 1 : -1;
      for (std::size_t p = 0; p < staged_side.plane_count; ++p) {
        const std::int64_t value = sign * (std::int64_t{1} << p);
        std::uint64_t bits = staged_side.planes[p * words + w];
        changed |= bits != 0;
        for (; bits != 0; bits &= bits - 1) {
          delta[static_cast<std::size_t>(std::countr_zero(bits))] += value;
        }
      }
    }
    if (!changed) {
      continue;
    }
    const std::size_t base = w * 64;
    const std::size_t lanes = std::min<std::size_t>(64, counts_.size() - base);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      // (x+d)^2 - x^2 = 2xd + d^2, as in merge.
      const Int128 d = delta[lane];
      sum_squares_ += 2 * d * counts_[base + lane] + d * d;
      counts_[base + lane] += delta[lane];
    }
    delta.fill(0);
  }
  total_weight_ =
      total_weight_ + staged.added_weight() - staged.removed_weight();
  staged.clear();
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
    const Int128 wide = b;
    sum_squares_ += 2 * wide * counts_[i] + wide * wide;
    counts_[i] += b;
  }
  total_weight_ += other.total_weight_;
}

void Accumulator::assign(std::span<const std::int64_t> counts,
                         std::uint64_t total_weight) {
  util::expects(counts.size() == counts_.size(),
                "Accumulator::assign dimension mismatch");
  Int128 sum_squares = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const Int128 x = counts[i];
    sum_squares += x * x;
    counts_[i] = counts[i];
  }
  sum_squares_ = sum_squares;
  total_weight_ = total_weight;
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

StagedSum::StagedSum(std::size_t dim)
    : dim_(dim),
      words_(kernels::words_for_dim(dim)),
      carry_(words_, 0),
      zero_row_(words_, 0) {}

void StagedSum::add(std::span<const std::uint64_t> packed_bits,
                    std::uint32_t weight) {
  stage(sides_[0], packed_bits, weight);
}

void StagedSum::sub(std::span<const std::uint64_t> packed_bits,
                    std::uint32_t weight) {
  stage(sides_[1], packed_bits, weight);
}

void StagedSum::stage(Side& side, std::span<const std::uint64_t> packed_bits,
                      std::uint32_t weight) {
  util::expects(packed_bits.size() == words_,
                "StagedSum packed word count mismatch");
  util::expects(kernels::padding_is_zero(packed_bits, dim_),
                "StagedSum padding bits must be zero");
  // Every lane sum is at most the side's weight, so its bit width is the
  // number of planes any fold or carry can reach.
  side.weight += weight;
  const auto needed = static_cast<std::size_t>(std::bit_width(side.weight));
  if (needed > side.plane_count) {
    side.plane_count = needed;
    side.planes.resize((side.plane_count + kFoldSpan - 1) * words_, 0);
  }
  for (std::uint32_t bits = weight; bits != 0; bits &= bits - 1) {
    const auto level = static_cast<std::size_t>(std::countr_zero(bits));
    side.queued[level][side.queued_count[level]++] = packed_bits.data();
    if (side.queued_count[level] == kFoldRows) {
      fold(side, level);
    }
  }
}

namespace {

/// A full adder over 64 lanes: three words of one weight become a sum
/// word of that weight and a carry word of twice it.
inline std::uint64_t full_add(std::uint64_t a, std::uint64_t b,
                              std::uint64_t c, std::uint64_t& carry) {
  const std::uint64_t u = a ^ b;
  carry = (a & b) | (u & c);
  return u ^ c;
}

/// Adds the 4-bit vertical sum of 8 rows into planes p0..p3 (weights 1,
/// 2, 4, 8 relative to p0) word by word, stores the carry out of p3 per
/// word in `carry_out`, and returns the OR of those carries. The
/// restrict parameters let the compiler vectorise the word loop.
std::uint64_t fold_rows(const std::uint64_t* const* rows, std::size_t words,
                        std::uint64_t* __restrict p0,
                        std::uint64_t* __restrict p1,
                        std::uint64_t* __restrict p2,
                        std::uint64_t* __restrict p3,
                        std::uint64_t* __restrict carry_out) {
  const std::uint64_t* r0 = rows[0];
  const std::uint64_t* r1 = rows[1];
  const std::uint64_t* r2 = rows[2];
  const std::uint64_t* r3 = rows[3];
  const std::uint64_t* r4 = rows[4];
  const std::uint64_t* r5 = rows[5];
  const std::uint64_t* r6 = rows[6];
  const std::uint64_t* r7 = rows[7];
  std::uint64_t spill = 0;
  for (std::size_t w = 0; w < words; ++w) {
    // The vertical sum s3 s2 s1 s0 of the 8 row words: a carry-save tree.
    std::uint64_t a2;
    std::uint64_t b2;
    std::uint64_t c2;
    std::uint64_t e4;
    const std::uint64_t a1 = full_add(r0[w], r1[w], r2[w], a2);
    const std::uint64_t b1 = full_add(r3[w], r4[w], r5[w], b2);
    const std::uint64_t c1 = full_add(a1, b1, r6[w], c2);
    const std::uint64_t s0 = c1 ^ r7[w];
    const std::uint64_t d2 = c1 & r7[w];
    const std::uint64_t e2 = full_add(a2, b2, c2, e4);
    const std::uint64_t s1 = e2 ^ d2;
    const std::uint64_t f4 = e2 & d2;
    const std::uint64_t s2 = e4 ^ f4;
    const std::uint64_t s3 = e4 & f4;
    // Ripple-add it into the four planes.
    std::uint64_t carry = p0[w] & s0;
    p0[w] ^= s0;
    p1[w] = full_add(p1[w], s1, carry, carry);
    p2[w] = full_add(p2[w], s2, carry, carry);
    p3[w] = full_add(p3[w], s3, carry, carry);
    carry_out[w] = carry;
    spill |= carry;
  }
  return spill;
}

/// Adds the carry words into `plane`, leaving the carries out of it in
/// `carry`, and returns their OR.
std::uint64_t ripple_carry(std::size_t words, std::uint64_t* __restrict plane,
                           std::uint64_t* __restrict carry) {
  std::uint64_t spill = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t x = plane[w];
    plane[w] = x ^ carry[w];
    carry[w] &= x;
    spill |= carry[w];
  }
  return spill;
}

}  // namespace

void StagedSum::fold(Side& side, std::size_t level) {
  auto& rows = side.queued[level];
  for (std::size_t r = side.queued_count[level]; r < kFoldRows; ++r) {
    rows[r] = zero_row_.data();
  }
  side.queued_count[level] = 0;
  std::uint64_t* const p0 = side.planes.data() + level * words_;
  std::uint64_t spill =
      fold_rows(rows.data(), words_, p0, p0 + words_, p0 + 2 * words_,
                p0 + 3 * words_, carry_.data());
  // The carry out of the window ripples on upward until it is zero.
  for (std::size_t p = level + kFoldSpan; spill != 0; ++p) {
    util::expects(p < side.plane_count, "StagedSum carry within its planes");
    spill = ripple_carry(words_, side.planes.data() + p * words_,
                         carry_.data());
  }
}

void StagedSum::fold_partial_levels() {
  for (auto& side : sides_) {
    for (std::size_t level = 0; level < kLevels; ++level) {
      if (side.queued_count[level] != 0) {
        fold(side, level);
      }
    }
  }
}

void StagedSum::clear() {
  for (auto& side : sides_) {
    side.weight = 0;
    side.plane_count = 0;
    side.planes.clear();
  }
}

}  // namespace seghdc::hdc
