#include "src/hdc/kernels.hpp"

#include <bit>

#include "src/hdc/simd/backend.hpp"
#include "src/util/contracts.hpp"

namespace seghdc::hdc {

// The free kernels validate shapes once and forward to the
// runtime-dispatched backend (src/hdc/simd/): call sites are oblivious
// to which ISA implementation runs underneath, and every backend
// returns the same integers. dot_counts_words and
// accumulate_counts_words have no slot: each is the scalar set-bit walk
// itself.

namespace kernels {

std::size_t popcount_words(std::span<const std::uint64_t> words) {
  return simd::active_backend().popcount(words);
}

std::size_t hamming_words(std::span<const std::uint64_t> a,
                          std::span<const std::uint64_t> b) {
  util::expects(a.size() == b.size(),
                "hamming_words requires equal word counts");
  return simd::active_backend().hamming(a, b);
}

void xor_words(std::span<std::uint64_t> dst,
               std::span<const std::uint64_t> a,
               std::span<const std::uint64_t> b) {
  util::expects(dst.size() == a.size() && a.size() == b.size(),
                "xor_words requires equal word counts");
  simd::active_backend().xor_bind(dst, a, b);
}

std::int64_t dot_counts_words(std::span<const std::int64_t> counts,
                              std::span<const std::uint64_t> words) {
  std::int64_t dot = 0;
  for_each_set_bit_words(words, [&](std::size_t i) { dot += counts[i]; });
  return dot;
}

std::int64_t accumulate_counts_words(std::span<std::int64_t> counts,
                                     std::span<const std::uint64_t> words,
                                     std::uint32_t weight) {
  std::int64_t dot = 0;
  for_each_set_bit_words(words, [&](std::size_t i) {
    dot += counts[i];
    counts[i] += weight;
  });
  return dot;
}

double cosine_distance_words(std::span<const std::int64_t> counts,
                             double centroid_norm,
                             std::span<const std::uint64_t> words,
                             double point_norm) {
  if (centroid_norm == 0.0 || point_norm == 0.0) {
    return 1.0;
  }
  return cosine_distance_from_dot(dot_counts_words(counts, words),
                                  centroid_norm, point_norm);
}

void CountPlanes::build(std::span<const std::int64_t> counts) {
  dim_ = counts.size();
  words_per_plane_ = words_for_dim(dim_);
  // OR of all counts: its bit width is exactly the number of planes
  // needed, and a set sign bit flags any negative input in one test.
  std::int64_t envelope = 0;
  for (const auto count : counts) {
    envelope |= count;
  }
  util::expects(envelope >= 0,
                "CountPlanes::build requires non-negative counts");
  planes_ = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(envelope)));
  storage_.assign(planes_ * words_per_plane_, 0);
  simd::active_backend().build_planes(counts, storage_, words_per_plane_);
}

std::span<const std::uint64_t> CountPlanes::plane(std::size_t b) const {
  util::expects(b < planes_, "CountPlanes::plane index within plane count");
  return std::span<const std::uint64_t>(
      storage_.data() + b * words_per_plane_, words_per_plane_);
}

std::int64_t dot_planes(const CountPlanes& planes,
                        std::span<const std::uint64_t> words,
                        const simd::KernelBackend& backend) {
  util::expects(words.size() == planes.words_per_plane(),
                "dot_planes word count must match the planes");
  std::int64_t sum = 0;
  for (std::size_t b = 0; b < planes.plane_count(); ++b) {
    sum += static_cast<std::int64_t>(backend.and_popcount(planes.plane(b),
                                                          words))
           << b;
  }
  return sum;
}

std::int64_t dot_planes(const CountPlanes& planes,
                        std::span<const std::uint64_t> words) {
  return dot_planes(planes, words, simd::active_backend());
}

double cosine_distance_planes(const CountPlanes& planes,
                              double centroid_norm,
                              std::span<const std::uint64_t> words,
                              double point_norm) {
  if (centroid_norm == 0.0 || point_norm == 0.0) {
    return 1.0;
  }
  return cosine_distance_from_dot(dot_planes(planes, words), centroid_norm,
                                  point_norm);
}

}  // namespace kernels

HvBlock::HvBlock(std::size_t dim, std::size_t count)
    : dim_(dim),
      words_per_hv_(kernels::words_for_dim(dim)),
      count_(count),
      storage_(words_per_hv_ * count, 0) {}

HvBlock HvBlock::from_hvs(std::span<const HyperVector> hvs) {
  if (hvs.empty()) {
    return HvBlock{};
  }
  HvBlock block(hvs[0].dim(), hvs.size());
  for (std::size_t i = 0; i < hvs.size(); ++i) {
    util::expects(hvs[i].dim() == block.dim_,
                  "HvBlock::from_hvs requires uniform dimensions");
    const auto src = hvs[i].words();
    const auto dst = block.row(i);
    for (std::size_t w = 0; w < src.size(); ++w) {
      dst[w] = src[w];
    }
  }
  return block;
}

std::span<std::uint64_t> HvBlock::row(std::size_t i) {
  util::expects(i < count_, "HvBlock::row index within block");
  return std::span<std::uint64_t>(storage_.data() + i * words_per_hv_,
                                  words_per_hv_);
}

std::span<const std::uint64_t> HvBlock::row(std::size_t i) const {
  util::expects(i < count_, "HvBlock::row index within block");
  return std::span<const std::uint64_t>(storage_.data() + i * words_per_hv_,
                                        words_per_hv_);
}

HyperVector HvBlock::to_hypervector(std::size_t i) const {
  return HyperVector::from_words(dim_, row(i));
}

std::size_t HvBlock::popcount(std::size_t i) const {
  return kernels::popcount_words(row(i));
}

}  // namespace seghdc::hdc
