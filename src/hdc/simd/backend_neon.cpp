// NEON backend for the aarch64 (Raspberry Pi) target.
//
// vcnt counts bits per byte; blocks of up to 31 vectors accumulate
// those byte counts in a u8 lane accumulator (31 * 8 = 248 < 255, no
// overflow) before one horizontal vaddlvq_u8 fold — one widen per
// block instead of one per vector. Hamming and the cosine plane
// primitive fuse their XOR/AND into the same pass. NEON is baseline on
// aarch64, so no runtime probe or target attribute is needed; on other
// architectures the accessor returns nullptr.
#include "src/hdc/simd/backends_internal.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>

namespace seghdc::hdc::simd {

namespace {

/// Popcount of `size` words produced by `vec(i)` (two words per
/// uint8x16_t), blocked to amortise the horizontal fold.
template <typename VecFn>
inline std::uint64_t neon_count(std::size_t vectors, VecFn vec) {
  std::uint64_t total = 0;
  std::size_t v = 0;
  while (v < vectors) {
    const std::size_t block_end = std::min(vectors, v + 31);
    uint8x16_t acc = vdupq_n_u8(0);
    for (; v < block_end; ++v) {
      acc = vaddq_u8(acc, vcntq_u8(vec(v)));
    }
    total += vaddlvq_u8(acc);
  }
  return total;
}

inline uint8x16_t load_u8x16(const std::uint64_t* p) {
  return vreinterpretq_u8_u64(vld1q_u64(p));
}

std::size_t neon_popcount(std::span<const std::uint64_t> words) {
  const std::size_t vectors = words.size() / 2;
  std::uint64_t total = neon_count(
      vectors, [&](std::size_t v) { return load_u8x16(&words[2 * v]); });
  for (std::size_t i = 2 * vectors; i < words.size(); ++i) {
    total += static_cast<std::uint64_t>(std::popcount(words[i]));
  }
  return static_cast<std::size_t>(total);
}

std::size_t neon_hamming(std::span<const std::uint64_t> a,
                         std::span<const std::uint64_t> b) {
  const std::size_t vectors = a.size() / 2;
  std::uint64_t total = neon_count(vectors, [&](std::size_t v) {
    return veorq_u8(load_u8x16(&a[2 * v]), load_u8x16(&b[2 * v]));
  });
  for (std::size_t i = 2 * vectors; i < a.size(); ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
  }
  return static_cast<std::size_t>(total);
}

std::size_t neon_and_popcount(std::span<const std::uint64_t> a,
                              std::span<const std::uint64_t> b) {
  const std::size_t vectors = a.size() / 2;
  std::uint64_t total = neon_count(vectors, [&](std::size_t v) {
    return vandq_u8(load_u8x16(&a[2 * v]), load_u8x16(&b[2 * v]));
  });
  for (std::size_t i = 2 * vectors; i < a.size(); ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return static_cast<std::size_t>(total);
}

void neon_xor_bind(std::span<std::uint64_t> dst,
                   std::span<const std::uint64_t> a,
                   std::span<const std::uint64_t> b) {
  std::size_t i = 0;
  for (; i + 2 <= dst.size(); i += 2) {
    vst1q_u64(&dst[i], veorq_u64(vld1q_u64(&a[i]), vld1q_u64(&b[i])));
  }
  for (; i < dst.size(); ++i) {
    dst[i] = a[i] ^ b[i];
  }
}

bool always_available() { return true; }

const KernelBackend kNeonBackend{
    .name = "neon",
    .priority = 30,
    .available = always_available,
    .popcount = neon_popcount,
    .hamming = neon_hamming,
    .and_popcount = neon_and_popcount,
    .xor_bind = neon_xor_bind,
    // The scatter is index arithmetic; vcnt has nothing to add.
    .build_planes = detail::scalar_build_planes,
};

}  // namespace

const KernelBackend* neon_backend() { return &kNeonBackend; }

}  // namespace seghdc::hdc::simd

#else  // non-aarch64 targets: backend compiled out.

namespace seghdc::hdc::simd {

const KernelBackend* neon_backend() { return nullptr; }

}  // namespace seghdc::hdc::simd

#endif
