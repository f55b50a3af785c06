// Subsystem-internal glue between the backend TUs and the registry:
// accessor declarations (one per TU — ISA-gated TUs return nullptr when
// compiled out) and the shared scalar kernels that every backend reuses
// for short spans and vector tails.
#ifndef SEGHDC_HDC_SIMD_BACKENDS_INTERNAL_HPP
#define SEGHDC_HDC_SIMD_BACKENDS_INTERNAL_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/hdc/simd/backend.hpp"

namespace seghdc::hdc::simd {

/// The scalar reference backend; always available.
const KernelBackend* scalar_backend();

/// The AVX2 backend, or nullptr when this binary targets a non-x86-64
/// architecture. Registered with a cpuid `available()` probe.
const KernelBackend* avx2_backend();

/// The NEON backend, or nullptr when this binary targets a non-aarch64
/// architecture.
const KernelBackend* neon_backend();

namespace detail {

/// Scalar kernels shared across backends (tail handling + reference).
inline std::size_t scalar_popcount(std::span<const std::uint64_t> words) {
  std::size_t count = 0;
  for (const auto word : words) {
    count += static_cast<std::size_t>(std::popcount(word));
  }
  return count;
}

inline std::size_t scalar_hamming(std::span<const std::uint64_t> a,
                                  std::span<const std::uint64_t> b) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < a.size(); ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return count;
}

inline std::size_t scalar_and_popcount(std::span<const std::uint64_t> a,
                                       std::span<const std::uint64_t> b) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < a.size(); ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return count;
}

inline void scalar_xor_bind(std::span<std::uint64_t> dst,
                            std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b) {
  for (std::size_t w = 0; w < dst.size(); ++w) {
    dst[w] = a[w] ^ b[w];
  }
}

/// Per-count countr_zero scatter — the reference for build_planes and
/// the shared tail handler for partial 64-count blocks.
void scalar_build_planes(std::span<const std::int64_t> counts,
                         std::span<std::uint64_t> storage,
                         std::size_t words_per_plane);

}  // namespace detail

}  // namespace seghdc::hdc::simd

#endif  // SEGHDC_HDC_SIMD_BACKENDS_INTERNAL_HPP
