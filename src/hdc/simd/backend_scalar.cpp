// The scalar reference backend: one std::popcount / XOR per word,
// exactly the pre-subsystem kernel code. Every other backend is tested
// for bit-identical agreement against this one.
#include "src/hdc/simd/backends_internal.hpp"

#include "src/hdc/bitops.hpp"

namespace seghdc::hdc::simd {

namespace detail {

std::int64_t scalar_dot_counts(std::span<const std::int64_t> counts,
                               std::span<const std::uint64_t> words) {
  std::int64_t sum = 0;
  kernels::for_each_set_bit_words(words,
                                  [&](std::size_t i) { sum += counts[i]; });
  return sum;
}

void scalar_build_planes(std::span<const std::int64_t> counts,
                         std::span<std::uint64_t> storage,
                         std::size_t words_per_plane) {
  for (std::size_t i = 0; i < counts.size(); ++i) {
    auto bits = static_cast<std::uint64_t>(counts[i]);
    const std::uint64_t mask = std::uint64_t{1} << (i % 64);
    const std::size_t word = i / 64;
    while (bits != 0) {
      const auto b = static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      storage[b * words_per_plane + word] |= mask;
    }
  }
}

}  // namespace detail

namespace {

bool always_available() { return true; }

const KernelBackend kScalarBackend{
    .name = "scalar",
    .priority = 0,
    .available = always_available,
    .popcount = detail::scalar_popcount,
    .hamming = detail::scalar_hamming,
    .and_popcount = detail::scalar_and_popcount,
    .xor_bind = detail::scalar_xor_bind,
    .dot_counts = detail::scalar_dot_counts,
    .build_planes = detail::scalar_build_planes,
};

}  // namespace

const KernelBackend* scalar_backend() { return &kScalarBackend; }

}  // namespace seghdc::hdc::simd
