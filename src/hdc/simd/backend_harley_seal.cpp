// Portable Harley-Seal popcount backend.
//
// A carry-save adder (CSA) tree folds 16 words into one "sixteens" word
// plus lower-order partials, so only 5 hardware/software popcounts run
// per 16-word block instead of 16. On baseline x86-64 builds (no
// -mpopcnt) std::popcount lowers to a multi-op SWAR sequence, which
// makes the 16:5 reduction worth ~3x; with a native popcnt instruction
// it still wins on long spans by shortening the dependent add chain.
// Everything here is plain uint64 arithmetic — exact on any target.
//
// The CSA core is templated over a word source so popcount (load),
// Hamming (load+XOR), and the cosine plane primitive (load+AND) share
// one implementation.
#include "src/hdc/simd/backends_internal.hpp"

namespace seghdc::hdc::simd {

namespace {

/// Carry-save adder: returns the sum bit, writes the carry into `high`.
inline std::uint64_t csa(std::uint64_t& high, std::uint64_t a,
                         std::uint64_t b, std::uint64_t c) {
  const std::uint64_t partial = a ^ b;
  high = (a & b) | (partial & c);
  return partial ^ c;
}

/// Popcount of `size` words produced by `word(i)`, Harley-Seal over
/// 16-word blocks with a scalar tail.
template <typename WordFn>
std::size_t harley_seal_count(std::size_t size, WordFn word) {
  std::uint64_t total = 0;
  std::uint64_t ones = 0;
  std::uint64_t twos = 0;
  std::uint64_t fours = 0;
  std::uint64_t eights = 0;
  std::size_t i = 0;
  for (; i + 16 <= size; i += 16) {
    std::uint64_t twos_a;
    std::uint64_t twos_b;
    std::uint64_t fours_a;
    std::uint64_t fours_b;
    std::uint64_t eights_a;
    std::uint64_t eights_b;
    std::uint64_t sixteens;
    ones = csa(twos_a, ones, word(i + 0), word(i + 1));
    ones = csa(twos_b, ones, word(i + 2), word(i + 3));
    twos = csa(fours_a, twos, twos_a, twos_b);
    ones = csa(twos_a, ones, word(i + 4), word(i + 5));
    ones = csa(twos_b, ones, word(i + 6), word(i + 7));
    twos = csa(fours_b, twos, twos_a, twos_b);
    fours = csa(eights_a, fours, fours_a, fours_b);
    ones = csa(twos_a, ones, word(i + 8), word(i + 9));
    ones = csa(twos_b, ones, word(i + 10), word(i + 11));
    twos = csa(fours_a, twos, twos_a, twos_b);
    ones = csa(twos_a, ones, word(i + 12), word(i + 13));
    ones = csa(twos_b, ones, word(i + 14), word(i + 15));
    twos = csa(fours_b, twos, twos_a, twos_b);
    fours = csa(eights_b, fours, fours_a, fours_b);
    eights = csa(sixteens, eights, eights_a, eights_b);
    total += static_cast<std::uint64_t>(std::popcount(sixteens));
  }
  total = 16 * total + 8 * static_cast<std::uint64_t>(std::popcount(eights)) +
          4 * static_cast<std::uint64_t>(std::popcount(fours)) +
          2 * static_cast<std::uint64_t>(std::popcount(twos)) +
          static_cast<std::uint64_t>(std::popcount(ones));
  for (; i < size; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(word(i)));
  }
  return static_cast<std::size_t>(total);
}

std::size_t hs_popcount(std::span<const std::uint64_t> words) {
  return harley_seal_count(words.size(),
                           [&](std::size_t i) { return words[i]; });
}

std::size_t hs_hamming(std::span<const std::uint64_t> a,
                       std::span<const std::uint64_t> b) {
  return harley_seal_count(a.size(),
                           [&](std::size_t i) { return a[i] ^ b[i]; });
}

std::size_t hs_and_popcount(std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b) {
  return harley_seal_count(a.size(),
                           [&](std::size_t i) { return a[i] & b[i]; });
}

bool always_available() { return true; }

const KernelBackend kHarleySealBackend{
    .name = "harley-seal",
    .priority = 10,
    .available = always_available,
    .popcount = hs_popcount,
    .hamming = hs_hamming,
    .and_popcount = hs_and_popcount,
    // Plain XOR is already one op per word; nothing to fold.
    .xor_bind = detail::scalar_xor_bind,
    // The scatter is index arithmetic, not popcounts; nothing to fold.
    .build_planes = detail::scalar_build_planes,
};

}  // namespace

const KernelBackend* harley_seal_backend() { return &kHarleySealBackend; }

}  // namespace seghdc::hdc::simd
