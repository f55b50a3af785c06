// AVX2 backend: 256-bit vpshufb nibble-LUT popcount (Mula's method).
//
// Each 256-bit lane splits every byte into two nibbles, table-looks-up
// their popcounts with vpshufb, and horizontally folds the byte sums
// with vpsadbw into four 64-bit partials — 4 words per vector, no
// cross-lane shuffles, exact integer arithmetic. Hamming and the cosine
// plane primitive fuse their XOR/AND into the same pass.
//
// The whole TU compiles on any x86-64 toolchain without global -mavx2:
// every vector function carries a function-level target("avx2")
// attribute, and dispatch only routes here when the cpuid probe
// (cpu_has_avx2) passes at runtime. On non-x86-64 targets the accessor
// returns nullptr and the registry skips the backend entirely.
#include "src/hdc/simd/backends_internal.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include "src/hdc/simd/cpu_features.hpp"

namespace seghdc::hdc::simd {

namespace {

#define SEGHDC_AVX2 __attribute__((target("avx2")))

/// Per-byte popcount of `v` via two vpshufb nibble lookups, folded to
/// four u64 partial sums with vpsadbw.
SEGHDC_AVX2 inline __m256i popcount_epi64(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

SEGHDC_AVX2 inline std::uint64_t reduce_epi64(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

SEGHDC_AVX2 std::size_t avx2_popcount(std::span<const std::uint64_t> words) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= words.size(); i += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(words.data() + i));
    acc = _mm256_add_epi64(acc, popcount_epi64(v));
  }
  std::uint64_t total = reduce_epi64(acc);
  for (; i < words.size(); ++i) {
    total += static_cast<std::uint64_t>(std::popcount(words[i]));
  }
  return static_cast<std::size_t>(total);
}

SEGHDC_AVX2 std::size_t avx2_hamming(std::span<const std::uint64_t> a,
                                     std::span<const std::uint64_t> b) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= a.size(); i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + i));
    acc = _mm256_add_epi64(acc, popcount_epi64(_mm256_xor_si256(va, vb)));
  }
  std::uint64_t total = reduce_epi64(acc);
  for (; i < a.size(); ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
  }
  return static_cast<std::size_t>(total);
}

SEGHDC_AVX2 std::size_t avx2_and_popcount(std::span<const std::uint64_t> a,
                                          std::span<const std::uint64_t> b) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= a.size(); i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + i));
    acc = _mm256_add_epi64(acc, popcount_epi64(_mm256_and_si256(va, vb)));
  }
  std::uint64_t total = reduce_epi64(acc);
  for (; i < a.size(); ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return static_cast<std::size_t>(total);
}

SEGHDC_AVX2 void avx2_xor_bind(std::span<std::uint64_t> dst,
                               std::span<const std::uint64_t> a,
                               std::span<const std::uint64_t> b) {
  std::size_t i = 0;
  for (; i + 4 <= dst.size(); i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst.data() + i),
                        _mm256_xor_si256(va, vb));
  }
  for (; i < dst.size(); ++i) {
    dst[i] = a[i] ^ b[i];
  }
}

/// Plane scatter via sign-bit extraction: shifting bit b of four counts
/// up to bit 63 turns movemask_pd into a 4-wide bit gather, so each
/// plane word of a 64-count block assembles from 16 shift+movemask
/// pairs. A per-block OR envelope skips planes the block never reaches
/// (storage arrives zeroed).
SEGHDC_AVX2 void avx2_build_planes(std::span<const std::int64_t> counts,
                                   std::span<std::uint64_t> storage,
                                   std::size_t words_per_plane) {
  const std::size_t full = counts.size() / 64;
  for (std::size_t block = 0; block < full; ++block) {
    const std::int64_t* base = counts.data() + block * 64;
    __m256i envelope_vec = _mm256_setzero_si256();
    for (std::size_t g = 0; g < 16; ++g) {
      envelope_vec = _mm256_or_si256(
          envelope_vec, _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(base + 4 * g)));
    }
    const __m128i env_fold =
        _mm_or_si128(_mm256_castsi256_si128(envelope_vec),
                     _mm256_extracti128_si256(envelope_vec, 1));
    const auto envelope = static_cast<std::uint64_t>(
        _mm_extract_epi64(env_fold, 0) | _mm_extract_epi64(env_fold, 1));
    const auto block_planes =
        static_cast<std::size_t>(std::bit_width(envelope));
    for (std::size_t b = 0; b < block_planes; ++b) {
      const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(63 - b));
      std::uint64_t word = 0;
      for (std::size_t g = 0; g < 16; ++g) {
        const __m256i v = _mm256_sll_epi64(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(base + 4 * g)),
            shift);
        word |= static_cast<std::uint64_t>(static_cast<unsigned>(
                    _mm256_movemask_pd(_mm256_castsi256_pd(v))))
                << (4 * g);
      }
      storage[b * words_per_plane + block] = word;
    }
  }
  if (full * 64 < counts.size()) {
    // Partial trailing block via the reference scatter; the plane/word
    // layout is global, so pass the tail with its original word index.
    for (std::size_t i = full * 64; i < counts.size(); ++i) {
      auto bits = static_cast<std::uint64_t>(counts[i]);
      const std::uint64_t mask = std::uint64_t{1} << (i % 64);
      while (bits != 0) {
        const auto b = static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        storage[b * words_per_plane + full] |= mask;
      }
    }
  }
}

#undef SEGHDC_AVX2

const KernelBackend kAvx2Backend{
    .name = "avx2",
    .priority = 30,
    .available = cpu_has_avx2,
    .popcount = avx2_popcount,
    .hamming = avx2_hamming,
    .and_popcount = avx2_and_popcount,
    .xor_bind = avx2_xor_bind,
    .build_planes = avx2_build_planes,
};

}  // namespace

const KernelBackend* avx2_backend() { return &kAvx2Backend; }

}  // namespace seghdc::hdc::simd

#else  // non-x86-64 targets: backend compiled out.

namespace seghdc::hdc::simd {

const KernelBackend* avx2_backend() { return nullptr; }

}  // namespace seghdc::hdc::simd

#endif
