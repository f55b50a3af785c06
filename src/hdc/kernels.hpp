// Word-parallel kernel layer for the SegHDC hot path.
//
// The pipeline's inner loops — XOR binding during encoding, Hamming and
// cosine distances during clustering — all reduce to passes over packed
// 64-bit words. This header provides (1) free kernels operating on raw
// `uint64_t` word spans, fused where it pays (XOR+popcount Hamming never
// materialises the XOR), (2) `HvBlock`, a structure-of-arrays container
// holding many packed HVs contiguously so those kernels stream through
// memory instead of chasing one heap allocation per `HyperVector`, and
// (3) `CountPlanes`, the bit-plane decomposition of an integer centroid
// that turns the cosine dot into a handful of AND+popcount passes.
// `SegHdc::encode` writes pixel HVs straight into an `HvBlock`, and
// `HvKMeans` runs its assignment step over block rows; per-point
// `HyperVector` temporaries never appear in either inner loop.
//
// This layer is a thin forwarding veneer: the word crunching is done by
// the runtime-dispatched backend subsystem in src/hdc/simd/ (scalar /
// Harley-Seal / AVX2 / NEON, selected per CPU at startup and
// overridable via SEGHDC_KERNEL_BACKEND). Call sites keep these
// signatures; every backend produces bit-identical integers.
//
// Invariants mirror `HyperVector`: bits are little-endian within each
// word and the padding bits of a row's last word are zero. Kernels rely
// on that invariant exactly like `HyperVector::popcount` does.
//
// Thread-safety: the free kernels are pure functions of their operands
// (plus the process-wide backend selection) — safe to call concurrently
// on any spans that don't alias a concurrent write. HvBlock and
// CountPlanes are plain containers: concurrent const access is safe,
// mutation is the caller's to synchronise.
#ifndef SEGHDC_HDC_KERNELS_HPP
#define SEGHDC_HDC_KERNELS_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/hdc/bitops.hpp"
#include "src/hdc/hypervector.hpp"
#include "src/hdc/simd/backend.hpp"

namespace seghdc::hdc {

namespace kernels {

// words_for_dim, padding_is_zero, and for_each_set_bit_words live in
// src/hdc/bitops.hpp (shared with HyperVector) and are re-exported by
// this namespace.

/// Number of set bits across `words`.
std::size_t popcount_words(std::span<const std::uint64_t> words);

/// Fused XOR+popcount Hamming distance: popcount(a ^ b) computed one
/// word at a time, no intermediate vector. Requires equal sizes.
std::size_t hamming_words(std::span<const std::uint64_t> a,
                          std::span<const std::uint64_t> b);

/// Early-exit Hamming through the given backend's bounded slot: may
/// abort the scan once the running distance reaches `bound`. The
/// returned BoundedScan's `value` is the exact distance whenever it is
/// < bound; when >= bound it may be partial but the true distance is
/// also >= bound (see simd::BoundedScan). Requires equal sizes.
simd::BoundedScan hamming_words_bounded(std::span<const std::uint64_t> a,
                                        std::span<const std::uint64_t> b,
                                        std::size_t bound,
                                        const simd::KernelBackend& backend);

/// Same, through the process-wide dispatched backend.
simd::BoundedScan hamming_words_bounded(std::span<const std::uint64_t> a,
                                        std::span<const std::uint64_t> b,
                                        std::size_t bound);

/// dst = a ^ b (the HDC binding operator). Requires equal sizes.
void xor_words(std::span<std::uint64_t> dst,
               std::span<const std::uint64_t> a,
               std::span<const std::uint64_t> b);

/// Dot product of an integer centroid against packed bits: the sum of
/// `counts[i]` over every set bit i of `words`. `counts` must cover the
/// bit span (counts.size() >= 64 * words.size() - padding).
std::int64_t dot_counts_words(std::span<const std::int64_t> counts,
                              std::span<const std::uint64_t> words);

/// Weighted accumulate into an integer centroid: counts[i] += weight
/// for every set bit i of `words`, as the scalar set-bit walk. It runs
/// for single rows only (Accumulator::add: the K-Means seeds and reseed
/// patches), so it has no backend slot; the K-Means update stages its
/// rows bit-sliced (hdc::StagedSum). Returns the sum of the pre-update
/// counts over those bits (the old-counts dot), which Accumulator::add
/// needs to keep the incremental norm exact in the same pass. Same span
/// contract as dot_counts_words.
std::int64_t accumulate_counts_words(std::span<std::int64_t> counts,
                                     std::span<const std::uint64_t> words,
                                     std::uint32_t weight);

/// Cosine distance (paper Eq. 7) between a packed binary point and an
/// integer centroid, with both norms precomputed by the caller (the
/// clusterer caches them): 1 - dot / (point_norm * centroid_norm).
/// Returns 1.0 when either norm is zero, matching
/// `Accumulator::cosine_distance`.
double cosine_distance_words(std::span<const std::int64_t> counts,
                             double centroid_norm,
                             std::span<const std::uint64_t> words,
                             double point_norm);

/// Bit-plane decomposition of a non-negative integer count vector (a
/// centroid snapshot): plane b is the packed bitmask of bit b across all
/// counts, so
///
///   dot(counts, x) = sum_b 2^b * popcount(plane_b AND x)
///
/// exactly. That reformulates the cosine dot — previously a bit-serial
/// walk of ~popcount(x) dependent adds — into `plane_count()` fused
/// AND+popcount passes over packed words: the same bandwidth-bound shape
/// as the Hamming kernel, and SIMD-accelerated by the same backends.
/// `HvKMeans` builds one per centroid per iteration (cost ~ one point's
/// worth of work, amortised over every point in the assignment step).
class CountPlanes {
 public:
  CountPlanes() = default;

  /// Rebuilds the planes from `counts` (all entries must be >= 0; the
  /// number of planes is the bit width of the largest count). Reuses
  /// storage across calls, so per-iteration snapshots do not allocate
  /// once warm.
  void build(std::span<const std::int64_t> counts);

  /// Count-vector length of the last build (0 before any build).
  std::size_t dim() const { return dim_; }
  /// Bit width of the largest count seen by the last build (0 for an
  /// all-zero or empty vector: the dot is 0 with no passes).
  std::size_t plane_count() const { return planes_; }
  /// Packed words per plane: words_for_dim(dim()).
  std::size_t words_per_plane() const { return words_per_plane_; }

  /// Packed bitmask of bit `b` of every count. Padding bits are zero.
  std::span<const std::uint64_t> plane(std::size_t b) const;

 private:
  std::size_t dim_ = 0;
  std::size_t words_per_plane_ = 0;
  std::size_t planes_ = 0;
  std::vector<std::uint64_t> storage_;
};

/// Word-blocked dot product: sum of counts over the set bits of `words`,
/// computed plane-by-plane with the given backend's fused AND+popcount.
/// Exact — bit-identical to dot_counts_words on the same counts.
std::int64_t dot_planes(const CountPlanes& planes,
                        std::span<const std::uint64_t> words,
                        const simd::KernelBackend& backend);

/// Same, through the process-wide dispatched backend.
std::int64_t dot_planes(const CountPlanes& planes,
                        std::span<const std::uint64_t> words);

/// Cosine distance (paper Eq. 7) via the word-blocked dot. Matches
/// cosine_distance_words bit for bit (the dot is the same integer, the
/// float arithmetic is the same expression).
double cosine_distance_planes(const CountPlanes& planes,
                              double centroid_norm,
                              std::span<const std::uint64_t> words,
                              double point_norm);

/// THE cosine float expression: every cosine-distance path (words,
/// planes, the pruned assignment's bound checks) must funnel the
/// integer dot through this one function so the rounding is identical
/// everywhere — that shared expression is what makes the pruned
/// assignment's float-threshold reasoning exact rather than
/// approximate. Returns 1.0 when either norm is zero.
inline double cosine_distance_from_dot(std::int64_t dot,
                                       double centroid_norm,
                                       double point_norm) {
  if (centroid_norm == 0.0 || point_norm == 0.0) {
    return 1.0;
  }
  return 1.0 - static_cast<double>(dot) / (point_norm * centroid_norm);
}

/// Result of a bounded plane dot. When `pruned` is false, `dot` is the
/// exact full dot (bit-identical to dot_planes). When true, the true
/// dot is provably <= the caller's `max_useful_dot` and `dot` holds
/// only the partial accumulation. `words_scanned` counts every word
/// streamed across all plane passes (backend-dependent on abort).
struct BoundedDot {
  std::int64_t dot;
  std::size_t words_scanned;
  bool pruned;
};

/// Early-exit word-blocked dot for the pruned cosine assignment:
/// computes dot(counts, x) plane-by-plane from the most significant
/// plane down, abandoning the scan once the dot provably cannot exceed
/// `max_useful_dot` (each remaining plane b contributes at most
/// 2^b * point_popcount, and the in-flight plane pass runs through the
/// backend's capped AND+popcount). Exact by the one-sided contract: a
/// dot > max_useful_dot is always returned exactly; a dot <=
/// max_useful_dot may come back as `pruned` instead. Pass a negative
/// `max_useful_dot` to disable pruning (the dot is always exact —
/// useful when no best-so-far exists yet). `point_popcount` must be
/// popcount(words).
BoundedDot dot_planes_bounded(const CountPlanes& planes,
                              std::span<const std::uint64_t> words,
                              std::size_t point_popcount,
                              std::int64_t max_useful_dot,
                              const simd::KernelBackend& backend);

}  // namespace kernels

/// Structure-of-arrays block of `count` packed binary HVs sharing one
/// dimensionality. Row i occupies words [i*words_per_hv, (i+1)*words_per_hv)
/// of one contiguous allocation; rows are what the kernels above consume.
class HvBlock {
 public:
  HvBlock() = default;

  /// `count` all-zero rows of dimension `dim`.
  HvBlock(std::size_t dim, std::size_t count);

  /// Packs existing HyperVectors (all of equal dimension) into a block.
  static HvBlock from_hvs(std::span<const HyperVector> hvs);

  /// Shared dimensionality of every row (bits per HV).
  std::size_t dim() const { return dim_; }
  /// Number of HVs in the block.
  std::size_t count() const { return count_; }
  /// Alias for count(), so the block drops into container-style call
  /// sites (`encoded.unique_hvs.size()`).
  std::size_t size() const { return count_; }
  /// True when the block holds no HVs.
  bool empty() const { return count_ == 0; }
  /// Packed words per row: words_for_dim(dim()).
  std::size_t words_per_hv() const { return words_per_hv_; }

  /// Packed words of HV `i`. Padding bits of the last word are zero as
  /// long as writers preserve the invariant (xor_words of clean inputs
  /// does, as does copying from a HyperVector).
  std::span<std::uint64_t> row(std::size_t i);
  std::span<const std::uint64_t> row(std::size_t i) const;

  /// Copies row `i` out as a standalone HyperVector.
  HyperVector to_hypervector(std::size_t i) const;

  /// Number of set bits in row `i`.
  std::size_t popcount(std::size_t i) const;

  /// The whole storage (count * words_per_hv words).
  std::span<const std::uint64_t> words() const { return storage_; }

 private:
  std::size_t dim_ = 0;
  std::size_t words_per_hv_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> storage_;
};

}  // namespace seghdc::hdc

#endif  // SEGHDC_HDC_KERNELS_HPP
