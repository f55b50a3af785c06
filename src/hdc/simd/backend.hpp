// Runtime-dispatched SIMD kernel backends for the packed-HV hot loops.
//
// Every inner loop of the pipeline — XOR binding, Hamming distance,
// masked popcounts for the word-blocked cosine — funnels through one
// `KernelBackend`: a vtable of word-span kernels. Several backends are
// compiled into every binary:
//
//   scalar       one std::popcount per word — the reference everything
//                else must match bit for bit
//   harley-seal  carry-save-adder popcount over 16-word blocks; portable,
//                ~3-5x fewer popcount reductions than scalar
//   avx2         256-bit vpshufb nibble-LUT popcount (x86-64 only,
//                compiled per-TU with target("avx2") attributes and
//                registered only when cpuid reports AVX2)
//   neon         128-bit vcnt popcount (aarch64 only)
//
// Selection is automatic at first use: the highest-priority backend
// whose `available()` probe passes, overridable per process via the
// SEGHDC_KERNEL_BACKEND environment variable ("scalar", "harley-seal",
// "avx2", "neon", or "auto") and per config via
// SegHdcConfig::kernel_backend. All backends produce bit-identical
// results — the property suite in tests/test_simd_backends.cpp runs
// every registered backend against the scalar reference, and the golden
// label hashes must not move under any of them.
//
// To add a backend: write src/hdc/simd/backend_<name>.cpp defining a
// `const KernelBackend* <name>_backend()` accessor (return nullptr when
// the TU is compiled out for the target), declare it below, and append
// it to the registry list in registry.cpp. Guard anything
// ISA-specific with function-level target attributes so the TU still
// compiles for every architecture. Every slot must be populated, and
// every slot scans its whole span: the K-Means assignment skips pairs
// with its own exact bounds, never inside a kernel.
#ifndef SEGHDC_HDC_SIMD_BACKEND_HPP
#define SEGHDC_HDC_SIMD_BACKEND_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace seghdc::hdc::simd {

/// Vtable of word-span kernels. All spans are packed little-endian
/// 64-bit words; binary ops require equal sizes (callers validate).
/// Implementations must be exact: the same inputs produce the same
/// integers on every backend, so labels and golden hashes never depend
/// on which backend dispatch picked.
struct KernelBackend {
  /// Registry name, also the SEGHDC_KERNEL_BACKEND spelling.
  const char* name;
  /// Auto-selection rank: the highest-priority available backend wins.
  int priority;
  /// Runtime probe (cpuid on x86); registered backends may still be
  /// unavailable on the executing CPU.
  bool (*available)();

  /// Number of set bits across `words`.
  std::size_t (*popcount)(std::span<const std::uint64_t> words);
  /// Fused XOR+popcount: popcount(a ^ b) without materialising the XOR.
  std::size_t (*hamming)(std::span<const std::uint64_t> a,
                         std::span<const std::uint64_t> b);
  /// Fused AND+popcount: popcount(a & b) — the per-plane primitive of
  /// the word-blocked cosine dot.
  std::size_t (*and_popcount)(std::span<const std::uint64_t> a,
                              std::span<const std::uint64_t> b);
  /// dst = a ^ b (the HDC binding operator).
  void (*xor_bind)(std::span<std::uint64_t> dst,
                   std::span<const std::uint64_t> a,
                   std::span<const std::uint64_t> b);
  /// Bit-plane scatter backing kernels::CountPlanes::build: for every
  /// count i and every set bit b of counts[i], sets bit (i % 64) of
  /// storage[b * words_per_plane + i / 64]. `storage` arrives zeroed and
  /// sized planes * words_per_plane with planes >= bit_width of every
  /// count; counts are non-negative (the caller validates).
  void (*build_planes)(std::span<const std::int64_t> counts,
                       std::span<std::uint64_t> storage,
                       std::size_t words_per_plane);
};

/// Every compiled-in backend, in registration order (scalar first).
/// Includes backends whose `available()` probe fails on this CPU.
std::span<const KernelBackend* const> registered_backends();

/// Registered backend by name, or nullptr when unknown. "auto" is not a
/// backend and returns nullptr.
const KernelBackend* find_backend(std::string_view name);

/// The backend all dispatched kernels route through. Resolved on first
/// call: SEGHDC_KERNEL_BACKEND if set (a hard error when it names an
/// unknown or unavailable backend — a forced backend silently falling
/// back would defeat the CI matrix), otherwise the highest-priority
/// available backend. Thread-safe.
const KernelBackend& active_backend();

/// Forces dispatch to `name` ("auto" re-runs automatic selection,
/// ignoring the environment). Throws std::invalid_argument when `name`
/// is unknown or unavailable on this CPU. Returns the now-active
/// backend. Process-global; intended for config plumbing, bench
/// `--backend` flags, and the per-backend test matrix. Thread-safe —
/// the switch is one atomic store, and because every backend computes
/// identical integers, kernels in flight during the switch still
/// return correct results.
const KernelBackend& force_backend(std::string_view name);

/// Clears any forced/resolved selection so the next active_backend()
/// call re-reads the environment. Test hook.
void reset_backend_selection();

}  // namespace seghdc::hdc::simd

#endif  // SEGHDC_HDC_SIMD_BACKEND_HPP
