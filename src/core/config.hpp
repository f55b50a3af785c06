// Configuration of the SegHDC pipeline (paper Section III).
//
// The hyper-parameters map 1:1 onto the paper's:
//   dim        — hypervector dimensionality d (Section II; default 10,000)
//   alpha      — decay ratio of the position flip unit (Eq. 5)
//   beta       — spatial block size: beta x beta pixel tiles share one
//                position HV (Fig. 3(d))
//   gamma      — color flip-run widening, i.e. the color:position distance
//                weight (Fig. 5)
//   clusters   — K of the K-Means clusterer (2 for BBBC005/DSB2018,
//                3 for MoNuSeg in Section IV-A)
//   iterations — K-Means iteration budget (default 10)
#ifndef SEGHDC_CORE_CONFIG_HPP
#define SEGHDC_CORE_CONFIG_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace seghdc::core {

/// Position-encoding variants, in the order the paper develops them
/// (Fig. 3(a)-(d)), plus the classical random codebook used by the RPos
/// ablation in Table I.
enum class PositionEncoding {
  /// Fig. 3(a): rows and columns both flip from bit 0 — distances
  /// collide (kept for the ablation study; do not use for segmentation).
  kUniform,
  /// Fig. 3(b): rows flip in the first half, columns in the second half;
  /// exact Manhattan distance, flip unit d/(2N).
  kManhattan,
  /// Fig. 3(c): Manhattan with decay ratio alpha (Eq. 5).
  kDecayManhattan,
  /// Fig. 3(d): decay Manhattan over beta x beta blocks — the SegHDC
  /// default.
  kBlockDecayManhattan,
  /// RPos ablation: i.i.d. random row/column HVs (classical HDC [17]).
  kRandom,
};

/// Color-encoding variants: the paper's Manhattan level ladder
/// (Section III-2) and the classical random codebook (RColor ablation).
enum class ColorEncoding {
  kLevelLadder,
  kRandom,
};

/// How the position flip unit is derived when beta > 1.
enum class FlipUnitBasis {
  /// x = max(1, floor(alpha*d / (2*N_rows))) — the literal Eq. 5 (floored
  /// at one bit so small dimensions stay non-degenerate). With block size
  /// beta only N_rows/beta ladder steps are taken, so the ladder spans
  /// ~alpha*d/(2*beta) bits: position distance stays SMALL relative to
  /// color distance, gently smoothing clusters without overriding color.
  /// This matches the paper's reported behaviour at every configuration
  /// it evaluates (including d=800, alpha=1 in Table II) and is the
  /// default.
  kRows,
  /// x = floor(alpha*d / (2*N_blocks)) — Eq. 5 applied to the number of
  /// distinct blocks, so the ladder always spans alpha*d/2 bits
  /// regardless of beta. Position and color distances become comparable;
  /// useful for position-dominant ablations, but at alpha near 1 spatial
  /// proximity overrides color and segmentation degenerates into
  /// quadrant clustering.
  kBlocks,
};

/// Distance used by the clusterer: the paper uses cosine (Eq. 7);
/// Hamming against majority-binarized centroids is provided for ablation.
enum class ClusterDistance {
  kCosine,
  kHamming,
};

/// K-Means assignment strategy. Both modes produce bit-identical
/// assignments (the bound filter only skips pairs that provably cannot
/// win, with ties still broken by the lowest index); the choice is
/// purely a performance knob.
enum class AssignMode {
  /// The cosine scan runs behind Elkan's triangle-inequality bounds at
  /// every cluster count, skipping the points whose nearest centroid
  /// provably cannot change and the candidates that provably lose (the
  /// Hamming ablation scans exhaustively). Defers to the
  /// SEGHDC_ASSIGN_MODE environment variable when it is set ("auto",
  /// "exhaustive"; anything else is a hard error).
  kAuto,
  /// Always scan every centroid with full-length kernels: the reference
  /// kAuto is tested against. Allocates no bounds, so it is the
  /// memory-lean choice for large K (see docs/TUNING.md).
  kExhaustive,
};

/// Full SegHDC pipeline configuration.
///
/// A config (plus the image) fully determines the segmentation output:
/// the seed drives every random draw, and all parallel paths (the
/// encoder bind pass, the K-Means assignment and update steps,
/// SegHdcSession::segment_many sharding) are schedule-independent. The
/// same config therefore yields the same label map through SegHdc,
/// SegHdcSession, and segment_many at any thread count.
struct SegHdcConfig {
  /// Hypervector dimensionality d (paper Section II; >= 8).
  std::size_t dim = 10000;
  /// Decay ratio of the position flip unit, in (0, 1] (paper Eq. 5).
  double alpha = 0.2;
  /// Spatial block size: beta x beta pixel tiles share one position HV
  /// (paper Fig. 3(d); >= 1, where 1 disables blocking).
  std::size_t beta = 26;
  /// Color flip-run widening — the color:position distance weight
  /// (paper Fig. 5; >= 1).
  std::size_t gamma = 1;
  /// K of the K-Means clusterer (>= 2; labels are in [0, clusters)).
  std::size_t clusters = 2;
  /// K-Means iteration budget (>= 1; see stop_on_convergence).
  std::size_t iterations = 10;
  /// Seed of every random draw in the pipeline. Same (config, image) =>
  /// same output, bit for bit, on every path and thread count.
  std::uint64_t seed = 42;
  /// Position-encoding variant (paper default: block decay Manhattan).
  PositionEncoding position_encoding = PositionEncoding::kBlockDecayManhattan;
  /// Color-encoding variant (paper default: the Manhattan level ladder).
  ColorEncoding color_encoding = ColorEncoding::kLevelLadder;
  /// How the position flip unit is derived when beta > 1 (see enum).
  FlipUnitBasis flip_unit_basis = FlipUnitBasis::kRows;
  /// Clustering distance (paper: cosine, Eq. 7).
  ClusterDistance cluster_distance = ClusterDistance::kCosine;
  /// K-Means assignment strategy (see AssignMode). kAuto (the default)
  /// filters with chord bounds and defers to SEGHDC_ASSIGN_MODE when
  /// set; both modes are bit-identical, so this is a performance knob,
  /// never a semantics knob.
  AssignMode assign_mode = AssignMode::kAuto;
  /// Deduplicate pixels sharing (position block, color) before
  /// clustering. Exactly equivalent to per-pixel clustering (weighted
  /// centroids), orders of magnitude faster. Disable only to measure the
  /// naive cost.
  bool deduplicate = true;
  /// Drops this many low bits of every channel value before encoding
  /// (0 = encode exact colors, the paper's setting). Quantisation
  /// collapses sensor noise into shared dedup keys, trading a little
  /// color resolution for a large clustering speedup; 2-3 is
  /// indistinguishable on the benchmark suites (see the ablation bench).
  std::size_t color_quantization_shift = 0;
  /// Fault-injection knob: probability that each bit of every encoded
  /// pixel HV is flipped before clustering (models approximate/faulty
  /// associative memory; 0 = fault-free). HDC's holographic encoding
  /// makes segmentation degrade gracefully — see bench_robustness.
  double bit_error_rate = 0.0;
  /// Extension over the paper's fixed iteration budget: stop clustering
  /// once an iteration changes no assignment (paper Fig. 7(a)/8 show
  /// saturation by iteration ~4). Identical output, lower latency.
  bool stop_on_convergence = false;
  /// Extension: also produce a per-pixel confidence margin (cosine
  /// distance to the runner-up centroid minus distance to the assigned
  /// one; larger = more confident). Costs one extra assignment pass.
  bool compute_margins = false;
  /// Height of the row bands the encode is cut into (cold images and
  /// stream frames alike), rounded up to a multiple of the block height
  /// (beta for kBlockDecayManhattan, 1 otherwise) and capped at the
  /// image height; 0 = the default, 16 rows before rounding. Each band
  /// builds its own dedup table in parallel. Bands cut at block
  /// boundaries share no dedup key, so unique-point IDs come out in
  /// exactly the serial row-major first-occurrence order: labels are
  /// bit-identical for every value at every thread count. On a stream,
  /// bands are also the reuse granularity. A performance knob, never a
  /// semantics knob.
  std::size_t tile_rows = 0;
  /// Forces the process-wide span tracer (src/obs/trace.hpp) on when a
  /// session/pipeline is constructed with this config. false (the
  /// default) defers to the SEGHDC_TRACE environment variable ("1" =
  /// on, "0"/unset = leave off, anything else is a hard error). Tracing
  /// is purely observational: labels are bit-identical with it on or
  /// off, at every backend and pool size.
  bool trace = false;
  /// SIMD kernel-backend override (src/hdc/simd/): "" leaves the
  /// process-wide selection alone (SEGHDC_KERNEL_BACKEND environment
  /// variable, else automatic CPU detection); otherwise a registered
  /// backend name ("scalar", "avx2", "neon") or "auto"
  /// to re-run detection. Applied when a session/pipeline is
  /// constructed; every backend yields bit-identical labels, so this is
  /// a performance knob, never a semantics knob.
  std::string kernel_backend{};

  /// Throws std::invalid_argument when any parameter is out of range.
  void validate() const;

  /// Table I ablation variants: same configuration with the position
  /// (RPos) or color (RColor) encoder replaced by the classical random
  /// codebook.
  SegHdcConfig rpos_variant() const;
  SegHdcConfig rcolor_variant() const;
};

}  // namespace seghdc::core

#endif  // SEGHDC_CORE_CONFIG_HPP
