// The SegHDC pipeline (paper Fig. 2): position encoder ① + color encoder
// ② + pixel HV producer ③ + clusterer ④, orchestrated over an image.
//
//   SegHdc seghdc(config);
//   const SegmentationResult result = seghdc.segment(image);
//   // result.labels(x, y) in [0, config.clusters)
//
// SegHdc is stateless: every call rebuilds the encoder item memories.
// For many-image workloads use SegHdcSession (src/core/session.hpp),
// which caches that state per image geometry and batches via
// segment_many; SegHdc is a thin wrapper over a one-shot session and
// produces bitwise-identical results.
//
// The pipeline deduplicates pixels that provably share a pixel HV —
// identical (position block, color triple) — and clusters the unique set
// with multiplicities; this is semantically identical to per-pixel
// clustering and is what makes d = 10,000 tractable. Timings and op
// counts for both the deduplicated run and the paper-equivalent
// per-pixel cost model are reported in the result.
#ifndef SEGHDC_CORE_SEGHDC_HPP
#define SEGHDC_CORE_SEGHDC_HPP

#include <cstdint>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/op_counts.hpp"
#include "src/hdc/coded_points.hpp"
#include "src/hdc/kernels.hpp"
#include "src/imaging/image.hpp"

namespace seghdc::core {

/// The encoded form of an image: one HV per *unique* (position block,
/// color) pair plus the pixel -> unique-point mapping. Point u's HV is
/// carried in one or both of two forms:
///   - `coded`: the base HV B and point u's sorted flip-run endpoints
///     (hdc::CodedPoints; 6 for gray, 10 for RGB), for every config whose
///     HVs are flip runs — any position encoding but kRandom, colour
///     kLevelLadder, bit_error_rate 0. Empty otherwise.
///   - `unique_hvs`: the bound dense rows (row u = unique point u), one
///     contiguous block the word-span kernels stream. Always filled by
///     the public `encode()`; `segment()`, `segment_many()` and
///     `segment_stream()` skip the bind when the points are coded.
/// The clusterer and the margins use the coded points whenever they are
/// present; expanded, each equals its dense row bit for bit.
struct EncodedImage {
  hdc::CodedPoints coded;
  hdc::HvBlock unique_hvs;
  std::vector<std::uint32_t> weights;          ///< pixels per unique point
  std::vector<std::uint32_t> pixel_to_unique;  ///< row-major, size = pixels
  std::vector<std::uint8_t> intensities;       ///< per unique point (luma)
  std::size_t width = 0;
  std::size_t height = 0;
  OpCounts ops;  ///< encoding work actually performed

  /// Number of unique points, whichever form carries them.
  std::size_t point_count() const {
    return coded.empty() ? unique_hvs.count() : coded.count();
  }
};

struct SegmentationTimings {
  double encode_seconds = 0.0;
  double cluster_seconds = 0.0;
  double total_seconds = 0.0;
};

struct SegmentationResult {
  img::LabelMap labels;  ///< cluster index per pixel
  /// Per-pixel confidence margin (empty unless
  /// SegHdcConfig::compute_margins): distance to the second-closest
  /// centroid minus distance to the assigned one, in cosine-distance
  /// units (>= 0; larger = more confident).
  img::ImageF32 margins;
  std::size_t clusters = 0;
  std::size_t iterations_run = 0;
  std::size_t unique_points = 0;  ///< points actually clustered
  /// Unique points the K-Means update moved, one entry per iteration run
  /// (HvKMeansResult::moved_per_iteration): iteration 0 adds every
  /// point, a converged run ends on 0.
  std::vector<std::uint64_t> moved_per_iteration;
  std::vector<std::uint64_t> cluster_pixel_counts;
  SegmentationTimings timings;
  /// Work actually performed (after deduplication).
  OpCounts ops;
  /// Cost of the same segmentation without deduplication — the cost
  /// structure of the paper's reference implementation; this is what the
  /// device model projects onto the Raspberry Pi.
  OpCounts paper_equivalent_ops;
};

class SegHdc {
 public:
  /// Validates `config` (throws std::invalid_argument on bad values).
  explicit SegHdc(const SegHdcConfig& config);

  const SegHdcConfig& config() const { return config_; }

  /// Encodes every pixel of `image` (1 or 3 channels) into pixel HVs.
  /// Exposed separately for tests, ablations, and custom clustering.
  EncodedImage encode(const img::ImageU8& image) const;

  /// Full pipeline: encode + cluster + label map.
  SegmentationResult segment(const img::ImageU8& image) const;

 private:
  SegHdcConfig config_;
};

}  // namespace seghdc::core

#endif  // SEGHDC_CORE_SEGHDC_HPP
