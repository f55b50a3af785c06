// Color encoder (paper Section III-②, Fig. 4).
//
// Per channel, 256 level HVs form a ladder where level k differs from
// level 0 in ~k*uc leading bits (uc = floor(d_channel / 256)), so the
// Hamming distance between two color values is proportional to their
// absolute difference — Manhattan distance in color space. For 3-channel
// images each channel owns d/3 dimensions and the per-channel level HVs
// are CONCATENATED (never XORed/multiplied, which would destroy the
// distance; see the paper's discussion of Fig. 4): the distance between
// two RGB triples is then the sum of the per-channel distances, i.e. the
// L1/Manhattan distance over RGB.
//
// The gamma hyper-parameter widens every flip run by a factor of gamma
// (Fig. 5), scaling color distances relative to position distances.
//
// Small-dimension note: the paper's fixed unit uc = floor(d_c/256) is 0
// when a channel has fewer than 256 dimensions (e.g. d=800 RGB gives 266
// per channel). This implementation spreads 256 levels evenly across a
// span of min(d_c, 255*uc*gamma or d_c) bits using integer interpolation,
// which reproduces the paper's ladder exactly when uc >= 1 and degrades
// gracefully (still monotone, still Manhattan-proportional) when it is
// not.
//
// Binding tables: next to each channel's ladder the encoder keeps its
// 256 level HVs *placed* at the channel's slice of the full dim-bit
// color HV, zeros elsewhere. A color HV is then the XOR of one placed
// row per channel, so the session's encode binds a pixel as
// row HV ^ column HV ^ the placed rows.
#ifndef SEGHDC_CORE_COLOR_ENCODER_HPP
#define SEGHDC_CORE_COLOR_ENCODER_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/core/config.hpp"
#include "src/hdc/hypervector.hpp"
#include "src/hdc/item_memory.hpp"
#include "src/hdc/kernels.hpp"
#include "src/util/rng.hpp"

namespace seghdc::core {

struct ColorEncoderConfig {
  std::size_t dim = 10000;   ///< total pixel-HV dimensionality
  std::size_t channels = 1;  ///< 1 (grayscale) or 3 (RGB)
  ColorEncoding encoding = ColorEncoding::kLevelLadder;
  std::size_t gamma = 1;     ///< flip-run widening factor (>= 1)
};

/// Precomputed per-channel color codebooks; serves the concatenated
/// color HV for a pixel's channel values. Immutable after construction.
class ColorEncoder {
 public:
  ColorEncoder(const ColorEncoderConfig& config, util::Rng& rng);

  const ColorEncoderConfig& config() const { return config_; }

  /// Dimensionality of channel c's sub-vector. Channels 0..C-2 get
  /// floor(dim/C); the last channel absorbs the remainder, so the
  /// concatenation is exactly `dim` wide.
  std::size_t channel_dim(std::size_t channel) const;

  /// Ladder span of channel c: hamming(level 0, level 255) in bits.
  /// (0 for the kRandom ablation, where distances carry no structure.)
  std::size_t channel_span(std::size_t channel) const;

  /// The channel-local HV for `value` in channel `channel`.
  const hdc::HyperVector& channel_hv(std::size_t channel,
                                     std::uint8_t value) const;

  /// Packed words of channel c's HV for `value`, placed at the
  /// channel's slice of a dim-bit HV (zeros outside it). XORing one
  /// placed row per channel gives the concatenated color HV.
  std::span<const std::uint64_t> placed(std::size_t channel,
                                        std::uint8_t value) const;

  /// The flip run [begin, end) of the full dim-bit color HV that turns
  /// channel c's level 0 into level `value`: the prefix
  /// [0, offset(value)) of the channel's slice. kLevelLadder only.
  std::pair<std::size_t, std::size_t> level_run(std::size_t channel,
                                                std::uint8_t value) const;

  /// Concatenated color HV for a pixel's channel values
  /// (values.size() must equal channels): the XOR of their placed rows.
  hdc::HyperVector encode(std::span<const std::uint8_t> values) const;

 private:
  ColorEncoderConfig config_;
  std::vector<std::size_t> channel_dims_;
  std::vector<std::size_t> channel_begins_;  ///< first bit of each slice
  std::vector<std::size_t> channel_spans_;
  // One codebook per channel; exactly one of the two vectors is populated
  // depending on the encoding variant.
  std::vector<std::unique_ptr<hdc::LevelItemMemory>> ladders_;
  std::vector<std::unique_ptr<hdc::RandomItemMemory>> randoms_;
  /// Row channel * 256 + value: channel_hv(channel, value) placed.
  hdc::HvBlock placed_;
};

}  // namespace seghdc::core

#endif  // SEGHDC_CORE_COLOR_ENCODER_HPP
