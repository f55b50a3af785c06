#include "src/core/color_encoder.hpp"

#include <algorithm>

#include "src/util/contracts.hpp"

namespace seghdc::core {

namespace {
constexpr std::size_t kLevels = 256;
}  // namespace

ColorEncoder::ColorEncoder(const ColorEncoderConfig& config, util::Rng& rng)
    : config_(config) {
  util::expects(config_.channels == 1 || config_.channels == 3,
                "ColorEncoder supports 1 or 3 channels");
  util::expects(config_.dim >= config_.channels * 2,
                "ColorEncoder dim too small for the channel count");
  util::expects(config_.gamma >= 1, "ColorEncoder gamma must be >= 1");

  const std::size_t base = config_.dim / config_.channels;
  channel_dims_.resize(config_.channels, base);
  channel_dims_.back() = config_.dim - base * (config_.channels - 1);
  channel_spans_.resize(config_.channels, 0);

  for (std::size_t c = 0; c < config_.channels; ++c) {
    const std::size_t d_c = channel_dims_[c];
    if (config_.encoding == ColorEncoding::kRandom) {
      // RColor ablation: classical random codebook, no level structure.
      randoms_.push_back(
          std::make_unique<hdc::RandomItemMemory>(d_c, kLevels, rng));
      ladders_.push_back(nullptr);
      continue;
    }
    // Paper ladder: unit uc = floor(d_c/256), falling back to fractional
    // stepping when a whole unit per level does not fit. gamma widens
    // every flip run gamma-fold (Fig. 5: "0 can flip to 1 and then
    // change as long as to be 11"); the cumulative offsets clip at the
    // channel capacity, so nearby colors move gamma times further apart
    // while distant colors saturate.
    const std::size_t uc = d_c / kLevels;
    const std::size_t base_span =
        uc >= 1 ? (kLevels - 1) * uc
                : std::max<std::size_t>(
                      1, ((kLevels - 1) * d_c) / kLevels);
    std::vector<std::size_t> offsets(kLevels);
    for (std::size_t k = 0; k < kLevels; ++k) {
      const std::size_t base_offset = k * base_span / (kLevels - 1);
      offsets[k] = std::min(d_c, base_offset * config_.gamma);
    }
    channel_spans_[c] = offsets.back();
    ladders_.push_back(
        std::make_unique<hdc::LevelItemMemory>(d_c, std::move(offsets), rng));
    randoms_.push_back(nullptr);
  }

  // Place every level HV at its channel's slice of a full-width row: its
  // words shifted up to the slice's first bit. The rows are copies of
  // the ladders above, so no randomness is drawn here.
  placed_ = hdc::HvBlock(config_.dim, config_.channels * kLevels);
  std::size_t slice_begin = 0;
  for (std::size_t c = 0; c < config_.channels; ++c) {
    const std::size_t word = slice_begin / 64;
    const std::size_t shift = slice_begin % 64;
    for (std::size_t v = 0; v < kLevels; ++v) {
      const auto level = channel_hv(c, static_cast<std::uint8_t>(v)).words();
      const auto row = placed_.row(c * kLevels + v);
      for (std::size_t w = 0; w < level.size(); ++w) {
        row[word + w] |= level[w] << shift;
        // The level's padding bits are zero, so a spill past the row's
        // last word would carry none.
        if (shift != 0 && word + w + 1 < row.size()) {
          row[word + w + 1] |= level[w] >> (64 - shift);
        }
      }
    }
    channel_begins_.push_back(slice_begin);
    slice_begin += channel_dims_[c];
  }
}

std::size_t ColorEncoder::channel_dim(std::size_t channel) const {
  util::expects(channel < config_.channels,
                "ColorEncoder::channel_dim channel in range");
  return channel_dims_[channel];
}

std::size_t ColorEncoder::channel_span(std::size_t channel) const {
  util::expects(channel < config_.channels,
                "ColorEncoder::channel_span channel in range");
  return channel_spans_[channel];
}

const hdc::HyperVector& ColorEncoder::channel_hv(std::size_t channel,
                                                 std::uint8_t value) const {
  util::expects(channel < config_.channels,
                "ColorEncoder::channel_hv channel in range");
  if (config_.encoding == ColorEncoding::kRandom) {
    return randoms_[channel]->at(value);
  }
  return ladders_[channel]->at(value);
}

std::pair<std::size_t, std::size_t> ColorEncoder::level_run(
    std::size_t channel, std::uint8_t value) const {
  util::expects(config_.encoding == ColorEncoding::kLevelLadder,
                "ColorEncoder::level_run needs the level ladder");
  util::expects(channel < config_.channels,
                "ColorEncoder::level_run channel in range");
  const std::size_t begin = channel_begins_[channel];
  return {begin, begin + ladders_[channel]->offset(value)};
}

std::span<const std::uint64_t> ColorEncoder::placed(
    std::size_t channel, std::uint8_t value) const {
  util::expects(channel < config_.channels,
                "ColorEncoder::placed channel in range");
  return placed_.row(channel * kLevels + value);
}

hdc::HyperVector ColorEncoder::encode(
    std::span<const std::uint8_t> values) const {
  util::expects(values.size() == config_.channels,
                "ColorEncoder::encode needs one value per channel");
  const auto first = placed(0, values[0]);
  std::vector<std::uint64_t> words(first.begin(), first.end());
  for (std::size_t c = 1; c < config_.channels; ++c) {
    hdc::kernels::xor_words(words, words, placed(c, values[c]));
  }
  return hdc::HyperVector::from_words(config_.dim, words);
}

}  // namespace seghdc::core
