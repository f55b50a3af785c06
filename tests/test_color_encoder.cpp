// Property tests for the color encoder (paper Section III-②, Fig. 4):
// per-channel Manhattan ladders, concatenation additivity, gamma
// weighting, and the RColor random-codebook ablation.
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <string>
#include <vector>

#include "src/core/color_encoder.hpp"
#include "src/hdc/distances.hpp"

namespace {

using namespace seghdc;
using namespace seghdc::core;

ColorEncoder make(std::size_t dim, std::size_t channels,
                  ColorEncoding encoding = ColorEncoding::kLevelLadder,
                  std::size_t gamma = 1, std::uint64_t seed = 21) {
  util::Rng rng(seed);
  return ColorEncoder(ColorEncoderConfig{.dim = dim,
                                         .channels = channels,
                                         .encoding = encoding,
                                         .gamma = gamma},
                      rng);
}

TEST(ColorEncoder, SingleChannelLadderUnits) {
  // d = 2048: uc = 8, so hamming(v_a, v_b) = 8 * |a-b| exactly.
  const auto encoder = make(2048, 1);
  const std::size_t uc = 2048 / 256;
  EXPECT_EQ(hdc::hamming_distance(encoder.channel_hv(0, 0),
                                  encoder.channel_hv(0, 1)),
            uc);
  EXPECT_EQ(hdc::hamming_distance(encoder.channel_hv(0, 10),
                                  encoder.channel_hv(0, 110)),
            100 * uc);
  EXPECT_EQ(hdc::hamming_distance(encoder.channel_hv(0, 0),
                                  encoder.channel_hv(0, 255)),
            255 * uc);
}

TEST(ColorEncoder, DistanceProportionalToValueDifference) {
  const auto encoder = make(2048, 1);
  // Strict monotonicity in |a-b| for a fixed anchor.
  std::size_t previous = 0;
  for (const std::uint8_t value : {1, 4, 16, 64, 255}) {
    const auto d = hdc::hamming_distance(encoder.channel_hv(0, 0),
                                         encoder.channel_hv(0, value));
    EXPECT_GT(d, previous);
    previous = d;
  }
}

TEST(ColorEncoder, ChannelDimsSumToTotal) {
  for (const std::size_t dim : {800u, 2000u, 10000u, 999u}) {
    const auto encoder = make(dim, 3);
    EXPECT_EQ(encoder.channel_dim(0) + encoder.channel_dim(1) +
                  encoder.channel_dim(2),
              dim)
        << "dim " << dim;
    EXPECT_EQ(encoder.encode(std::array<std::uint8_t, 3>{1, 2, 3}).dim(),
              dim);
  }
}

TEST(ColorEncoder, ThreeChannelDistanceIsSumOfChannelDistances) {
  // The Fig. 4 property: concatenation preserves per-channel Manhattan
  // distances additively (RGB L1 distance).
  const auto encoder = make(3072, 3);  // 1024/channel, uc = 4
  const std::array<std::uint8_t, 3> a{10, 200, 47};
  const std::array<std::uint8_t, 3> b{60, 180, 47};
  std::size_t expected = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    expected += hdc::hamming_distance(encoder.channel_hv(c, a[c]),
                                      encoder.channel_hv(c, b[c]));
  }
  EXPECT_EQ(hdc::hamming_distance(encoder.encode(a), encoder.encode(b)),
            expected);
  EXPECT_GT(expected, 0u);
}

TEST(ColorEncoder, PaperExampleLayout) {
  // Paper Fig. 4: for color [255, i, 0] the first d/3 bits come from the
  // R ladder at 255, the middle from G at i, the rest from B at 0.
  const auto encoder = make(768, 3);
  const std::array<std::uint8_t, 3> color{255, 100, 0};
  const auto hv = encoder.encode(color);
  const auto r = encoder.channel_hv(0, 255);
  const auto g = encoder.channel_hv(1, 100);
  const auto b = encoder.channel_hv(2, 0);
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(hv.get(i), r.get(i));
    EXPECT_EQ(hv.get(256 + i), g.get(i));
    EXPECT_EQ(hv.get(512 + i), b.get(i));
  }
}

TEST(ColorEncoder, SmallDimensionStillMonotone) {
  // d = 800 RGB -> 266 dims/channel, uc floors to 0; the fractional
  // ladder must still order distances by |a-b|.
  const auto encoder = make(800, 3);
  EXPECT_GT(encoder.channel_span(0), 0u);
  const auto d_small = hdc::hamming_distance(encoder.channel_hv(0, 0),
                                             encoder.channel_hv(0, 8));
  const auto d_big = hdc::hamming_distance(encoder.channel_hv(0, 0),
                                           encoder.channel_hv(0, 200));
  EXPECT_LT(d_small, d_big);
  EXPECT_GT(d_big, 100u);
}

TEST(ColorEncoder, GammaScalesColorDistance) {
  // gamma widens flip runs: distances scale ~linearly in gamma until the
  // channel saturates (Fig. 5 weighting).
  const auto g1 = make(4096, 1, ColorEncoding::kLevelLadder, 1);
  const auto g2 = make(4096, 1, ColorEncoding::kLevelLadder, 2);
  const auto d1 = hdc::hamming_distance(g1.channel_hv(0, 0),
                                        g1.channel_hv(0, 50));
  const auto d2 = hdc::hamming_distance(g2.channel_hv(0, 0),
                                        g2.channel_hv(0, 50));
  EXPECT_NEAR(static_cast<double>(d2) / static_cast<double>(d1), 2.0, 0.1);
}

TEST(ColorEncoder, GammaClampsAtChannelDimension) {
  // Extreme gamma cannot exceed the channel's capacity.
  const auto encoder = make(512, 1, ColorEncoding::kLevelLadder, 1000);
  EXPECT_LE(encoder.channel_span(0), 512u);
  EXPECT_EQ(hdc::hamming_distance(encoder.channel_hv(0, 0),
                                  encoder.channel_hv(0, 255)),
            encoder.channel_span(0));
}

TEST(ColorEncoder, RandomCodebookHasNoStructure) {
  // RColor ablation: neighbouring values are as far apart as distant
  // ones (~0.5 normalized).
  const auto encoder = make(8192, 1, ColorEncoding::kRandom);
  const auto near = hdc::normalized_hamming(encoder.channel_hv(0, 100),
                                            encoder.channel_hv(0, 101));
  const auto far = hdc::normalized_hamming(encoder.channel_hv(0, 0),
                                           encoder.channel_hv(0, 255));
  EXPECT_NEAR(near, 0.5, 0.05);
  EXPECT_NEAR(far, 0.5, 0.05);
}

TEST(ColorEncoder, EncodeEqualsConcatOfChannelHvs) {
  // encode() XORs one placed row per channel; that must be exactly the
  // concatenation of the channel HVs, at every level of every channel,
  // including dims whose RGB slices start mid-word.
  for (const std::size_t channels : {1u, 3u}) {
    for (const std::size_t dim : {2 * channels, std::size_t{1000},
                                  std::size_t{10000}}) {
      for (const auto encoding :
           {ColorEncoding::kLevelLadder, ColorEncoding::kRandom}) {
        SCOPED_TRACE("channels=" + std::to_string(channels) +
                     " dim=" + std::to_string(dim) + " encoding=" +
                     std::to_string(static_cast<int>(encoding)));
        const auto encoder = make(dim, channels, encoding);
        for (std::size_t level = 0; level < 256; ++level) {
          // Channel c steps by the odd stride 2c + 1, which visits all
          // 256 levels, in an order of its own.
          std::array<std::uint8_t, 3> values{};
          std::vector<hdc::HyperVector> parts;
          for (std::size_t c = 0; c < channels; ++c) {
            values[c] = static_cast<std::uint8_t>(level * (2 * c + 1));
            parts.push_back(encoder.channel_hv(c, values[c]));
          }
          ASSERT_EQ(encoder.encode(std::span<const std::uint8_t>(
                        values.data(), channels)),
                    hdc::HyperVector::concat(parts))
              << "level " << level;
        }
      }
    }
  }
}

TEST(ColorEncoder, DeterministicGivenSeed) {
  const auto a = make(1024, 3, ColorEncoding::kLevelLadder, 1, 7);
  const auto b = make(1024, 3, ColorEncoding::kLevelLadder, 1, 7);
  const std::array<std::uint8_t, 3> color{9, 99, 199};
  EXPECT_EQ(a.encode(color), b.encode(color));
}

TEST(ColorEncoder, ValidatesConfig) {
  util::Rng rng(1);
  EXPECT_THROW(
      ColorEncoder(ColorEncoderConfig{.dim = 1024, .channels = 2}, rng),
      std::invalid_argument);
  EXPECT_THROW(
      ColorEncoder(ColorEncoderConfig{.dim = 4, .channels = 3}, rng),
      std::invalid_argument);
  EXPECT_THROW(
      ColorEncoder(ColorEncoderConfig{.dim = 1024, .channels = 1,
                                      .gamma = 0},
                   rng),
      std::invalid_argument);
}

TEST(ColorEncoder, EncodeValidatesValueCount) {
  const auto encoder = make(1024, 3);
  const std::array<std::uint8_t, 2> wrong{1, 2};
  EXPECT_THROW(encoder.encode(wrong), std::invalid_argument);
}

}  // namespace
