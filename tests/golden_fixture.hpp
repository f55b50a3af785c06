// The golden inputs the tier-1 suites pin, defined once:
//   - the synthetic cards, and the golden batch + config whose chained
//     label hash is 13206585988845182882 through every execution path
//     (segment, segment_many, server, fleet, eval pipeline), backend,
//     pool size and band height;
//   - the chained label-hash fold those pins compare;
//   - the SEGHDC_TEST_QUEUE_CAP parser that lets a CI job force every
//     serving test's queue capacity;
//   - the paper-scale cases: 4 images each of the BBBC005, DSB2018 and
//     MoNuSeg generators at their native sizes, seeded like perfbench's
//     `paper_table1` at seed 1, with the Table I configs. perfbench pins
//     the same chained hash, 7176535364140611385, from its own copy of
//     these cases (perfbench/src/workloads.cpp `paper_cases`).
// DO NOT casually change a recipe or a constant here: every pin in every
// suite moves with it.
#ifndef SEGHDC_TESTS_GOLDEN_FIXTURE_HPP
#define SEGHDC_TESTS_GOLDEN_FIXTURE_HPP

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/seghdc.hpp"
#include "src/datasets/bbbc005.hpp"
#include "src/datasets/dataset.hpp"
#include "src/datasets/dsb2018.hpp"
#include "src/datasets/monuseg.hpp"
#include "src/imaging/image.hpp"
#include "src/metrics/segmentation_metrics.hpp"

namespace seghdc::golden {

/// A square gray card: a bright centred square on a dark ground, plus a
/// gradient stripe along row 0 so dedup sees many distinct colours.
inline img::ImageU8 make_gray_card(std::size_t size, std::uint8_t bg,
                                   std::uint8_t fg) {
  img::ImageU8 image(size, size, 1, bg);
  for (std::size_t y = size / 4; y < 3 * size / 4; ++y) {
    for (std::size_t x = size / 4; x < 3 * size / 4; ++x) {
      image(x, y) = fg;
    }
  }
  for (std::size_t x = 0; x < size; ++x) {
    image(x, 0) = static_cast<std::uint8_t>((x * 199) % 256);
  }
  return image;
}

/// An RGB checkerboard of 6-pixel squares with a green ramp along x in
/// one colour and a blue ramp along y in the other.
inline img::ImageU8 make_rgb_card(std::size_t width, std::size_t height) {
  img::ImageU8 image(width, height, 3, 15);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      if ((x / 6 + y / 6) % 2 == 0) {
        image(x, y, 0) = 190;
        image(x, y, 1) = static_cast<std::uint8_t>(140 + (x % 32));
        image(x, y, 2) = 210;
      } else {
        image(x, y, 2) = static_cast<std::uint8_t>(20 + (y % 16));
      }
    }
  }
  return image;
}

/// The golden batch, in its pinned order.
inline std::vector<img::ImageU8> golden_batch() {
  std::vector<img::ImageU8> images;
  images.push_back(make_gray_card(32, 30, 200));
  images.push_back(make_rgb_card(36, 28));
  images.push_back(make_gray_card(24, 20, 235));
  return images;
}

inline core::SegHdcConfig golden_config() {
  core::SegHdcConfig config;  // fixed seed on purpose (not env-driven)
  config.dim = 512;
  config.beta = 4;
  config.iterations = 4;
  config.seed = 42;
  return config;
}

/// Rerecord only after confirming an intended pipeline change.
inline constexpr std::uint64_t kGoldenBatchHash = 13206585988845182882ULL;

/// The seed of every chained label hash: the FNV-1a offset basis,
/// metrics::label_map_hash's default.
inline constexpr std::uint64_t kLabelHashBasis = 14695981039346656037ULL;

/// metrics::label_map_hash chained over `results` in order.
inline std::uint64_t results_hash(
    std::span<const core::SegmentationResult> results) {
  std::uint64_t hash = kLabelHashBasis;
  for (const auto& result : results) {
    hash = metrics::label_map_hash(result.labels, hash);
  }
  return hash;
}

/// The submit-queue capacity SEGHDC_TEST_QUEUE_CAP forces (0, unbounded,
/// when unset).
inline std::size_t test_queue_capacity() {
  const char* env = std::getenv("SEGHDC_TEST_QUEUE_CAP");
  if (env == nullptr || *env == '\0') {
    return 0;
  }
  // Hard error on junk, like every other forced knob (SEGHDC_ASSIGN_MODE,
  // SEGHDC_KERNEL_BACKEND): a typo'd CI env that silently meant
  // "unbounded" would turn the forced-backpressure job into a no-op.
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  if (*env < '0' || *env > '9' || *end != '\0') {
    throw std::invalid_argument(
        std::string("SEGHDC_TEST_QUEUE_CAP must be a non-negative "
                    "integer, got '") +
        env + "'");
  }
  return static_cast<std::size_t>(value);
}

// ---------------------------------------------------------------------
// Paper scale: Table I's operating point on full-size images.

/// The chained label hash of the paper-scale images in rotation order
/// (perfbench's pinned `paper_table1` hash at seed 1).
inline constexpr std::uint64_t kPaperTable1Hash = 7176535364140611385ULL;
/// Their mean best-foreground IoU, to four places.
inline constexpr double kPaperTable1MeanIou = 0.8157;

/// perfbench's per-workload seed mixer (splitmix64 finaliser).
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct PaperCases {
  /// One Table I config per dataset: BBBC005, DSB2018, MoNuSeg.
  std::vector<core::SegHdcConfig> configs;
  /// 4 images per dataset in rotation order (one of each in turn).
  std::vector<data::Sample> samples;
  /// The dataset (index into `configs`) of each sample.
  std::vector<std::size_t> case_of;
};

/// The paper-scale cases: each generator seeded mix_seed(1, 1..3),
/// d = 10,000, alpha = 0.2, gamma = 1, 10 iterations, exact colours,
/// and each profile's beta and K.
inline PaperCases paper_table1_cases() {
  constexpr std::uint64_t kSeed = 1;
  constexpr std::size_t kImagesPerDataset = 4;
  std::vector<std::unique_ptr<data::DatasetGenerator>> generators;
  data::Bbbc005Config bbbc;
  bbbc.seed = mix_seed(kSeed, 1);
  generators.push_back(std::make_unique<data::Bbbc005Generator>(bbbc));
  data::Dsb2018Config dsb;
  dsb.seed = mix_seed(kSeed, 2);
  generators.push_back(std::make_unique<data::Dsb2018Generator>(dsb));
  data::MonusegConfig monuseg;
  monuseg.seed = mix_seed(kSeed, 3);
  generators.push_back(std::make_unique<data::MonusegGenerator>(monuseg));

  PaperCases cases;
  for (const auto& generator : generators) {
    core::SegHdcConfig config;
    config.dim = 10000;
    config.alpha = 0.2;
    config.gamma = 1;
    config.beta = generator->profile().suggested_beta;
    config.clusters = generator->profile().suggested_clusters;
    config.iterations = 10;
    config.color_quantization_shift = 0;
    cases.configs.push_back(config);
  }
  for (std::size_t i = 0; i < kImagesPerDataset; ++i) {
    for (std::size_t c = 0; c < generators.size(); ++c) {
      cases.samples.push_back(generators[c]->generate(i));
      cases.case_of.push_back(c);
    }
  }
  return cases;
}

}  // namespace seghdc::golden

#endif  // SEGHDC_TESTS_GOLDEN_FIXTURE_HPP
