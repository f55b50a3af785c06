// The banded intra-image encode must be invisible in the output: for
// every band height (each rounded up to whole block rows, including
// ones that split the image unevenly, exceed its height, or come down
// to one block row), every position encoding and block size, and every
// pool size, labels, unique-point IDs, weights, and op counts must be
// bit-identical to the one-band serial scan — on every registered
// kernel backend. These suites pin that guarantee on band-boundary
// edge geometries and on the golden batch hash, and pin every bound
// row, cold or on a stream's reused bands, to the reference binder.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/core/color_encoder.hpp"
#include "src/core/kmeans.hpp"
#include "src/core/pixel_producer.hpp"
#include "src/core/position_encoder.hpp"
#include "src/core/seghdc.hpp"
#include "src/core/session.hpp"
#include "src/hdc/simd/backend.hpp"
#include "src/imaging/color.hpp"
#include "src/metrics/segmentation_metrics.hpp"
#include "src/util/parallel.hpp"

namespace {

using namespace seghdc;

// Restores automatic backend selection when a forcing test exits.
struct BackendSelectionGuard {
  ~BackendSelectionGuard() { hdc::simd::reset_backend_selection(); }
};

core::SegHdcConfig small_config() {
  core::SegHdcConfig config;
  config.dim = 384;
  config.beta = 3;
  config.iterations = 3;
  return config;
}

/// Gradient + checker content so bands share some dedup keys across
/// tile boundaries and keep many distinct ones.
img::ImageU8 textured_image(std::size_t width, std::size_t height,
                            std::size_t channels) {
  img::ImageU8 image(width, height, channels, 0);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const auto base = static_cast<std::uint8_t>(
          ((x / 5 + y / 4) % 2 == 0) ? 40 + (y * 7) % 60 : 200 - (x * 5) % 50);
      image(x, y, 0) = base;
      for (std::size_t c = 1; c < channels; ++c) {
        image(x, y, c) = static_cast<std::uint8_t>(base ^ (31 * c));
      }
    }
  }
  return image;
}

void expect_encode_identical(const core::EncodedImage& expected,
                             const core::EncodedImage& actual) {
  ASSERT_EQ(actual.unique_hvs.count(), expected.unique_hvs.count());
  EXPECT_EQ(actual.pixel_to_unique, expected.pixel_to_unique);
  EXPECT_EQ(actual.weights, expected.weights);
  EXPECT_EQ(actual.intensities, expected.intensities);
  for (std::size_t u = 0; u < expected.unique_hvs.count(); ++u) {
    ASSERT_TRUE(std::ranges::equal(actual.unique_hvs.row(u),
                                   expected.unique_hvs.row(u)))
        << "unique point " << u;
  }
  EXPECT_EQ(actual.ops.bind_xor_bits, expected.ops.bind_xor_bits);
}

// The core guarantee, at encode granularity where it is strongest:
// unique-point IDs (hence every downstream label) must replicate the
// serial row-major first-occurrence order for every band height, on
// edge geometries that stress the band split — heights ragged against
// both the block and the band, single-row and single-column images,
// bands taller than the image — under every position encoding whose
// block height differs (beta for block-decay, 1 for the rest), with
// dedup on and off and with coarse color quantisation (which makes keys
// repeat far more often).
TEST(TiledEncode, UniqueIdsMatchUntiledOnEdgeGeometries) {
  struct Case {
    std::size_t width, height, channels;
  };
  const std::vector<Case> cases{
      {33, 29, 3},  // 29 rows: ragged against beta 3 and 7 and most bands
      {1, 40, 1},   // single column
      {40, 1, 3},   // single row: every band is the whole image
      {17, 16, 1},  // one default band exactly at beta = 1
  };
  const std::vector<core::PositionEncoding> encodings{
      core::PositionEncoding::kBlockDecayManhattan,
      core::PositionEncoding::kManhattan,
      core::PositionEncoding::kRandom,
  };
  util::ThreadPool pool1(1);
  util::ThreadPool pool2(2);
  util::ThreadPool pool4(4);
  for (const auto& c : cases) {
    const auto image = textured_image(c.width, c.height, c.channels);
    for (const std::size_t beta : {1u, 3u, 7u}) {
      for (const auto encoding : encodings) {
        for (const bool dedup : {true, false}) {
          for (const std::size_t shift : {0u, 3u}) {
            auto base = small_config();
            base.beta = beta;
            base.position_encoding = encoding;
            base.deduplicate = dedup;
            base.color_quantization_shift = shift;
            auto untiled_config = base;
            untiled_config.tile_rows = c.height;  // one band: the serial scan
            const auto expected =
                core::SegHdcSession(untiled_config).encode(image);
            for (const std::size_t tile_rows :
                 {std::size_t{0}, std::size_t{1}, std::size_t{5}, beta + 1,
                  c.height, std::numeric_limits<std::size_t>::max()}) {
              for (util::ThreadPool* pool : {&pool1, &pool2, &pool4}) {
                SCOPED_TRACE(
                    std::to_string(c.width) + "x" + std::to_string(c.height) +
                    "x" + std::to_string(c.channels) +
                    " beta=" + std::to_string(beta) + " encoding=" +
                    std::to_string(static_cast<int>(encoding)) +
                    " dedup=" + std::to_string(dedup) +
                    " shift=" + std::to_string(shift) +
                    " tile_rows=" + std::to_string(tile_rows) +
                    " threads=" + std::to_string(pool->thread_count()));
                auto config = base;
                config.tile_rows = tile_rows;
                const core::SegHdcSession session(
                    config, core::SegHdcSession::Options{pool});
                expect_encode_identical(expected, session.encode(image));
              }
            }
          }
        }
      }
    }
  }
}

TEST(TiledEncode, FullPipelineLabelsMatchUntiled) {
  const auto image = textured_image(46, 37, 3);  // 37 prime: always ragged
  auto base = small_config();
  base.compute_margins = true;
  base.tile_rows = image.height();
  // A ragged dim (800 = 12.5 words) with coarse colour quantisation and
  // blocks of 8 rows, so every band height rounds up to 8 or 16.
  auto ragged = base;
  ragged.dim = 800;
  ragged.beta = 8;
  ragged.color_quantization_shift = 2;
  for (const auto& untiled_config : {base, ragged}) {
    const auto expected = core::SegHdcSession(untiled_config).segment(image);
    for (const std::size_t tile_rows : {1u, 4u, 9u, 0u}) {  // 0 = default
      for (const std::size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("dim=" + std::to_string(untiled_config.dim) +
                     " tile_rows=" + std::to_string(tile_rows) +
                     " threads=" + std::to_string(threads));
        util::ThreadPool pool(threads);
        auto config = untiled_config;
        config.tile_rows = tile_rows;
        const core::SegHdcSession session(
            config, core::SegHdcSession::Options{&pool});
        const auto actual = session.segment(image);
        EXPECT_EQ(actual.labels, expected.labels);
        EXPECT_EQ(actual.margins, expected.margins);
        EXPECT_EQ(actual.unique_points, expected.unique_points);
        EXPECT_EQ(actual.cluster_pixel_counts, expected.cluster_pixel_counts);
      }
    }
  }
}

TEST(TiledEncode, RepeatedCallsReuseArenaWithoutDrift) {
  // The unique-ratio reserve hint and the per-band arenas are reused
  // across calls; a low-dedup (noisy) frame between identical frames
  // must not change any output.
  const auto image = textured_image(30, 22, 3);
  img::ImageU8 noise(30, 22, 3, 0);
  std::uint32_t state = 0x9E3779B9u;
  for (auto& value : noise.pixels()) {
    state = state * 1664525u + 1013904223u;
    value = static_cast<std::uint8_t>(state >> 24);
  }
  auto config = small_config();
  config.tile_rows = 4;
  const core::SegHdcSession session(config);
  const auto first = session.segment(image);
  const auto noisy = session.segment(noise);
  EXPECT_GT(noisy.unique_points, first.unique_points);
  const auto second = session.segment(image);
  EXPECT_EQ(first.labels, second.labels);
  EXPECT_EQ(first.unique_points, second.unique_points);
}

// --- The bind against the reference binder: every encoded row must be
// PixelProducer::produce(position HV, concatenated color HV) of its
// unique point's first-occurrence pixel, with encoders drawn from
// util::Rng(config.seed) in the session's order (position, then color).
// The stream half re-derives a warm frame from those rows, so bands that
// skipped their scan must still bind exactly the reference rows. ---

/// The dedup key's quantisation: v moved to the midpoint of its bucket.
std::uint8_t bucket_midpoint(std::uint8_t v, std::size_t shift) {
  if (shift == 0) {
    return v;
  }
  const unsigned mid = ((v >> shift) << shift) + ((1u << shift) >> 1);
  return static_cast<std::uint8_t>(std::min(mid, 255u));
}

/// One reference-bound row per unique point of an encode, plus its
/// intensity (the gray level, or the luma of the quantised color).
struct ReferenceEncode {
  std::vector<hdc::HyperVector> rows;
  std::vector<std::uint8_t> intensities;
};

struct ReferenceBinder {
  util::Rng rng;  // declared first: drawn by position, then by color
  core::PositionEncoder position;
  core::ColorEncoder color;
  std::size_t shift;

  ReferenceBinder(const core::SegHdcConfig& config, const img::ImageU8& image)
      : rng(config.seed),
        position(
            core::PositionEncoderConfig{
                .dim = config.dim,
                .rows = image.height(),
                .cols = image.width(),
                .encoding = config.position_encoding,
                .alpha = config.alpha,
                .beta = config.beta,
                .flip_unit_basis = config.flip_unit_basis,
            },
            rng),
        color(
            core::ColorEncoderConfig{
                .dim = config.dim,
                .channels = image.channels(),
                .encoding = config.color_encoding,
                .gamma = config.gamma,
            },
            rng),
        shift(config.color_quantization_shift) {}

  ReferenceEncode bind(const img::ImageU8& image,
                       const core::EncodedImage& encoded) const {
    const core::PixelProducer producer;
    const std::size_t unique = encoded.unique_hvs.count();
    ReferenceEncode reference{std::vector<hdc::HyperVector>(unique),
                              std::vector<std::uint8_t>(unique, 0)};
    std::vector<bool> seen(unique, false);
    for (std::size_t p = 0; p < encoded.pixel_to_unique.size(); ++p) {
      const std::uint32_t u = encoded.pixel_to_unique[p];
      if (u >= unique || seen[u]) {
        continue;
      }
      seen[u] = true;
      const std::size_t x = p % image.width();
      const std::size_t y = p / image.width();
      std::array<std::uint8_t, 3> values{0, 0, 0};
      std::vector<hdc::HyperVector> parts;
      for (std::size_t c = 0; c < image.channels(); ++c) {
        values[c] = bucket_midpoint(image(x, y, c), shift);
        parts.push_back(color.channel_hv(c, values[c]));
      }
      reference.rows[u] = producer.produce(position.encode(y, x),
                                           hdc::HyperVector::concat(parts));
      reference.intensities[u] =
          image.channels() == 1 ? values[0]
                                : img::luma(values[0], values[1], values[2]);
    }
    return reference;
  }
};

void expect_rows_match_reference(const core::EncodedImage& encoded,
                                 const ReferenceEncode& reference) {
  EXPECT_EQ(encoded.intensities, reference.intensities);
  EXPECT_EQ(encoded.ops.bind_xor_bits,
            encoded.unique_hvs.count() * encoded.unique_hvs.dim());
  for (std::size_t u = 0; u < encoded.unique_hvs.count(); ++u) {
    ASSERT_EQ(encoded.unique_hvs.to_hypervector(u), reference.rows[u])
        << "unique point " << u;
  }
}

/// The labels and margins `segment_stream` must return for the next
/// frame when it follows the first on a stream, derived from their
/// reference rows: the first frame clustered from the
/// largest-color-difference seeds, the next warm-started from its
/// majority centroids and stopped on convergence.
core::SegmentationResult reference_warm_frame(
    const core::SegHdcConfig& config, const core::EncodedImage& first_encoded,
    const ReferenceEncode& first_reference,
    const core::EncodedImage& next_encoded,
    const ReferenceEncode& next_reference, util::ThreadPool& pool) {
  core::HvKMeansConfig kmeans_config{
      .clusters = config.clusters,
      .iterations = config.iterations,
      .distance = config.cluster_distance,
      .assign_mode = config.assign_mode,
      .stop_on_convergence = config.stop_on_convergence,
      .pool = &pool,
  };
  const auto first_clustering = core::HvKMeans(kmeans_config).run(
      hdc::HvBlock::from_hvs(first_reference.rows), first_encoded.weights,
      core::largest_color_difference_seeds(first_reference.intensities,
                                           config.clusters));
  std::vector<hdc::HyperVector> warm;
  for (const auto& centroid : first_clustering.centroids) {
    warm.push_back(centroid.to_majority());
  }
  kmeans_config.stop_on_convergence = true;
  const auto& rows = next_reference.rows;
  const auto clustering = core::HvKMeans(kmeans_config)
                              .run_from_centroids(hdc::HvBlock::from_hvs(rows),
                                                  next_encoded.weights, warm);
  std::vector<float> unique_margin;
  for (const auto& row : rows) {
    double best = std::numeric_limits<double>::infinity();
    double second = std::numeric_limits<double>::infinity();
    for (const auto& centroid : clustering.centroids) {
      const double d = centroid.cosine_distance(row);
      second = std::min(second, std::max(best, d));
      best = std::min(best, d);
    }
    unique_margin.push_back(static_cast<float>(second - best));
  }
  core::SegmentationResult result;
  result.iterations_run = clustering.iterations_run;
  result.labels = img::LabelMap(next_encoded.width, next_encoded.height, 1, 0);
  result.margins = img::ImageF32(next_encoded.width, next_encoded.height, 1);
  for (std::size_t p = 0; p < next_encoded.pixel_to_unique.size(); ++p) {
    const std::uint32_t u = next_encoded.pixel_to_unique[p];
    result.labels.pixels()[p] = clustering.assignment[u];
    result.margins.pixels()[p] = unique_margin[u];
  }
  return result;
}

/// The bind sweep: d (1000 and 10,000 leave the RGB channel slices off
/// word boundaries) x position encoding x color encoding x gamma x
/// quantisation shift x dedup.
std::vector<core::SegHdcConfig> reference_bind_configs() {
  std::vector<core::SegHdcConfig> configs;
  for (const std::size_t dim : {384u, 1000u, 10000u}) {
    for (const auto position : {core::PositionEncoding::kBlockDecayManhattan,
                                core::PositionEncoding::kManhattan,
                                core::PositionEncoding::kRandom}) {
      for (const auto color :
           {core::ColorEncoding::kLevelLadder, core::ColorEncoding::kRandom}) {
        for (const std::size_t gamma : {1u, 3u}) {
          for (const std::size_t shift : {0u, 3u}) {
            for (const bool dedup : {true, false}) {
              auto config = small_config();
              config.dim = dim;
              config.position_encoding = position;
              config.color_encoding = color;
              config.gamma = gamma;
              config.color_quantization_shift = shift;
              config.deduplicate = dedup;
              config.compute_margins = true;
              config.tile_rows = 4;
              configs.push_back(config);
            }
          }
        }
      }
    }
  }
  return configs;
}

TEST(TiledEncode, RowsMatchReferenceBind) {
  util::ThreadPool pool1(1);
  util::ThreadPool pool4(4);
  const auto configs = reference_bind_configs();
  for (const std::size_t channels : {1u, 3u}) {
    // Row 1 of the second frame differs from the first: on the stream,
    // the band holding it is scanned again and every other band is
    // reused and bound again.
    const auto first = textured_image(17, 13, channels);
    auto next = first;
    for (std::size_t x = 0; x < next.width(); ++x) {
      for (std::size_t c = 0; c < channels; ++c) {
        next(x, 1, c) = static_cast<std::uint8_t>(255 - next(x, 1, c));
      }
    }
    for (const auto& config : configs) {
      SCOPED_TRACE("channels=" + std::to_string(channels) +
                   " dim=" + std::to_string(config.dim) + " position=" +
                   std::to_string(static_cast<int>(config.position_encoding)) +
                   " color=" +
                   std::to_string(static_cast<int>(config.color_encoding)) +
                   " gamma=" + std::to_string(config.gamma) + " shift=" +
                   std::to_string(config.color_quantization_shift) +
                   " dedup=" + std::to_string(config.deduplicate));
      // gamma and shift only pick other ladder rows, which the encodes
      // pin; the stream half runs at gamma 1 and shift 0.
      const bool stream_half =
          config.gamma == 1 && config.color_quantization_shift == 0;
      const ReferenceBinder binder(config, first);
      ReferenceEncode first_reference;
      ReferenceEncode next_reference;
      core::SegmentationResult expected_warm;
      for (util::ThreadPool* pool : {&pool1, &pool4}) {
        SCOPED_TRACE("threads=" + std::to_string(pool->thread_count()));
        const core::SegHdcSession session(config,
                                          core::SegHdcSession::Options{pool});
        const auto first_encoded = session.encode(first);
        const auto next_encoded = session.encode(next);
        // The references take the one-thread encode's point numbering,
        // which every pool must reproduce.
        if (pool == &pool1) {
          first_reference = binder.bind(first, first_encoded);
          next_reference = binder.bind(next, next_encoded);
          if (stream_half) {
            expected_warm =
                reference_warm_frame(config, first_encoded, first_reference,
                                     next_encoded, next_reference, pool1);
          }
        }
        expect_rows_match_reference(first_encoded, first_reference);
        expect_rows_match_reference(next_encoded, next_reference);
        if (!stream_half) {
          continue;
        }
        core::SegHdcSession::Stream stream;
        session.segment_stream(first, stream);
        const auto warm = session.segment_stream(next, stream);
        ASSERT_GT(warm.stats.tiles_total, 1u);
        EXPECT_EQ(warm.stats.tiles_reused, warm.stats.tiles_total - 1);
        EXPECT_EQ(warm.result.ops.bind_xor_bits,
                  next_encoded.unique_hvs.count() * config.dim);
        EXPECT_EQ(warm.result.labels, expected_warm.labels);
        EXPECT_EQ(warm.result.margins, expected_warm.margins);
        EXPECT_EQ(warm.result.iterations_run, expected_warm.iterations_run);
      }
    }
  }
}

// --- Golden gate (mirrors tests/test_session.cpp and
// tests/test_simd_backends.cpp): the PR-2 batch label hash must be
// bit-identical at pool sizes 1/2/4 and tile_rows in {1, 3, 0 = the
// default}, on every registered kernel backend. ---

img::ImageU8 golden_gray_card(std::size_t size, std::uint8_t bg,
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

img::ImageU8 golden_rgb_card(std::size_t width, std::size_t height) {
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

constexpr std::uint64_t kGoldenBatchHash = 13206585988845182882ULL;

std::uint64_t golden_batch_hash(std::size_t threads,
                                std::size_t tile_rows) {
  std::vector<img::ImageU8> images;
  images.push_back(golden_gray_card(32, 30, 200));
  images.push_back(golden_rgb_card(36, 28));
  images.push_back(golden_gray_card(24, 20, 235));

  core::SegHdcConfig config;
  config.dim = 512;
  config.beta = 4;
  config.iterations = 4;
  config.seed = 42;
  config.tile_rows = tile_rows;
  util::ThreadPool pool(threads);
  const core::SegHdcSession session(config,
                                    core::SegHdcSession::Options{&pool});
  const auto results = session.segment_many(images);
  std::uint64_t hash = 14695981039346656037ULL;
  for (const auto& result : results) {
    hash = metrics::label_map_hash(result.labels, hash);
  }
  return hash;
}

TEST(TiledEncode, GoldenBatchHashStableAcrossTilesPoolsAndBackends) {
  const BackendSelectionGuard guard;
  for (const auto* backend : hdc::simd::registered_backends()) {
    if (!backend->available()) {
      continue;
    }
    hdc::simd::force_backend(backend->name);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      for (const std::size_t tile_rows : {1u, 3u, 0u}) {  // 0 = default
        EXPECT_EQ(golden_batch_hash(threads, tile_rows), kGoldenBatchHash)
            << "hash drifted: backend=" << backend->name
            << " threads=" << threads << " tile_rows=" << tile_rows;
      }
    }
  }
}

}  // namespace
