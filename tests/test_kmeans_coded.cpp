// Coded points == dense rows, bit for bit.
//
// Every flip-run config (position encoding other than kRandom, colour
// kLevelLadder, no bit errors) encodes each unique point twice: as the
// interval-coded point segment() clusters (a base HV XOR a few flip
// runs, hdc::CodedPoints) and, through the public encode(), as the
// bound dense row. Each case here runs HvKMeans on both and requires
// the two runs to agree on everything a caller can observe: the
// assignment, the centroid counts, total weights and norms, the cluster
// weights, iterations, convergence, reseeds, the points moved per
// iteration and every OpCounts field but words_scanned (which counts
// words streamed on one model and prefix entries read on the other).
// segment() must return the dense run's labels and the margins the
// dense centroids give, and every coded point must expand to its row.
// The grid covers gray and RGB; every flip-run position encoding with
// both flip-unit bases; d a multiple of 64, ragged, and below
// 256 x channels; gamma, beta, quantisation and dedup; K 2, 3 and 16
// (one case reseeds); cosine and Hamming under both assign modes; cold
// and warm starts and a stream's warm frame; pools 1 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/core/kmeans.hpp"
#include "src/core/seghdc.hpp"
#include "src/core/session.hpp"
#include "src/hdc/kernels.hpp"
#include "src/imaging/image.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace seghdc;
using core::AssignMode;
using core::ClusterDistance;
using core::FlipUnitBasis;
using core::PositionEncoding;

/// A small scene: a diagonal gradient with two bright disks and mild
/// noise, so dedup keeps a few hundred to a few thousand points and the
/// clusters move for several iterations.
img::ImageU8 scene(std::size_t width, std::size_t height,
                   std::size_t channels, std::uint64_t seed) {
  util::Rng rng(seed);
  img::ImageU8 image(width, height, channels, 0);
  const auto inside = [&](std::size_t x, std::size_t y, double cx, double cy,
                          double r) {
    const double dx = static_cast<double>(x) - cx;
    const double dy = static_cast<double>(y) - cy;
    return dx * dx + dy * dy <= r * r;
  };
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const bool a = inside(x, y, 0.3 * static_cast<double>(width),
                            0.4 * static_cast<double>(height),
                            0.2 * static_cast<double>(height));
      const bool b = inside(x, y, 0.7 * static_cast<double>(width),
                            0.6 * static_cast<double>(height),
                            0.25 * static_cast<double>(height));
      for (std::size_t c = 0; c < channels; ++c) {
        std::size_t v = 20 + (x + y) * (c + 1) % 60;
        if (a) {
          v = 180 + 20 * c;
        } else if (b) {
          v = 120 + 40 * c;
        }
        v += rng.next_below(9);
        image(x, y, c) = static_cast<std::uint8_t>(std::min<std::size_t>(v, 255));
      }
    }
  }
  return image;
}

struct Case {
  std::string name;
  core::SegHdcConfig config;
  std::size_t channels = 1;
  std::size_t width = 40;
  std::size_t height = 32;
};

std::string describe(const Case& c) {
  const auto& k = c.config;
  return c.name + " (channels " + std::to_string(c.channels) + ", d " +
         std::to_string(k.dim) + ", K " + std::to_string(k.clusters) +
         ", beta " + std::to_string(k.beta) + ", gamma " +
         std::to_string(k.gamma) + ", shift " +
         std::to_string(k.color_quantization_shift) + ", dedup " +
         std::to_string(k.deduplicate) + ")";
}

/// The grid: every flip-run position encoding with both flip-unit bases,
/// once gray and once RGB, with the other axes rotated through their
/// values at different periods, so each encoding meets every distance
/// and assign mode and each d is run gray and RGB.
std::vector<Case> grid() {
  const PositionEncoding encodings[] = {
      PositionEncoding::kUniform, PositionEncoding::kManhattan,
      PositionEncoding::kDecayManhattan,
      PositionEncoding::kBlockDecayManhattan};
  const FlipUnitBasis bases[] = {FlipUnitBasis::kRows, FlipUnitBasis::kBlocks};
  const std::size_t betas[] = {1, 4, 26};
  const std::size_t gammas[] = {1, 3};
  const std::size_t shifts[] = {0, 3};
  const std::size_t clusters[] = {2, 3, 16};
  const ClusterDistance distances[] = {ClusterDistance::kCosine,
                                       ClusterDistance::kCosine,
                                       ClusterDistance::kHamming,
                                       ClusterDistance::kHamming};
  const AssignMode modes[] = {AssignMode::kAuto, AssignMode::kExhaustive,
                              AssignMode::kAuto, AssignMode::kExhaustive};
  std::vector<Case> cases;
  std::size_t index = 0;
  for (const auto encoding : encodings) {
    for (const auto basis : bases) {
      for (const std::size_t channels : {1u, 3u}) {
        Case c;
        c.channels = channels;
        c.name = "case " + std::to_string(index);
        auto& config = c.config;
        config.position_encoding = encoding;
        config.flip_unit_basis = basis;
        // d: a multiple of 64, ragged 1000 and 10,000, and below
        // 256 x channels.
        const std::size_t dims[] = {512, 1000, 10000, 200 * channels};
        config.dim = dims[(index + index / 4) % 4];
        config.beta = betas[index % 3];
        config.gamma = gammas[(index / 2) % 2];
        config.color_quantization_shift = shifts[(index / 3) % 2];
        config.deduplicate = index % 5 != 4;
        config.clusters = clusters[(index + index / 3) % 3];
        config.cluster_distance = distances[(index + index / 4) % 4];
        config.assign_mode = modes[(index + index / 4) % 4];
        config.iterations = 6;
        config.compute_margins = true;
        config.seed = 7 + index;
        cases.push_back(c);
        ++index;
      }
    }
  }
  return cases;
}

core::HvKMeansConfig kmeans_config(const core::SegHdcConfig& config,
                                   util::ThreadPool& pool,
                                   bool stop_on_convergence = false) {
  return core::HvKMeansConfig{
      .clusters = config.clusters,
      .iterations = config.iterations,
      .distance = config.cluster_distance,
      .assign_mode = config.assign_mode,
      .stop_on_convergence = stop_on_convergence,
      .pool = &pool,
  };
}

void expect_same_run(const core::HvKMeansResult& coded,
                     const core::HvKMeansResult& dense,
                     const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(coded.assignment, dense.assignment);
  EXPECT_EQ(coded.cluster_weights, dense.cluster_weights);
  EXPECT_EQ(coded.iterations_run, dense.iterations_run);
  EXPECT_EQ(coded.converged, dense.converged);
  EXPECT_EQ(coded.reseeds, dense.reseeds);
  EXPECT_EQ(coded.moved_per_iteration, dense.moved_per_iteration);
  ASSERT_EQ(coded.centroids.size(), dense.centroids.size());
  for (std::size_t c = 0; c < dense.centroids.size(); ++c) {
    EXPECT_TRUE(std::ranges::equal(coded.centroids[c].counts(),
                                   dense.centroids[c].counts()))
        << "centroid " << c;
    EXPECT_EQ(coded.centroids[c].total_weight(),
              dense.centroids[c].total_weight());
    EXPECT_EQ(coded.centroids[c].norm(), dense.centroids[c].norm());
  }
  EXPECT_EQ(coded.ops.bind_xor_bits, dense.ops.bind_xor_bits);
  EXPECT_EQ(coded.ops.popcount_bits, dense.ops.popcount_bits);
  EXPECT_EQ(coded.ops.dot_adds, dense.ops.dot_adds);
  EXPECT_EQ(coded.ops.centroid_update_adds, dense.ops.centroid_update_adds);
  EXPECT_EQ(coded.ops.distance_evals, dense.ops.distance_evals);
  EXPECT_EQ(coded.ops.candidates_pruned, dense.ops.candidates_pruned);
}

/// The margins the dense centroids give each pixel, straight from the
/// rows: cosine_distance_planes per (row, centroid).
std::vector<float> reference_margins(const core::EncodedImage& encoded,
                                     const core::HvKMeansResult& dense) {
  const std::size_t k = dense.centroids.size();
  std::vector<hdc::kernels::CountPlanes> planes(k);
  std::vector<double> norms(k);
  for (std::size_t c = 0; c < k; ++c) {
    dense.centroids[c].snapshot_planes(planes[c]);
    norms[c] = dense.centroids[c].norm();
  }
  std::vector<float> per_pixel;
  per_pixel.reserve(encoded.pixel_to_unique.size());
  for (const std::uint32_t u : encoded.pixel_to_unique) {
    const auto row = encoded.unique_hvs.row(u);
    const double point_norm =
        std::sqrt(static_cast<double>(encoded.unique_hvs.popcount(u)));
    double best = std::numeric_limits<double>::infinity();
    double second = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < k; ++c) {
      const double d = hdc::kernels::cosine_distance_planes(
          planes[c], norms[c], row, point_norm);
      if (d < best) {
        second = best;
        best = d;
      } else if (d < second) {
        second = d;
      }
    }
    per_pixel.push_back(static_cast<float>(second - best));
  }
  return per_pixel;
}

img::LabelMap labels_of(const core::EncodedImage& encoded,
                        const core::HvKMeansResult& clustering) {
  img::LabelMap labels(encoded.width, encoded.height, 1, 0);
  for (std::size_t p = 0; p < encoded.pixel_to_unique.size(); ++p) {
    labels.pixels()[p] = clustering.assignment[encoded.pixel_to_unique[p]];
  }
  return labels;
}

void expect_rows_expand(const core::EncodedImage& encoded) {
  ASSERT_FALSE(encoded.coded.empty());
  ASSERT_EQ(encoded.coded.count(), encoded.unique_hvs.count());
  for (std::size_t u = 0; u < encoded.unique_hvs.count(); ++u) {
    ASSERT_EQ(encoded.coded.to_hypervector(u),
              encoded.unique_hvs.to_hypervector(u))
        << "point " << u;
  }
}

/// One case: dense and coded K-Means, cold and warm, at pools 1 and 4;
/// then segment() against the dense run.
void check_case(const Case& c) {
  SCOPED_TRACE(describe(c));
  const auto image = scene(c.width, c.height, c.channels, c.config.seed);
  const core::SegHdcSession session(c.config);
  const auto encoded = session.encode(image);
  ASSERT_EQ(encoded.coded.stride(), 2 * (2 + c.channels));
  expect_rows_expand(encoded);

  const auto seeds = core::largest_color_difference_seeds(
      encoded.intensities, c.config.clusters);
  core::HvKMeansResult reference;
  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    const core::HvKMeans kmeans(kmeans_config(c.config, pool));
    const auto dense = kmeans.run(encoded.unique_hvs, encoded.weights, seeds);
    const auto coded = kmeans.run(encoded.coded, encoded.weights, seeds);
    expect_same_run(coded, dense, "run, pool " + std::to_string(threads));

    // Warm start from the cold run's majority centroids, stopping on
    // convergence as a stream's warm frame does.
    std::vector<hdc::HyperVector> warm;
    for (const auto& centroid : dense.centroids) {
      warm.push_back(centroid.to_majority());
    }
    const core::HvKMeans warm_kmeans(
        kmeans_config(c.config, pool, /*stop_on_convergence=*/true));
    expect_same_run(
        warm_kmeans.run_from_centroids(encoded.coded, encoded.weights, warm),
        warm_kmeans.run_from_centroids(encoded.unique_hvs, encoded.weights,
                                       warm),
        "run_from_centroids, pool " + std::to_string(threads));
    reference = dense;
  }

  const auto result = session.segment(image);
  EXPECT_EQ(result.labels, labels_of(encoded, reference));
  EXPECT_EQ(result.moved_per_iteration, reference.moved_per_iteration);
  const auto margins = reference_margins(encoded, reference);
  ASSERT_EQ(result.margins.pixels().size(), margins.size());
  EXPECT_TRUE(std::ranges::equal(result.margins.pixels(), margins));
}

TEST(CodedKMeans, MatchesDenseAcrossTheGrid) {
  for (const auto& c : grid()) {
    check_case(c);
  }
}

TEST(CodedKMeans, MatchesDenseThroughAReseed) {
  // Three nearly equal grays and K = 16 over 43 points: most seeds share
  // a colour, so clusters go empty and get reseeded (3 times).
  core::SegHdcConfig config;
  config.dim = 200;
  config.beta = 8;
  config.clusters = 16;
  config.iterations = 8;
  const core::SegHdcSession session(config);
  img::ImageU8 image(36, 36, 1, 40);
  for (std::size_t y = 10; y < 26; ++y) {
    for (std::size_t x = 8; x < 30; ++x) {
      image(x, y) = static_cast<std::uint8_t>(40 + x % 3);
    }
  }
  const auto encoded = session.encode(image);
  const auto seeds = core::largest_color_difference_seeds(encoded.intensities,
                                                          config.clusters);
  for (const AssignMode mode : {AssignMode::kAuto, AssignMode::kExhaustive}) {
    for (const std::size_t threads : {1u, 4u}) {
      util::ThreadPool pool(threads);
      auto kconfig = kmeans_config(config, pool);
      kconfig.assign_mode = mode;
      const core::HvKMeans kmeans(kconfig);
      const auto dense =
          kmeans.run(encoded.unique_hvs, encoded.weights, seeds);
      ASSERT_GT(dense.reseeds, 0u) << "the case must exercise a reseed";
      expect_same_run(kmeans.run(encoded.coded, encoded.weights, seeds),
                      dense, "reseed, pool " + std::to_string(threads));
    }
  }
  // segment() runs the coded model end to end, reseeds included.
  util::ThreadPool pool(1);
  const auto dense = core::HvKMeans(kmeans_config(config, pool))
                         .run(encoded.unique_hvs, encoded.weights, seeds);
  EXPECT_EQ(session.segment(image).labels, labels_of(encoded, dense));
}

TEST(CodedKMeans, StreamWarmFrameMatchesDenseWarmStart) {
  // A stream's second frame is seeded from the first frame's majority
  // centroids and stops on convergence; on the coded model it must equal
  // the dense warm start on the frame's rows, at pools 1 and 4.
  for (const std::size_t channels : {1u, 3u}) {
    core::SegHdcConfig config;
    config.dim = 1000;
    config.beta = 4;
    config.clusters = 3;
    config.iterations = 8;
    const auto first = scene(48, 40, channels, 3);
    auto second = first;
    for (std::size_t y = 0; y < 40; ++y) {
      for (std::size_t x = 30; x < 48; ++x) {
        second(x, y, 0) = static_cast<std::uint8_t>(second(x, y, 0) ^ 0x20);
      }
    }
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("channels " + std::to_string(channels) + ", pool " +
                   std::to_string(threads));
      util::ThreadPool pool(threads);
      const core::SegHdcSession session(config,
                                        core::SegHdcSession::Options{&pool});
      core::SegHdcSession::Stream stream;
      (void)session.segment_stream(first, stream);
      const auto warm_frame = session.segment_stream(second, stream);
      ASSERT_TRUE(warm_frame.stats.warm);

      const auto encoded_first = session.encode(first);
      const auto cold = core::HvKMeans(kmeans_config(config, pool))
                            .run(encoded_first.unique_hvs,
                                 encoded_first.weights,
                                 core::largest_color_difference_seeds(
                                     encoded_first.intensities,
                                     config.clusters));
      std::vector<hdc::HyperVector> warm;
      for (const auto& centroid : cold.centroids) {
        warm.push_back(centroid.to_majority());
      }
      const auto encoded = session.encode(second);
      const auto dense =
          core::HvKMeans(kmeans_config(config, pool, true))
              .run_from_centroids(encoded.unique_hvs, encoded.weights, warm);
      EXPECT_EQ(warm_frame.result.labels, labels_of(encoded, dense));
      EXPECT_EQ(warm_frame.result.iterations_run, dense.iterations_run);
      EXPECT_EQ(warm_frame.result.moved_per_iteration,
                dense.moved_per_iteration);
    }
  }
}

TEST(CodedKMeans, NonFlipRunConfigsCarryNoCodedPoints) {
  // kRandom codebooks and bit errors have no flip-run form: encode()
  // carries only the dense rows, and segment() clusters those.
  core::SegHdcConfig base;
  base.dim = 512;
  base.beta = 4;
  std::vector<core::SegHdcConfig> dense_configs{base.rpos_variant(),
                                                base.rcolor_variant(), base};
  dense_configs.back().bit_error_rate = 0.01;
  const auto image = scene(32, 24, 3, 11);
  for (const auto& config : dense_configs) {
    const core::SegHdcSession session(config);
    const auto encoded = session.encode(image);
    EXPECT_TRUE(encoded.coded.empty());
    EXPECT_EQ(encoded.unique_hvs.count(), encoded.weights.size());
    EXPECT_EQ(encoded.point_count(), encoded.weights.size());
    EXPECT_EQ(session.segment(image).unique_points, encoded.weights.size());
  }
  // The flip-run default carries both forms through encode().
  const auto encoded = core::SegHdcSession(base).encode(image);
  EXPECT_EQ(encoded.coded.count(), encoded.unique_hvs.count());
}

TEST(CodedKMeans, RejectsMalformedEndpoints) {
  util::Rng rng(5);
  hdc::CodedPoints points(hdc::HyperVector::random(128, rng), 2, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    points.endpoints(i)[0] = static_cast<std::uint32_t>(i);
    points.endpoints(i)[1] = static_cast<std::uint32_t>(10 * (i + 1));
  }
  const core::HvKMeans kmeans(core::HvKMeansConfig{.clusters = 2});
  const std::vector<std::size_t> seeds{0, 2};
  EXPECT_NO_THROW((void)kmeans.run(points, {}, seeds));
  points.endpoints(1)[1] = 129;  // past the dimension
  EXPECT_THROW((void)kmeans.run(points, {}, seeds), std::invalid_argument);
  points.endpoints(1)[0] = 50;  // unsorted
  points.endpoints(1)[1] = 40;
  EXPECT_THROW((void)kmeans.run(points, {}, seeds), std::invalid_argument);
}

}  // namespace
