// Equivalence/determinism tests for SegHdcSession (the reusable,
// many-image serving form of the pipeline): session output must be
// bitwise-identical to the legacy stateless SegHdc path across image
// kinds and configs, segment_many must equal a sequential segment loop
// at every pool size, and the compute_margins=off path must perform (and
// report) zero margin work.
//
// The base seed honours the SEGHDC_TEST_SEED environment variable
// (default 42) so CI pins determinism to one explicit, reproducible
// seed instead of retrying flakes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <vector>

#include "src/core/seghdc.hpp"
#include "src/core/session.hpp"
#include "src/metrics/segmentation_metrics.hpp"
#include "src/serve/server.hpp"
#include "src/util/parallel.hpp"
#include "tests/golden_fixture.hpp"

namespace {

using namespace seghdc;
using namespace seghdc::golden;

std::uint64_t test_seed() {
  const char* env = std::getenv("SEGHDC_TEST_SEED");
  if (env == nullptr || *env == '\0') {
    return 42;
  }
  return std::strtoull(env, nullptr, 10);
}

void expect_ops_equal(const core::OpCounts& a, const core::OpCounts& b) {
  EXPECT_EQ(a.bind_xor_bits, b.bind_xor_bits);
  EXPECT_EQ(a.popcount_bits, b.popcount_bits);
  EXPECT_EQ(a.dot_adds, b.dot_adds);
  EXPECT_EQ(a.centroid_update_adds, b.centroid_update_adds);
  EXPECT_EQ(a.distance_evals, b.distance_evals);
}

void expect_results_identical(const core::SegmentationResult& a,
                              const core::SegmentationResult& b) {
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.margins, b.margins);
  EXPECT_EQ(a.clusters, b.clusters);
  EXPECT_EQ(a.iterations_run, b.iterations_run);
  EXPECT_EQ(a.unique_points, b.unique_points);
  EXPECT_EQ(a.cluster_pixel_counts, b.cluster_pixel_counts);
  expect_ops_equal(a.ops, b.ops);
  expect_ops_equal(a.paper_equivalent_ops, b.paper_equivalent_ops);
}

core::SegHdcConfig base_config() {
  core::SegHdcConfig config;
  config.dim = 512;
  config.beta = 4;
  config.iterations = 4;
  config.seed = test_seed();
  return config;
}

TEST(SegHdcSession, MatchesLegacySegHdcAcrossConfigs) {
  const auto gray = make_gray_card(32, 30, 200);
  const auto rgb = make_rgb_card(36, 28);

  std::vector<core::SegHdcConfig> configs;
  configs.push_back(base_config());
  {
    auto c = base_config();  // margins on
    c.compute_margins = true;
    configs.push_back(c);
  }
  {
    auto c = base_config();  // non-default geometry/encoding knobs
    c.dim = 700;  // non-multiple of 64
    c.beta = 1;
    c.alpha = 0.9;
    c.gamma = 2;
    c.clusters = 3;
    configs.push_back(c);
  }
  {
    auto c = base_config();  // ablation encoders + Hamming clustering
    c.position_encoding = core::PositionEncoding::kRandom;
    c.color_encoding = core::ColorEncoding::kRandom;
    c.cluster_distance = core::ClusterDistance::kHamming;
    configs.push_back(c);
  }
  {
    auto c = base_config();  // quantised + early stopping
    c.color_quantization_shift = 3;
    c.stop_on_convergence = true;
    configs.push_back(c);
  }
  {
    auto c = base_config();  // no dedup + fault injection
    c.deduplicate = false;
    c.bit_error_rate = 0.01;
    configs.push_back(c);
  }

  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    const auto& config = configs[ci];
    const core::SegHdc legacy(config);
    const core::SegHdcSession session(config);
    for (const auto* image : {&gray, &rgb}) {
      SCOPED_TRACE("config " + std::to_string(ci) +
                   (image == &gray ? " gray" : " rgb"));
      const auto expected = legacy.segment(*image);
      const auto actual = session.segment(*image);
      expect_results_identical(expected, actual);
      // Second call through the now-warm encoder cache must not drift.
      const auto again = session.segment(*image);
      expect_results_identical(expected, again);
    }
  }
}

TEST(SegHdcSession, EncodeMatchesLegacy) {
  const auto image = make_rgb_card(40, 24);
  auto config = base_config();
  config.color_quantization_shift = 2;
  const auto expected = core::SegHdc(config).encode(image);
  const core::SegHdcSession session(config);
  for (int round = 0; round < 2; ++round) {
    const auto actual = session.encode(image);
    EXPECT_EQ(actual.unique_hvs.dim(), expected.unique_hvs.dim());
    ASSERT_EQ(actual.unique_hvs.count(), expected.unique_hvs.count());
    for (std::size_t u = 0; u < expected.unique_hvs.count(); ++u) {
      ASSERT_TRUE(std::ranges::equal(actual.unique_hvs.row(u),
                                     expected.unique_hvs.row(u)))
          << "unique point " << u << " round " << round;
    }
    EXPECT_EQ(actual.weights, expected.weights);
    EXPECT_EQ(actual.pixel_to_unique, expected.pixel_to_unique);
    EXPECT_EQ(actual.intensities, expected.intensities);
    expect_ops_equal(actual.ops, expected.ops);
  }
}

TEST(SegHdcSession, EncoderStateIsBuiltOncePerGeometry) {
  const core::SegHdcSession session(base_config());
  EXPECT_EQ(session.encoder_states_built(), 0u);
  const auto a = make_gray_card(32, 20, 210);
  const auto b = make_gray_card(32, 40, 190);  // same geometry as a
  const auto c = make_rgb_card(32, 32);        // distinct (channels)
  session.segment(a);
  EXPECT_EQ(session.encoder_states_built(), 1u);
  session.segment(b);
  session.segment(a);
  EXPECT_EQ(session.encoder_states_built(), 1u);
  session.segment(c);
  EXPECT_EQ(session.encoder_states_built(), 2u);
}

TEST(SegHdcSession, SegmentManyMatchesSequentialLoopAtEveryPoolSize) {
  // Mixed batch: two geometries, both channel counts, repeated frames.
  std::vector<img::ImageU8> images;
  images.push_back(make_gray_card(32, 25, 205));
  images.push_back(make_rgb_card(36, 28));
  images.push_back(make_gray_card(32, 40, 180));
  images.push_back(images[0]);
  images.push_back(make_rgb_card(36, 28));
  images.push_back(make_gray_card(24, 30, 220));

  auto config = base_config();
  config.compute_margins = true;  // margins must survive batching too
  // A ragged dim with coarse colour quantisation: d = 1000 is not a
  // multiple of 64, and shift 2 makes dedup keys repeat far more often.
  auto ragged = config;
  ragged.dim = 1000;
  ragged.beta = 8;
  ragged.iterations = 6;
  ragged.color_quantization_shift = 2;

  for (const auto& cfg : {config, ragged}) {
    SCOPED_TRACE("dim " + std::to_string(cfg.dim));
    std::vector<core::SegmentationResult> expected;
    {
      const core::SegHdcSession session(cfg);
      for (const auto& image : images) {
        expected.push_back(session.segment(image));
      }
    }

    for (const std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("pool threads " + std::to_string(threads));
      util::ThreadPool pool(threads);
      const core::SegHdcSession session(cfg,
                                        core::SegHdcSession::Options{&pool});
      const auto results = session.segment_many(images);
      ASSERT_EQ(results.size(), images.size());
      for (std::size_t i = 0; i < images.size(); ++i) {
        SCOPED_TRACE("image " + std::to_string(i));
        expect_results_identical(expected[i], results[i]);
      }
      // Three distinct geometries in the batch -> exactly three states.
      EXPECT_EQ(session.encoder_states_built(), 3u);
    }
  }
}

TEST(SegHdcSession, SegmentManyGoldenLabelHash) {
  // Golden regression for the batched path: a fixed batch through a
  // fixed config must keep hashing to the exact same combined label-map
  // value. Rerecord only after confirming an intended pipeline change.
  util::ThreadPool pool(3);
  const core::SegHdcSession session(golden_config(),
                                    core::SegHdcSession::Options{&pool});
  const auto results = session.segment_many(golden_batch());
  EXPECT_EQ(results_hash(results), kGoldenBatchHash)
      << "segment_many combined label hash drifted";
}

TEST(SegHdcSession, ServerMatchesSegmentManyOnTheGoldenBatch) {
  // Satellite equivalence gate for the serving layer: the async
  // pipelined SegHdcServer (src/serve/) must reproduce segment_many's
  // combined label hash — and therefore the golden constant — on the
  // exact batch above. Pipelining changes completion order, never
  // content.
  const auto images = golden_batch();
  const auto config = golden_config();

  util::ThreadPool pool(3);
  const core::SegHdcSession session(config,
                                    core::SegHdcSession::Options{&pool});
  const auto batch = session.segment_many(images);

  serve::ServerOptions options;
  options.queue_capacity = 2;
  options.encode_workers = 2;
  options.cluster_workers = 2;
  options.pool = &pool;
  serve::SegHdcServer server(config, options);
  std::vector<std::future<core::SegmentationResult>> futures;
  for (const auto& image : images) {
    futures.push_back(server.submit(image));
  }

  std::uint64_t batch_hash = kLabelHashBasis;
  std::uint64_t server_hash = kLabelHashBasis;
  for (std::size_t i = 0; i < images.size(); ++i) {
    batch_hash = metrics::label_map_hash(batch[i].labels, batch_hash);
    server_hash =
        metrics::label_map_hash(futures[i].get().labels, server_hash);
  }
  EXPECT_EQ(server_hash, batch_hash)
      << "SegHdcServer labels diverged from segment_many";
  EXPECT_EQ(server_hash, kGoldenBatchHash);
}

TEST(SegHdcSession, SegmentManyEmptyBatch) {
  const core::SegHdcSession session(base_config());
  EXPECT_TRUE(session.segment_many({}).empty());
}

TEST(SegHdcSession, ValidatesConfigAndImages) {
  auto bad = base_config();
  bad.clusters = 1;
  EXPECT_THROW(core::SegHdcSession{bad}, std::invalid_argument);

  const core::SegHdcSession session(base_config());
  img::ImageU8 two_channel(8, 8, 2, 0);
  EXPECT_THROW(session.segment(two_channel), std::invalid_argument);
  std::vector<img::ImageU8> batch{make_gray_card(16, 10, 200), two_channel};
  EXPECT_THROW(session.segment_many(batch), std::invalid_argument);
}

// Satellite audit: with compute_margins off, margin work is truly
// skipped — margins stay empty and the reported ops match a margins-off
// run exactly; turning margins on adds only margin-attributable ops and
// never changes the labels.
TEST(SegHdcSession, MarginWorkFullySkippedWhenDisabled) {
  const auto image = make_gray_card(32, 25, 210);
  auto off_config = base_config();
  ASSERT_FALSE(off_config.compute_margins);
  auto on_config = off_config;
  on_config.compute_margins = true;

  const core::SegHdcSession off_session(off_config);
  const auto off_a = off_session.segment(image);
  const auto off_b = off_session.segment(image);
  EXPECT_TRUE(off_a.margins.empty());
  EXPECT_TRUE(off_b.margins.empty());
  expect_ops_equal(off_a.ops, off_b.ops);

  const auto on = core::SegHdcSession(on_config).segment(image);
  ASSERT_FALSE(on.margins.empty());
  EXPECT_EQ(on.labels, off_a.labels);
  // Margin work shows up only in the fields it spends: point norms
  // (popcounts), centroid dots, and distance evaluations — one extra
  // assignment-shaped pass over the unique points.
  const auto unique = static_cast<std::uint64_t>(off_a.unique_points);
  const auto& config = off_config;
  EXPECT_EQ(on.ops.bind_xor_bits, off_a.ops.bind_xor_bits);
  EXPECT_EQ(on.ops.centroid_update_adds, off_a.ops.centroid_update_adds);
  EXPECT_EQ(on.ops.popcount_bits,
            off_a.ops.popcount_bits + unique * config.dim);
  EXPECT_EQ(on.ops.dot_adds,
            off_a.ops.dot_adds + unique * config.clusters * config.dim);
  EXPECT_EQ(on.ops.distance_evals,
            off_a.ops.distance_evals + unique * config.clusters);
}

}  // namespace
