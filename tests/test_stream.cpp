// Warm-start temporal serving (segment_stream): determinism and drift
// bounds. The contract under test, layer by layer:
//   - frame 0 of a stream (and the first after reset() or a geometry
//     change) is the exact cold path: bit-identical to segment();
//   - a frame byte-identical to its predecessor replays the cached
//     result bit-for-bit with all bands reused and 0 K-Means iterations;
//   - warm-started labels on changed frames may differ from cold by
//     design, but the drift is bounded (permutation-invariant label
//     agreement >= threshold on synthetic pan/jitter scenes) and the
//     stream output is deterministic: its own golden hash holds at pool
//     sizes {1,2,4} x tile_rows {1,3,0 = default} on every registered
//     backend; bands are whole block rows, so a change inside one block
//     row re-encodes exactly one band;
//   - the cold path is completely unaffected: the PR-2 golden batch
//     hash still passes on a session that has served streams;
//   - the server stream path (open_stream/submit) delivers exactly the
//     session stream results, in order, at any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/core/seghdc.hpp"
#include "src/core/session.hpp"
#include "src/hdc/simd/backend.hpp"
#include "src/imaging/image.hpp"
#include "src/metrics/segmentation_metrics.hpp"
#include "src/serve/server.hpp"
#include "src/util/parallel.hpp"

namespace {

using namespace seghdc;

struct BackendSelectionGuard {
  ~BackendSelectionGuard() { hdc::simd::reset_backend_selection(); }
};

core::SegHdcConfig stream_config() {
  core::SegHdcConfig config;
  config.dim = 512;
  config.beta = 4;
  config.iterations = 4;
  config.seed = 42;
  return config;
}

/// Two-region card with a noisy first row — the golden-card shape the
/// other suites use, as a video background.
img::ImageU8 scene_background(std::size_t width, std::size_t height) {
  img::ImageU8 image(width, height, 1, 200);
  for (std::size_t y = height / 4; y < 3 * height / 4; ++y) {
    for (std::size_t x = width / 4; x < 3 * width / 4; ++x) {
      image(x, y) = 60;
    }
  }
  for (std::size_t x = 0; x < width; ++x) {
    image(x, 0) = static_cast<std::uint8_t>((x * 199) % 256);
  }
  return image;
}

/// The background with a small dark square at (x0, y0) — the moving
/// object of the synthetic pan/jitter scenes. Rows outside the square
/// keep their exact background bytes, so bands there are reusable.
img::ImageU8 scene_with_square(std::size_t width, std::size_t height,
                               std::size_t x0, std::size_t y0) {
  img::ImageU8 image = scene_background(width, height);
  for (std::size_t y = y0; y < std::min(height, y0 + 5); ++y) {
    for (std::size_t x = x0; x < std::min(width, x0 + 5); ++x) {
      image(x, y) = 90;
    }
  }
  return image;
}

/// The golden frame sequence: static -> object appears -> one-pixel pan
/// -> identical frame (replay) -> object gone (back to the start).
std::vector<img::ImageU8> golden_frames() {
  std::vector<img::ImageU8> frames;
  frames.push_back(scene_background(32, 30));
  frames.push_back(scene_with_square(32, 30, 8, 20));
  frames.push_back(scene_with_square(32, 30, 9, 20));
  frames.push_back(scene_with_square(32, 30, 9, 20));  // identical: replay
  frames.push_back(scene_background(32, 30));
  return frames;
}

void expect_results_identical(const core::SegmentationResult& expected,
                              const core::SegmentationResult& actual) {
  EXPECT_EQ(actual.labels, expected.labels);
  EXPECT_EQ(actual.margins, expected.margins);
  EXPECT_EQ(actual.unique_points, expected.unique_points);
  EXPECT_EQ(actual.cluster_pixel_counts, expected.cluster_pixel_counts);
}

void expect_ops_equal(const core::OpCounts& expected,
                      const core::OpCounts& actual) {
  EXPECT_EQ(actual.bind_xor_bits, expected.bind_xor_bits);
  EXPECT_EQ(actual.popcount_bits, expected.popcount_bits);
  EXPECT_EQ(actual.dot_adds, expected.dot_adds);
  EXPECT_EQ(actual.centroid_update_adds, expected.centroid_update_adds);
  EXPECT_EQ(actual.distance_evals, expected.distance_evals);
}

/// Permutation-invariant label agreement: warm and cold runs may assign
/// cluster indices in different orders, so score the best relabeling
/// (clusters <= 4 keeps the brute force trivial).
double label_agreement(const img::LabelMap& a, const img::LabelMap& b,
                       std::size_t clusters) {
  EXPECT_EQ(a.pixel_count(), b.pixel_count());
  std::vector<std::uint32_t> perm(clusters);
  std::iota(perm.begin(), perm.end(), 0u);
  std::size_t best = 0;
  do {
    std::size_t matches = 0;
    for (std::size_t p = 0; p < a.pixel_count(); ++p) {
      if (a.pixels()[p] == perm[b.pixels()[p]]) {
        ++matches;
      }
    }
    best = std::max(best, matches);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return static_cast<double>(best) / static_cast<double>(a.pixel_count());
}

TEST(Stream, FirstFrameIsExactlyTheColdPath) {
  auto config = stream_config();
  config.compute_margins = true;
  const core::SegHdcSession session(config);
  const auto frame = scene_with_square(32, 30, 8, 20);
  const auto cold = session.segment(frame);

  core::SegHdcSession::Stream stream;
  const auto warm = session.segment_stream(frame, stream);
  expect_results_identical(cold, warm.result);
  EXPECT_EQ(warm.result.iterations_run, cold.iterations_run);
  // The same work, not just the same labels: each unique point is bound
  // once, whichever band first saw it.
  expect_ops_equal(cold.ops, warm.result.ops);
  expect_ops_equal(cold.paper_equivalent_ops,
                   warm.result.paper_equivalent_ops);
  EXPECT_FALSE(warm.stats.warm);
  EXPECT_FALSE(warm.stats.replayed);
  EXPECT_EQ(warm.stats.frame_index, 0u);
  EXPECT_GT(warm.stats.tiles_total, 0u);
  EXPECT_EQ(warm.stats.tiles_encoded, warm.stats.tiles_total);
  EXPECT_EQ(warm.stats.tiles_reused, 0u);
}

TEST(Stream, IdenticalFramesReplayBitForBit) {
  auto config = stream_config();
  config.compute_margins = true;
  const core::SegHdcSession session(config);
  const auto frame = scene_with_square(32, 30, 8, 20);

  core::SegHdcSession::Stream stream;
  const auto first = session.segment_stream(frame, stream);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto replay = session.segment_stream(frame, stream);
    expect_results_identical(first.result, replay.result);
    EXPECT_TRUE(replay.stats.replayed);
    EXPECT_TRUE(replay.stats.warm);
    EXPECT_EQ(replay.stats.kmeans_iterations, 0u);
    EXPECT_EQ(replay.stats.tiles_reused, replay.stats.tiles_total);
    EXPECT_EQ(replay.stats.tiles_encoded, 0u);
    EXPECT_EQ(replay.result.ops.bind_xor_bits, 0u);  // no work performed
  }
  EXPECT_EQ(stream.last_stats().frame_index, 3u);
}

TEST(Stream, PanAndJitterStayNearColdLabels) {
  // A small object moving one pixel per frame over a static background:
  // the warm-start drift bound. The threshold is deliberately
  // conservative — observed agreement on these scenes is ~1.0, and a
  // drop below 95% would mean warm seeding changed the segmentation
  // qualitatively, not just at contested boundary pixels.
  const auto config = stream_config();
  const core::SegHdcSession session(config);
  core::SegHdcSession::Stream stream;

  std::vector<img::ImageU8> frames;
  frames.push_back(scene_background(48, 40));
  for (std::size_t step = 0; step < 6; ++step) {
    frames.push_back(scene_with_square(48, 40, 10 + step, 28));  // pan
  }
  frames.push_back(scene_with_square(48, 40, 15, 29));  // jitter down
  frames.push_back(scene_with_square(48, 40, 14, 28));  // jitter back

  bool any_tiles_reused = false;
  bool any_fewer_iterations = false;
  for (const auto& frame : frames) {
    const auto warm = session.segment_stream(frame, stream);
    const auto cold = session.segment(frame);
    const double agreement =
        label_agreement(cold.labels, warm.result.labels, config.clusters);
    EXPECT_GE(agreement, 0.95) << "frame " << warm.stats.frame_index;
    if (warm.stats.warm) {
      any_tiles_reused |= warm.stats.tiles_reused > 0;
      any_fewer_iterations |=
          warm.stats.kmeans_iterations < cold.iterations_run;
    }
  }
  // The measured speedup the demo reports must actually exist: at least
  // one warm frame reused bands, and at least one converged in fewer
  // iterations than its cold run.
  EXPECT_TRUE(any_tiles_reused);
  EXPECT_TRUE(any_fewer_iterations);
}

TEST(Stream, BandsAreWholeBlockRows) {
  // A stream frame is cut like a cold image: bands of tile_rows (0 = 16)
  // rounded up to whole block rows, capped at the height. Bands are the
  // reuse granularity, so a change confined to one block row dirties
  // exactly one band, however the block compares with the band height.
  const std::size_t width = 30;
  const std::size_t height = 60;
  for (const std::size_t beta : {1u, 4u, 26u}) {
    for (const std::size_t tile_rows : {0u, 5u}) {
      SCOPED_TRACE("beta=" + std::to_string(beta) +
                   " tile_rows=" + std::to_string(tile_rows));
      auto config = stream_config();
      config.beta = beta;
      config.tile_rows = tile_rows;
      const std::size_t rows =
          std::min<std::size_t>(tile_rows != 0 ? tile_rows : 16, height);
      const std::size_t band_rows =
          std::min(height, (rows + beta - 1) / beta * beta);
      const std::size_t bands = (height + band_rows - 1) / band_rows;

      const core::SegHdcSession session(config);
      core::SegHdcSession::Stream stream;
      const auto background = scene_background(width, height);
      const auto first = session.segment_stream(background, stream);
      EXPECT_EQ(first.stats.tiles_total, bands);
      EXPECT_EQ(first.stats.tiles_encoded, bands);

      // Repaint the left half of block row 1, every one of its rows.
      auto changed = background;
      for (std::size_t y = beta; y < std::min(height, 2 * beta); ++y) {
        for (std::size_t x = 0; x < width / 2; ++x) {
          changed(x, y) = 90;
        }
      }
      const auto next = session.segment_stream(changed, stream);
      EXPECT_FALSE(next.stats.replayed);
      EXPECT_EQ(next.stats.tiles_total, bands);
      EXPECT_EQ(next.stats.tiles_encoded, 1u);
      EXPECT_EQ(next.stats.tiles_reused, bands - 1);
    }
  }
}

TEST(Stream, ColdPathsCompletelyUnaffectedByStreamUse) {
  const auto config = stream_config();
  const core::SegHdcSession session(config);
  const auto probe = scene_with_square(32, 30, 8, 20);
  const auto before = session.segment(probe);

  core::SegHdcSession::Stream stream;
  for (const auto& frame : golden_frames()) {
    session.segment_stream(frame, stream);
  }
  const auto after = session.segment(probe);
  expect_results_identical(before, after);
}

TEST(Stream, ResetForgetsTemporalHistory) {
  const auto config = stream_config();
  const core::SegHdcSession session(config);
  const auto frame = scene_with_square(32, 30, 8, 20);

  core::SegHdcSession::Stream stream;
  session.segment_stream(frame, stream);
  stream.reset();
  const auto again = session.segment_stream(frame, stream);
  EXPECT_FALSE(again.stats.warm);
  EXPECT_FALSE(again.stats.replayed);
  EXPECT_EQ(again.stats.frame_index, 0u);
  expect_results_identical(session.segment(frame), again.result);
}

TEST(Stream, GeometryChangeRunsColdThenResumesWarm) {
  const auto config = stream_config();
  const core::SegHdcSession session(config);
  core::SegHdcSession::Stream stream;

  session.segment_stream(scene_with_square(32, 30, 8, 20), stream);
  const auto small = scene_with_square(24, 20, 6, 12);
  const auto switched = session.segment_stream(small, stream);
  EXPECT_FALSE(switched.stats.warm);  // temporal state was dropped
  expect_results_identical(session.segment(small), switched.result);

  const auto replay = session.segment_stream(small, stream);
  EXPECT_TRUE(replay.stats.replayed);
  expect_results_identical(switched.result, replay.result);
}

// --- Golden stream hash: the warm-start path has its OWN pinned
// labels, separate from the cold batch hash — stream results must be
// bit-identical at every pool size, band height, and kernel backend. ---

/// Pinned at seed 42, dim 512: the warm-start labels of the golden
/// frame sequence. Any drift here means the stream path's determinism
/// broke (pool size, tiling, backend, or warm-seeding changed results).
constexpr std::uint64_t kGoldenStreamHash = 6522647722573592175ULL;

std::uint64_t golden_stream_hash(std::size_t threads, std::size_t tile_rows,
                                 core::SegHdcConfig config = stream_config()) {
  config.tile_rows = tile_rows;
  util::ThreadPool pool(threads);
  const core::SegHdcSession session(config,
                                    core::SegHdcSession::Options{&pool});
  core::SegHdcSession::Stream stream;
  std::uint64_t hash = 14695981039346656037ULL;
  for (const auto& frame : golden_frames()) {
    const auto warm = session.segment_stream(frame, stream);
    hash = metrics::label_map_hash(warm.result.labels, hash);
  }
  return hash;
}

TEST(Stream, GoldenStreamHashStableAcrossTilesPoolsAndBackends) {
  const BackendSelectionGuard guard;
  for (const auto* backend : hdc::simd::registered_backends()) {
    if (!backend->available()) {
      continue;
    }
    hdc::simd::force_backend(backend->name);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      for (const std::size_t tile_rows : {1u, 3u, 0u}) {  // 0 = default
        EXPECT_EQ(golden_stream_hash(threads, tile_rows), kGoldenStreamHash)
            << "stream hash drifted: backend=" << backend->name
            << " threads=" << threads << " tile_rows=" << tile_rows;
      }
    }
  }
}

TEST(Stream, DedupOffAndFaultStreamsReuseBands) {
  // Dedup off (key = pixel index) and fault injection (a post-pass over
  // all the frame's bound rows, in global order) stream on the same
  // band tables as the default config. Each config's golden sequence
  // keeps the hash of a full re-encode per frame; at a 0.3 bit
  // error rate the labels differ from the fault-free golden, so a fault
  // pass that skipped or reordered reused rows would move the hash.
  struct Case {
    const char* name;
    bool deduplicate;
    double bit_error_rate;
    std::uint64_t golden_hash;
  };
  for (const Case& c : {Case{"deduplicate=false", false, 0.0,
                             kGoldenStreamHash},
                        Case{"bit_error_rate=0.3", true, 0.3,
                             871256062018002446ULL}}) {
    SCOPED_TRACE(c.name);
    auto config = stream_config();
    config.deduplicate = c.deduplicate;
    config.bit_error_rate = c.bit_error_rate;
    const core::SegHdcSession session(config);
    const auto frame = scene_with_square(32, 30, 8, 20);

    core::SegHdcSession::Stream stream;
    const auto first = session.segment_stream(frame, stream);
    EXPECT_GT(first.stats.tiles_total, 0u);
    expect_results_identical(session.segment(frame), first.result);

    const auto replay = session.segment_stream(frame, stream);
    EXPECT_TRUE(replay.stats.replayed);
    expect_results_identical(first.result, replay.result);

    const auto moved = scene_with_square(32, 30, 9, 20);
    const auto warm = session.segment_stream(moved, stream);
    EXPECT_TRUE(warm.stats.warm);
    EXPECT_GT(warm.stats.tiles_total, 0u);
    EXPECT_GT(warm.stats.tiles_reused, 0u);
    // Reuse skips only the dedup scan: every point is bound again.
    EXPECT_EQ(warm.result.ops.bind_xor_bits,
              warm.result.unique_points * config.dim);
    EXPECT_GE(label_agreement(session.segment(moved).labels,
                              warm.result.labels, config.clusters),
              0.95);

    for (const std::size_t threads : {1u, 2u, 4u}) {
      for (const std::size_t tile_rows : {1u, 3u, 0u}) {  // 0 = default
        EXPECT_EQ(golden_stream_hash(threads, tile_rows, config),
                  c.golden_hash)
            << "threads=" << threads << " tile_rows=" << tile_rows;
      }
    }
  }
}

// --- Server stream path: open_stream/submit must deliver exactly the
// session stream results, in submission order, at any worker count. ---

/// A colour pan: three static frames (replays), a 6-pixel pan of the
/// square one pixel per frame, three static frames. Each gray level v
/// becomes (v, v ^ 31, v ^ 62), so the three channels' keys differ.
std::vector<img::ImageU8> rgb_pan_frames() {
  std::vector<img::ImageU8> frames;
  for (const std::size_t x0 : {8u, 8u, 8u, 9u, 10u, 11u, 12u, 13u, 14u, 14u,
                               14u, 14u}) {
    const auto gray = scene_with_square(64, 48, x0, 18);
    img::ImageU8 rgb(64, 48, 3);
    for (std::size_t y = 0; y < 48; ++y) {
      for (std::size_t x = 0; x < 64; ++x) {
        for (std::size_t c = 0; c < 3; ++c) {
          rgb(x, y, c) = static_cast<std::uint8_t>(gray(x, y) ^ (31 * c));
        }
      }
    }
    frames.push_back(std::move(rgb));
  }
  return frames;
}

TEST(Stream, ServerStreamMatchesSessionStream) {
  // The golden gray sequence on the default pool, and a colour pan with
  // blocks of 8 rows and shift-2 quantisation on a one-thread pool.
  auto pan_config = stream_config();
  pan_config.beta = 8;
  pan_config.color_quantization_shift = 2;
  util::ThreadPool one(1);
  struct Input {
    core::SegHdcConfig config;
    std::vector<img::ImageU8> frames;
    util::ThreadPool* pool;
  };
  for (const auto& [config, frames, pool] :
       {Input{stream_config(), golden_frames(), nullptr},
        Input{pan_config, rgb_pan_frames(), &one}}) {
    SCOPED_TRACE("beta=" + std::to_string(config.beta));
    // Session-level reference, run serially.
    const core::SegHdcSession reference(config);
    core::SegHdcSession::Stream reference_stream;
    std::vector<core::StreamFrameResult> expected;
    for (const auto& frame : frames) {
      expected.push_back(reference.segment_stream(frame, reference_stream));
    }

    for (const std::size_t encode_workers : {1u, 3u}) {
      SCOPED_TRACE("encode_workers=" + std::to_string(encode_workers));
      serve::ServerOptions options;
      options.encode_workers = encode_workers;
      options.pool = pool;
      serve::SegHdcServer server(config, options);
      auto stream = server.open_stream();
      std::vector<std::future<core::StreamFrameResult>> futures;
      for (const auto& frame : frames) {
        futures.push_back(server.submit(stream, frame));
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const auto actual = futures[i].get();
        expect_results_identical(expected[i].result, actual.result);
        EXPECT_EQ(actual.stats.frame_index, expected[i].stats.frame_index);
        EXPECT_EQ(actual.stats.warm, expected[i].stats.warm);
        EXPECT_EQ(actual.stats.replayed, expected[i].stats.replayed);
        EXPECT_EQ(actual.stats.tiles_reused, expected[i].stats.tiles_reused);
        EXPECT_EQ(actual.stats.kmeans_iterations,
                  expected[i].stats.kmeans_iterations);
      }
      const auto stats = server.stats();
      EXPECT_EQ(stats.stream.frames, frames.size());
      EXPECT_EQ(stats.completed, frames.size());
      EXPECT_GE(stats.stream.warm_frames, 1u);
      EXPECT_GE(stats.stream.replayed_frames, 1u);
      EXPECT_GT(stats.stream.tiles_reused, 0u);
    }
  }
}

TEST(Stream, TwoStreamsOnOneServerStayIndependent) {
  const auto config = stream_config();
  const core::SegHdcSession reference(config);
  const auto frame_a = scene_with_square(32, 30, 8, 20);
  const auto frame_b = scene_with_square(24, 20, 6, 12);

  core::SegHdcSession::Stream ref_a;
  core::SegHdcSession::Stream ref_b;
  const auto expected_a0 = reference.segment_stream(frame_a, ref_a);
  const auto expected_b0 = reference.segment_stream(frame_b, ref_b);
  const auto expected_a1 = reference.segment_stream(frame_a, ref_a);
  const auto expected_b1 = reference.segment_stream(frame_b, ref_b);

  serve::ServerOptions options;
  options.encode_workers = 2;
  serve::SegHdcServer server(config, options);
  auto stream_a = server.open_stream();
  auto stream_b = server.open_stream();
  auto a0 = server.submit(stream_a, frame_a);
  auto b0 = server.submit(stream_b, frame_b);
  auto a1 = server.submit(stream_a, frame_a);
  auto b1 = server.submit(stream_b, frame_b);
  expect_results_identical(expected_a0.result, a0.get().result);
  expect_results_identical(expected_b0.result, b0.get().result);
  const auto ra1 = a1.get();
  const auto rb1 = b1.get();
  expect_results_identical(expected_a1.result, ra1.result);
  expect_results_identical(expected_b1.result, rb1.result);
  // Interleaving streams on one server must not break either stream's
  // replay detection — each stream saw its own frame twice.
  EXPECT_TRUE(ra1.stats.replayed);
  EXPECT_TRUE(rb1.stats.replayed);
}

TEST(Stream, ShutdownCancelNeverWedgesAStream) {
  // A cancelled queued frame must release its turn, or its successors
  // (and shutdown itself) would deadlock. Submit a burst, cancel
  // immediately, and require every future to resolve — with a result or
  // CancelledError, nothing hangs.
  const auto config = stream_config();
  serve::ServerOptions options;
  options.encode_workers = 1;
  serve::SegHdcServer server(config, options);
  auto stream = server.open_stream();
  const auto frame = scene_with_square(32, 30, 8, 20);
  std::vector<std::future<core::StreamFrameResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.submit(stream, frame));
  }
  server.shutdown(serve::ShutdownMode::kCancel);
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  for (auto& future : futures) {
    try {
      future.get();
      ++completed;
    } catch (const serve::CancelledError&) {
      ++cancelled;
    }
  }
  EXPECT_EQ(completed + cancelled, futures.size());
  const auto stats = server.stats();
  EXPECT_EQ(stats.stream.frames, completed);
  EXPECT_EQ(stats.cancelled, cancelled);
}

}  // namespace
