// Tier-1 suite for the async pipelined serving layer (src/serve/):
// SegHdcServer must deliver results bit-identical to the synchronous
// session path at every queue capacity, worker count, pool size, and
// backpressure policy — scheduling may reorder completions, never change
// content. Pins the PR-2 golden batch hash 13206585988845182882 through
// the server, the shutdown drain/cancel semantics, the reject policy,
// and the ServerStats percentile math against known sequences.
//
// The SEGHDC_TEST_QUEUE_CAP environment variable (default 0 =
// unbounded) forces the submit-queue capacity of every test that does
// not pin one itself, so a CI job can run the whole suite under
// deliberately tiny queues (forced backpressure) — outputs must not
// move.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/session.hpp"
#include "src/serve/server.hpp"
#include "src/serve/stats.hpp"
#include "src/util/bounded_queue.hpp"
#include "src/util/parallel.hpp"
#include "tests/golden_fixture.hpp"

namespace {

using namespace seghdc;
using namespace seghdc::golden;

/// Submits `images` in order and collects the results back into submit
/// order through the futures — completion order is the pipeline's
/// business, content is pinned per index.
std::vector<core::SegmentationResult> serve_batch(
    serve::SegHdcServer& server, const std::vector<img::ImageU8>& images) {
  std::vector<std::future<core::SegmentationResult>> futures;
  futures.reserve(images.size());
  for (const auto& image : images) {
    futures.push_back(server.submit(image));
  }
  std::vector<core::SegmentationResult> results;
  results.reserve(images.size());
  for (auto& future : futures) {
    results.push_back(future.get());
  }
  return results;
}

void expect_results_identical(const core::SegmentationResult& a,
                              const core::SegmentationResult& b) {
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.margins, b.margins);
  EXPECT_EQ(a.clusters, b.clusters);
  EXPECT_EQ(a.iterations_run, b.iterations_run);
  EXPECT_EQ(a.unique_points, b.unique_points);
  EXPECT_EQ(a.cluster_pixel_counts, b.cluster_pixel_counts);
}

// --- BoundedQueue: the primitive under the server. ---

TEST(BoundedQueue, FifoAndCapacity) {
  util::BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.capacity(), 2u);
  int a = 1, b = 2, c = 3;
  EXPECT_EQ(queue.try_push(a), util::QueuePush::kOk);
  EXPECT_EQ(queue.try_push(b), util::QueuePush::kOk);
  EXPECT_EQ(queue.try_push(c), util::QueuePush::kFull);
  EXPECT_EQ(c, 3);  // kFull must not consume the value
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_EQ(queue.try_push(c), util::QueuePush::kOk);
  EXPECT_EQ(queue.pop().value(), 2);
  EXPECT_EQ(queue.pop().value(), 3);
}

TEST(BoundedQueue, CloseDrainsThenEnds) {
  util::BoundedQueue<int> queue;  // unbounded
  int v = 7;
  ASSERT_TRUE(queue.push(v));
  queue.close();
  int w = 8;
  EXPECT_FALSE(queue.push(w));
  EXPECT_EQ(queue.try_push(w), util::QueuePush::kClosed);
  EXPECT_EQ(queue.pop().value(), 7);  // drain continues after close
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_FALSE(queue.pop().has_value());  // stays ended
}

TEST(BoundedQueue, CloseAndDrainReturnsQueuedValuesInOrder) {
  util::BoundedQueue<int> queue;
  for (int i = 0; i < 4; ++i) {
    int v = i;
    ASSERT_TRUE(queue.push(v));
  }
  const std::vector<int> drained = queue.close_and_drain();
  EXPECT_EQ(drained, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(BoundedQueue, ConcurrentProducersConsumersDeliverEverythingOnce) {
  util::BoundedQueue<int> queue(3);  // tiny: forces blocking on both sides
  constexpr int kPerProducer = 200;
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int value = p * kPerProducer + i;
        ASSERT_TRUE(queue.push(value));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&queue, &sum, &popped] {
      while (auto value = queue.pop()) {
        sum.fetch_add(*value);
        popped.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads[static_cast<std::size_t>(p)].join();
  }
  queue.close();
  for (std::size_t t = kProducers; t < threads.size(); ++t) {
    threads[t].join();
  }
  const int total = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), total);
  EXPECT_EQ(sum.load(), static_cast<long long>(total) * (total - 1) / 2);
}

// --- Percentile math: the ServerStats satellite. ---

TEST(LatencyRecorder, NearestRankPercentilesOnKnownSequence) {
  // 1..100 recorded in shuffled-ish order: nearest-rank percentiles are
  // exactly the textbook values.
  serve::LatencyRecorder recorder;
  for (int i = 100; i >= 1; --i) {
    recorder.record(static_cast<double>(i));
  }
  const auto p = recorder.snapshot();
  EXPECT_EQ(p.count, 100u);
  EXPECT_DOUBLE_EQ(p.min_seconds, 1.0);
  EXPECT_DOUBLE_EQ(p.max_seconds, 100.0);
  EXPECT_DOUBLE_EQ(p.mean_seconds, 50.5);
  EXPECT_DOUBLE_EQ(p.p50_seconds, 50.0);
  EXPECT_DOUBLE_EQ(p.p95_seconds, 95.0);
  EXPECT_DOUBLE_EQ(p.p99_seconds, 99.0);
}

TEST(LatencyRecorder, SmallSampleCountsRoundUpToARealSample) {
  serve::LatencyRecorder recorder;
  recorder.record(10.0);
  recorder.record(20.0);
  recorder.record(30.0);
  const auto p = recorder.snapshot();
  // n=3: p50 -> ceil(1.5) = 2nd smallest; p95/p99 -> ceil(2.85/2.97) =
  // the maximum. Every percentile is an actual sample, never an
  // interpolation.
  EXPECT_DOUBLE_EQ(p.p50_seconds, 20.0);
  EXPECT_DOUBLE_EQ(p.p95_seconds, 30.0);
  EXPECT_DOUBLE_EQ(p.p99_seconds, 30.0);
}

TEST(LatencyRecorder, WindowSlidesButTotalsCoverEverything) {
  serve::LatencyRecorder recorder(4);  // window of 4
  for (int i = 1; i <= 8; ++i) {
    recorder.record(static_cast<double>(i));
  }
  const auto p = recorder.snapshot();
  EXPECT_EQ(p.count, 8u);                  // all samples counted
  // Regression: `count` is lifetime, but min/max/percentiles only cover
  // the sliding window — `window_count` says how many samples that is,
  // so a display can no longer claim "max over 8 requests" when the
  // window held 4.
  EXPECT_EQ(p.window_count, 4u);
  EXPECT_DOUBLE_EQ(p.mean_seconds, 4.5);   // mean over all 8
  EXPECT_DOUBLE_EQ(p.min_seconds, 5.0);    // window holds {5,6,7,8}
  EXPECT_DOUBLE_EQ(p.max_seconds, 8.0);
  EXPECT_DOUBLE_EQ(p.p50_seconds, 6.0);    // ceil(0.5*4)=2nd of window
}

TEST(LatencyRecorder, WindowCountMatchesCountBeforeTheWindowWraps) {
  serve::LatencyRecorder recorder(4);
  recorder.record(1.0);
  recorder.record(2.0);
  const auto p = recorder.snapshot();
  EXPECT_EQ(p.count, 2u);
  EXPECT_EQ(p.window_count, 2u);
}

TEST(LatencyRecorder, EmptySnapshotIsAllZero) {
  const serve::LatencyRecorder recorder;
  const auto p = recorder.snapshot();
  EXPECT_EQ(p.count, 0u);
  EXPECT_DOUBLE_EQ(p.p99_seconds, 0.0);
}

TEST(PercentileNearestRank, EdgeRanks) {
  const std::vector<double> one{42.0};
  EXPECT_DOUBLE_EQ(serve::percentile_nearest_rank(one, 50.0), 42.0);
  EXPECT_DOUBLE_EQ(serve::percentile_nearest_rank(one, 99.0), 42.0);
  const std::vector<double> four{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(serve::percentile_nearest_rank(four, 25.0), 1.0);
  EXPECT_DOUBLE_EQ(serve::percentile_nearest_rank(four, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(serve::percentile_nearest_rank(four, 0.1), 1.0);
}

// --- The golden gate: the acceptance-criteria sweep. ---

TEST(SegHdcServer, GoldenBatchHashAtEveryQueueCapacityAndPoolSize) {
  const auto images = golden_batch();
  const auto config = golden_config();
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{4},
                                     std::size_t{0} /* unbounded */}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      for (const auto policy : {serve::BackpressurePolicy::kBlock,
                                serve::BackpressurePolicy::kReject}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity) + " pool " +
                     std::to_string(threads) + " policy " +
                     (policy == serve::BackpressurePolicy::kBlock
                          ? "block"
                          : "reject"));
        util::ThreadPool pool(threads);
        serve::ServerOptions options;
        options.queue_capacity = capacity;
        options.backpressure = policy;
        options.encode_workers = threads >= 2 ? 2 : 1;
        options.cluster_workers = threads >= 2 ? 2 : 1;
        options.pool = &pool;
        serve::SegHdcServer server(config, options);
        std::vector<core::SegmentationResult> results;
        if (policy == serve::BackpressurePolicy::kReject) {
          // Reject policy: resubmit on rejection until accepted — every
          // image must eventually flow through and hash identically.
          std::vector<std::future<core::SegmentationResult>> futures;
          for (const auto& image : images) {
            for (;;) {
              try {
                futures.push_back(server.submit(image));
                break;
              } catch (const serve::RejectedError&) {
                std::this_thread::yield();
              }
            }
          }
          for (auto& future : futures) {
            results.push_back(future.get());
          }
        } else {
          results = serve_batch(server, images);
        }
        EXPECT_EQ(results_hash(results), kGoldenBatchHash)
            << "server label hash diverged from the segment_many golden";
      }
    }
  }
}

// --- Ordering independence: completions may land in any order, the
// delivered (index, result) pairs must match the synchronous path. ---

TEST(SegHdcServer, ResultsMatchSynchronousPathPerIndex) {
  std::vector<img::ImageU8> images;
  images.push_back(make_gray_card(32, 25, 205));
  images.push_back(make_rgb_card(36, 28));
  images.push_back(make_gray_card(32, 40, 180));
  images.push_back(images[0]);
  images.push_back(make_rgb_card(36, 28));
  images.push_back(make_gray_card(24, 30, 220));

  auto config = golden_config();
  config.compute_margins = true;  // margins must survive the pipeline too
  // A ragged dim with coarse colour quantisation, served by 2+2 stage
  // threads over a one-thread pool, where they act as extra cores.
  auto ragged = config;
  ragged.dim = 1000;
  ragged.beta = 8;
  ragged.iterations = 6;
  ragged.color_quantization_shift = 2;

  for (const auto& [cfg, threads] :
       {std::pair{config, 4u}, std::pair{ragged, 1u}}) {
    SCOPED_TRACE("dim " + std::to_string(cfg.dim) + " pool " +
                 std::to_string(threads));
    std::vector<core::SegmentationResult> expected;
    {
      const core::SegHdcSession session(cfg);
      for (const auto& image : images) {
        expected.push_back(session.segment(image));
      }
    }

    util::ThreadPool pool(threads);
    serve::ServerOptions options;
    options.queue_capacity = test_queue_capacity();
    options.encode_workers = 2;
    options.cluster_workers = 2;
    options.pool = &pool;
    serve::SegHdcServer server(cfg, options);
    const auto results = serve_batch(server, images);
    ASSERT_EQ(results.size(), images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
      SCOPED_TRACE("image " + std::to_string(i));
      expect_results_identical(expected[i], results[i]);
    }
    // Three distinct geometries in the batch -> exactly three encoder
    // states, just like a session.
    EXPECT_EQ(server.session().encoder_states_built(), 3u);
  }
}

// --- Determinism under forced contention: a tiny queue, more workers
// than queue slots, repeated runs — the hash must never move. ---

TEST(SegHdcServer, DeterministicUnderForcedContention) {
  std::vector<img::ImageU8> images;
  for (int round = 0; round < 4; ++round) {
    for (auto& image : golden_batch()) {
      images.push_back(std::move(image));
    }
  }
  const auto config = golden_config();

  std::uint64_t expected_hash = 0;
  {
    const core::SegHdcSession session(config);
    std::vector<core::SegmentationResult> sequential;
    for (const auto& image : images) {
      sequential.push_back(session.segment(image));
    }
    expected_hash = results_hash(sequential);
  }

  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    util::ThreadPool pool(4);
    serve::ServerOptions options;
    options.queue_capacity = 1;  // every submit contends
    options.encode_workers = 3;
    options.cluster_workers = 2;
    options.pool = &pool;
    serve::SegHdcServer server(config, options);
    const auto results = serve_batch(server, images);
    EXPECT_EQ(results_hash(results), expected_hash);
  }
}

// --- Shutdown semantics. ---

TEST(SegHdcServer, ShutdownDrainCompletesEverythingAccepted) {
  const auto images = golden_batch();
  const auto config = golden_config();
  util::ThreadPool pool(2);
  serve::ServerOptions options;
  options.queue_capacity = test_queue_capacity();
  options.pool = &pool;
  serve::SegHdcServer server(config, options);
  std::vector<std::future<core::SegmentationResult>> futures;
  for (int round = 0; round < 3; ++round) {
    for (const auto& image : images) {
      futures.push_back(server.submit(image));
    }
  }
  server.shutdown(serve::ShutdownMode::kDrain);
  for (auto& future : futures) {
    EXPECT_NO_THROW(future.get());  // every accepted request completed
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, futures.size());
  EXPECT_EQ(stats.completed, futures.size());
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  // Submit after shutdown is a hard error, not a silent drop.
  EXPECT_THROW(server.submit(images[0]), serve::ShutdownError);
  // Idempotent: a second shutdown (other mode) is a no-op.
  server.shutdown(serve::ShutdownMode::kCancel);
}

TEST(SegHdcServer, ShutdownCancelFailsQueuedAndFinishesInFlight) {
  const auto config = golden_config();
  const core::SegHdcSession reference(config);
  // One slow image at the head keeps the single encode worker busy while
  // the rest pile up in the queue, so an immediate cancel finds them
  // still queued. The assertions stay valid under any scheduling: each
  // future either completes bit-identically or fails with
  // CancelledError, and the counters add up.
  std::vector<img::ImageU8> images;
  images.push_back(make_rgb_card(96, 96));
  for (int i = 0; i < 7; ++i) {
    images.push_back(make_gray_card(24, 30, 220));
  }

  util::ThreadPool pool(1);
  serve::ServerOptions options;
  options.pool = &pool;  // unbounded queue, 1+1 workers
  serve::SegHdcServer server(config, options);
  std::vector<std::future<core::SegmentationResult>> futures;
  for (const auto& image : images) {
    futures.push_back(server.submit(image));
  }
  server.shutdown(serve::ShutdownMode::kCancel);

  std::size_t completed = 0;
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      const auto result = futures[i].get();
      ++completed;
      expect_results_identical(reference.segment(images[i]), result);
    } catch (const serve::CancelledError&) {
      ++cancelled;
    }
  }
  EXPECT_EQ(completed + cancelled, futures.size());
  EXPECT_GE(cancelled, 1u) << "cancel found nothing queued — if this is "
                              "flaky the head image needs to be bigger";
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.submitted, futures.size());
}

TEST(SegHdcServer, ShutdownCancelAfterFirstCompletionKeepsThatResult) {
  const auto config = golden_config();
  const auto images = golden_batch();
  util::ThreadPool pool(1);
  serve::ServerOptions options;
  options.pool = &pool;
  serve::SegHdcServer server(config, options);
  auto first = server.submit(images[0]);
  const auto first_result = first.get();  // guaranteed completed
  server.shutdown(serve::ShutdownMode::kCancel);
  const core::SegHdcSession reference(config);
  expect_results_identical(reference.segment(images[0]), first_result);
  EXPECT_GE(server.stats().completed, 1u);
}

// --- Backpressure policies. ---

TEST(SegHdcServer, RejectPolicyFailsFastAndAcceptedWorkStaysExact) {
  auto config = golden_config();
  config.dim = 2048;  // slow the pipeline so the queue actually fills
  const core::SegHdcSession reference(config);

  util::ThreadPool pool(1);
  serve::ServerOptions options;
  options.queue_capacity = 1;
  options.backpressure = serve::BackpressurePolicy::kReject;
  options.pool = &pool;
  serve::SegHdcServer server(config, options);

  // A large head image occupies the encode worker for many milliseconds;
  // the burst behind it can't all fit a 1-slot queue.
  std::vector<img::ImageU8> images;
  images.push_back(make_rgb_card(96, 96));
  for (int i = 0; i < 7; ++i) {
    images.push_back(make_gray_card(24, 30, 220));
  }
  std::vector<std::size_t> accepted;
  std::vector<std::future<core::SegmentationResult>> futures;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < images.size(); ++i) {
    try {
      futures.push_back(server.submit(images[i]));
      accepted.push_back(i);
    } catch (const serve::RejectedError&) {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1u) << "burst never filled the 1-slot queue — if "
                             "this is flaky the head image needs to grow";
  for (std::size_t f = 0; f < futures.size(); ++f) {
    expect_results_identical(reference.segment(images[accepted[f]]),
                             futures[f].get());
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.submitted, accepted.size());
  EXPECT_EQ(stats.completed, accepted.size());
}

TEST(SegHdcServer, BlockPolicyAcceptsEverythingEventually) {
  const auto config = golden_config();
  util::ThreadPool pool(2);
  serve::ServerOptions options;
  options.queue_capacity = 1;  // every submit beyond the first blocks
  options.backpressure = serve::BackpressurePolicy::kBlock;
  options.pool = &pool;
  serve::SegHdcServer server(config, options);
  const auto images = golden_batch();
  std::vector<std::future<core::SegmentationResult>> futures;
  for (int round = 0; round < 3; ++round) {
    for (const auto& image : images) {
      futures.push_back(server.submit(image));  // blocks, never throws
    }
  }
  for (auto& future : futures) {
    EXPECT_NO_THROW(future.get());
  }
  EXPECT_EQ(server.stats().rejected, 0u);
}

// --- Failure isolation and stats. ---

TEST(SegHdcServer, BadImageFailsItsFutureWithoutPoisoningThePipeline) {
  const auto config = golden_config();
  const auto images = golden_batch();
  serve::ServerOptions options;
  options.queue_capacity = test_queue_capacity();
  serve::SegHdcServer server(config, options);
  auto good_before = server.submit(images[0]);
  auto bad = server.submit(img::ImageU8(8, 8, 2, 0));  // 2-channel: invalid
  auto good_after = server.submit(images[1]);
  EXPECT_NO_THROW(good_before.get());
  EXPECT_THROW(bad.get(), std::invalid_argument);
  EXPECT_NO_THROW(good_after.get());
  const auto stats = server.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(SegHdcServer, StatsCountersAndLatencyAreCoherentAfterDrain) {
  const auto config = golden_config();
  const auto images = golden_batch();
  serve::ServerOptions options;
  options.queue_capacity = test_queue_capacity();
  options.encode_workers = 2;
  serve::SegHdcServer server(config, options);
  std::vector<std::future<core::SegmentationResult>> futures;
  for (int round = 0; round < 2; ++round) {
    for (const auto& image : images) {
      futures.push_back(server.submit(image));
    }
  }
  for (auto& future : futures) {
    future.get();
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, futures.size());
  EXPECT_EQ(stats.completed, futures.size());
  EXPECT_EQ(stats.latency.count, futures.size());
  EXPECT_GT(stats.latency.p50_seconds, 0.0);
  EXPECT_LE(stats.latency.p50_seconds, stats.latency.p95_seconds);
  EXPECT_LE(stats.latency.p95_seconds, stats.latency.p99_seconds);
  EXPECT_LE(stats.latency.p99_seconds, stats.latency.max_seconds);
  EXPECT_GE(stats.latency.min_seconds, 0.0);
  EXPECT_GT(stats.throughput_images_per_sec, 0.0);
  EXPECT_GT(stats.uptime_seconds, 0.0);
}

TEST(SegHdcServer, ValidatesOptionsAndConfig) {
  auto bad_config = golden_config();
  bad_config.clusters = 1;
  EXPECT_THROW(serve::SegHdcServer{bad_config}, std::invalid_argument);

  serve::ServerOptions zero_workers;
  zero_workers.encode_workers = 0;
  EXPECT_THROW(serve::SegHdcServer(golden_config(), zero_workers),
               std::invalid_argument);
  serve::ServerOptions zero_cluster;
  zero_cluster.cluster_workers = 0;
  EXPECT_THROW(serve::SegHdcServer(golden_config(), zero_cluster),
               std::invalid_argument);
}

// --- Stage entry points on the session itself: the split the server is
// built on must be bit-identical to the fused path. ---

TEST(SegHdcSession, StageSplitMatchesFusedSegment) {
  auto config = golden_config();
  config.compute_margins = true;
  const core::SegHdcSession session(config);
  const auto gray = make_gray_card(32, 30, 200);
  const auto rgb = make_rgb_card(36, 28);
  core::SegHdcSession::Scratch scratch;
  for (const auto* image : {&gray, &rgb}) {
    const auto fused = session.segment(*image);
    auto split =
        session.cluster_and_finalize(session.encode(*image, scratch));
    expect_results_identical(fused, split);
    // Warm-scratch second pass must not drift either.
    auto split_again =
        session.cluster_and_finalize(session.encode(*image, scratch));
    expect_results_identical(fused, split_again);
  }
}

}  // namespace
