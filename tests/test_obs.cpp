// Tests for the observability layer (src/obs/): span tracer + Chrome-
// trace export, metrics registry + Prometheus rendering, and the two
// determinism gates — tracing forced on must leave the golden batch
// hash 13206585988845182882 and golden stream hash 6522647722573592175
// bit-identical (spans observe the pipeline, they never steer it).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/session.hpp"
#include "src/imaging/image.hpp"
#include "src/metrics/segmentation_metrics.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/server.hpp"
#include "src/util/parallel.hpp"
#include "tests/golden_fixture.hpp"

namespace {

using namespace seghdc;
using namespace seghdc::golden;

// ---------------------------------------------------------------------
// Tracer + SpanScope

/// Leaves the process-wide tracer exactly as a test found it.
struct TracerGuard {
  bool prior = obs::trace_enabled();
  ~TracerGuard() { obs::Tracer::instance().set_enabled(prior); }
};

TEST(Trace, DisabledSpansRecordNothing) {
  const TracerGuard guard;
  obs::Tracer::instance().set_enabled(false);
  obs::Tracer::instance().clear();
  {
    obs::SpanScope span("never", "test", "k", 1);
    span.arg("extra", 2);
  }
  obs::emit_complete("never_either", "test", 0.5, "k", 3);
  EXPECT_TRUE(obs::Tracer::instance().collect().empty());
  EXPECT_EQ(obs::Tracer::instance().dropped(), 0u);
}

TEST(Trace, SpanScopesNestAndCarryArgs) {
  const obs::TraceSession session;
  {
    const obs::SpanScope outer("outer", "test", "req", 7);
    {
      obs::SpanScope inner("inner", "test");
      inner.arg("band", 3);
      inner.arg("reused", 1);
      inner.arg("ignored", 9);  // both slots taken: silently dropped
    }
  }
  const auto events = session.events();
  ASSERT_EQ(events.size(), 2u);
  // collect() sorts by start time, so the outer span comes first.
  const obs::TraceEvent& outer = events[0];
  const obs::TraceEvent& inner = events[1];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_STREQ(outer.cat, "test");
  EXPECT_STREQ(outer.arg1_key, "req");
  EXPECT_EQ(outer.arg1_value, 7u);
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(inner.arg1_key, "band");
  EXPECT_EQ(inner.arg1_value, 3u);
  EXPECT_STREQ(inner.arg2_key, "reused");
  EXPECT_EQ(inner.arg2_value, 1u);
  // Proper nesting: the inner span starts no earlier and ends no later.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
  EXPECT_EQ(inner.tid, outer.tid);  // same thread
}

TEST(Trace, EmitCompleteBackdatesTheStart) {
  const obs::TraceSession session;
  const std::uint64_t before = obs::Tracer::instance().now_ns();
  obs::emit_complete("queue_wait", "test", 0.25, "req", 11);
  const auto events = session.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].dur_ns, 250000000u);  // 0.25s in ns, exactly
  // The span ended "now", so its start is ~0.25s in the past — i.e.
  // before the pre-call timestamp.
  EXPECT_LT(events[0].start_ns, before);
  EXPECT_STREQ(events[0].arg1_key, "req");
  EXPECT_EQ(events[0].arg1_value, 11u);
}

TEST(Trace, RingOverflowDropsOldestAndCounts) {
  const obs::TraceSession session;
  const std::size_t extra = 100;
  for (std::size_t i = 0; i < obs::Tracer::kRingCapacity + extra; ++i) {
    const obs::SpanScope span("tick", "test", "i", i);
  }
  const auto events = obs::Tracer::instance().collect();
  EXPECT_EQ(events.size(), obs::Tracer::kRingCapacity);
  EXPECT_EQ(obs::Tracer::instance().dropped(), extra);
}

TEST(Trace, JsonIsWellFormedChromeTrace) {
  // Hand-built events through the serializer: exact ts/dur math (ns ->
  // us with three decimals) and the args object.
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent event;
  event.name = "encode";
  event.cat = "serve";
  event.start_ns = 1500;
  event.dur_ns = 2250;
  event.tid = 3;
  event.arg1_key = "req";
  event.arg1_value = 42;
  events.push_back(event);
  std::ostringstream out;
  obs::write_trace_json(out, events, /*dropped=*/7);
  const std::string json = out.str();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"encode\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"serve\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.250"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1,\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"req\":42}"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":\"7\""), std::string::npos);
}

TEST(Trace, MalformedEnvIsAHardError) {
  const TracerGuard guard;
  const char* saved_env = std::getenv("SEGHDC_TRACE");
  const std::string saved = saved_env != nullptr ? saved_env : "";
  const bool had = saved_env != nullptr;

  core::SegHdcConfig config;
  config.dim = 64;

  ::setenv("SEGHDC_TRACE", "yes", 1);
  EXPECT_THROW(core::SegHdcSession{config}, std::invalid_argument);
  ::setenv("SEGHDC_TRACE", "2", 1);
  EXPECT_THROW(core::SegHdcSession{config}, std::invalid_argument);

  // "0" and unset leave the tracer alone; "1" switches it on.
  obs::Tracer::instance().set_enabled(false);
  ::setenv("SEGHDC_TRACE", "0", 1);
  EXPECT_NO_THROW(core::SegHdcSession{config});
  EXPECT_FALSE(obs::trace_enabled());
  ::unsetenv("SEGHDC_TRACE");
  EXPECT_NO_THROW(core::SegHdcSession{config});
  EXPECT_FALSE(obs::trace_enabled());
  ::setenv("SEGHDC_TRACE", "1", 1);
  EXPECT_NO_THROW(core::SegHdcSession{config});
  EXPECT_TRUE(obs::trace_enabled());

  // config.trace forces on without consulting the env at all.
  obs::Tracer::instance().set_enabled(false);
  ::setenv("SEGHDC_TRACE", "garbage", 1);
  config.trace = true;
  EXPECT_NO_THROW(core::SegHdcSession{config});
  EXPECT_TRUE(obs::trace_enabled());

  if (had) {
    ::setenv("SEGHDC_TRACE", saved.c_str(), 1);
  } else {
    ::unsetenv("SEGHDC_TRACE");
  }
}

// ---------------------------------------------------------------------
// MetricsRegistry

TEST(Metrics, RenderMatchesKnownValues) {
  obs::MetricsRegistry registry;
  obs::Counter& served = registry.counter("seghdc_test_served_total",
                                          "Requests served");
  served.add();
  served.add(2);
  obs::Gauge& depth = registry.gauge("seghdc_test_depth", "Queue depth");
  depth.set(5);
  depth.sub(7);
  obs::Counter& tenant_a = registry.counter("seghdc_test_gate_total", "",
                                            "tenant=\"a\"");
  tenant_a.add(4);
  const std::string text = registry.render();
  EXPECT_NE(text.find("# HELP seghdc_test_served_total Requests served\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE seghdc_test_served_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("seghdc_test_served_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE seghdc_test_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("seghdc_test_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("seghdc_test_gate_total{tenant=\"a\"} 4\n"),
            std::string::npos);
}

TEST(Metrics, HistogramRendersCumulativeBuckets) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("seghdc_test_seconds", "Latency");
  h.record(1.5e-6);  // second bucket (le=2e-06)
  h.record(3e-6);    // third bucket (le=4e-06)
  h.record(100.0);   // beyond the last bound: +Inf only
  const auto cumulative = h.cumulative_buckets();
  EXPECT_EQ(cumulative[0], 0u);
  EXPECT_EQ(cumulative[1], 1u);
  EXPECT_EQ(cumulative[2], 2u);
  EXPECT_EQ(cumulative[obs::Histogram::kBucketCount - 1], 2u);
  EXPECT_EQ(cumulative[obs::Histogram::kBucketCount], 3u);
  EXPECT_EQ(h.count(), 3u);

  const std::string text = registry.render();
  EXPECT_NE(text.find("# TYPE seghdc_test_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("seghdc_test_seconds_bucket{le=\"1e-06\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("seghdc_test_seconds_bucket{le=\"2e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("seghdc_test_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("seghdc_test_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("seghdc_test_seconds_sum "), std::string::npos);
}

TEST(Metrics, HandlesAreStableAndKindsAreChecked) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("seghdc_test_x_total");
  obs::Counter& b = registry.counter("seghdc_test_x_total");
  EXPECT_EQ(&a, &b);  // get-or-create returns the SAME handle
  obs::Counter& labeled = registry.counter("seghdc_test_x_total", "",
                                           "tenant=\"t\"");
  EXPECT_NE(&a, &labeled);  // distinct series, distinct handle
  EXPECT_THROW(registry.gauge("seghdc_test_x_total"), std::invalid_argument);
  EXPECT_THROW(registry.counter(""), std::invalid_argument);
}

TEST(Metrics, LatencyRecorderConcurrentRecordAndSnapshot) {
  obs::LatencyRecorder recorder(256);
  constexpr int kThreads = 4;
  constexpr int kRecords = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < kRecords; ++i) {
        recorder.record(0.001);
      }
    });
  }
  // Snapshot continuously while the recorders hammer the window: every
  // intermediate snapshot must be internally consistent.
  for (int i = 0; i < 200; ++i) {
    const obs::LatencyPercentiles p = recorder.snapshot();
    EXPECT_LE(p.window_count, 256u);
    EXPECT_LE(p.window_count, p.count);
    if (p.count > 0) {
      EXPECT_DOUBLE_EQ(p.p50_seconds, 0.001);
    }
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const obs::LatencyPercentiles final = recorder.snapshot();
  EXPECT_EQ(final.count,
            static_cast<std::uint64_t>(kThreads) * kRecords);
  EXPECT_EQ(final.window_count, 256u);
  EXPECT_NEAR(final.mean_seconds, 0.001, 1e-9);
}

TEST(Metrics, HistogramConcurrentRecord) {
  obs::Histogram h(128);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 2000; ++i) {
        h.record(1e-3);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(h.count(), 8000u);
  EXPECT_NEAR(h.sum(), 8000 * 1e-3, 1e-6);
  EXPECT_EQ(h.cumulative_buckets()[obs::Histogram::kBucketCount], 8000u);
}

// ---------------------------------------------------------------------
// Determinism gates + server registry wiring (the golden batch is
// tests/golden_fixture.hpp's, the stream recipe the one test_stream
// pins; fixed seed on purpose).

constexpr std::uint64_t kGoldenStreamHash = 6522647722573592175ULL;

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

TEST(TraceDeterminism, GoldenBatchHashUnchangedWithTracingOn) {
  const obs::TraceSession trace;
  auto config = golden_config();
  config.trace = true;  // both enabling paths exercised
  util::ThreadPool pool(3);
  const core::SegHdcSession session(config,
                                    core::SegHdcSession::Options{&pool});
  const auto results = session.segment_many(golden_batch());
  EXPECT_EQ(results_hash(results), kGoldenBatchHash)
      << "tracing perturbed the batch pipeline";
  // One direct segment() too: the single-image path tiles its encode
  // (segment_many serialises workers to one band), so this is what
  // exercises the per-band spans.
  const auto direct = session.segment(golden_batch()[0]);
  // The traced run actually recorded the pipeline spans.
  const auto events = trace.events();
  EXPECT_FALSE(events.empty());
  bool saw_kmeans = false;
  bool saw_band = false;
  bool saw_bind = false;
  bool saw_update = false;
  bool saw_snapshot = false;
  for (const auto& event : events) {
    const std::string name = event.name;
    saw_kmeans = saw_kmeans || name == "kmeans";
    saw_band = saw_band || name == "encode_band";
    // The bind span carries the points it bound: the direct segment()
    // bound every unique point of its image.
    saw_bind = saw_bind ||
               (name == "encode_bind" && event.arg1_key != nullptr &&
                std::string(event.arg1_key) == "points" &&
                event.arg1_value == direct.unique_points);
    saw_update = saw_update || name == "kmeans_update";
    saw_snapshot = saw_snapshot || name == "centroid_snapshot";
  }
  EXPECT_TRUE(saw_kmeans);
  EXPECT_TRUE(saw_band);
  EXPECT_TRUE(saw_bind);
  EXPECT_TRUE(saw_update);
  EXPECT_TRUE(saw_snapshot);
}

TEST(TraceDeterminism, GoldenStreamHashUnchangedWithTracingOn) {
  const obs::TraceSession trace;
  const core::SegHdcSession session(golden_config());
  core::SegHdcSession::Stream stream;
  std::vector<img::ImageU8> frames;
  frames.push_back(scene_background(32, 30));
  frames.push_back(scene_with_square(32, 30, 8, 20));
  frames.push_back(scene_with_square(32, 30, 9, 20));
  frames.push_back(scene_with_square(32, 30, 9, 20));  // replay
  frames.push_back(scene_background(32, 30));
  std::uint64_t hash = kLabelHashBasis;
  for (const auto& frame : frames) {
    const auto warm = session.segment_stream(frame, stream);
    hash = metrics::label_map_hash(warm.result.labels, hash);
  }
  EXPECT_EQ(hash, kGoldenStreamHash)
      << "tracing perturbed the stream pipeline";
  bool saw_replay = false;
  for (const auto& event : trace.events()) {
    saw_replay = saw_replay || std::string(event.name) == "stream_replay";
  }
  EXPECT_TRUE(saw_replay);  // frame 3 is byte-identical to frame 2
}

TEST(ServerMetrics, ServedBatchShowsUpInTheRegistry) {
  const obs::TraceSession trace;
  util::ThreadPool pool(3);
  serve::ServerOptions options;
  options.queue_capacity = 2;
  options.encode_workers = 2;
  options.cluster_workers = 2;
  options.pool = &pool;
  serve::SegHdcServer server(golden_config(), options);
  const auto images = golden_batch();
  std::vector<std::future<core::SegmentationResult>> futures;
  for (const auto& image : images) {
    futures.push_back(server.submit(image));
  }
  std::uint64_t hash = kLabelHashBasis;
  for (auto& future : futures) {
    hash = metrics::label_map_hash(future.get().labels, hash);
  }
  EXPECT_EQ(hash, kGoldenBatchHash)
      << "serving with tracing on perturbed labels";
  server.shutdown(serve::ShutdownMode::kDrain);

  const std::string text = server.metrics().render();
  EXPECT_NE(text.find("seghdc_requests_submitted_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("seghdc_requests_completed_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("seghdc_requests_failed_total 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("seghdc_in_flight 0\n"), std::string::npos);
  EXPECT_NE(text.find("seghdc_request_latency_seconds_count 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("seghdc_stage_encode_seconds_count 3\n"),
            std::string::npos);

  // ServerStats is a view over the same registry.
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.latency.count, 3u);

  // The full request lifecycle shows up as spans: submit, queue_wait,
  // encode, cluster_finalize for each of the three requests.
  std::size_t submits = 0, waits = 0, encodes = 0, clusters = 0;
  for (const auto& event : trace.events()) {
    const std::string name = event.name;
    submits += name == "submit";
    waits += name == "queue_wait";
    encodes += name == "encode";
    clusters += name == "cluster_finalize";
  }
  EXPECT_EQ(submits, 3u);
  EXPECT_EQ(waits, 3u);
  EXPECT_EQ(encodes, 3u);
  EXPECT_EQ(clusters, 3u);
}

TEST(ServerMetrics, TraceSessionJsonRoundTripsThroughAServedRequest) {
  const obs::TraceSession trace;
  serve::ServerOptions options;
  options.encode_workers = 1;
  options.cluster_workers = 1;
  serve::SegHdcServer server(golden_config(), options);
  server.submit(make_gray_card(24, 20, 235)).get();
  server.shutdown(serve::ShutdownMode::kDrain);
  std::ostringstream out;
  trace.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\":\"encode\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cluster_finalize\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

}  // namespace
