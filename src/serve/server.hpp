// SegHdcServer: the asynchronous, pipelined serving layer on top of
// SegHdcSession — the request-level shape the ROADMAP's "heavy traffic"
// north star needs, where `segment_many` is the batch/barrier shape.
//
//   serve::SegHdcServer server(config, {.queue_capacity = 64});
//   std::future<core::SegmentationResult> f = server.submit(image);
//   ...                                   // submit more, do other work
//   const auto result = f.get();          // == SegHdc(config).segment(image)
//   const auto stats = server.stats();    // p50/p95/p99, images/sec
//
// Architecture (one request flows left to right):
//
//   submit ──> [bounded MPMC queue] ──> encode stage ──> [encoded queue]
//                (backpressure)          workers             (bounded)
//                                                      ──> cluster stage ──> future
//                                                           workers
//
// The two stages run on dedicated threads, so the encode of one image
// overlaps the clustering of another; inside a stage the session fans
// the per-image work (tiled encode bands, K-Means assignment/update)
// out onto the configured util::ThreadPool. Each encode worker owns a
// reusable SegHdcSession::Scratch arena, so sustained traffic reuses its
// band tables' capacity and unique-ratio reserve hint exactly like
// `segment_many` workers do.
//
// Guarantees:
//   - Determinism: every delivered result is bit-identical to
//     `SegHdc(config).segment(image)` — at every queue capacity, worker
//     count, pool size, and backpressure policy. Scheduling changes
//     completion order, never content.
//   - Backpressure: a full submit queue either blocks the submitter
//     (kBlock, the default) or fails fast (kReject -> RejectedError).
//   - Shutdown: kDrain completes everything accepted; kCancel fails
//     still-queued requests with CancelledError and completes only what
//     a stage already picked up. The destructor drains.
#ifndef SEGHDC_SERVE_SERVER_HPP
#define SEGHDC_SERVE_SERVER_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/session.hpp"
#include "src/imaging/image.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/stats.hpp"
#include "src/util/bounded_queue.hpp"
#include "src/util/parallel.hpp"
#include "src/util/stopwatch.hpp"

namespace seghdc::serve {

/// What a full submit queue does to the next submitter.
enum class BackpressurePolicy {
  kBlock,   ///< submit() blocks until a slot frees (default)
  kReject,  ///< submit() throws RejectedError immediately
};

/// How shutdown treats requests still waiting in the submit queue.
enum class ShutdownMode {
  kDrain,   ///< finish everything accepted, then stop (default, ~dtor)
  kCancel,  ///< fail queued requests with CancelledError; finish in-flight
};

/// Thrown by submit() when the queue is full under kReject. The request
/// was NOT accepted: no future exists and no counter besides `rejected`
/// moves. Also thrown (with a tenant-naming message) by the fleet layer
/// when a tenant's admission quota refuses a request.
class RejectedError : public std::runtime_error {
 public:
  RejectedError() : std::runtime_error("SegHdcServer queue full") {}
  explicit RejectedError(const std::string& what) : std::runtime_error(what) {}
};

/// Delivered through the future of a request that shutdown(kCancel)
/// removed from the queue before any stage picked it up.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("SegHdcServer request cancelled") {}
};

/// Thrown by submit() after shutdown has begun — also by the fleet layer
/// (with a tenant-naming message) for submits racing a tenant's retire.
class ShutdownError : public std::runtime_error {
 public:
  ShutdownError() : std::runtime_error("SegHdcServer is shut down") {}
  explicit ShutdownError(const std::string& what) : std::runtime_error(what) {}
};

/// Server construction knobs. The queue/backpressure pair is the
/// admission policy; the worker counts shape the pipeline; none of them
/// affect result content, only latency and throughput.
struct ServerOptions {
  /// Submit-queue capacity; 0 = unbounded (kBlock never blocks and
  /// kReject never rejects).
  std::size_t queue_capacity = 0;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Dedicated encode-stage threads (>= 1). Each owns a warm
  /// SegHdcSession::Scratch arena.
  std::size_t encode_workers = 1;
  /// Dedicated cluster/finalize-stage threads (>= 1).
  std::size_t cluster_workers = 1;
  /// Pool for the intra-stage data parallelism (tiled encode bands,
  /// K-Means). nullptr = the process-wide shared pool.
  util::ThreadPool* pool = nullptr;
  /// Sliding-window size of the latency recorder (see LatencyRecorder).
  std::size_t latency_window = 65536;
};

class SegHdcServer {
 public:
  /// Validates the config and options (std::invalid_argument on bad
  /// values) and starts the stage threads; the server accepts requests
  /// as soon as the constructor returns.
  explicit SegHdcServer(const core::SegHdcConfig& config,
                        const ServerOptions& options = {});

  /// Drains: blocks until every accepted request has completed, then
  /// stops the stage threads.
  ~SegHdcServer();

  SegHdcServer(const SegHdcServer&) = delete;
  SegHdcServer& operator=(const SegHdcServer&) = delete;

  const core::SegHdcConfig& config() const { return session_.config(); }
  const ServerOptions& options() const { return options_; }

  /// Enqueues one image; the future delivers the segmentation (bit-
  /// identical to the synchronous path) or the stage's exception (e.g.
  /// std::invalid_argument for an unsupported image, CancelledError
  /// under shutdown(kCancel)). The image is owned by the server until
  /// completion; pass by value and move when the caller's copy is not
  /// needed. Thread-safe; blocks or throws RejectedError on a full
  /// queue per the backpressure policy, throws ShutdownError once
  /// shutdown has begun.
  std::future<core::SegmentationResult> submit(img::ImageU8 image);

  /// Fleet hook: like the future form, but the caller supplies the
  /// promise (whose future it already handed out when it admitted the
  /// request), an `on_done` callback, and the admission stopwatch. The
  /// promise receives the result or the failure exactly as the future
  /// form's would; `on_done` is invoked exactly once per request — on
  /// success, stage failure, and cancellation alike — so an admission
  /// layer (serve::SegHdcFleet) can release quota slots and reschedule.
  /// It fires immediately BEFORE the promise is fulfilled, mirroring
  /// the counter rule: by the time any future.get() returns, the
  /// admission layer's books already include the request. It runs on
  /// stage threads (or the shutdown thread for cancelled requests):
  /// keep it short and never let it throw.
  /// `accepted` starts the latency clock, so a request that waited in a
  /// fleet queue before reaching this server is measured from fleet
  /// admission, not from this call.
  void submit(img::ImageU8 image,
              std::promise<core::SegmentationResult> promise,
              std::function<void()> on_done, util::Stopwatch accepted);

  /// A temporal stream registered with this server (see open_stream).
  /// Cheap handle over shared state: copying it refers to the SAME
  /// stream; destroying every copy while frames are in flight is safe
  /// (in-flight frames keep the state alive). Thread-safe to submit
  /// through from multiple threads — the server orders frames by
  /// submission and processes them strictly in that order.
  class StreamHandle {
   public:
    StreamHandle() = default;

   private:
    friend class SegHdcServer;
    struct StreamShared;
    std::shared_ptr<StreamShared> impl_;
  };

  /// Registers a new temporal stream (camera feed, video). Frames
  /// submitted through the returned handle ride the warm-start path
  /// (`SegHdcSession::segment_stream`): previous-frame centroid seeding,
  /// unchanged-band reuse, byte-identical replay. Streams are
  /// independent — open one per camera; batch `submit` traffic on the
  /// same server is unaffected.
  StreamHandle open_stream();

  /// Enqueues the next frame of `stream`. Frames of one stream are
  /// processed strictly in submission order (frame N+1 warm-starts from
  /// frame N by definition), so one stream never pipelines against
  /// itself; different streams and batch requests interleave freely
  /// across the encode workers. The future delivers the segmentation
  /// plus the per-frame StreamFrameStats, or the failure (stage
  /// exception / CancelledError under shutdown(kCancel) — either way
  /// the stream stays usable and later frames still run, warm-starting
  /// from the last frame that completed). Backpressure and shutdown
  /// behave exactly like the batch `submit`.
  std::future<core::StreamFrameResult> submit(StreamHandle& stream,
                                              img::ImageU8 frame);

  /// Stops the server. kDrain completes every accepted request first;
  /// kCancel fails still-queued requests with CancelledError and lets
  /// requests a stage already picked up finish. Blocks until the stage
  /// threads have exited. Idempotent and thread-safe; the first caller's
  /// mode wins, later calls just wait for the stop to finish.
  void shutdown(ShutdownMode mode = ShutdownMode::kDrain);

  /// Counter + latency snapshot (see ServerStats) — a view assembled
  /// from the metrics registry. Safe to call from any thread at any
  /// time, including after shutdown.
  ServerStats stats() const;

  /// The server's metric registry (request counters, queue-depth and
  /// in-flight gauges, latency + per-stage histograms). render() gives
  /// the Prometheus text exposition; handles obtained from it stay
  /// valid for the server's lifetime. Mutable access is deliberate:
  /// callers may register their own metrics next to the server's.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// The underlying session — read-only access for diagnostics
  /// (encoder_states_built).
  const core::SegHdcSession& session() const { return session_; }

 private:
  /// How a finished request reports back: through its `promise`, after
  /// `on_done` (the fleet's quota-release hook), when set, has fired on
  /// either outcome path.
  struct Completion {
    std::promise<core::SegmentationResult> promise;
    std::function<void()> on_done;
    /// The fleet hook hands over a promise whose future the fleet
    /// already retrieved at admission; enqueue must not get_future again.
    bool future_taken = false;
    util::Stopwatch accepted;  ///< starts the submit-to-done latency clock
    std::uint64_t trace_id = 0;  ///< per-request id threaded through spans
  };
  /// A stream frame in flight: which stream, its turn number, and its
  /// own promise (stream results carry StreamFrameStats, so they do not
  /// reuse Completion's SegmentationResult promise).
  struct StreamJob {
    std::shared_ptr<StreamHandle::StreamShared> stream;
    std::uint64_t seq = 0;
    std::promise<core::StreamFrameResult> promise;
    util::Stopwatch accepted;
    std::uint64_t trace_id = 0;
  };
  struct Request {
    img::ImageU8 image;
    Completion completion;
    /// Set for stream frames; they are stage-fused on the encode worker
    /// (frame N+1's encode depends on frame N's clustering, so there is
    /// nothing to pipeline within a stream).
    std::optional<StreamJob> stream;
  };
  struct EncodedJob {
    core::EncodedImage encoded;
    double encode_seconds = 0.0;
    Completion completion;
  };

  std::future<core::SegmentationResult> enqueue(img::ImageU8&& image,
                                                Completion&& completion);
  void encode_loop();
  void cluster_loop();
  /// Runs one stream frame end to end on the calling encode worker:
  /// waits for the frame's turn, segments, advances the turn, delivers.
  void process_stream_frame(Request&& request);
  /// Releases a cancelled (never-run) stream frame's turn in order and
  /// fails its promise with CancelledError.
  void cancel_stream_frame(StreamJob&& job);
  void deliver(Completion&& completion, core::SegmentationResult&& result);
  void fail(Completion&& completion, std::exception_ptr error,
            obs::Counter& counter);

  core::SegHdcSession session_;
  ServerOptions options_;
  util::Stopwatch uptime_;
  util::BoundedQueue<Request> submit_queue_;
  /// Stage hand-off; bounded so a slow cluster stage backpressures the
  /// encode stage (and through it the submit queue) instead of piling
  /// encoded images up in memory.
  util::BoundedQueue<EncodedJob> encoded_queue_;
  std::vector<std::thread> encode_threads_;
  std::vector<std::thread> cluster_threads_;
  std::atomic<std::size_t> live_encoders_{0};

  /// The single source of truth for every server counter: ServerStats
  /// is assembled from these handles, and metrics().render() exposes
  /// the same values as Prometheus text. The handles are registry-owned
  /// atomics, so the hot-path cost equals the raw atomic members they
  /// replaced. Declared after options_ (the latency window) and
  /// initialized in the constructor's init list.
  obs::MetricsRegistry metrics_;
  obs::Histogram& latency_;
  obs::Histogram& encode_stage_seconds_;
  obs::Histogram& cluster_stage_seconds_;
  obs::Counter& submitted_;
  obs::Counter& completed_;
  obs::Counter& rejected_;
  obs::Counter& cancelled_;
  obs::Counter& failed_;
  obs::Gauge& queue_depth_;
  obs::Gauge& in_flight_;
  // Stream-path breakdown (see StreamServingStats); stream frames also
  // move the request counters above.
  obs::Counter& stream_frames_;
  obs::Counter& stream_warm_frames_;
  obs::Counter& stream_replayed_frames_;
  obs::Counter& stream_tiles_reused_;
  obs::Counter& stream_tiles_encoded_;
  obs::Counter& stream_kmeans_iterations_;
  // Assignment-work breakdown from each result's OpCounts: evaluated
  // distances vs candidates skipped by the cosine bound filter (zero
  // under AssignMode::kExhaustive and for the Hamming ablation; see
  // core::AssignMode).
  obs::Counter& assign_distance_evals_;
  obs::Counter& assign_candidates_pruned_;
  /// Per-request trace ids (span correlation only, no semantics).
  std::atomic<std::uint64_t> next_trace_id_{0};

  std::mutex shutdown_mutex_;  ///< one thread performs the join
  bool threads_joined_ = false;
};

}  // namespace seghdc::serve

#endif  // SEGHDC_SERVE_SERVER_HPP
