#include "src/serve/server.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "src/obs/trace.hpp"

namespace seghdc::serve {

namespace {

ServerOptions validate_options(ServerOptions options) {
  if (options.encode_workers == 0) {
    throw std::invalid_argument("ServerOptions.encode_workers must be >= 1");
  }
  if (options.cluster_workers == 0) {
    throw std::invalid_argument("ServerOptions.cluster_workers must be >= 1");
  }
  if (options.latency_window == 0) {
    throw std::invalid_argument("ServerOptions.latency_window must be >= 1");
  }
  return options;
}

}  // namespace

/// Shared state of one temporal stream. Two locks with disjoint jobs:
/// `submit_mutex` makes (assign seq, push to the submit queue) atomic,
/// so queue order always equals seq order — which is what guarantees a
/// frame's predecessor is already popped (FIFO) and therefore in flight
/// whenever the frame waits for its turn, i.e. the turn wait can never
/// deadlock. `run_mutex` + `run_cv` implement the turn itself:
/// `next_run_seq` advances exactly once per frame — success, stage
/// failure, and cancellation alike.
struct SegHdcServer::StreamHandle::StreamShared {
  core::SegHdcSession::Stream stream;
  std::mutex submit_mutex;
  std::uint64_t next_submit_seq = 0;
  std::mutex run_mutex;
  std::condition_variable run_cv;
  std::uint64_t next_run_seq = 0;
};

SegHdcServer::StreamHandle SegHdcServer::open_stream() {
  StreamHandle handle;
  handle.impl_ = std::make_shared<StreamHandle::StreamShared>();
  return handle;
}

SegHdcServer::SegHdcServer(const core::SegHdcConfig& config,
                           const ServerOptions& options)
    : session_(config, core::SegHdcSession::Options{options.pool}),
      options_(validate_options(options)),
      submit_queue_(options_.queue_capacity),
      // Two encoded images of headroom per cluster worker: enough to keep
      // the stage busy, small enough that a slow cluster stage promptly
      // backpressures the encode stage instead of buffering the batch.
      encoded_queue_(std::max<std::size_t>(1, options_.cluster_workers * 2)),
      latency_(metrics_.histogram(
          "seghdc_request_latency_seconds",
          "Submit-to-completion wall latency of completed requests", "",
          options_.latency_window)),
      encode_stage_seconds_(metrics_.histogram(
          "seghdc_stage_encode_seconds",
          "Encode-stage compute time per request", "",
          options_.latency_window)),
      cluster_stage_seconds_(metrics_.histogram(
          "seghdc_stage_cluster_seconds",
          "Cluster+finalize stage compute time per request", "",
          options_.latency_window)),
      submitted_(metrics_.counter("seghdc_requests_submitted_total",
                                  "Requests accepted into the submit queue")),
      completed_(metrics_.counter("seghdc_requests_completed_total",
                                  "Results delivered (future set)")),
      rejected_(metrics_.counter("seghdc_requests_rejected_total",
                                 "Requests refused by kReject backpressure")),
      cancelled_(metrics_.counter("seghdc_requests_cancelled_total",
                                  "Requests failed by shutdown(kCancel)")),
      failed_(metrics_.counter("seghdc_requests_failed_total",
                               "Requests whose stage threw")),
      queue_depth_(metrics_.gauge("seghdc_queue_depth",
                                  "Requests waiting in the submit queue")),
      in_flight_(metrics_.gauge(
          "seghdc_in_flight",
          "Requests popped by a stage and not yet completed")),
      stream_frames_(metrics_.counter("seghdc_stream_frames_total",
                                      "Stream frames completed")),
      stream_warm_frames_(metrics_.counter(
          "seghdc_stream_warm_frames_total",
          "Stream frames seeded from previous-frame centroids")),
      stream_replayed_frames_(metrics_.counter(
          "seghdc_stream_replayed_frames_total",
          "Byte-identical stream frames replayed from cache")),
      stream_tiles_reused_(metrics_.counter(
          "seghdc_stream_tiles_reused_total",
          "Row bands served from the stream band cache")),
      stream_tiles_encoded_(metrics_.counter(
          "seghdc_stream_tiles_encoded_total",
          "Row bands re-encoded on stream frames")),
      stream_kmeans_iterations_(metrics_.counter(
          "seghdc_stream_kmeans_iterations_total",
          "K-Means iterations actually run on stream frames")),
      assign_distance_evals_(metrics_.counter(
          "seghdc_assign_distance_evals_total",
          "Distances actually evaluated (assignment + margin passes)")),
      assign_candidates_pruned_(metrics_.counter(
          "seghdc_assign_candidates_pruned_total",
          "K-Means assignment candidates skipped by the exact bound "
          "filter")) {
  encode_threads_.reserve(options_.encode_workers);
  cluster_threads_.reserve(options_.cluster_workers);
  live_encoders_.store(options_.encode_workers, std::memory_order_relaxed);
  for (std::size_t i = 0; i < options_.encode_workers; ++i) {
    encode_threads_.emplace_back([this] { encode_loop(); });
  }
  for (std::size_t i = 0; i < options_.cluster_workers; ++i) {
    cluster_threads_.emplace_back([this] { cluster_loop(); });
  }
}

SegHdcServer::~SegHdcServer() { shutdown(ShutdownMode::kDrain); }

std::future<core::SegmentationResult> SegHdcServer::submit(
    img::ImageU8 image) {
  return enqueue(std::move(image), Completion{});
}

void SegHdcServer::submit(img::ImageU8 image,
                          std::promise<core::SegmentationResult> promise,
                          std::function<void()> on_done,
                          util::Stopwatch accepted) {
  Completion completion;
  completion.promise = std::move(promise);
  completion.on_done = std::move(on_done);
  completion.future_taken = true;
  completion.accepted = accepted;
  enqueue(std::move(image), std::move(completion));
}

std::future<core::StreamFrameResult> SegHdcServer::submit(
    StreamHandle& stream, img::ImageU8 frame) {
  if (!stream.impl_) {
    throw std::invalid_argument(
        "SegHdcServer::submit stream handle is empty (use open_stream)");
  }
  const std::shared_ptr<StreamHandle::StreamShared> shared = stream.impl_;
  // Seq assignment and queue push are atomic together, so queue FIFO
  // order equals seq order for every stream (see StreamShared). The seq
  // counter only advances on a successful push: a rejected frame leaves
  // no gap in the turn sequence.
  const std::lock_guard<std::mutex> lock(shared->submit_mutex);
  Request request;
  request.image = std::move(frame);
  request.stream.emplace();
  request.stream->stream = shared;
  request.stream->seq = shared->next_submit_seq;
  request.stream->trace_id =
      next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const obs::SpanScope span("submit", "serve", "req",
                            request.stream->trace_id);
  std::future<core::StreamFrameResult> future =
      request.stream->promise.get_future();
  if (options_.backpressure == BackpressurePolicy::kReject) {
    switch (submit_queue_.try_push(request)) {
      case util::QueuePush::kOk:
        break;
      case util::QueuePush::kFull:
        rejected_.add();
        throw RejectedError();
      case util::QueuePush::kClosed:
        throw ShutdownError();
    }
  } else if (!submit_queue_.push(request)) {
    throw ShutdownError();
  }
  ++shared->next_submit_seq;
  submitted_.add();
  queue_depth_.set(static_cast<std::int64_t>(submit_queue_.size()));
  return future;
}

std::future<core::SegmentationResult> SegHdcServer::enqueue(
    img::ImageU8&& image, Completion&& completion) {
  std::future<core::SegmentationResult> future;
  if (!completion.future_taken) {
    future = completion.promise.get_future();
  }
  completion.trace_id =
      next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const obs::SpanScope span("submit", "serve", "req", completion.trace_id);
  Request request{std::move(image), std::move(completion), std::nullopt};
  if (options_.backpressure == BackpressurePolicy::kReject) {
    switch (submit_queue_.try_push(request)) {
      case util::QueuePush::kOk:
        break;
      case util::QueuePush::kFull:
        rejected_.add();
        throw RejectedError();
      case util::QueuePush::kClosed:
        throw ShutdownError();
    }
  } else if (!submit_queue_.push(request)) {
    throw ShutdownError();
  }
  submitted_.add();
  queue_depth_.set(static_cast<std::int64_t>(submit_queue_.size()));
  return future;
}

void SegHdcServer::deliver(Completion&& completion,
                           core::SegmentationResult&& result) {
  // Record before signalling: a caller woken by future.get() must see
  // its own request in the counters and the latency window. The fleet's
  // on_done hook keeps books too (its latency recorder, quota slots) —
  // same rule, so it fires before the promise as well.
  latency_.record(completion.accepted.seconds());
  completed_.add();
  assign_distance_evals_.add(result.ops.distance_evals);
  assign_candidates_pruned_.add(result.ops.candidates_pruned);
  if (completion.on_done) {
    completion.on_done();
  }
  completion.promise.set_value(std::move(result));
}

void SegHdcServer::fail(Completion&& completion, std::exception_ptr error,
                        obs::Counter& counter) {
  counter.add();
  // The fleet's on_done hook fires on every outcome — quota slots must
  // come back even for failures — and before the promise, so a caller
  // unblocked by the exception already finds the books settled.
  if (completion.on_done) {
    completion.on_done();
  }
  completion.promise.set_exception(std::move(error));
}

void SegHdcServer::encode_loop() {
  core::SegHdcSession::Scratch scratch;  // warm arena, one per worker
  for (;;) {
    std::optional<Request> request = submit_queue_.pop();
    if (!request) {
      break;  // closed and drained
    }
    queue_depth_.set(static_cast<std::int64_t>(submit_queue_.size()));
    in_flight_.add();
    if (request->stream.has_value()) {
      // Stream frames are stage-fused here: the next frame's encode
      // depends on this frame's clustering (band caches AND centroids),
      // so splitting the stages buys no overlap within a stream. Other
      // streams and batch requests overlap with it on other workers.
      process_stream_frame(std::move(*request));
      in_flight_.sub();
      continue;
    }
    // Queue wait, reconstructed from the admission stopwatch: the span
    // ends at the pop, so it covers submit -> this worker (including
    // any fleet-gate wait upstream of this server).
    obs::emit_complete("queue_wait", "serve",
                       request->completion.accepted.seconds(), "req",
                       request->completion.trace_id);
    EncodedJob job;
    job.completion = std::move(request->completion);
    bool encoded_ok = true;
    const util::Stopwatch encode_watch;
    try {
      const obs::SpanScope span("encode", "serve", "req",
                                job.completion.trace_id);
      job.encoded = session_.encode(request->image, scratch);
      job.encode_seconds = encode_watch.seconds();
      encode_stage_seconds_.record(job.encode_seconds);
    } catch (...) {
      encoded_ok = false;
      fail(std::move(job.completion), std::current_exception(), failed_);
      in_flight_.sub();
    }
    if (!encoded_ok) {
      continue;
    }
    request.reset();  // free the image before the hand-off blocks
    if (!encoded_queue_.push(job)) {
      // Only possible if the encoded queue was force-closed, which the
      // normal shutdown path never does while an encoder is live.
      // CancelledError to match the cancelled_ counter it pairs with.
      fail(std::move(job.completion),
           std::make_exception_ptr(CancelledError()), cancelled_);
      in_flight_.sub();
    }
  }
  // Last encoder out closes the stage hand-off so the cluster workers
  // drain what is left and exit.
  if (live_encoders_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    encoded_queue_.close();
  }
}

void SegHdcServer::process_stream_frame(Request&& request) {
  StreamJob job = std::move(*request.stream);
  const std::shared_ptr<StreamHandle::StreamShared> shared = job.stream;
  // Wait for this frame's turn. The predecessor is guaranteed to be in
  // flight already (queue FIFO + atomic seq/push), so this wait always
  // terminates. The lock is held across segment_stream: the only other
  // contenders are same-stream successors, which must wait for this
  // frame anyway (cv waits release the mutex).
  std::unique_lock<std::mutex> lock(shared->run_mutex);
  shared->run_cv.wait(lock,
                      [&] { return shared->next_run_seq == job.seq; });
  // The turn wait doubles as queue wait for stream frames: both end the
  // moment the frame may actually run.
  obs::emit_complete("queue_wait", "serve", job.accepted.seconds(), "req",
                     job.trace_id);
  try {
    core::StreamFrameResult frame;
    {
      const obs::SpanScope span("stream_frame", "serve", "req",
                                job.trace_id);
      frame = session_.segment_stream(request.image, shared->stream);
    }
    ++shared->next_run_seq;
    lock.unlock();
    shared->run_cv.notify_all();
    // Counters before the promise, like deliver(): a caller woken by
    // future.get() sees its own frame in the stats.
    latency_.record(job.accepted.seconds());
    encode_stage_seconds_.record(frame.result.timings.encode_seconds);
    cluster_stage_seconds_.record(frame.result.timings.cluster_seconds);
    completed_.add();
    stream_frames_.add();
    if (frame.stats.warm) {
      stream_warm_frames_.add();
    }
    if (frame.stats.replayed) {
      stream_replayed_frames_.add();
    }
    stream_tiles_reused_.add(frame.stats.tiles_reused);
    stream_tiles_encoded_.add(frame.stats.tiles_encoded);
    stream_kmeans_iterations_.add(frame.stats.kmeans_iterations);
    assign_distance_evals_.add(frame.result.ops.distance_evals);
    assign_candidates_pruned_.add(frame.result.ops.candidates_pruned);
    job.promise.set_value(std::move(frame));
  } catch (...) {
    // The turn advances on failure too — a dead frame must not wedge
    // its successors (they warm-start from the last completed frame).
    ++shared->next_run_seq;
    lock.unlock();
    shared->run_cv.notify_all();
    failed_.add();
    job.promise.set_exception(std::current_exception());
  }
}

void SegHdcServer::cancel_stream_frame(StreamJob&& job) {
  const std::shared_ptr<StreamHandle::StreamShared> shared = job.stream;
  {
    // Release the turn in order: predecessors are either in flight
    // (they advance the turn themselves) or earlier in the cancelled
    // batch (shutdown processes it in FIFO order), so this wait always
    // terminates.
    std::unique_lock<std::mutex> lock(shared->run_mutex);
    shared->run_cv.wait(lock,
                        [&] { return shared->next_run_seq == job.seq; });
    ++shared->next_run_seq;
  }
  shared->run_cv.notify_all();
  cancelled_.add();
  job.promise.set_exception(std::make_exception_ptr(CancelledError()));
}

void SegHdcServer::cluster_loop() {
  for (;;) {
    std::optional<EncodedJob> job = encoded_queue_.pop();
    if (!job) {
      break;  // closed and drained
    }
    try {
      const util::Stopwatch cluster_watch;
      core::SegmentationResult result;
      {
        const obs::SpanScope span("cluster_finalize", "serve", "req",
                                  job->completion.trace_id);
        result = session_.cluster_and_finalize(std::move(job->encoded));
      }
      cluster_stage_seconds_.record(cluster_watch.seconds());
      // Stage-true timings: the encode stage measured itself, finalize
      // set total_seconds to its whole stage (K-Means + label map +
      // margins); their sum is pipeline compute, not queue wait (the
      // latency recorder tracks submit-to-done separately).
      result.timings.encode_seconds = job->encode_seconds;
      result.timings.total_seconds += job->encode_seconds;
      deliver(std::move(job->completion), std::move(result));
    } catch (...) {
      fail(std::move(job->completion), std::current_exception(), failed_);
    }
    in_flight_.sub();
  }
}

void SegHdcServer::shutdown(ShutdownMode mode) {
  const std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (threads_joined_) {
    return;
  }
  if (mode == ShutdownMode::kCancel) {
    std::vector<Request> dropped = submit_queue_.close_and_drain();
    for (auto& request : dropped) {
      if (request.stream.has_value()) {
        cancel_stream_frame(std::move(*request.stream));
        continue;
      }
      fail(std::move(request.completion),
           std::make_exception_ptr(CancelledError()), cancelled_);
    }
  } else {
    submit_queue_.close();
  }
  for (auto& thread : encode_threads_) {
    thread.join();
  }
  for (auto& thread : cluster_threads_) {
    thread.join();
  }
  threads_joined_ = true;
}

ServerStats SegHdcServer::stats() const {
  // A view assembled from the metrics registry: every field below is
  // also visible (with history) through metrics().render().
  ServerStats stats;
  stats.submitted = submitted_.value();
  stats.completed = completed_.value();
  stats.rejected = rejected_.value();
  stats.cancelled = cancelled_.value();
  stats.failed = failed_.value();
  stats.queued = submit_queue_.size();
  stats.in_flight = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, in_flight_.value()));
  stats.uptime_seconds = uptime_.seconds();
  stats.throughput_images_per_sec =
      stats.uptime_seconds > 0.0
          ? static_cast<double>(stats.completed) / stats.uptime_seconds
          : 0.0;
  stats.latency = latency_.percentiles();
  stats.stream.frames = stream_frames_.value();
  stats.stream.warm_frames = stream_warm_frames_.value();
  stats.stream.replayed_frames = stream_replayed_frames_.value();
  stats.stream.tiles_reused = stream_tiles_reused_.value();
  stats.stream.tiles_encoded = stream_tiles_encoded_.value();
  stats.stream.kmeans_iterations = stream_kmeans_iterations_.value();
  return stats;
}

}  // namespace seghdc::serve
