// Lock-cheap span tracer: the "where did this one request spend its
// time?" layer of the serving stack. RAII SpanScopes record complete
// events (name, category, start, duration, up to two integer args) into
// per-thread ring buffers; a TraceSession turns the tracer on, collects
// every buffer, and exports Chrome-trace/Perfetto JSON that loads
// directly into chrome://tracing or https://ui.perfetto.dev.
//
//   obs::TraceSession session;          // enables tracing, clears buffers
//   server.submit(image).get();         // spans record themselves
//   session.write_json("trace.json");   // Perfetto-loadable
//
// Design rules:
//   - NEVER load-bearing: spans observe the pipeline, they cannot steer
//     it. No RNG, no ordering side effects, no allocation on the hot
//     path once a thread's ring is warm — the golden label hashes are
//     bit-identical with tracing on and off.
//   - Near-zero overhead when off: a disabled SpanScope is one relaxed
//     atomic load in the constructor and one branch in the destructor.
//   - Lock-cheap when on: each thread appends to its own ring buffer
//     under its own (uncontended) mutex; the global registry mutex is
//     taken once per thread, at first use. Full rings overwrite the
//     oldest events and count the overflow as `dropped`.
//
// Enabling: `SegHdcConfig::trace` forces the process-wide tracer on
// when a session is constructed; otherwise the SEGHDC_TRACE environment
// variable ("1" = on, "0"/unset = leave off, anything else is a hard
// std::invalid_argument like the other env knobs) is consulted. Tests
// and tools use TraceSession, which enables on construction and
// restores the prior state on destruction.
#ifndef SEGHDC_OBS_TRACE_HPP
#define SEGHDC_OBS_TRACE_HPP

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace seghdc::obs {

/// One completed span. `name`, `cat`, and the arg keys must be string
/// literals (or otherwise outlive the tracer): events store the
/// pointers, never copies, so recording stays allocation-free.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t start_ns = 0;  ///< since the tracer's process epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< small per-thread id (registration order)
  const char* arg1_key = nullptr;
  std::uint64_t arg1_value = 0;
  const char* arg2_key = nullptr;
  std::uint64_t arg2_value = 0;
};

namespace detail {
/// The process-wide on/off switch, inline so the hot check compiles to
/// one relaxed load with no function call.
inline std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

/// True when spans are being recorded. The ONLY thing hot paths check.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Process-wide trace collector. One instance; threads register a ring
/// buffer on first record and keep it for their lifetime (buffers
/// survive thread exit so a drained server's worker spans still export).
class Tracer {
 public:
  /// Events kept per thread; older events are overwritten (and counted
  /// as dropped) once a thread's ring is full.
  static constexpr std::size_t kRingCapacity = 65536;

  static Tracer& instance();

  void set_enabled(bool on);

  /// Drops every recorded event (thread registrations and ids persist).
  void clear();

  /// Snapshot of every thread's events, globally sorted by start time.
  /// Intended for quiesced pipelines (server drained); safe — but
  /// momentarily blocking recorders — while spans are still active.
  std::vector<TraceEvent> collect() const;

  /// Events lost to ring overwrites since the last clear().
  std::uint64_t dropped() const;

  /// Nanoseconds since the tracer's epoch (steady clock).
  std::uint64_t now_ns() const;

  /// Appends one completed event to the calling thread's ring.
  void record(const TraceEvent& event);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  struct ThreadBuffer {
    std::mutex mutex;
    std::vector<TraceEvent> ring;  ///< size <= kRingCapacity
    std::size_t next_slot = 0;     ///< ring write cursor once full
    std::uint64_t recorded = 0;    ///< lifetime records (for dropped math)
    std::uint32_t tid = 0;
  };

  Tracer();
  ThreadBuffer& local_buffer();

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: records [construction, destruction) as one complete event
/// when tracing is enabled at construction; a no-op otherwise. Name,
/// category, and arg keys must be string literals (see TraceEvent).
class SpanScope {
 public:
  SpanScope(const char* name, const char* cat) {
    if (trace_enabled()) {
      active_ = true;
      event_.name = name;
      event_.cat = cat;
      event_.start_ns = Tracer::instance().now_ns();
    }
  }

  SpanScope(const char* name, const char* cat, const char* arg_key,
            std::uint64_t arg_value)
      : SpanScope(name, cat) {
    if (active_) {
      event_.arg1_key = arg_key;
      event_.arg1_value = arg_value;
    }
  }

  /// Attaches an integer arg (first free of the two slots; further args
  /// are silently ignored). Callable any time before destruction, so a
  /// span can record a decision it learned mid-scope.
  void arg(const char* key, std::uint64_t value) {
    if (!active_) {
      return;
    }
    if (event_.arg1_key == nullptr) {
      event_.arg1_key = key;
      event_.arg1_value = value;
    } else if (event_.arg2_key == nullptr) {
      event_.arg2_key = key;
      event_.arg2_value = value;
    }
  }

  ~SpanScope() {
    if (active_) {
      Tracer& tracer = Tracer::instance();
      event_.dur_ns = tracer.now_ns() - event_.start_ns;
      tracer.record(event_);
    }
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  TraceEvent event_;
  bool active_ = false;
};

/// Records a span that ENDED now and lasted `seconds` — for durations
/// measured by an existing stopwatch rather than a scope (e.g. queue
/// wait, whose start happened on the submitting thread). No-op when
/// tracing is off.
void emit_complete(const char* name, const char* cat, double seconds,
                   const char* arg_key, std::uint64_t arg_value);

/// Config/env wiring for the process-wide tracer, called whenever a
/// SegHdcSession is constructed. `force_on` (SegHdcConfig::trace) turns
/// tracing on unconditionally; otherwise SEGHDC_TRACE is read: "1"
/// enables, "0"/unset/empty leaves the current state alone, and any
/// other value throws std::invalid_argument (malformed observability
/// overrides must not silently no-op, same contract as
/// SEGHDC_ASSIGN_MODE and SEGHDC_KERNEL_BACKEND).
void apply_trace_config(bool force_on);

/// RAII capture window: enables tracing and clears old events on
/// construction, restores the prior enabled state on destruction.
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Everything recorded since construction, sorted by start time.
  std::vector<TraceEvent> events() const;

  /// Chrome-trace JSON ({"traceEvents":[...]}, "X" complete events, ts
  /// and dur in microseconds) — loads in chrome://tracing and Perfetto.
  void write_json(std::ostream& out) const;
  /// Same, to a file; throws std::runtime_error when the file cannot be
  /// opened.
  void write_json(const std::string& path) const;

 private:
  bool prior_enabled_;
};

/// The JSON serializer behind TraceSession::write_json, exposed so
/// tests can render a hand-built event list.
void write_trace_json(std::ostream& out, const std::vector<TraceEvent>& events,
                      std::uint64_t dropped);

}  // namespace seghdc::obs

#endif  // SEGHDC_OBS_TRACE_HPP
