#include "src/obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace seghdc::obs {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool on) {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // The registry holds shared_ptrs so a worker thread's events outlive
  // the thread (a drained server's spans must still export); the
  // thread_local copy keeps lookups O(1) after the first record.
  thread_local std::shared_ptr<ThreadBuffer> buffer = [this] {
    auto fresh = std::make_shared<ThreadBuffer>();
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    fresh->tid = static_cast<std::uint32_t>(buffers_.size() + 1);
    buffers_.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

void Tracer::record(const TraceEvent& event) {
  ThreadBuffer& buffer = local_buffer();
  // Own-thread mutex: uncontended except while collect()/clear() walk
  // the registry, so the common case is one cheap lock per span.
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  ++buffer.recorded;
  if (buffer.ring.size() < kRingCapacity) {
    buffer.ring.push_back(event);
    buffer.ring.back().tid = buffer.tid;
    return;
  }
  buffer.ring[buffer.next_slot] = event;
  buffer.ring[buffer.next_slot].tid = buffer.tid;
  buffer.next_slot = (buffer.next_slot + 1) % kRingCapacity;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> registry_lock(registry_mutex_);
  for (const auto& buffer : buffers_) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    buffer->ring.clear();
    buffer->next_slot = 0;
    buffer->recorded = 0;
  }
}

std::vector<TraceEvent> Tracer::collect() const {
  std::vector<TraceEvent> events;
  {
    const std::lock_guard<std::mutex> registry_lock(registry_mutex_);
    for (const auto& buffer : buffers_) {
      const std::lock_guard<std::mutex> lock(buffer->mutex);
      events.insert(events.end(), buffer->ring.begin(), buffer->ring.end());
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return events;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t dropped = 0;
  const std::lock_guard<std::mutex> registry_lock(registry_mutex_);
  for (const auto& buffer : buffers_) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    if (buffer->recorded > buffer->ring.size()) {
      dropped += buffer->recorded - buffer->ring.size();
    }
  }
  return dropped;
}

void emit_complete(const char* name, const char* cat, double seconds,
                   const char* arg_key, std::uint64_t arg_value) {
  if (!trace_enabled()) {
    return;
  }
  Tracer& tracer = Tracer::instance();
  TraceEvent event;
  event.name = name;
  event.cat = cat;
  event.dur_ns = seconds > 0.0 ? static_cast<std::uint64_t>(seconds * 1e9) : 0;
  const std::uint64_t now = tracer.now_ns();
  event.start_ns = now > event.dur_ns ? now - event.dur_ns : 0;
  event.arg1_key = arg_key;
  event.arg1_value = arg_value;
  tracer.record(event);
}

void apply_trace_config(bool force_on) {
  if (force_on) {
    Tracer::instance().set_enabled(true);
    return;
  }
  const char* env = std::getenv("SEGHDC_TRACE");
  if (env == nullptr || *env == '\0') {
    return;
  }
  if (std::strcmp(env, "1") == 0) {
    Tracer::instance().set_enabled(true);
    return;
  }
  if (std::strcmp(env, "0") == 0) {
    return;  // explicit off: leave any TraceSession-enabled state alone
  }
  // Malformed overrides are hard errors, like SEGHDC_ASSIGN_MODE: a trace
  // run that silently recorded nothing would be worse than no run.
  throw std::invalid_argument(
      std::string("SEGHDC_TRACE must be '0' or '1', got '") + env + "'");
}

TraceSession::TraceSession() : prior_enabled_(trace_enabled()) {
  Tracer::instance().clear();
  Tracer::instance().set_enabled(true);
}

TraceSession::~TraceSession() {
  Tracer::instance().set_enabled(prior_enabled_);
}

std::vector<TraceEvent> TraceSession::events() const {
  return Tracer::instance().collect();
}

void write_trace_json(std::ostream& out, const std::vector<TraceEvent>& events,
                      std::uint64_t dropped) {
  // Names/categories/keys are compile-time literals by contract
  // (TraceEvent docs), so no JSON escaping pass is needed; ts and dur
  // are microseconds, the unit chrome://tracing expects.
  out << "{\"traceEvents\":[";
  char buffer[64];
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n{\"name\":\"" << event.name << "\",\"cat\":\""
        << (event.cat != nullptr ? event.cat : "seghdc")
        << "\",\"ph\":\"X\",\"ts\":";
    std::snprintf(buffer, sizeof(buffer), "%.3f",
                  static_cast<double>(event.start_ns) / 1e3);
    out << buffer << ",\"dur\":";
    std::snprintf(buffer, sizeof(buffer), "%.3f",
                  static_cast<double>(event.dur_ns) / 1e3);
    out << buffer << ",\"pid\":1,\"tid\":" << event.tid;
    if (event.arg1_key != nullptr) {
      out << ",\"args\":{\"" << event.arg1_key << "\":" << event.arg1_value;
      if (event.arg2_key != nullptr) {
        out << ",\"" << event.arg2_key << "\":" << event.arg2_value;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":\""
      << dropped << "\"}}\n";
}

void TraceSession::write_json(std::ostream& out) const {
  write_trace_json(out, Tracer::instance().collect(),
                   Tracer::instance().dropped());
}

void TraceSession::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("TraceSession::write_json: cannot open '" + path +
                             "'");
  }
  write_json(out);
}

}  // namespace seghdc::obs
