// Backend registry + runtime dispatch.
//
// The registered set is assembled here from explicit per-TU accessors
// (no static-initialisation-order tricks): ISA-gated TUs return nullptr
// when compiled out and are simply skipped. Selection resolves lazily on
// the first dispatched kernel call — SEGHDC_KERNEL_BACKEND when set,
// otherwise the highest-priority backend whose runtime probe passes —
// and is cached in an atomic so the hot loops pay one relaxed load per
// kernel call.
#include "src/hdc/simd/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/hdc/simd/backends_internal.hpp"
#include "src/hdc/simd/cpu_features.hpp"

namespace seghdc::hdc::simd {

namespace {

const std::vector<const KernelBackend*>& registry() {
  static const std::vector<const KernelBackend*> backends = [] {
    std::vector<const KernelBackend*> list;
    for (const KernelBackend* backend :
         {scalar_backend(), avx2_backend(), neon_backend()}) {
      if (backend != nullptr) {
        list.push_back(backend);
      }
    }
    return list;
  }();
  return backends;
}

const KernelBackend& auto_select() {
  const KernelBackend* best = scalar_backend();
  for (const KernelBackend* backend : registry()) {
    if (backend->priority > best->priority && backend->available()) {
      best = backend;
    }
  }
  return *best;
}

/// Resolves `name` to a registered, available backend; "auto" runs the
/// priority scan. Throws std::invalid_argument otherwise — a forced
/// backend silently falling back would make the CI backend matrix
/// meaningless. `source` names the override channel for the message.
const KernelBackend& resolve_name(std::string_view name,
                                  const char* source) {
  if (name == "auto") {
    return auto_select();
  }
  const KernelBackend* backend = find_backend(name);
  if (backend == nullptr) {
    throw std::invalid_argument(std::string(source) +
                                " names unknown kernel backend '" +
                                std::string(name) + "'");
  }
  if (!backend->available()) {
    throw std::invalid_argument(std::string(source) + " backend '" +
                                std::string(name) +
                                "' is not available on this CPU (" +
                                cpu_feature_string() + ")");
  }
  return *backend;
}

const KernelBackend& resolve_initial() {
  const char* env = std::getenv("SEGHDC_KERNEL_BACKEND");
  if (env != nullptr && *env != '\0') {
    return resolve_name(env, "SEGHDC_KERNEL_BACKEND");
  }
  return auto_select();
}

std::atomic<const KernelBackend*> g_active{nullptr};

}  // namespace

std::span<const KernelBackend* const> registered_backends() {
  return registry();
}

const KernelBackend* find_backend(std::string_view name) {
  for (const KernelBackend* backend : registry()) {
    if (name == backend->name) {
      return backend;
    }
  }
  return nullptr;
}

const KernelBackend& active_backend() {
  const KernelBackend* backend = g_active.load(std::memory_order_acquire);
  if (backend == nullptr) {
    // A first-use race resolves to the same deterministic answer on
    // every thread, so the last store winning is harmless.
    backend = &resolve_initial();
    g_active.store(backend, std::memory_order_release);
  }
  return *backend;
}

const KernelBackend& force_backend(std::string_view name) {
  const KernelBackend& backend = resolve_name(name, "kernel backend override");
  g_active.store(&backend, std::memory_order_release);
  return backend;
}

void reset_backend_selection() {
  g_active.store(nullptr, std::memory_order_release);
}

}  // namespace seghdc::hdc::simd
