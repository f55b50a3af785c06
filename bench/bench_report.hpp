// Machine-readable dataset-eval emission: one EVAL_*.json per bench_eval
// or bench_table1 run, carrying enough provenance to compare numbers
// across commits and hosts — git SHA, kernel backend, CPU features —
// plus per-suite mIoU, label fingerprint, throughput and the latency
// percentiles read back out of the serving stack's obs::MetricsRegistry.
#ifndef SEGHDC_BENCH_BENCH_REPORT_HPP
#define SEGHDC_BENCH_BENCH_REPORT_HPP

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/eval/suite.hpp"
#include "src/hdc/simd/backend.hpp"
#include "src/hdc/simd/cpu_features.hpp"

// Injected by bench/CMakeLists.txt from `git rev-parse` at configure
// time (re-run cmake after committing to refresh it).
#ifndef SEGHDC_GIT_SHA
#define SEGHDC_GIT_SHA "unknown"
#endif

namespace seghdc::bench {

/// Writes the dataset-eval JSON (EVAL_table1.json, EVAL_eval.json, ...):
/// a provenance header plus one object per evaluated suite — dataset,
/// method, execution path, mIoU aggregates, the chained label
/// fingerprint (decimal string: it is a full 64-bit value), wall clock,
/// latency percentiles, and the measured op counts.
/// `extra` entries are appended verbatim as `"key": value` pairs, so the
/// value must already be rendered JSON (a number, a quoted string, ...).
/// Throws std::runtime_error when the file cannot be opened.
inline void write_eval_json(
    const std::string& path, const std::string& tool,
    const std::vector<eval::SuiteResult>& suites,
    const std::vector<std::pair<std::string, std::string>>& extra = {}) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("write_eval_json: cannot open '" + path + "'");
  }
  std::fprintf(out,
               "{\n"
               "  \"tool\": \"%s\",\n"
               "  \"git_sha\": \"%s\",\n"
               "  \"kernel_backend\": \"%s\",\n"
               "  \"cpu_features\": \"%s\",\n"
               "  \"suites\": [",
               tool.c_str(), SEGHDC_GIT_SHA,
               hdc::simd::active_backend().name,
               hdc::simd::cpu_feature_string().c_str());
  for (std::size_t i = 0; i < suites.size(); ++i) {
    const auto& s = suites[i];
    const auto ops = s.total_ops();
    const double images_per_sec =
        s.wall_seconds > 0.0
            ? static_cast<double>(s.records.size()) / s.wall_seconds
            : 0.0;
    std::fprintf(
        out,
        "%s\n"
        "    {\"dataset\": \"%s\", \"method\": \"%s\", \"path\": \"%s\",\n"
        "     \"images\": %zu, \"mean_iou\": %.6f, \"min_iou\": %.6f, "
        "\"max_iou\": %.6f, \"stddev_iou\": %.6f,\n"
        "     \"labels_hash\": \"%llu\", \"wall_seconds\": %.6f, "
        "\"images_per_sec\": %.4f, \"mean_seconds\": %.6f,\n"
        "     \"latency_ms\": {\"p50\": %.6f, \"p95\": %.6f, "
        "\"p99\": %.6f, \"window_count\": %llu, \"count\": %llu},\n"
        "     \"ops\": {\"distance_evals\": %llu, "
        "\"candidates_pruned\": %llu, \"words_scanned\": %llu, "
        "\"total_element_ops\": %llu}}",
        i == 0 ? "" : ",", s.dataset.c_str(), s.method.c_str(),
        s.path.c_str(), s.records.size(), s.mean_iou(), s.min_iou(),
        s.max_iou(), s.stddev_iou(),
        static_cast<unsigned long long>(s.labels_hash), s.wall_seconds,
        images_per_sec, s.mean_seconds(), s.latency.p50_seconds * 1e3,
        s.latency.p95_seconds * 1e3, s.latency.p99_seconds * 1e3,
        static_cast<unsigned long long>(s.latency.window_count),
        static_cast<unsigned long long>(s.latency.count),
        static_cast<unsigned long long>(ops.distance_evals),
        static_cast<unsigned long long>(ops.candidates_pruned),
        static_cast<unsigned long long>(ops.words_scanned),
        static_cast<unsigned long long>(ops.total_element_ops()));
  }
  std::fprintf(out, "\n  ]");
  for (const auto& [key, value] : extra) {
    std::fprintf(out, ",\n  \"%s\": %s", key.c_str(), value.c_str());
  }
  std::fprintf(out, "\n}\n");
  std::fclose(out);
  std::printf("eval json -> %s\n", path.c_str());
}

}  // namespace seghdc::bench

#endif  // SEGHDC_BENCH_BENCH_REPORT_HPP
