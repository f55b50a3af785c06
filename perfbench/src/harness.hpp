// Shared machinery of the workloads: run arguments, process
// measurements (CPU time, peak RSS), the label-map output check, the
// one-thread open-loop load generator, and the traced layer probe.
#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "report.hpp"
#include "src/core/session.hpp"
#include "src/imaging/image.hpp"
#include "src/obs/trace.hpp"
#include "src/util/parallel.hpp"

namespace perfbench {

namespace core = seghdc::core;
namespace img = seghdc::img;
namespace obs = seghdc::obs;
namespace util = seghdc::util;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// Tiny inputs and dimensions: every code path in seconds (smoke mode).
  bool tiny = false;
  /// Identifies the measured source tree (git SHA or content digest).
  std::string source_id = "unknown";
};

/// Workload seed whose chained label hash is pinned in the source.
inline constexpr std::uint64_t kPinnedSeed = 1;

/// Set-up repetitions per run; setup_s reports their median. Server
/// set-ups take ~0.1 s, so they repeat more often than paper_table1's
/// (~3 s, three d = 10,000 warm-ups).
inline constexpr int kSetupRepeats = 3;
inline constexpr int kServerSetupRepeats = 9;

/// Open-loop runs whose generator lag tail exceeds this are invalid.
inline constexpr double kMaxGeneratorLagSeconds = 0.020;

double cpu_seconds();   ///< process user + system CPU time
double peak_rss_mb();   ///< process high-water resident memory
std::size_t nproc();    ///< hardware threads the pool is sized to

/// Seconds on a monotonic clock.
inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The per-output check every workload applies: the label map has the
/// image's size and only labels below `clusters`, and, when
/// `expected_hash` is non-zero, its FNV-1a hash equals it. Returns the
/// label hash, or 0 when a check fails.
std::uint64_t checked_label_hash(const img::LabelMap& labels, std::size_t width,
                                 std::size_t height, std::size_t clusters,
                                 std::uint64_t expected_hash = 0);

/// Best-matching foreground IoU of a label map against a binary mask.
double iou_of(const img::LabelMap& labels, std::size_t clusters,
              const img::ImageU8& mask);

/// Provenance shared by every workload: machine, build, backend, seed.
void add_provenance(Report& report, const Args& args);
/// Renders every field of a SegHdcConfig.
std::string render_config(const core::SegHdcConfig& config);

/// One open-loop phase, timed from each request's due time.
struct Phase {
  std::vector<double> latency_s;  ///< successful requests, due -> done
  std::vector<double> lag_s;      ///< send time - due time, per send
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t backlog = 0;  ///< outstanding when the last request was sent
  double first_due_s = 0.0;
  double last_done_s = 0.0;  ///< relative to the phase start
  double cpu_s = 0.0;        ///< process CPU during the phase
  double wall_s = 0.0;       ///< phase start to last completion
};

/// Drives one open-loop phase from the calling (generator) thread: sends
/// request k at due[k] through `submit(k)` (returns a std::future),
/// records when each future becomes ready, then hands the result to
/// `check(k, result)` (false = failed output check). A thrown submit or
/// get counts as a failure. Completion times are exact for in-order
/// completions and within ~5 ms otherwise; checks run after the due sends
/// so they never delay the schedule.
template <typename Result, typename Submit, typename Check>
Phase run_open_loop(const std::vector<double>& due, Submit&& submit,
                    Check&& check) {
  using Clock = std::chrono::steady_clock;
  using namespace std::chrono_literals;
  struct Pending {
    std::size_t k;
    std::future<Result> future;
  };
  struct Done {
    std::size_t k;
    Result result;
    double finished_s;
  };
  Phase phase;
  phase.attempted = due.size();
  phase.first_due_s = due.empty() ? 0.0 : due.front();
  const auto start = Clock::now() + 5ms;
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const auto since = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };
  // A wedged server must not hang the run past its time limit.
  const auto give_up = at((due.empty() ? 0.0 : due.back()) + 60.0);
  const double cpu_before = cpu_seconds();
  std::vector<Pending> pending;
  std::vector<Done> done;
  std::size_t next = 0;
  while (next < due.size() || !pending.empty()) {
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->future.wait_for(0s) != std::future_status::ready) {
        ++it;
        continue;
      }
      const double finished = since(Clock::now());
      try {
        done.push_back({it->k, it->future.get(), finished});
        phase.last_done_s = std::max(phase.last_done_s, finished);
      } catch (const std::exception&) {
        ++phase.failed;
      }
      it = pending.erase(it);
    }
    while (next < due.size() && Clock::now() >= at(due[next])) {
      phase.lag_s.push_back(since(Clock::now()) - due[next]);
      try {
        pending.push_back({next, submit(next)});
      } catch (const std::exception&) {
        ++phase.failed;
      }
      if (++next == due.size()) {
        phase.backlog = pending.size();
      }
    }
    for (auto& [k, result, finished_s] : done) {
      if (check(k, std::move(result))) {
        phase.latency_s.push_back(finished_s - due[k]);
      } else {
        ++phase.failed;
      }
    }
    done.clear();
    const auto now = Clock::now();
    if (now > give_up) {
      phase.failed += pending.size();
      break;
    }
    auto wake = next < due.size() ? at(due[next]) : now + 1s;
    if (!pending.empty()) {
      pending.front().future.wait_until(std::min(wake, now + 5ms));
    } else {
      std::this_thread::sleep_until(wake);
    }
  }
  phase.wall_s = phase.last_done_s - phase.first_due_s;
  phase.cpu_s = cpu_seconds() - cpu_before;
  return phase;
}

/// One image of the layer probe with the session (config) it runs under.
struct LayerInput {
  const img::ImageU8* image = nullptr;
  const core::SegHdcSession* session = nullptr;
};

/// Facts the layer probe needs from the workload's traced load phase.
struct LoadFacts {
  double latency_p50_s = 0.0;  ///< the workload's lightest-load latency
  std::vector<obs::TraceEvent> events;  ///< spans of the load phase
  double cpu_util = 0.0;
  double lag_tail_s = 0.0;
  double backlog_max = 0.0;
  // Stream path totals (zero when the workload has no streams).
  double stream_frames = 0.0;
  double stream_replayed = 0.0;
  double stream_tiles_total = 0.0;
  double stream_tiles_reused = 0.0;
  double stream_iterations = 0.0;  ///< over non-replayed frames
  std::vector<double> stream_compute_s;
};

/// The traced layer split (encode -> HvKMeans::run -> label map) over
/// `inputs`, checked bit for bit against segment(), plus the serve,
/// stream, generator and trace-overhead layer metrics. Appends every
/// per-layer metric to `report`.
void probe_layers(const std::vector<LayerInput>& inputs,
                  util::ThreadPool& pool, const LoadFacts& facts,
                  Report& report);

/// Fills the load-generator facts of an open-loop run.
void add_generator_facts(const std::vector<const Phase*>& phases,
                         LoadFacts& facts);

Report run_paper_table1(const Args& args);
Report run_serve_table2(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HPP
