// The two workloads. Each builds its inputs from the dataset generators
// and the workload seed, sets up (timed, several times), runs its timed
// load through the library's public API, checks every output, and, when
// traced, runs the layer probe on the same inputs.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>

#include "harness.hpp"
#include "src/datasets/bbbc005.hpp"
#include "src/datasets/dsb2018.hpp"
#include "src/datasets/monuseg.hpp"
#include "src/metrics/segmentation_metrics.hpp"
#include "src/serve/server.hpp"
#include "stats.hpp"

namespace perfbench {

namespace data = seghdc::data;
namespace metrics = seghdc::metrics;
namespace serve = seghdc::serve;

namespace {

// Chained label hashes at kPinnedSeed and full scale: paper_table1's
// images, serve_table2's reference images and its stream phase's frames.
constexpr std::uint64_t kPinnedPaperTable1 = 7176535364140611385ULL;
constexpr std::uint64_t kPinnedServeTable2 = 11944679523684227436ULL;
constexpr std::uint64_t kPinnedServeStreams = 6990445994488553103ULL;

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

/// Lowest acceptable mean IoU of a run; every seed's inputs clear it.
constexpr double kMiouFloor = 0.5;

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

/// Runs `build` `repeats` times, keeps the last result and records the
/// median set-up time.
template <typename Build>
auto timed_setup(Build&& build, int repeats, Report& report) {
  std::vector<double> seconds;
  std::optional<decltype(build())> kept;
  for (int r = 0; r < repeats; ++r) {
    // Destroy the previous repetition whole (its members in reverse
    // order, so sessions and servers go before the pool they use).
    kept.reset();
    const double start = now_seconds();
    kept.emplace(build());
    seconds.push_back(now_seconds() - start);
  }
  report.e2e("setup_s", median(seconds), "s");
  report.details.num("peak_rss_after_setup_mb", peak_rss_mb());
  return std::move(*kept);
}

void check_pinned(Report& report, const Args& args, std::uint64_t chained,
                  std::uint64_t pinned, const std::string& key = "labels_hash") {
  report.details.str(key, std::to_string(chained));
  if (args.tiny || args.seed != kPinnedSeed) {
    return;
  }
  report.details.str(key + "_pinned", std::to_string(pinned));
  if (chained != pinned) {
    ++report.failed;  // the pinned-hash check is one more operation
    report.problem("chained label hash " + std::to_string(chained) +
                   " != pinned " + std::to_string(pinned));
  }
  ++report.attempted;
}

void check_miou(Report& report, double miou) {
  report.e2e("miou", miou, "frac");
  if (miou < kMiouFloor) {
    report.problem("mean IoU " + std::to_string(miou) + " below floor");
  }
}

void check_generator(Report& report, const LoadFacts& facts) {
  report.details.num("gen_lag_tail_ms", facts.lag_tail_s * 1e3)
      .num("gen_lag_limit_ms", kMaxGeneratorLagSeconds * 1e3);
  if (facts.lag_tail_s > kMaxGeneratorLagSeconds) {
    report.problem("invalid run: generator lag tail " +
                   std::to_string(facts.lag_tail_s * 1e3) + " ms over limit");
  }
}

std::string render_latency(const std::vector<double>& latency_s) {
  const Tail tail = tail_of(latency_s);
  return JsonObject()
      .num("p50_ms", median(latency_s) * 1e3)
      .num("tail_ms", tail.value * 1e3)
      .num("tail_percentile", tail.percentile)
      .num("samples", static_cast<double>(tail.samples))
      .render();
}

std::unique_ptr<util::ThreadPool> make_pool() {
  return std::make_unique<util::ThreadPool>(nproc());
}

// ---------------------------------------------------------------------------
// paper_table1: closed loop, one image in flight, Table I operating point.

struct PaperCase {
  std::unique_ptr<data::DatasetGenerator> generator;
  core::SegHdcConfig config;
};

std::vector<PaperCase> paper_cases(const Args& args) {
  const std::size_t shrink = args.tiny ? 4 : 1;
  std::vector<PaperCase> cases;
  data::Bbbc005Config bbbc;
  bbbc.width /= shrink;
  bbbc.height /= shrink;
  bbbc.seed = mix_seed(args.seed, 1);
  cases.push_back({std::make_unique<data::Bbbc005Generator>(bbbc), {}});
  data::Dsb2018Config dsb;
  dsb.width /= shrink;
  dsb.height /= shrink;
  dsb.seed = mix_seed(args.seed, 2);
  cases.push_back({std::make_unique<data::Dsb2018Generator>(dsb), {}});
  data::MonusegConfig monuseg;
  monuseg.width /= shrink;
  monuseg.height /= shrink;
  monuseg.seed = mix_seed(args.seed, 3);
  cases.push_back({std::make_unique<data::MonusegGenerator>(monuseg), {}});
  for (auto& c : cases) {
    c.config.dim = args.tiny ? 1000 : 10000;
    c.config.alpha = 0.2;
    c.config.gamma = 1;
    c.config.beta = c.generator->profile().suggested_beta;
    c.config.clusters = c.generator->profile().suggested_clusters;
    c.config.iterations = 10;
    c.config.color_quantization_shift = 0;
  }
  return cases;
}

}  // namespace

Report run_paper_table1(const Args& args) {
  Report report;
  add_provenance(report, args);
  const auto cases = paper_cases(args);
  constexpr std::size_t kImagesPerDataset = 4;
  // Rotation order: one image of each dataset in turn.
  std::vector<data::Sample> samples;
  std::vector<std::size_t> case_of;
  for (std::size_t i = 0; i < kImagesPerDataset; ++i) {
    for (std::size_t c = 0; c < cases.size(); ++c) {
      samples.push_back(cases[c].generator->generate(i));
      case_of.push_back(c);
    }
  }

  struct Setup {
    std::unique_ptr<util::ThreadPool> pool;
    std::vector<std::unique_ptr<core::SegHdcSession>> sessions;
  };
  Setup setup = timed_setup(
      [&] {
        Setup s;
        s.pool = make_pool();
        for (std::size_t c = 0; c < cases.size(); ++c) {
          s.sessions.push_back(std::make_unique<core::SegHdcSession>(
              cases[c].config, core::SegHdcSession::Options{s.pool.get()}));
          (void)s.sessions.back()->segment(samples[c].image);  // warm-up
        }
        return s;
      },
      kSetupRepeats, report);

  std::vector<double> latency;
  std::vector<std::vector<double>> case_latency(cases.size());
  std::vector<double> probe_latency;  // the layer probe's images
  std::vector<std::uint64_t> first_hash(samples.size(), 0);
  std::vector<double> iou(samples.size(), 0.0);
  std::uint64_t chained = kFnvBasis;
  double pixels = 0.0;
  // A fixed image count rather than a deadline: every run then times the
  // same mix of datasets, and 0.8 images per second of --seconds keeps
  // the phase near S on a 4-core x86 host.
  const std::size_t images = std::max(
      samples.size(), static_cast<std::size_t>(std::lround(0.8 * args.seconds)));
  const double cpu_before = cpu_seconds();
  const double start = now_seconds();
  double busy_end = start;
  for (std::size_t k = 0; k < images; ++k) {
    const std::size_t i = k % samples.size();
    const auto& c = cases[case_of[i]];
    const auto& image = samples[i].image;
    ++report.attempted;
    core::SegmentationResult result;
    const double t0 = now_seconds();
    try {
      result = setup.sessions[case_of[i]]->segment(image);
    } catch (const std::exception&) {
      ++report.failed;
      continue;
    }
    busy_end = now_seconds();
    const std::uint64_t hash =
        checked_label_hash(result.labels, image.width(), image.height(),
                           c.config.clusters, first_hash[i]);
    if (hash == 0) {
      ++report.failed;
      continue;
    }
    latency.push_back(busy_end - t0);
    case_latency[case_of[i]].push_back(busy_end - t0);
    if (i < cases.size()) {
      probe_latency.push_back(busy_end - t0);
    }
    pixels += static_cast<double>(image.pixel_count());
    if (first_hash[i] == 0) {  // first pass: pool order
      first_hash[i] = hash;
      chained = metrics::label_map_hash(result.labels, chained);
      iou[i] = iou_of(result.labels, c.config.clusters, samples[i].mask);
    }
  }
  const double wall = busy_end - start;

  report.e2e("latency_p50_ms", median(latency) * 1e3, "ms");
  report.e2e("mpix_per_s", pixels / 1e6 / wall, "Mpix/s");
  check_miou(report, mean(iou));
  check_pinned(report, args, chained, kPinnedPaperTable1);

  JsonObject configs;
  JsonObject by_dataset;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const std::string& name = cases[c].generator->profile().name;
    configs.add(name, render_config(cases[c].config));
    by_dataset.add(name, render_latency(case_latency[c]));
  }
  report.details.add("configs", configs.render())
      .add("latency_by_dataset", by_dataset.render())
      .str("load", "closed loop, 1 image in flight, SegHdcSession::segment")
      .num("images_distinct", static_cast<double>(samples.size()))
      .num("latency_p50_s", median(latency))
      .num("latency_tail_ms", tail_of(latency).value * 1e3)
      .num("peak_rss_mb", peak_rss_mb())
      .add("latency", render_latency(latency));

  if (args.trace) {
    LoadFacts facts;
    facts.latency_p50_s = median(probe_latency);
    facts.cpu_util = (cpu_seconds() - cpu_before) /
                     (wall * static_cast<double>(nproc()));
    std::vector<LayerInput> inputs;
    for (std::size_t c = 0; c < cases.size(); ++c) {
      inputs.push_back({&samples[c].image, setup.sessions[c].get()});
    }
    probe_layers(inputs, *setup.pool, facts, report);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Table II DSB2018 configuration of serve_table2 and its stream phase.

namespace {

core::SegHdcConfig table2_config(const Args& args) {
  core::SegHdcConfig config;
  config.dim = args.tiny ? 256 : 800;
  config.alpha = 1.0;
  config.gamma = 1;
  config.beta = 26;
  config.clusters = 2;
  config.iterations = 3;
  config.color_quantization_shift = 0;
  return config;
}

data::Dsb2018Generator dsb_generator(const Args& args, std::uint64_t salt) {
  data::Dsb2018Config dsb;
  if (args.tiny) {
    dsb.width /= 4;
    dsb.height /= 4;
  }
  dsb.seed = mix_seed(args.seed, salt);
  return data::Dsb2018Generator(dsb);
}

/// serve_table2's pool: one thread, so each request runs serially and
/// the server's encode and cluster stages overlap two requests. On a
/// shared 4-vCPU host, passes of segment() at d = 800 fanned over 4
/// threads varied by 7% (CV) while other tenants took 10-15% of the CPU,
/// and on 1 thread by 1.4%: each short parallel loop waits for its
/// slowest thread, which multiplies any CPU time the host takes away.
/// paper_table1's loops are long enough to use every thread.
constexpr std::size_t kServePoolThreads = 1;

/// serve_table2's open-loop rate. The one-thread server completes ~6.5
/// requests/s, so 2 req/s loads it to about 0.3: Table II's 4 req/s (0.6)
/// let queueing multiply every slower stretch of the host into the
/// median latency.
constexpr double kServeRate = 2.0;

struct ServerSetup {
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<serve::SegHdcServer> server;
};

/// The pool and a server with default options except `pool`, warmed up
/// with one request of the workload's image geometry.
ServerSetup make_server(const core::SegHdcConfig& config,
                        const img::ImageU8& warm_up) {
  ServerSetup s;
  s.pool = std::make_unique<util::ThreadPool>(kServePoolThreads);
  serve::ServerOptions options;
  options.pool = s.pool.get();
  s.server = std::make_unique<serve::SegHdcServer>(config, options);
  (void)s.server->submit(warm_up).get();
  return s;
}

std::string render_server_options(const serve::ServerOptions& o) {
  return JsonObject()
      .num("queue_capacity", static_cast<double>(o.queue_capacity))
      .num("backpressure", static_cast<double>(o.backpressure))
      .num("encode_workers", static_cast<double>(o.encode_workers))
      .num("cluster_workers", static_cast<double>(o.cluster_workers))
      .num("pool_threads", static_cast<double>(kServePoolThreads))
      .num("latency_window", static_cast<double>(o.latency_window))
      .render();
}

}  // namespace

// ---------------------------------------------------------------------------
// The stream phase of serve_table2: two camera streams through
// SegHdcServer::open_stream, the server's warm-start path.

namespace {

constexpr std::size_t kStreams = 2;
/// 2 fps per camera keeps the one-thread server at about half its
/// capacity (warm frames are cheaper than cold ones).
constexpr double kFps = 2.0;
constexpr std::size_t kRepeatEvery = 5;  // every 5th frame repeats the last
/// A scene cut every 6 frames makes the cold frames ~1/6 of all, so the
/// tail percentile lands inside them rather than on their edge.
constexpr std::size_t kSceneFrames = 6;
/// Frames per stream in the pinned label hash (past two scene cuts) and
/// the fewest the phase plays.
constexpr std::size_t kChainedFrames = 18;

/// One camera: a static seeded DSB2018 scene with an object moving 2 px
/// per frame; every kRepeatEvery-th frame repeats its predecessor and
/// every kSceneFrames frames the scene cuts to a new sample.
class Camera {
 public:
  Camera(const Args& args, std::size_t index, std::size_t frames)
      : object_(args.tiny ? 10 : 40), step_(args.tiny ? 1 : 2) {
    const auto generator = dsb_generator(args, 10 + index);
    util::Rng rng(mix_seed(args.seed, 20 + index));
    for (std::size_t s = 0; s * kSceneFrames < frames; ++s) {
      Scene scene{generator.generate(s), {}, 0, 0};
      const auto& image = scene.sample.image;
      // The object takes the mean foreground colour of the scene.
      std::array<double, 3> sum{};
      std::size_t count = 0;
      for (std::size_t p = 0; p < image.pixel_count(); ++p) {
        if (scene.sample.mask.pixels()[p] != 0) {
          for (std::size_t c = 0; c < image.channels(); ++c) {
            sum[c] += image.pixels()[p * image.channels() + c];
          }
          ++count;
        }
      }
      for (std::size_t c = 0; c < 3; ++c) {
        scene.color[c] = static_cast<std::uint8_t>(
            count == 0 ? 255.0 : sum[c] / static_cast<double>(count));
      }
      const std::size_t travel = step_ * kSceneFrames;
      scene.x0 = rng.next_below(image.width() - object_ - travel);
      scene.y0 = rng.next_below(image.height() - object_);
      scenes_.push_back(std::move(scene));
    }
  }

  /// Frame `f` and its ground-truth mask.
  std::pair<img::ImageU8, img::ImageU8> frame(std::size_t f) const {
    const std::size_t source = f % kRepeatEvery == kRepeatEvery - 1 ? f - 1 : f;
    const Scene& scene = scenes_[source / kSceneFrames];
    img::ImageU8 image = scene.sample.image;
    img::ImageU8 mask = scene.sample.mask;
    const std::size_t x0 = scene.x0 + step_ * (source % kSceneFrames);
    for (std::size_t y = scene.y0; y < scene.y0 + object_; ++y) {
      for (std::size_t x = x0; x < x0 + object_; ++x) {
        for (std::size_t c = 0; c < image.channels(); ++c) {
          image(x, y, c) = scene.color[c];
        }
        mask(x, y) = 255;
      }
    }
    return {std::move(image), std::move(mask)};
  }

 private:
  struct Scene {
    data::Sample sample;
    std::array<std::uint8_t, 3> color;
    std::size_t x0;
    std::size_t y0;
  };
  std::size_t object_;
  std::size_t step_;
  std::vector<Scene> scenes_;
};


/// What the stream phase measured.
struct StreamOutcome {
  Phase phase;
  std::uint64_t chained = kFnvBasis;  ///< every stream's first kChainedFrames
  std::vector<double> iou;
};

/// The stream phase: kStreams cameras play `frames` frames each into
/// `server` through open_stream, open loop on kFps clocks staggered by
/// half a period (a seeded phase would make queueing depend on the seed).
/// Checks every frame (the first equals the cold segment(), a replay
/// equals its predecessor) and adds the StreamFrameStats totals to
/// `facts`.
StreamOutcome run_streams(const Args& args, serve::SegHdcServer& server,
                          std::size_t frames, LoadFacts& facts) {
  const std::size_t clusters = server.config().clusters;
  std::vector<Camera> cameras;
  for (std::size_t s = 0; s < kStreams; ++s) {
    cameras.emplace_back(args, s, frames);
  }
  const auto first = cameras[0].frame(0).first;
  const std::size_t width = first.width();
  const std::size_t height = first.height();
  std::vector<std::uint64_t> cold_reference;
  for (const auto& camera : cameras) {
    cold_reference.push_back(checked_label_hash(
        server.session().segment(camera.frame(0).first).labels, width, height,
        clusters));
  }
  std::vector<serve::SegHdcServer::StreamHandle> handles;
  for (std::size_t s = 0; s < kStreams; ++s) {
    handles.push_back(server.open_stream());
  }

  struct Send {
    double due;
    std::size_t stream;
    std::size_t frame;
  };
  std::vector<Send> sends;
  for (std::size_t s = 0; s < kStreams; ++s) {
    const double offset =
        static_cast<double>(s) / (kFps * static_cast<double>(kStreams));
    for (std::size_t f = 0; f < frames; ++f) {
      sends.push_back({offset + static_cast<double>(f) / kFps, s, f});
    }
  }
  std::stable_sort(sends.begin(), sends.end(),
                   [](const Send& a, const Send& b) { return a.due < b.due; });
  std::vector<double> due;
  for (const auto& send : sends) {
    due.push_back(send.due);
  }

  StreamOutcome out;
  std::vector<std::vector<std::uint64_t>> hashes(
      kStreams, std::vector<std::uint64_t>(frames, 0));
  std::vector<std::uint64_t> chained(kStreams, kFnvBasis);
  out.phase = run_open_loop<core::StreamFrameResult>(
      due,
      [&](std::size_t k) {
        return server.submit(handles[sends[k].stream],
                             cameras[sends[k].stream].frame(sends[k].frame).first);
      },
      [&](std::size_t k, core::StreamFrameResult&& r) {
        const auto [s, f] = std::pair{sends[k].stream, sends[k].frame};
        std::uint64_t expected = f == 0 ? cold_reference[s] : 0;
        if (r.stats.replayed) {
          expected = hashes[s][f - 1];
        }
        const std::uint64_t hash = checked_label_hash(
            r.result.labels, width, height, clusters, expected);
        hashes[s][f] = hash;
        if (hash == 0) {
          return false;
        }
        if (f < kChainedFrames) {
          chained[s] = metrics::label_map_hash(r.result.labels, chained[s]);
        }
        out.iou.push_back(
            iou_of(r.result.labels, clusters, cameras[s].frame(f).second));
        facts.stream_frames += 1.0;
        facts.stream_replayed += r.stats.replayed ? 1.0 : 0.0;
        facts.stream_tiles_total += static_cast<double>(r.stats.tiles_total);
        facts.stream_tiles_reused += static_cast<double>(r.stats.tiles_reused);
        if (!r.stats.replayed) {
          facts.stream_iterations += static_cast<double>(r.stats.kmeans_iterations);
        }
        facts.stream_compute_s.push_back(r.stats.seconds);
        return true;
      });
  for (const auto h : chained) {
    out.chained = (out.chained ^ h) * 1099511628211ULL;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// serve_table2: open-loop Poisson arrivals into one SegHdcServer, a
// capacity burst, then the stream phase on the same server.

Report run_serve_table2(const Args& args) {
  Report report;
  add_provenance(report, args);
  const core::SegHdcConfig config = table2_config(args);
  const auto generator = dsb_generator(args, 2);
  // Enough distinct images that their mean service time barely moves
  // with the seed; every phase uses them equally often.
  constexpr std::size_t kImages = 32;
  std::vector<data::Sample> samples;
  for (std::size_t i = 0; i < kImages; ++i) {
    samples.push_back(generator.generate(i));
  }
  const std::size_t width = samples[0].image.width();
  const std::size_t height = samples[0].image.height();
  const double mpix = static_cast<double>(width * height) / 1e6;

  ServerSetup setup = timed_setup(
      [&] { return make_server(config, samples[0].image); },
      kServerSetupRepeats, report);
  serve::SegHdcServer& server = *setup.server;
  // The server's own footprint: set-up plus one request. Under load the
  // peak also depends on how many requests a slower stretch of the host
  // lets pile up; the loaded peaks follow in the details.
  const double peak_rss_setup_mb = peak_rss_mb();

  // Reference labels from the synchronous path; every served result must
  // equal its image's reference bit for bit.
  std::vector<std::uint64_t> reference(kImages);
  std::vector<double> iou;
  std::uint64_t chained = kFnvBasis;
  for (std::size_t i = 0; i < kImages; ++i) {
    const auto result = server.session().segment(samples[i].image);
    reference[i] = checked_label_hash(result.labels, width, height,
                                      config.clusters);
    chained = metrics::label_map_hash(result.labels, chained);
    iou.push_back(iou_of(result.labels, config.clusters, samples[i].mask));
  }

  const double peak_rss_references_mb = peak_rss_mb();
  std::optional<obs::TraceSession> trace;
  if (args.trace) {
    trace.emplace();
  }
  std::uint64_t salt = 100;
  // rate 0 sends every request at once.
  const auto run_rate = [&](double rate, std::size_t count) {
    const std::uint64_t schedule_seed = mix_seed(args.seed, ++salt);
    const auto due = rate > 0.0 ? poisson_schedule(count, rate, schedule_seed)
                                : std::vector<double>(count, 0.0);
    const auto which = balanced_picks(count, kImages, mix_seed(args.seed, ++salt));
    Phase phase = run_open_loop<core::SegmentationResult>(
        due, [&](std::size_t k) { return server.submit(samples[which[k]].image); },
        [&](std::size_t k, core::SegmentationResult&& result) {
          return checked_label_hash(result.labels, width, height,
                                    config.clusters, reference[which[k]]) != 0;
        });
    report.attempted += phase.attempted;
    report.failed += phase.failed;
    return phase;
  };
  const auto render_phase = [&](const Phase& phase, double rate) {
    return JsonObject()
        .num("rate", rate)
        .add("latency", render_latency(phase.latency_s))
        .num("gen_lag_tail_ms", tail_of(phase.lag_s).value * 1e3)
        .num("gen_backlog", static_cast<double>(phase.backlog))
        .num("cpu_util", phase.cpu_s / (phase.wall_s * static_cast<double>(nproc())))
        .num("failed", static_cast<double>(phase.failed))
        .render();
  };
  // Phases send whole passes over the images.
  const auto whole_passes = [](double n) {
    return kImages * std::max<std::size_t>(
                         1, static_cast<std::size_t>(std::lround(n / kImages)));
  };

  const Phase open = run_rate(kServeRate, whole_passes(kServeRate * 0.9 * args.seconds));
  const double peak_rss_open_mb = peak_rss_mb();
  LoadFacts facts;
  if (args.trace) {  // the layer view of the open-loop phase
    facts.events = trace->events();
    trace.reset();
  }

  // Capacity: a burst of requests sent at once; the completion rate is
  // what the server sustains when it never waits for work.
  const Phase burst = run_rate(0.0, whole_passes(1.6 * args.seconds));
  const double capacity_rps =
      static_cast<double>(burst.latency_s.size()) / burst.wall_s;

  // The stream phase feeds the details and the stream.* layer metrics.
  const StreamOutcome streams = run_streams(
      args, server,
      std::max(kChainedFrames,
               static_cast<std::size_t>(std::lround(kFps * 0.15 * args.seconds))),
      facts);
  report.attempted += streams.phase.attempted;
  report.failed += streams.phase.failed;

  const Tail open_tail = tail_of(open.latency_s);
  report.e2e("latency_p50_ms", median(open.latency_s) * 1e3, "ms");
  report.e2e("mpix_per_s", capacity_rps * mpix, "Mpix/s");
  check_miou(report, mean(iou));
  check_pinned(report, args, chained, kPinnedServeTable2);
  check_pinned(report, args, streams.chained, kPinnedServeStreams,
               "stream_labels_hash");

  serve::ServerOptions options;
  report.details.add("config", render_config(config))
      .add("server_options", render_server_options(options))
      .str("load", "open loop, stratified Poisson arrivals conditioned on "
                   "the count, 1 generator thread, latency from due time")
      .num("images_distinct", static_cast<double>(kImages))
      .num("rate", kServeRate)
      .num("latency_tail_ms", open_tail.value * 1e3)
      .add("open_loop", render_phase(open, kServeRate))
      .num("capacity_rps", capacity_rps)
      .num("peak_rss_mb", peak_rss_setup_mb)
      .num("peak_rss_after_references_mb", peak_rss_references_mb)
      .num("peak_rss_after_open_loop_mb", peak_rss_open_mb)
      .num("peak_rss_run_mb", peak_rss_mb())
      .str("stream_load", "2 streams through open_stream, open loop at 2 fps "
                          "each, clocks staggered by half a period")
      .num("stream_frames_per_stream",
           static_cast<double>(streams.phase.attempted / kStreams))
      .num("frame_p50_ms", median(streams.phase.latency_s) * 1e3)
      .num("frame_tail_ms", tail_of(streams.phase.latency_s).value * 1e3)
      .add("frame_latency", render_latency(streams.phase.latency_s))
      .num("stream_miou", mean(streams.iou));

  add_generator_facts({&open, &streams.phase}, facts);
  check_generator(report, facts);
  if (args.trace) {
    facts.latency_p50_s = median(open.latency_s);
    facts.cpu_util = open.cpu_s / (open.wall_s * static_cast<double>(nproc()));
    std::vector<LayerInput> inputs;
    for (std::size_t i = 0; i < 4; ++i) {
      inputs.push_back({&samples[i].image, &server.session()});
    }
    probe_layers(inputs, *setup.pool, facts, report);
  }
  return report;
}

}  // namespace perfbench
