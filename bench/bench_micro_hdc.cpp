// google-benchmark micro benches for the HDC substrate and the SegHDC
// pipeline stages — the op-level costs underlying the Table II model.
//
//   ./bench_micro_hdc [--backend scalar|avx2|neon|auto]
//                     [google-benchmark flags...]
//
// On top of the dispatched-path benches below, a per-backend sweep
// (BM_HammingBackend/<name>, BM_CosinePlanesBackend/<name>) is
// registered for every backend available on this CPU, so one run
// compares scalar vs AVX2/NEON side by side. --backend
// additionally forces the process-wide dispatch (what the BM_*Fused*
// benches and the pipeline benches run on); the report header records
// the selection and the CPU features either way.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/color_encoder.hpp"
#include "src/core/position_encoder.hpp"
#include "src/core/seghdc.hpp"
#include "src/datasets/dsb2018.hpp"
#include "src/hdc/accumulator.hpp"
#include "src/hdc/hypervector.hpp"
#include "src/hdc/kernels.hpp"
#include "src/hdc/simd/backend.hpp"
#include "src/hdc/simd/cpu_features.hpp"
#include "src/util/cli.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace seghdc;

void BM_HvXor(benchmark::State& state) {
  util::Rng rng(1);
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto a = hdc::HyperVector::random(dim, rng);
  const auto b = hdc::HyperVector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a ^ b);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_HvXor)->Arg(800)->Arg(2000)->Arg(10000);

void BM_HvHamming(benchmark::State& state) {
  util::Rng rng(2);
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto a = hdc::HyperVector::random(dim, rng);
  const auto b = hdc::HyperVector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::HyperVector::hamming(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_HvHamming)->Arg(800)->Arg(2000)->Arg(10000);

// Definitional per-bit baseline: one bit extraction and compare per
// dimension. The production path was already word-parallel
// (HyperVector::hamming); this loop exists to quantify what
// word-parallelism is worth, not as the previous implementation.
void BM_HammingPerBitReference(benchmark::State& state) {
  util::Rng rng(2);
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto a = hdc::HyperVector::random(dim, rng);
  const auto b = hdc::HyperVector::random(dim, rng);
  const auto aw = a.words();
  const auto bw = b.words();
  for (auto _ : state) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < dim; ++i) {
      count += ((aw[i / 64] ^ bw[i / 64]) >> (i % 64)) & 1;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_HammingPerBitReference)->Arg(800)->Arg(2000)->Arg(10000);

// Fused XOR+popcount over contiguous HvBlock rows — the production
// clustering path. Same inputs and item accounting as the reference
// above, so the items/s ratio is the kernel speedup.
void BM_HammingFusedKernel(benchmark::State& state) {
  util::Rng rng(2);
  const auto dim = static_cast<std::size_t>(state.range(0));
  std::vector<hdc::HyperVector> hvs{hdc::HyperVector::random(dim, rng),
                                    hdc::HyperVector::random(dim, rng)};
  const auto block = hdc::HvBlock::from_hvs(hvs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hdc::kernels::hamming_words(block.row(0), block.row(1)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_HammingFusedKernel)->Arg(800)->Arg(2000)->Arg(10000);

// Cosine distance against an integer centroid, per-bit reference: test
// every bit, sum the count under it when set. Reads the counts span
// directly (like the fused kernel does) so the ratio isolates the
// bit-at-a-time iteration, not call overhead.
void BM_CosinePerBitReference(benchmark::State& state) {
  util::Rng rng(3);
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdc::Accumulator acc(dim);
  for (int i = 0; i < 32; ++i) {
    acc.add(hdc::HyperVector::random(dim, rng));
  }
  const auto probe = hdc::HyperVector::random(dim, rng);
  const auto counts = acc.counts();
  const auto words = probe.words();
  const double point_norm =
      std::sqrt(static_cast<double>(probe.popcount()));
  const double centroid_norm = acc.norm();
  for (auto _ : state) {
    std::int64_t dot = 0;
    for (std::size_t i = 0; i < dim; ++i) {
      if ((words[i / 64] >> (i % 64)) & 1) {
        dot += counts[i];
      }
    }
    benchmark::DoNotOptimize(
        1.0 - static_cast<double>(dot) / (point_norm * centroid_norm));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_CosinePerBitReference)->Arg(800)->Arg(2000)->Arg(10000);

// Bit-serial word-span cosine kernel: the pre-CountPlanes assignment
// formulation (one dependent add per set probe bit), kept as the
// baseline the word-blocked plane kernel below is measured against.
void BM_CosineFusedKernel(benchmark::State& state) {
  util::Rng rng(3);
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdc::Accumulator acc(dim);
  for (int i = 0; i < 32; ++i) {
    acc.add(hdc::HyperVector::random(dim, rng));
  }
  const auto probe = hdc::HyperVector::random(dim, rng);
  const double point_norm =
      std::sqrt(static_cast<double>(probe.popcount()));
  const double centroid_norm = acc.norm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::kernels::cosine_distance_words(
        acc.counts(), centroid_norm, probe.words(), point_norm));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_CosineFusedKernel)->Arg(800)->Arg(2000)->Arg(10000);

void BM_AccumulatorDot(benchmark::State& state) {
  util::Rng rng(3);
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdc::Accumulator acc(dim);
  for (int i = 0; i < 32; ++i) {
    acc.add(hdc::HyperVector::random(dim, rng));
  }
  const auto probe = hdc::HyperVector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.dot(probe));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_AccumulatorDot)->Arg(800)->Arg(2000)->Arg(10000);

void BM_PositionEncoderBuild(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    util::Rng rng(4);
    const core::PositionEncoder encoder(
        core::PositionEncoderConfig{
            .dim = dim, .rows = 256, .cols = 320,
            .encoding = core::PositionEncoding::kBlockDecayManhattan,
            .alpha = 0.2, .beta = 26},
        rng);
    benchmark::DoNotOptimize(encoder.distinct_rows());
  }
}
BENCHMARK(BM_PositionEncoderBuild)->Arg(800)->Arg(10000);

void BM_ColorEncoderBuild(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    util::Rng rng(5);
    const core::ColorEncoder encoder(
        core::ColorEncoderConfig{.dim = dim, .channels = 3}, rng);
    benchmark::DoNotOptimize(encoder.channel_dim(0));
  }
}
BENCHMARK(BM_ColorEncoderBuild)->Arg(800)->Arg(10000);

void BM_SegHdcEncodeImage(benchmark::State& state) {
  const data::Dsb2018Generator dataset;
  const auto sample = dataset.generate(0);
  core::SegHdcConfig config;
  config.dim = static_cast<std::size_t>(state.range(0));
  config.beta = 26;
  config.color_quantization_shift = 2;
  const core::SegHdc seghdc(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seghdc.segment(sample.image).unique_points);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(sample.image.pixel_count()));
}
BENCHMARK(BM_SegHdcEncodeImage)->Arg(800)->Unit(benchmark::kMillisecond);

// Word-blocked cosine dot through the dispatched backend — the
// production assignment-step inner loop: plane_count() fused
// AND+popcount passes against a realistic centroid snapshot (weighted
// adds, ~12 planes). Items = dim * planes, the packed bits the kernel
// actually streams, so items/s is directly comparable with the Hamming
// kernels: "cosine within 2x of Hamming" means each plane pass runs at
// (close to) Hamming-pass speed, i.e. cosine assignment has become
// bandwidth-bound.
void BM_CosinePlanesKernel(benchmark::State& state) {
  util::Rng rng(3);
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdc::Accumulator acc(dim);
  for (int i = 0; i < 32; ++i) {
    acc.add(hdc::HyperVector::random(dim, rng),
            static_cast<std::uint32_t>(1 + (i * 37) % 400));
  }
  hdc::kernels::CountPlanes planes;
  acc.snapshot_planes(planes);
  const auto probe = hdc::HyperVector::random(dim, rng);
  const double point_norm =
      std::sqrt(static_cast<double>(probe.popcount()));
  const double centroid_norm = acc.norm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::kernels::cosine_distance_planes(
        planes, centroid_norm, probe.words(), point_norm));
  }
  state.counters["planes"] =
      static_cast<double>(planes.plane_count());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim) *
                          static_cast<std::int64_t>(planes.plane_count()));
}
BENCHMARK(BM_CosinePlanesKernel)->Arg(800)->Arg(2000)->Arg(10000);

// --- The K-Means update primitive: 64 weighted rows into one centroid
// per iteration, staged bit-sliced and applied once (BM_UpdateStaged,
// what HvKMeans runs) against one Accumulator::add per row
// (BM_UpdatePerRow, the scalar set-bit walk). Second argument: 0 = every
// weight 1 (the RGB datasets' unique points), 1 = mixed weights 1-1000
// (dedup multiplicities of a gray image). Items are rows. ---

constexpr std::size_t kUpdateRows = 64;

struct UpdateRows {
  hdc::HvBlock rows;
  std::vector<std::uint32_t> weights;
};

UpdateRows make_update_rows(const benchmark::State& state) {
  util::Rng rng(7);
  const auto dim = static_cast<std::size_t>(state.range(0));
  std::vector<hdc::HyperVector> hvs;
  std::vector<std::uint32_t> weights;
  for (std::size_t i = 0; i < kUpdateRows; ++i) {
    hvs.push_back(hdc::HyperVector::random(dim, rng));
    weights.push_back(state.range(1) == 0
                          ? 1
                          : static_cast<std::uint32_t>(1 + rng() % 1000));
  }
  return UpdateRows{hdc::HvBlock::from_hvs(hvs), std::move(weights)};
}

void BM_UpdateStaged(benchmark::State& state) {
  const auto input = make_update_rows(state);
  hdc::Accumulator acc(input.rows.dim());
  hdc::StagedSum staged(input.rows.dim());
  for (auto _ : state) {
    for (std::size_t i = 0; i < kUpdateRows; ++i) {
      staged.add(input.rows.row(i), input.weights[i]);
    }
    acc.apply(staged);
    benchmark::DoNotOptimize(acc.counts().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kUpdateRows));
}
BENCHMARK(BM_UpdateStaged)
    ->ArgNames({"dim", "mixed"})
    ->ArgsProduct({{800, 2000, 10000}, {0, 1}});

void BM_UpdatePerRow(benchmark::State& state) {
  const auto input = make_update_rows(state);
  hdc::Accumulator acc(input.rows.dim());
  for (auto _ : state) {
    for (std::size_t i = 0; i < kUpdateRows; ++i) {
      acc.add(input.rows.row(i), input.weights[i]);
    }
    benchmark::DoNotOptimize(acc.counts().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kUpdateRows));
}
BENCHMARK(BM_UpdatePerRow)
    ->ArgNames({"dim", "mixed"})
    ->ArgsProduct({{800, 2000, 10000}, {0, 1}});

// --- Per-backend sweep: the same Hamming / plane-cosine kernels run
// against every backend available on this CPU, bypassing dispatch, so
// one report compares them directly (the acceptance gate: best backend
// >= 2x scalar on Hamming items/s, plane-cosine within 2x of Hamming).
// ---

void BM_HammingBackend(benchmark::State& state,
                       const hdc::simd::KernelBackend* backend) {
  util::Rng rng(2);
  const auto dim = static_cast<std::size_t>(state.range(0));
  std::vector<hdc::HyperVector> hvs{hdc::HyperVector::random(dim, rng),
                                    hdc::HyperVector::random(dim, rng)};
  const auto block = hdc::HvBlock::from_hvs(hvs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend->hamming(block.row(0), block.row(1)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim));
}

void BM_CosinePlanesBackend(benchmark::State& state,
                            const hdc::simd::KernelBackend* backend) {
  util::Rng rng(3);
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdc::Accumulator acc(dim);
  for (int i = 0; i < 32; ++i) {
    acc.add(hdc::HyperVector::random(dim, rng),
            static_cast<std::uint32_t>(1 + (i * 37) % 400));
  }
  hdc::kernels::CountPlanes planes;
  acc.snapshot_planes(planes);
  const auto probe = hdc::HyperVector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hdc::kernels::dot_planes(planes, probe.words(), *backend));
  }
  state.counters["planes"] =
      static_cast<double>(planes.plane_count());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim) *
                          static_cast<std::int64_t>(planes.plane_count()));
}

void register_backend_sweeps() {
  for (const auto* backend : hdc::simd::registered_backends()) {
    if (!backend->available()) {
      continue;
    }
    const std::string name(backend->name);
    benchmark::RegisterBenchmark(("BM_HammingBackend/" + name).c_str(),
                                 BM_HammingBackend, backend)
        ->Arg(800)
        ->Arg(2000)
        ->Arg(10000);
    benchmark::RegisterBenchmark(("BM_CosinePlanesBackend/" + name).c_str(),
                                 BM_CosinePlanesBackend, backend)
        ->Arg(800)
        ->Arg(2000)
        ->Arg(10000);
  }
}

}  // namespace

int main(int argc, char** argv) try {
  // --backend is ours (parsed with util::Cli); everything else is
  // forwarded to google-benchmark, so the standard --benchmark_* flags
  // keep working.
  const seghdc::util::Cli cli(argc, argv);
  const std::string backend_flag = cli.get("backend", "");
  std::vector<char*> bench_argv;
  bench_argv.reserve(static_cast<std::size_t>(argc));
  bench_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--backend") {
      if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
        ++i;  // skip the value token
      }
      continue;
    }
    if (arg.rfind("--backend=", 0) == 0) {
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());

  if (!backend_flag.empty()) {
    seghdc::hdc::simd::force_backend(backend_flag);
  }
  std::printf("kernel backend: %s | cpu: %s | registered:",
              seghdc::hdc::simd::active_backend().name,
              seghdc::hdc::simd::cpu_feature_string().c_str());
  for (const auto* backend : seghdc::hdc::simd::registered_backends()) {
    std::printf(" %s%s", backend->name,
                backend->available() ? "" : "(unavailable)");
  }
  std::printf("\n");

  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             bench_argv.data())) {
    return 1;
  }
  register_backend_sweeps();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_micro_hdc failed: %s\n", error.what());
  return 1;
}
