// Backend-equivalence suite for the runtime-dispatched SIMD kernel
// subsystem (src/hdc/simd/): every registered backend must agree with
// the scalar reference BIT FOR BIT on random and adversarial inputs
// (non-multiple-of-64 dims, all-ones rows, zero-padding words, spans
// long enough to exercise the 16-word Harley-Seal blocks and vector
// tails), the word-blocked CountPlanes dot must equal the bit-serial
// dot on every backend, and — the golden gate — the PR-2 batch label
// hash must be identical under every backend forced via the dispatch
// override. Plus registry/dispatch behaviour: selection, forcing,
// unknown-name rejection, and the SegHdcConfig::kernel_backend
// plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/core/session.hpp"
#include "src/hdc/accumulator.hpp"
#include "src/hdc/hypervector.hpp"
#include "src/hdc/kernels.hpp"
#include "src/hdc/simd/backend.hpp"
#include "src/hdc/simd/cpu_features.hpp"
#include "src/metrics/segmentation_metrics.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace seghdc;
using namespace seghdc::hdc;

// Restores automatic selection when a test that forces backends exits,
// so suite order never leaks a forced backend.
struct BackendSelectionGuard {
  ~BackendSelectionGuard() { simd::reset_backend_selection(); }
};

std::vector<const simd::KernelBackend*> available_backends() {
  std::vector<const simd::KernelBackend*> backends;
  for (const auto* backend : simd::registered_backends()) {
    if (backend->available()) {
      backends.push_back(backend);
    }
  }
  return backends;
}

/// Word spans that hunt for backend-specific failure modes: sizes around
/// the 4-word AVX2 / 2-word NEON / 16-word Harley-Seal block boundaries,
/// all-ones and all-zero contents, a lone high bit, and (via the dims in
/// the dimension-based tests) zero-padding tails.
std::vector<std::vector<std::uint64_t>> adversarial_word_sets(
    std::size_t words) {
  std::vector<std::vector<std::uint64_t>> sets;
  sets.emplace_back(words, 0ULL);
  sets.emplace_back(words, ~0ULL);
  sets.emplace_back(words, 0xAAAAAAAAAAAAAAAAULL);
  sets.emplace_back(words, 0x8000000000000001ULL);
  if (words > 0) {
    std::vector<std::uint64_t> lone(words, 0ULL);
    lone.back() = std::uint64_t{1} << 63;
    sets.push_back(std::move(lone));
  }
  util::Rng rng(words * 131 + 7);
  std::vector<std::uint64_t> random(words);
  for (auto& word : random) {
    word = rng();
  }
  sets.push_back(std::move(random));
  return sets;
}

// Span lengths straddling every backend's block size (AVX2 processes 4
// words/vector, NEON 2, Harley-Seal 16) plus a long streaming case.
const std::vector<std::size_t> kWordCounts{0, 1, 2, 3, 4, 5, 7, 8,
                                           15, 16, 17, 31, 33, 157, 1000};

TEST(SimdRegistry, ScalarIsAlwaysRegisteredAndAvailable) {
  const auto* scalar = simd::find_backend("scalar");
  ASSERT_NE(scalar, nullptr);
  EXPECT_TRUE(scalar->available());
  EXPECT_FALSE(simd::registered_backends().empty());
  // "auto" is a selection mode, not a backend.
  EXPECT_EQ(simd::find_backend("auto"), nullptr);
  EXPECT_EQ(simd::find_backend("no-such-backend"), nullptr);
}

TEST(SimdRegistry, ActiveBackendIsAvailableAndForcible) {
  const BackendSelectionGuard guard;
  const auto& active = simd::active_backend();
  EXPECT_TRUE(active.available());
  for (const auto* backend : available_backends()) {
    const auto& forced = simd::force_backend(backend->name);
    EXPECT_STREQ(forced.name, backend->name);
    EXPECT_STREQ(simd::active_backend().name, backend->name);
  }
  // "auto" re-runs detection and must land on an available backend.
  const auto& auto_selected = simd::force_backend("auto");
  EXPECT_TRUE(auto_selected.available());
}

TEST(SimdRegistry, ForcingUnknownOrUnavailableBackendThrows) {
  const BackendSelectionGuard guard;
  EXPECT_THROW(simd::force_backend("no-such-backend"),
               std::invalid_argument);
  for (const auto* backend : simd::registered_backends()) {
    if (!backend->available()) {
      EXPECT_THROW(simd::force_backend(backend->name),
                   std::invalid_argument);
    }
  }
  // The feature string used in error messages/report headers is
  // non-empty on every architecture.
  EXPECT_FALSE(simd::cpu_feature_string().empty());
}

TEST(SimdRegistry, EnvOverrideIsHonouredOnReset) {
  // The SEGHDC_KERNEL_BACKEND environment variable is read when
  // selection resolves; resetting selection re-reads it. Restore the
  // caller's value afterwards so a CI-matrix-forced run keeps its
  // backend for the rest of this binary.
  const char* original = std::getenv("SEGHDC_KERNEL_BACKEND");
  const std::string saved = original != nullptr ? original : "";
  const BackendSelectionGuard guard;

  ::setenv("SEGHDC_KERNEL_BACKEND", "scalar", 1);
  simd::reset_backend_selection();
  EXPECT_STREQ(simd::active_backend().name, "scalar");

  // An unknown forced name is a hard error, never a silent fallback.
  ::setenv("SEGHDC_KERNEL_BACKEND", "definitely-not-a-backend", 1);
  simd::reset_backend_selection();
  EXPECT_THROW(simd::active_backend(), std::invalid_argument);

  // "auto" and "" both mean automatic selection.
  ::setenv("SEGHDC_KERNEL_BACKEND", "auto", 1);
  simd::reset_backend_selection();
  EXPECT_TRUE(simd::active_backend().available());

  if (original != nullptr) {
    ::setenv("SEGHDC_KERNEL_BACKEND", saved.c_str(), 1);
  } else {
    ::unsetenv("SEGHDC_KERNEL_BACKEND");
  }
}

TEST(SimdBackends, WordKernelsMatchScalarOnAdversarialSpans) {
  const auto* scalar = simd::find_backend("scalar");
  ASSERT_NE(scalar, nullptr);
  for (const std::size_t words : kWordCounts) {
    const auto sets = adversarial_word_sets(words);
    for (std::size_t ai = 0; ai < sets.size(); ++ai) {
      for (std::size_t bi = 0; bi < sets.size(); ++bi) {
        const auto& a = sets[ai];
        const auto& b = sets[bi];
        const auto expected_pop = scalar->popcount(a);
        const auto expected_ham = scalar->hamming(a, b);
        const auto expected_and = scalar->and_popcount(a, b);
        std::vector<std::uint64_t> expected_xor(words);
        scalar->xor_bind(expected_xor, a, b);
        for (const auto* backend : available_backends()) {
          EXPECT_EQ(backend->popcount(a), expected_pop)
              << backend->name << " words=" << words << " set=" << ai;
          EXPECT_EQ(backend->hamming(a, b), expected_ham)
              << backend->name << " words=" << words << " sets=" << ai
              << "," << bi;
          EXPECT_EQ(backend->and_popcount(a, b), expected_and)
              << backend->name << " words=" << words << " sets=" << ai
              << "," << bi;
          std::vector<std::uint64_t> got_xor(words, 0x5A5A5A5A5A5A5A5AULL);
          backend->xor_bind(got_xor, a, b);
          EXPECT_EQ(got_xor, expected_xor)
              << backend->name << " words=" << words;
        }
      }
    }
  }
}

TEST(SimdBackends, KernelLayerMatchesReferenceAtNonWordDims) {
  // Through the public kernel layer (dispatch + padding invariants):
  // random HVs at dimensions straddling word boundaries, under every
  // backend forced in turn.
  const BackendSelectionGuard guard;
  const std::vector<std::size_t> dims{8, 63, 64, 65, 127, 128, 193,
                                      1000, 2049};
  for (const auto* backend : available_backends()) {
    simd::force_backend(backend->name);
    util::Rng rng(31);
    for (const auto dim : dims) {
      const auto a = HyperVector::random(dim, rng);
      const auto b = HyperVector::random(dim, rng);
      std::size_t per_bit_ham = 0;
      std::size_t per_bit_pop = 0;
      for (std::size_t i = 0; i < dim; ++i) {
        per_bit_ham += a.get(i) != b.get(i) ? 1 : 0;
        per_bit_pop += a.get(i) ? 1 : 0;
      }
      EXPECT_EQ(kernels::popcount_words(a.words()), per_bit_pop)
          << backend->name << " dim=" << dim;
      EXPECT_EQ(kernels::hamming_words(a.words(), b.words()), per_bit_ham)
          << backend->name << " dim=" << dim;
      EXPECT_EQ(a.popcount(), per_bit_pop) << backend->name;
      EXPECT_EQ(HyperVector::hamming(a, b), per_bit_ham) << backend->name;
    }
  }
}

TEST(SimdBackends, AccumulateMatchesScalarOnAdversarialSpans) {
  // The fused centroid-accumulate kernel: every backend must produce
  // the scalar walk's exact post-add counts AND pre-add dot, including
  // weights > 1, negative weights (Accumulator::sub), block-boundary
  // span lengths, and a counts vector shorter than 64 * words (partial
  // trailing block, exercised with the padding invariant the real call
  // sites guarantee).
  const auto* scalar = simd::find_backend("scalar");
  ASSERT_NE(scalar, nullptr);
  const std::vector<std::int64_t> weights{1, 2, 7, 100000, -1, -7};
  for (const std::size_t words : kWordCounts) {
    auto sets = adversarial_word_sets(words);
    // A short-counts variant: 30 fewer count slots than bits, with the
    // top 30 bits of the last word masked to honour zero padding.
    const std::size_t full_counts = words * 64;
    const std::size_t short_counts =
        words == 0 ? 0 : full_counts - 30;
    for (std::size_t si = 0; si < sets.size(); ++si) {
      for (const bool shorten : {false, true}) {
        auto span_words = sets[si];
        const std::size_t count_size = shorten ? short_counts : full_counts;
        if (shorten && words > 0) {
          span_words.back() &= ~std::uint64_t{0} >> 30;
        }
        util::Rng rng(words * 977 + si * 31 + (shorten ? 1 : 0));
        std::vector<std::int64_t> base_counts(count_size);
        for (auto& count : base_counts) {
          count = static_cast<std::int64_t>(rng() % 4096) - 1024;
        }
        for (const std::int64_t weight : weights) {
          auto expected_counts = base_counts;
          const auto expected_dot = scalar->accumulate_words(
              expected_counts, span_words, weight);
          for (const auto* backend : available_backends()) {
            auto got_counts = base_counts;
            const auto got_dot =
                backend->accumulate_words(got_counts, span_words, weight);
            EXPECT_EQ(got_dot, expected_dot)
                << backend->name << " words=" << words << " set=" << si
                << " weight=" << weight << " shorten=" << shorten;
            EXPECT_EQ(got_counts, expected_counts)
                << backend->name << " words=" << words << " set=" << si
                << " weight=" << weight << " shorten=" << shorten;
          }
        }
      }
    }
  }
}

TEST(SimdBackends, AccumulatorAddIdenticalUnderEveryBackend) {
  // Through the public Accumulator API (dispatch + padding + the
  // incremental norm): weighted adds at dimensions straddling word
  // boundaries must leave identical counts, total weight, and norm
  // under every forced backend.
  const BackendSelectionGuard guard;
  const std::vector<std::size_t> dims{8, 63, 64, 65, 127, 322, 1000};
  for (const auto dim : dims) {
    std::vector<std::int64_t> expected_counts;
    double expected_norm = 0.0;
    std::uint64_t expected_weight = 0;
    bool have_expected = false;
    for (const auto* backend : available_backends()) {
      simd::force_backend(backend->name);
      util::Rng rng(dim * 3 + 1);
      Accumulator acc(dim);
      for (std::uint32_t i = 0; i < 12; ++i) {
        acc.add(HyperVector::random(dim, rng), 1 + (i * 37) % 400);
      }
      if (!have_expected) {
        expected_counts.assign(acc.counts().begin(), acc.counts().end());
        expected_norm = acc.norm();
        expected_weight = acc.total_weight();
        have_expected = true;
        continue;
      }
      EXPECT_TRUE(std::equal(acc.counts().begin(), acc.counts().end(),
                             expected_counts.begin(), expected_counts.end()))
          << backend->name << " dim=" << dim;
      EXPECT_EQ(acc.total_weight(), expected_weight) << backend->name;
      EXPECT_DOUBLE_EQ(acc.norm(), expected_norm)
          << backend->name << " dim=" << dim;
    }
  }
}

TEST(SimdBackends, CountPlanesBuildIdenticalUnderEveryBackend) {
  // snapshot_planes rides the dispatched build_planes slot: the packed
  // plane words must be identical under every forced backend, at dims
  // that leave a partial trailing 64-count block.
  const BackendSelectionGuard guard;
  const std::vector<std::size_t> dims{8, 64, 65, 127, 193, 1000};
  for (const auto dim : dims) {
    std::vector<std::vector<std::uint64_t>> expected_planes;
    bool have_expected = false;
    for (const auto* backend : available_backends()) {
      simd::force_backend(backend->name);
      util::Rng rng(dim * 7 + 5);
      Accumulator acc(dim);
      for (int i = 0; i < 9; ++i) {
        acc.add(HyperVector::random(dim, rng),
                static_cast<std::uint32_t>(1 + rng.next_below(1000)));
      }
      kernels::CountPlanes planes;
      acc.snapshot_planes(planes);
      std::vector<std::vector<std::uint64_t>> got;
      for (std::size_t b = 0; b < planes.plane_count(); ++b) {
        got.emplace_back(planes.plane(b).begin(), planes.plane(b).end());
      }
      if (!have_expected) {
        expected_planes = std::move(got);
        have_expected = true;
        continue;
      }
      EXPECT_EQ(got, expected_planes) << backend->name << " dim=" << dim;
    }
  }
}

TEST(SimdBackends, CountPlanesDotMatchesBitSerialOnEveryBackend) {
  const std::vector<std::size_t> dims{8, 63, 64, 65, 127, 128, 322, 1000};
  util::Rng rng(47);
  for (const auto dim : dims) {
    // Weighted adds drive counts well past one bit so many planes
    // exist; an extra huge-weight add exercises high planes.
    Accumulator acc(dim);
    for (int i = 0; i < 9; ++i) {
      acc.add(HyperVector::random(dim, rng),
              static_cast<std::uint32_t>(1 + rng.next_below(1000)));
    }
    acc.add(HyperVector::random(dim, rng), 100000);
    kernels::CountPlanes planes;
    acc.snapshot_planes(planes);
    EXPECT_EQ(planes.dim(), dim);
    const auto probe = HyperVector::random(dim, rng);
    const auto expected = acc.dot(probe);
    for (const auto* backend : available_backends()) {
      EXPECT_EQ(kernels::dot_planes(planes, probe.words(), *backend),
                expected)
          << backend->name << " dim=" << dim;
      EXPECT_EQ(backend->dot_counts(acc.counts(), probe.words()), expected)
          << backend->name << " dim=" << dim;
    }
    // And the distance wrapper agrees with the bit-serial formulation
    // exactly (same integer dot, same float expression).
    const double point_norm =
        std::sqrt(static_cast<double>(probe.popcount()));
    EXPECT_DOUBLE_EQ(
        kernels::cosine_distance_planes(planes, acc.norm(), probe.words(),
                                        point_norm),
        kernels::cosine_distance_words(acc.counts(), acc.norm(),
                                       probe.words(), point_norm));
  }
}

TEST(SimdBackends, CountPlanesHandlesZeroAndRebuild) {
  kernels::CountPlanes planes;
  const std::vector<std::int64_t> zeros(100, 0);
  planes.build(zeros);
  EXPECT_EQ(planes.plane_count(), 0u);
  const HyperVector ones_probe = [&] {
    HyperVector hv(100);
    for (std::size_t i = 0; i < 100; ++i) {
      hv.set(i, true);
    }
    return hv;
  }();
  EXPECT_EQ(kernels::dot_planes(planes, ones_probe.words()), 0);
  // Rebuild on the same object with live counts (storage reuse path).
  std::vector<std::int64_t> counts(100, 0);
  counts[0] = 5;
  counts[64] = 9;
  counts[99] = 1;
  planes.build(counts);
  EXPECT_EQ(planes.plane_count(), 4u);  // bit_width(9)
  EXPECT_EQ(kernels::dot_planes(planes, ones_probe.words()), 15);
  // Negative counts are rejected (they would index past the planes).
  std::vector<std::int64_t> negative(100, 0);
  negative[3] = -1;
  EXPECT_THROW(planes.build(negative), std::invalid_argument);
}

// --- The golden gate: the PR-2 batch label hash (pinned in
// tests/test_session.cpp) must be bit-identical under EVERY registered
// backend. Same images, same config, same hash constant. ---

img::ImageU8 golden_gray_card(std::size_t size, std::uint8_t bg,
                              std::uint8_t fg) {
  img::ImageU8 image(size, size, 1, bg);
  for (std::size_t y = size / 4; y < 3 * size / 4; ++y) {
    for (std::size_t x = size / 4; x < 3 * size / 4; ++x) {
      image(x, y) = fg;
    }
  }
  for (std::size_t x = 0; x < size; ++x) {
    image(x, 0) = static_cast<std::uint8_t>((x * 199) % 256);
  }
  return image;
}

img::ImageU8 golden_rgb_card(std::size_t width, std::size_t height) {
  img::ImageU8 image(width, height, 3, 15);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      if ((x / 6 + y / 6) % 2 == 0) {
        image(x, y, 0) = 190;
        image(x, y, 1) = static_cast<std::uint8_t>(140 + (x % 32));
        image(x, y, 2) = 210;
      } else {
        image(x, y, 2) = static_cast<std::uint8_t>(20 + (y % 16));
      }
    }
  }
  return image;
}

// Must match tests/test_session.cpp SegmentManyGoldenLabelHash.
constexpr std::uint64_t kGoldenBatchHash = 13206585988845182882ULL;

std::uint64_t golden_batch_hash() {
  std::vector<img::ImageU8> images;
  images.push_back(golden_gray_card(32, 30, 200));
  images.push_back(golden_rgb_card(36, 28));
  images.push_back(golden_gray_card(24, 20, 235));

  core::SegHdcConfig config;
  config.dim = 512;
  config.beta = 4;
  config.iterations = 4;
  config.seed = 42;
  util::ThreadPool pool(3);
  const core::SegHdcSession session(config,
                                    core::SegHdcSession::Options{&pool});
  const auto results = session.segment_many(images);
  std::uint64_t hash = 14695981039346656037ULL;
  for (const auto& result : results) {
    hash = metrics::label_map_hash(result.labels, hash);
  }
  return hash;
}

TEST(SimdBackends, GoldenLabelHashIdenticalUnderEveryBackend) {
  const BackendSelectionGuard guard;
  for (const auto* backend : available_backends()) {
    simd::force_backend(backend->name);
    EXPECT_EQ(golden_batch_hash(), kGoldenBatchHash)
        << "label hash drifted under backend " << backend->name;
  }
}

TEST(SimdBackends, ConfigKernelBackendOverridePlumbs) {
  const BackendSelectionGuard guard;
  core::SegHdcConfig config;
  config.dim = 512;
  config.beta = 4;
  config.iterations = 2;
  config.kernel_backend = "scalar";
  const core::SegHdcSession session(config);
  EXPECT_STREQ(simd::active_backend().name, "scalar");

  config.kernel_backend = "no-such-backend";
  EXPECT_THROW(core::SegHdcSession{config}, std::invalid_argument);
}

TEST(SimdBackends, StreamingSegmentManyMatchesCollectingOverload) {
  // The streaming sink delivers exactly the collecting overload's
  // results (same indices, same label maps), once each.
  std::vector<img::ImageU8> images;
  images.push_back(golden_gray_card(32, 30, 200));
  images.push_back(golden_rgb_card(36, 28));
  images.push_back(golden_gray_card(24, 20, 235));

  core::SegHdcConfig config;
  config.dim = 512;
  config.beta = 4;
  config.iterations = 4;
  util::ThreadPool pool(3);
  const core::SegHdcSession session(config,
                                    core::SegHdcSession::Options{&pool});
  const auto collected = session.segment_many(images);
  std::vector<int> delivered(images.size(), 0);
  std::vector<core::SegmentationResult> streamed(images.size());
  session.segment_many(images,
                       [&](std::size_t i, core::SegmentationResult&& r) {
                         ++delivered[i];
                         streamed[i] = std::move(r);
                       });
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(delivered[i], 1) << "image " << i;
    EXPECT_EQ(streamed[i].labels, collected[i].labels) << "image " << i;
    EXPECT_EQ(streamed[i].cluster_pixel_counts,
              collected[i].cluster_pixel_counts);
  }
}

}  // namespace
