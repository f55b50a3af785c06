// Backend-equivalence suite for the runtime-dispatched SIMD kernel
// subsystem (src/hdc/simd/): every registered backend must agree with
// the scalar reference BIT FOR BIT on random and adversarial inputs
// (non-multiple-of-64 dims, all-ones rows, zero-padding words, spans
// long enough to exercise the vector blocks and their tails), the
// word-blocked CountPlanes dot must equal the bit-serial dot on every
// backend, and — the golden gate — the golden batch label hash must be
// identical under every backend forced via the dispatch override. Plus
// registry/dispatch behaviour: selection, forcing, unknown-name
// rejection (the retired "harley-seal" included), and the
// SegHdcConfig::kernel_backend plumbing.
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
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"
#include "tests/golden_fixture.hpp"

namespace {

using namespace seghdc;
using namespace seghdc::hdc;
using namespace seghdc::golden;

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
/// the 4-word AVX2 / 2-word NEON block boundaries,
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
// words/vector, NEON 2) plus a long streaming case.
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

  // An unknown forced name is a hard error, never a silent fallback —
  // the retired "harley-seal" backend included.
  for (const char* value : {"definitely-not-a-backend", "harley-seal"}) {
    ::setenv("SEGHDC_KERNEL_BACKEND", value, 1);
    simd::reset_backend_selection();
    try {
      (void)simd::active_backend();
      ADD_FAILURE() << "SEGHDC_KERNEL_BACKEND=" << value << " did not throw";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()),
                std::string("SEGHDC_KERNEL_BACKEND names unknown kernel "
                            "backend '") +
                    value + "'");
    }
  }

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

// --- The golden gate: the golden batch label hash
// (tests/golden_fixture.hpp) must be bit-identical under EVERY
// registered backend. ---

std::uint64_t golden_batch_hash() {
  util::ThreadPool pool(3);
  const core::SegHdcSession session(golden_config(),
                                    core::SegHdcSession::Options{&pool});
  return results_hash(session.segment_many(golden_batch()));
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
  const auto images = golden_batch();

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
