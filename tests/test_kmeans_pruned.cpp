// Tests for the triangle-inequality bound filter that kAuto puts in
// front of the cosine K-Means assignment at every cluster count, and
// for the assignment-mode plumbing. The contract under test is strict:
// every skip is EXACT — labels, centroids, changed-counts, reseeds, and
// convergence must be bit-identical to the exhaustive argmin (ties
// broken by the lowest index) at every registered backend, pool size,
// and cluster count. Anything weaker would make AssignMode a semantics
// knob. The golden batch and stream hashes are pinned by their own
// suites (test_session, test_stream), which run under kAuto.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/kmeans.hpp"
#include "src/hdc/hypervector.hpp"
#include "src/hdc/simd/backend.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace seghdc;
using namespace seghdc::core;

/// Leaves the process-wide backend selection exactly as a test found it.
struct BackendSelectionGuard {
  ~BackendSelectionGuard() { hdc::simd::reset_backend_selection(); }
};

/// Restores (or removes) SEGHDC_ASSIGN_MODE on scope exit.
struct AssignModeEnvGuard {
  std::string saved;
  bool had = false;
  AssignModeEnvGuard() {
    const char* value = std::getenv("SEGHDC_ASSIGN_MODE");
    if (value != nullptr) {
      had = true;
      saved = value;
    }
  }
  ~AssignModeEnvGuard() {
    if (had) {
      setenv("SEGHDC_ASSIGN_MODE", saved.c_str(), 1);
    } else {
      unsetenv("SEGHDC_ASSIGN_MODE");
    }
  }
};

// ---------------------------------------------------------------------
// kAuto == kExhaustive, bit for bit.

void expect_kmeans_results_identical(const HvKMeansResult& a,
                                     const HvKMeansResult& b) {
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.cluster_weights, b.cluster_weights);
  EXPECT_EQ(a.iterations_run, b.iterations_run);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.reseeds, b.reseeds);
  ASSERT_EQ(a.centroids.size(), b.centroids.size());
  for (std::size_t c = 0; c < a.centroids.size(); ++c) {
    EXPECT_TRUE(std::ranges::equal(a.centroids[c].counts(),
                                   b.centroids[c].counts()))
        << "centroid " << c;
    EXPECT_EQ(a.centroids[c].total_weight(), b.centroids[c].total_weight());
    EXPECT_DOUBLE_EQ(a.centroids[c].norm(), b.centroids[c].norm());
  }
}

void expect_ops_identical(const OpCounts& a, const OpCounts& b) {
  EXPECT_EQ(a.bind_xor_bits, b.bind_xor_bits);
  EXPECT_EQ(a.popcount_bits, b.popcount_bits);
  EXPECT_EQ(a.dot_adds, b.dot_adds);
  EXPECT_EQ(a.centroid_update_adds, b.centroid_update_adds);
  EXPECT_EQ(a.distance_evals, b.distance_evals);
  EXPECT_EQ(a.candidates_pruned, b.candidates_pruned);
  EXPECT_EQ(a.words_scanned, b.words_scanned);
}

std::vector<hdc::HyperVector> make_points(std::size_t count, std::size_t dim,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<hdc::HyperVector> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back(hdc::HyperVector::random(dim, rng));
  }
  return points;
}

std::vector<std::size_t> first_n_seeds(std::size_t k) {
  std::vector<std::size_t> seeds(k);
  for (std::size_t c = 0; c < k; ++c) {
    seeds[c] = c;
  }
  return seeds;
}

TEST(AutoAssignment, MatchesExhaustiveAcrossBackendsPoolsAndK) {
  const BackendSelectionGuard guard;
  const AssignModeEnvGuard env_guard;
  unsetenv("SEGHDC_ASSIGN_MODE");  // kAuto must resolve to the filter
  // dim 1000 on purpose: a ragged last word keeps the kernels' scalar
  // tails in play.
  const auto points = make_points(60, 1000, 23);
  for (const auto* backend : hdc::simd::registered_backends()) {
    if (!backend->available()) {
      continue;
    }
    hdc::simd::force_backend(backend->name);
    for (const auto distance :
         {ClusterDistance::kCosine, ClusterDistance::kHamming}) {
      for (const std::size_t k : {2u, 5u, 16u, 40u}) {
        HvKMeansConfig config{.clusters = k,
                              .iterations = 6,
                              .distance = distance,
                              .assign_mode = AssignMode::kExhaustive};
        const auto seeds = first_n_seeds(k);
        const auto exhaustive = HvKMeans(config).run(points, {}, seeds);
        config.assign_mode = AssignMode::kAuto;
        for (const std::size_t threads : {1u, 2u, 4u}) {
          SCOPED_TRACE(std::string(backend->name) +
                       (distance == ClusterDistance::kCosine ? " cosine"
                                                             : " hamming") +
                       " k " + std::to_string(k) + " threads " +
                       std::to_string(threads));
          util::ThreadPool pool(threads);
          config.pool = &pool;
          const auto result = HvKMeans(config).run(points, {}, seeds);
          expect_kmeans_results_identical(exhaustive, result);
          if (distance == ClusterDistance::kHamming) {
            // The Hamming ablation scans exhaustively at every K.
            expect_ops_identical(exhaustive.ops, result.ops);
          }
        }
        config.pool = nullptr;
      }
    }
  }
}

TEST(AutoAssignment, TieBreakAdversarialCoincidentCentroids) {
  const BackendSelectionGuard guard;
  const AssignModeEnvGuard env_guard;
  unsetenv("SEGHDC_ASSIGN_MODE");
  // Seeds 0..2 are byte-identical points, so three centroids coincide
  // and EVERY point ties between clusters 0, 1, and 2 at the exact
  // minimum — the argmin is decided purely by the lowest-index rule the
  // filtered scan must reproduce. A zero HV (and a zero seed centroid)
  // rides along to pin the zero-norm cosine shortcut, and the starved
  // clusters exercise the reseed path behind the filter.
  auto points = make_points(30, 512, 29);
  points[1] = points[0];
  points[2] = points[0];
  points[5] = hdc::HyperVector(512);  // all-zero point
  for (const auto* backend : hdc::simd::registered_backends()) {
    if (!backend->available()) {
      continue;
    }
    hdc::simd::force_backend(backend->name);
    for (const auto distance :
         {ClusterDistance::kCosine, ClusterDistance::kHamming}) {
      HvKMeansConfig config{.clusters = 5,
                            .iterations = 8,
                            .distance = distance,
                            .assign_mode = AssignMode::kExhaustive};
      const std::vector<std::size_t> seeds{0, 1, 2, 5, 7};
      const auto exhaustive = HvKMeans(config).run(points, {}, seeds);
      config.assign_mode = AssignMode::kAuto;
      for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(std::string(backend->name) + " distance " +
                     std::to_string(static_cast<int>(distance)) +
                     " threads " + std::to_string(threads));
        util::ThreadPool pool(threads);
        config.pool = &pool;
        const auto result = HvKMeans(config).run(points, {}, seeds);
        expect_kmeans_results_identical(exhaustive, result);
      }
      config.pool = nullptr;
    }
  }
}

// ---------------------------------------------------------------------
// OpCounts: an exhaustive run evaluates every pair, so on data without
// zero rows its counts are the closed-form n*k*dim.

TEST(ExhaustiveAssignment, OpsAccountingClosedForm) {
  const auto points = make_points(40, 512, 31);
  const std::uint64_t n = points.size();
  constexpr std::uint64_t kDim = 512;
  constexpr std::uint64_t kWords = kDim / 64;
  for (const auto distance :
       {ClusterDistance::kCosine, ClusterDistance::kHamming}) {
    SCOPED_TRACE(distance == ClusterDistance::kCosine ? "cosine" : "hamming");
    const HvKMeansConfig config{.clusters = 16,
                                .iterations = 5,
                                .distance = distance,
                                .assign_mode = AssignMode::kExhaustive};
    const auto seeds = first_n_seeds(16);
    const auto exhaustive = HvKMeans(config).run(points, {}, seeds);
    const std::uint64_t iters = exhaustive.iterations_run;
    const std::uint64_t pairs = n * 16 * iters;
    EXPECT_EQ(exhaustive.ops.distance_evals, pairs);
    EXPECT_EQ(exhaustive.ops.candidates_pruned, 0u);
    EXPECT_EQ(exhaustive.ops.dot_adds, pairs * kDim);
    if (distance == ClusterDistance::kHamming) {
      EXPECT_EQ(exhaustive.ops.words_scanned, pairs * kWords);
    } else {
      EXPECT_GT(exhaustive.ops.words_scanned, 0u);
    }
  }
}

// ---------------------------------------------------------------------
// Bound-filtered assignment: kAuto puts exact triangle-inequality bounds
// in front of the exhaustive cosine scan at every K. It must equal
// kExhaustive bit for bit, count only what it ran, report the same
// counts at every pool size and backend, and really skip.

/// `per_family` perturbations of each of `families` random anchors, each
/// with `flips` random bit flips, interleaved: point i belongs to family
/// i % families.
std::vector<hdc::HyperVector> make_families(std::size_t families,
                                            std::size_t per_family,
                                            std::size_t dim, std::size_t flips,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<hdc::HyperVector> anchors;
  for (std::size_t f = 0; f < families; ++f) {
    anchors.push_back(hdc::HyperVector::random(dim, rng));
  }
  std::vector<hdc::HyperVector> points;
  for (std::size_t i = 0; i < per_family; ++i) {
    for (const auto& anchor : anchors) {
      auto point = anchor;
      for (std::size_t f = 0; f < flips; ++f) {
        point.flip(rng.next_below(dim));
      }
      points.push_back(point);
    }
  }
  return points;
}

/// Runs `config` through `run` (seed indices) or, with `seed_centroids`
/// non-empty, through `run_from_centroids`.
HvKMeansResult run_entry(const HvKMeansConfig& config,
                         const hdc::HvBlock& block,
                         std::span<const std::size_t> seeds,
                         std::span<const hdc::HyperVector> seed_centroids) {
  const HvKMeans kmeans(config);
  return seed_centroids.empty()
             ? kmeans.run(block, {}, seeds)
             : kmeans.run_from_centroids(block, {}, seed_centroids);
}

/// kAuto (the bound filter) against kExhaustive at pools
/// {1, 2, 8}: identical results, per-iteration conservation, and
/// identical counts at every pool size. Returns the pool-1 result.
HvKMeansResult expect_bounded_matches_exhaustive(
    HvKMeansConfig config, const hdc::HvBlock& block,
    std::span<const std::size_t> seeds,
    std::span<const hdc::HyperVector> seed_centroids) {
  config.assign_mode = AssignMode::kExhaustive;
  const auto reference = run_entry(config, block, seeds, seed_centroids);
  EXPECT_EQ(reference.ops.candidates_pruned, 0u);
  config.assign_mode = AssignMode::kAuto;
  std::vector<HvKMeansResult> results;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    config.pool = &pool;
    results.push_back(run_entry(config, block, seeds, seed_centroids));
    const auto& result = results.back();
    expect_kmeans_results_identical(reference, result);
    // Every (point, centroid) pair of every iteration is either
    // evaluated or skipped.
    EXPECT_EQ(result.ops.distance_evals + result.ops.candidates_pruned,
              block.count() * config.clusters * result.iterations_run);
    EXPECT_LE(result.ops.dot_adds, reference.ops.dot_adds);
    EXPECT_LE(result.ops.words_scanned, reference.ops.words_scanned);
    expect_ops_identical(result.ops, results.front().ops);
  }
  return results.front();
}

TEST(BoundFilteredAssignment, MatchesExhaustiveAcrossKPoolsEntriesAndStops) {
  const AssignModeEnvGuard guard;
  unsetenv("SEGHDC_ASSIGN_MODE");  // kAuto must resolve to the filter
  constexpr std::size_t kDim = 1000;  // a ragged last word on purpose
  for (const std::size_t k : {2u, 3u, 5u, 7u, 8u, 16u, 40u}) {
    // Moving: overlapping families (a third of the bits flipped) seeded
    // from one family, so points keep moving for several iterations.
    // Converging: tight families seeded one per family, settled early.
    // Each family holds at least k points, so one family seeds them all.
    for (const bool moving : {true, false}) {
      const auto points = make_families(k, std::max<std::size_t>(24, k), kDim,
                                         moving ? kDim / 3 : kDim / 50, 40 + k);
      const auto block = hdc::HvBlock::from_hvs(points);
      std::vector<std::size_t> seeds(k);
      std::vector<hdc::HyperVector> seed_centroids;
      util::Rng rng(90 + k);
      for (std::size_t c = 0; c < k; ++c) {
        seeds[c] = moving ? c * k : c;
        // Warm-start seeds: the seed points with 5% of the bits flipped.
        auto centroid = points[seeds[c]];
        for (std::size_t f = 0; f < kDim / 20; ++f) {
          centroid.flip(rng.next_below(kDim));
        }
        seed_centroids.push_back(centroid);
      }
      for (const bool from_centroids : {false, true}) {
        for (const bool stop : {false, true}) {
          SCOPED_TRACE("k " + std::to_string(k) +
                       (moving ? " moving" : " converging") +
                       (from_centroids ? " run_from_centroids" : " run") +
                       (stop ? " stop_on_convergence" : ""));
          const HvKMeansConfig config{.clusters = k,
                                      .iterations = 10,
                                      .stop_on_convergence = stop};
          const auto result = expect_bounded_matches_exhaustive(
              config, block, seeds,
              from_centroids ? std::span<const hdc::HyperVector>(seed_centroids)
                             : std::span<const hdc::HyperVector>());
          if (moving && stop) {
            // Points still move after iteration 1, so the bounds follow
            // real centroid drift before the fixed point.
            EXPECT_GE(result.iterations_run, 3u)
                << "test data no longer keeps points moving";
          } else if (!moving) {
            EXPECT_GT(result.ops.candidates_pruned, 0u)
                << "the bound filter skipped nothing on converging data";
            if (stop) {
              EXPECT_TRUE(result.converged);
              EXPECT_LT(result.iterations_run, 10u);
            }
          }
        }
      }
    }
  }
}

TEST(BoundFilteredAssignment, IdenticalOnEveryBackend) {
  const BackendSelectionGuard backend_guard;
  const AssignModeEnvGuard guard;
  unsetenv("SEGHDC_ASSIGN_MODE");
  const auto points = make_families(3, 30, 1000, 333, 57);
  const auto block = hdc::HvBlock::from_hvs(points);
  const std::vector<std::size_t> seeds{0, 3, 6};
  std::vector<HvKMeansResult> results;
  for (const auto* backend : hdc::simd::registered_backends()) {
    if (!backend->available()) {
      continue;
    }
    SCOPED_TRACE(backend->name);
    hdc::simd::force_backend(backend->name);
    results.push_back(expect_bounded_matches_exhaustive(
        HvKMeansConfig{.clusters = 3, .iterations = 10}, block, seeds, {}));
    expect_kmeans_results_identical(results.front(), results.back());
    expect_ops_identical(results.front().ops, results.back().ops);
  }
  ASSERT_FALSE(results.empty());
  EXPECT_GT(results.front().ops.candidates_pruned, 0u);
}

TEST(BoundFilteredAssignment, TiesAndZeroNormsAlwaysEvaluated) {
  const AssignModeEnvGuard guard;
  unsetenv("SEGHDC_ASSIGN_MODE");
  // Coincident seed centroids: every point ties between them at the
  // exact minimum, the lowest index must win, and the starved clusters
  // are reseeded. All-zero rows ride along (never skipped: their
  // distances are the 1.0 shortcut).
  auto points = make_families(3, 12, 512, 20, 61);
  points[1] = points[0];
  points[2] = points[0];
  points[5] = hdc::HyperVector(512);
  points[11] = hdc::HyperVector(512);
  const auto block = hdc::HvBlock::from_hvs(points);
  for (const std::size_t k : {3u, 5u}) {
    SCOPED_TRACE("k " + std::to_string(k));
    std::vector<std::size_t> seeds{0, 1, 2, 5, 7};
    seeds.resize(k);
    const HvKMeansConfig config{.clusters = k, .iterations = 8};
    const auto tied =
        expect_bounded_matches_exhaustive(config, block, seeds, {});
    EXPECT_GT(tied.reseeds, 0u) << "coincident seeds no longer reseed";
    // Every seed centroid the same HV: k-way ties at iteration 0.
    const std::vector<hdc::HyperVector> same(k, points[3]);
    expect_bounded_matches_exhaustive(config, block, {}, same);
    // An all-zero seed centroid keeps a zero-norm centroid (the zero rows
    // are its only members) for the whole run, so no point may skip.
    std::vector<hdc::HyperVector> with_zero{hdc::HyperVector(512)};
    for (std::size_t c = 1; c < k; ++c) {
      with_zero.push_back(points[c + 5]);
    }
    const auto zero =
        expect_bounded_matches_exhaustive(config, block, {}, with_zero);
    EXPECT_EQ(zero.ops.candidates_pruned, 0u);
  }
}

TEST(BoundFilteredAssignment, NearTiesInsideTheMarginAreEvaluated) {
  const AssignModeEnvGuard guard;
  unsetenv("SEGHDC_ASSIGN_MODE");
  // Two heavy points on disjoint bits and a probe sharing half its bits
  // with each. The probe joins cluster 0 on the index tie and tips its
  // centroid, which leaves it nearer cluster 0 by a chord of ~0.75 / W:
  // a near-tie inside the margin. Its two pairs are evaluated every
  // iteration, while the heavy points are skipped from iteration 1 on.
  constexpr std::uint32_t kHeavy = 1'250'000;
  constexpr std::size_t kIterations = 6;
  hdc::HyperVector a(128);
  hdc::HyperVector b(128);
  hdc::HyperVector probe(128);
  for (std::size_t bit = 0; bit < 32; ++bit) {
    a.set(bit, true);
    b.set(32 + bit, true);
    probe.set(bit < 16 ? bit : 16 + bit, true);
  }
  const std::vector<hdc::HyperVector> points{a, b, probe};
  const std::vector<std::uint32_t> weights{kHeavy, kHeavy, 1};
  const std::vector<std::size_t> seeds{0, 1};
  HvKMeansConfig config{.clusters = 2,
                        .iterations = kIterations,
                        .assign_mode = AssignMode::kExhaustive};
  const auto reference = HvKMeans(config).run(points, weights, seeds);
  config.assign_mode = AssignMode::kAuto;
  const auto result = HvKMeans(config).run(points, weights, seeds);
  expect_kmeans_results_identical(reference, result);
  EXPECT_EQ(result.assignment[2], 0u);
  EXPECT_EQ(result.ops.distance_evals, 3 * 2 + 2 * (kIterations - 1));
  EXPECT_EQ(result.ops.candidates_pruned, 2 * 2 * (kIterations - 1));
}

TEST(BoundFilteredAssignment, ReseedAfterSkipsReadsExactDistances) {
  const AssignModeEnvGuard guard;
  unsetenv("SEGHDC_ASSIGN_MODE");
  // Two halves of the bits. A tight family plus one random outlier live
  // in the low half and settle into cluster 0 at once; the outlier is
  // the point farthest from its own centroid, but its chord to every
  // other centroid is sqrt(2), so the filter skips it. Two overlapping
  // families in the high half, seeded from one of them, keep clusters
  // 1.. moving until one empties at an iteration >= 1, and the reseed
  // must pick the skipped outlier from its exact distance.
  constexpr std::size_t kDim = 1024;
  constexpr std::size_t kHalf = kDim / 2;
  const auto random_in = [](std::size_t lo, std::size_t hi, util::Rng& rng) {
    hdc::HyperVector hv(kDim);
    for (std::size_t b = lo; b < hi; ++b) {
      hv.set(b, rng.next_below(2) == 1);
    }
    return hv;
  };
  const auto perturb = [](hdc::HyperVector hv, std::size_t flips,
                          std::size_t lo, std::size_t hi, util::Rng& rng) {
    for (std::size_t f = 0; f < flips; ++f) {
      hv.flip(lo + rng.next_below(hi - lo));
    }
    return hv;
  };
  std::size_t late_reseeds = 0;
  for (const std::uint64_t seed : {2u, 3u, 11u, 13u, 16u, 17u}) {
    for (const std::size_t flips : {64u, 100u, 128u}) {
      for (const std::size_t k : {4u, 5u}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " flips " +
                     std::to_string(flips) + " k " + std::to_string(k));
        util::Rng rng(seed);
        std::vector<hdc::HyperVector> points;
        const auto low = random_in(0, kHalf, rng);
        for (int i = 0; i < 8; ++i) {
          points.push_back(perturb(low, 16, 0, kHalf, rng));
        }
        points.push_back(random_in(0, kHalf, rng));  // the outlier
        const auto high_a = random_in(kHalf, kDim, rng);
        const auto high_b = random_in(kHalf, kDim, rng);
        for (int i = 0; i < 20; ++i) {
          points.push_back(perturb(high_a, flips, kHalf, kDim, rng));
          points.push_back(perturb(high_b, flips, kHalf, kDim, rng));
        }
        const auto block = hdc::HvBlock::from_hvs(points);
        std::vector<std::size_t> seeds{0};
        for (std::size_t c = 1; c < k; ++c) {
          seeds.push_back(9 + 2 * (c - 1));  // all from family high_a
        }
        HvKMeansConfig config{.clusters = k, .iterations = 10};
        const auto result =
            expect_bounded_matches_exhaustive(config, block, seeds, {});
        config.iterations = 1;
        config.assign_mode = AssignMode::kExhaustive;
        const auto first = HvKMeans(config).run(block, {}, seeds);
        if (result.reseeds > first.reseeds &&
            result.ops.candidates_pruned > 0) {
          ++late_reseeds;
        }
      }
    }
  }
  EXPECT_GT(late_reseeds, 0u)
      << "test data no longer reseeds after iteration 0 with skips";
}

// ---------------------------------------------------------------------
// SEGHDC_ASSIGN_MODE: config wins, env fills in for kAuto, malformed
// values are hard errors.

TEST(AssignModeEnv, ParsingAndPrecedence) {
  const AssignModeEnvGuard guard;
  // Tight families seeded one per family settle at once, so the bound
  // filter skips pairs from iteration 1 on: candidates_pruned > 0 shows
  // kAuto ran the filter, == 0 that the run scanned exhaustively.
  const auto points = make_families(2, 10, 256, 5, 37);
  const auto seeds = first_n_seeds(2);
  const auto filtered = [&](const HvKMeansConfig& config) {
    return HvKMeans(config).run(points, {}, seeds).ops.candidates_pruned > 0;
  };

  // Malformed values, the retired "pruned" mode included: constructing
  // the clusterer throws, it never falls back silently.
  for (const char* value : {"fastest", "pruned"}) {
    setenv("SEGHDC_ASSIGN_MODE", value, 1);
    try {
      const HvKMeans kmeans(HvKMeansConfig{.clusters = 2});
      ADD_FAILURE() << "SEGHDC_ASSIGN_MODE=" << value << " did not throw";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()),
                std::string("SEGHDC_ASSIGN_MODE must be one of "
                            "auto|exhaustive, got '") +
                    value + "'");
    }
  }

  // kAuto + env "exhaustive": the override takes effect.
  setenv("SEGHDC_ASSIGN_MODE", "exhaustive", 1);
  EXPECT_FALSE(filtered(HvKMeansConfig{.clusters = 2, .iterations = 3}));

  // env "auto" is accepted and leaves the filter in charge.
  setenv("SEGHDC_ASSIGN_MODE", "auto", 1);
  EXPECT_TRUE(filtered(HvKMeansConfig{.clusters = 2, .iterations = 3}));

  // No override: kAuto filters, and an explicit kExhaustive config does
  // not.
  unsetenv("SEGHDC_ASSIGN_MODE");
  EXPECT_TRUE(filtered(HvKMeansConfig{.clusters = 2, .iterations = 3}));
  EXPECT_FALSE(filtered(HvKMeansConfig{
      .clusters = 2, .iterations = 3,
      .assign_mode = AssignMode::kExhaustive}));
}

}  // namespace
