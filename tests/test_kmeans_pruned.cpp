// Tests for the candidate-pruned K-Means assignment, the bounded
// kernels underneath it, and the triangle-inequality bound filter that
// kAuto runs below the pruning threshold. The contract under test is
// strict: every skip is EXACT — labels, centroids, changed-counts,
// reseeds, and convergence must be bit-identical to the exhaustive
// argmin (ties broken by the lowest index) at every registered backend,
// pool size, and cluster count, and the PR-2 golden batch hash
// 13206585988845182882 and PR-6 golden stream hash 6522647722573592175
// must survive with pruning forced on. Anything weaker would make
// AssignMode a semantics knob.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/kmeans.hpp"
#include "src/core/session.hpp"
#include "src/hdc/hypervector.hpp"
#include "src/hdc/kernels.hpp"
#include "src/hdc/simd/backend.hpp"
#include "src/imaging/image.hpp"
#include "src/metrics/segmentation_metrics.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace seghdc;
using namespace seghdc::core;

constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

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
// Bounded-kernel property suite: every registered backend must honour
// the one-sided BoundedScan contract against a plain per-word reference,
// including non-multiple-of-64 dimensions (ragged vector tails) and
// bounds that land exactly on block boundaries.

std::size_t reference_hamming(std::span<const std::uint64_t> a,
                              std::span<const std::uint64_t> b) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < a.size(); ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return count;
}

std::size_t reference_and_popcount(std::span<const std::uint64_t> a,
                                   std::span<const std::uint64_t> b) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < a.size(); ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return count;
}

TEST(BoundedKernels, HammingBoundedHonoursContractOnEveryBackend) {
  util::Rng rng(17);
  for (const std::size_t dim : {64u, 100u, 192u, 1000u, 1041u}) {
    const auto a = hdc::HyperVector::random(dim, rng);
    const auto b = hdc::HyperVector::random(dim, rng);
    const auto aw = a.words();
    const auto bw = b.words();
    const std::size_t exact = reference_hamming(aw, bw);

    // Bound menu: degenerate, around the exact value, unbounded, and
    // every 8-word prefix count (a bound met exactly at a block edge is
    // the off-by-one habitat of early-exit kernels).
    std::vector<std::size_t> bounds{0, 1, exact, exact + 1, kUnbounded};
    if (exact > 0) {
      bounds.push_back(exact - 1);
    }
    std::size_t prefix = 0;
    for (std::size_t w = 0; w < aw.size(); ++w) {
      prefix += static_cast<std::size_t>(std::popcount(aw[w] ^ bw[w]));
      if ((w + 1) % 8 == 0) {
        bounds.push_back(prefix);
      }
    }

    for (const auto* backend : hdc::simd::registered_backends()) {
      if (!backend->available()) {
        continue;
      }
      for (const std::size_t bound : bounds) {
        SCOPED_TRACE(std::string(backend->name) + " dim " +
                     std::to_string(dim) + " bound " + std::to_string(bound));
        const auto scan = backend->hamming_bounded(aw, bw, bound);
        // The running count only ever grows toward the exact distance.
        EXPECT_LE(scan.value, exact);
        EXPECT_LE(scan.words_scanned, aw.size());
        if (scan.value < bound) {
          // Completed scan: the value is the exact distance.
          EXPECT_EQ(scan.value, exact);
          EXPECT_EQ(scan.words_scanned, aw.size());
        } else {
          // Aborted (or exactly-at-bound) scan: the true distance is
          // provably >= bound.
          EXPECT_GE(exact, bound);
        }
      }
    }
  }
}

TEST(BoundedKernels, AndPopcountCappedHonoursContractOnEveryBackend) {
  util::Rng rng(18);
  for (const std::size_t dim : {64u, 100u, 192u, 1000u, 1041u}) {
    const auto a = hdc::HyperVector::random(dim, rng);
    const auto b = hdc::HyperVector::random(dim, rng);
    const auto aw = a.words();
    const auto bw = b.words();
    const std::size_t exact = reference_and_popcount(aw, bw);

    std::vector<std::size_t> caps{0, 1, exact, exact + 1, 64 * aw.size(),
                                  kUnbounded};
    if (exact > 0) {
      caps.push_back(exact - 1);
    }

    for (const auto* backend : hdc::simd::registered_backends()) {
      if (!backend->available()) {
        continue;
      }
      for (const std::size_t cap : caps) {
        SCOPED_TRACE(std::string(backend->name) + " dim " +
                     std::to_string(dim) + " cap " + std::to_string(cap));
        const auto scan = backend->and_popcount_capped(aw, bw, cap);
        EXPECT_LE(scan.value, exact);
        EXPECT_LE(scan.words_scanned, aw.size());
        if (scan.value > cap) {
          // A count that overshot the cap must be the exact full count:
          // the abort condition proves final <= cap, so it can never
          // fire on a scan whose final count exceeds it.
          EXPECT_EQ(scan.value, exact);
          EXPECT_EQ(scan.words_scanned, aw.size());
        } else {
          // At-or-under-cap result (possibly aborted): the true count
          // is provably <= cap.
          EXPECT_LE(exact, cap);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Pruned == exhaustive, bit for bit.

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

TEST(PrunedAssignment, MatchesExhaustiveAcrossBackendsPoolsAndK) {
  const BackendSelectionGuard guard;
  // dim 1000 on purpose: a ragged last word keeps the bounded kernels'
  // scalar tails in play.
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
        EXPECT_FALSE(exhaustive.pruned_assignment);
        config.assign_mode = AssignMode::kPruned;
        for (const std::size_t threads : {1u, 2u, 4u}) {
          SCOPED_TRACE(std::string(backend->name) +
                       (distance == ClusterDistance::kCosine ? " cosine"
                                                             : " hamming") +
                       " k " + std::to_string(k) + " threads " +
                       std::to_string(threads));
          util::ThreadPool pool(threads);
          config.pool = &pool;
          const auto pruned = HvKMeans(config).run(points, {}, seeds);
          EXPECT_TRUE(pruned.pruned_assignment);
          expect_kmeans_results_identical(exhaustive, pruned);
        }
        config.pool = nullptr;
      }
    }
  }
}

TEST(PrunedAssignment, TieBreakAdversarialCoincidentCentroids) {
  const BackendSelectionGuard guard;
  // Seeds 0..2 are byte-identical points, so three centroids coincide
  // and EVERY point ties between clusters 0, 1, and 2 at the exact
  // minimum — the argmin is decided purely by the lowest-index rule the
  // pruned scan must reproduce. A zero HV (and a zero seed centroid)
  // rides along to pin the zero-norm cosine shortcut, and the starved
  // clusters exercise the reseed path under pruning.
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
      config.assign_mode = AssignMode::kPruned;
      for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(std::string(backend->name) + " distance " +
                     std::to_string(static_cast<int>(distance)) +
                     " threads " + std::to_string(threads));
        util::ThreadPool pool(threads);
        config.pool = &pool;
        const auto pruned = HvKMeans(config).run(points, {}, seeds);
        expect_kmeans_results_identical(exhaustive, pruned);
      }
      config.pool = nullptr;
    }
  }
}

// ---------------------------------------------------------------------
// OpCounts: every mode reports the work it measured. Exhaustive runs
// every kernel (on data without zero rows that is the closed-form
// n*k*dim); pruned mode obeys the conservation law, identically at every
// pool size.

TEST(PrunedAssignment, OpsAccountingExhaustiveAndPrunedConservation) {
  const auto points = make_points(40, 512, 31);
  const std::uint64_t n = points.size();
  constexpr std::uint64_t kDim = 512;
  constexpr std::uint64_t kWords = kDim / 64;
  for (const auto distance :
       {ClusterDistance::kCosine, ClusterDistance::kHamming}) {
    SCOPED_TRACE(distance == ClusterDistance::kCosine ? "cosine" : "hamming");
    HvKMeansConfig config{.clusters = 16,
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

    config.assign_mode = AssignMode::kPruned;
    const auto pruned = HvKMeans(config).run(points, {}, seeds);
    expect_kmeans_results_identical(exhaustive, pruned);
    EXPECT_EQ(pruned.iterations_run, iters);
    // Conservation: every (point, centroid) pair per iteration is
    // either evaluated or pruned, never both, never dropped.
    EXPECT_EQ(pruned.ops.distance_evals + pruned.ops.candidates_pruned,
              pairs);
    EXPECT_LE(pruned.ops.distance_evals, pairs);
    // Measured work never exceeds the exhaustive formulas.
    EXPECT_LE(pruned.ops.dot_adds, exhaustive.ops.dot_adds);
    EXPECT_GT(pruned.ops.words_scanned, 0u);
    if (distance == ClusterDistance::kHamming) {
      EXPECT_LE(pruned.ops.words_scanned, pairs * kWords);
    }

    // Pool-size invariance of the measured accounting (relaxed atomic
    // folds of commutative integer sums).
    for (const std::size_t threads : {2u, 4u}) {
      util::ThreadPool pool(threads);
      config.pool = &pool;
      const auto again = HvKMeans(config).run(points, {}, seeds);
      EXPECT_EQ(again.ops.distance_evals, pruned.ops.distance_evals)
          << "threads " << threads;
      EXPECT_EQ(again.ops.candidates_pruned, pruned.ops.candidates_pruned)
          << "threads " << threads;
      EXPECT_EQ(again.ops.dot_adds, pruned.ops.dot_adds)
          << "threads " << threads;
      EXPECT_EQ(again.ops.words_scanned, pruned.ops.words_scanned)
          << "threads " << threads;
    }
    config.pool = nullptr;
  }
}

// ---------------------------------------------------------------------
// Bound-filtered assignment: kAuto below prune_min_clusters puts exact
// triangle-inequality bounds in front of the exhaustive cosine scan. It
// must equal kExhaustive bit for bit, count only what it ran, report
// the same counts at every pool size and backend, and really skip.

void expect_ops_identical(const OpCounts& a, const OpCounts& b) {
  EXPECT_EQ(a.bind_xor_bits, b.bind_xor_bits);
  EXPECT_EQ(a.popcount_bits, b.popcount_bits);
  EXPECT_EQ(a.dot_adds, b.dot_adds);
  EXPECT_EQ(a.centroid_update_adds, b.centroid_update_adds);
  EXPECT_EQ(a.distance_evals, b.distance_evals);
  EXPECT_EQ(a.candidates_pruned, b.candidates_pruned);
  EXPECT_EQ(a.words_scanned, b.words_scanned);
}

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

/// kAuto (the bound filter at these K) against kExhaustive at pools
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
    EXPECT_FALSE(result.pruned_assignment);
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
  for (const std::size_t k : {2u, 3u, 5u, 7u}) {
    // Moving: overlapping families (a third of the bits flipped) seeded
    // from one family, so points keep moving for several iterations.
    // Converging: tight families seeded one per family, settled early.
    for (const bool moving : {true, false}) {
      const auto points =
          make_families(k, 24, kDim, moving ? kDim / 3 : kDim / 50, 40 + k);
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
// Golden hashes with pruning forced through the session config: the
// golden recipes run at clusters=2, far below the auto threshold, so
// kPruned is the only way these runs take the pruned path — and they
// must land on the exact same label maps as every prior PR.

img::ImageU8 make_gray_card(std::size_t size, std::uint8_t bg,
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

img::ImageU8 make_rgb_card(std::size_t width, std::size_t height) {
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

img::ImageU8 scene_background(std::size_t width, std::size_t height) {
  img::ImageU8 image(width, height, 1, 200);
  for (std::size_t y = height / 4; y < 3 * height / 4; ++y) {
    for (std::size_t x = width / 4; x < 3 * width / 4; ++x) {
      image(x, y) = 60;
    }
  }
  for (std::size_t x = 0; x < width; ++x) {
    image(x, 0) = static_cast<std::uint8_t>((x * 199) % 256);
  }
  return image;
}

img::ImageU8 scene_with_square(std::size_t width, std::size_t height,
                               std::size_t x0, std::size_t y0) {
  img::ImageU8 image = scene_background(width, height);
  for (std::size_t y = y0; y < std::min(height, y0 + 5); ++y) {
    for (std::size_t x = x0; x < std::min(width, x0 + 5); ++x) {
      image(x, y) = 90;
    }
  }
  return image;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kGoldenBatchHash = 13206585988845182882ULL;
constexpr std::uint64_t kGoldenStreamHash = 6522647722573592175ULL;

core::SegHdcConfig golden_config() {
  core::SegHdcConfig config;  // fixed seed on purpose (not env-driven)
  config.dim = 512;
  config.beta = 4;
  config.iterations = 4;
  config.seed = 42;
  return config;
}

TEST(PrunedAssignment, GoldenBatchHashUnchangedWithPruningForced) {
  std::vector<img::ImageU8> images;
  images.push_back(make_gray_card(32, 30, 200));
  images.push_back(make_rgb_card(36, 28));
  images.push_back(make_gray_card(24, 20, 235));

  auto config = golden_config();
  config.assign_mode = core::AssignMode::kPruned;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool pool(threads);
    const core::SegHdcSession session(config,
                                      core::SegHdcSession::Options{&pool});
    const auto results = session.segment_many(images);
    std::uint64_t hash = kFnvOffset;
    for (const auto& result : results) {
      hash = metrics::label_map_hash(result.labels, hash);
    }
    EXPECT_EQ(hash, kGoldenBatchHash)
        << "pruned assignment drifted the golden batch (threads=" << threads
        << ")";
  }
}

TEST(PrunedAssignment, GoldenStreamHashUnchangedWithPruningForced) {
  auto config = golden_config();
  config.assign_mode = core::AssignMode::kPruned;
  const core::SegHdcSession session(config);
  core::SegHdcSession::Stream stream;
  std::vector<img::ImageU8> frames;
  frames.push_back(scene_background(32, 30));
  frames.push_back(scene_with_square(32, 30, 8, 20));
  frames.push_back(scene_with_square(32, 30, 9, 20));
  frames.push_back(scene_with_square(32, 30, 9, 20));  // replay
  frames.push_back(scene_background(32, 30));
  std::uint64_t hash = kFnvOffset;
  for (const auto& frame : frames) {
    const auto warm = session.segment_stream(frame, stream);
    hash = metrics::label_map_hash(warm.result.labels, hash);
  }
  EXPECT_EQ(hash, kGoldenStreamHash)
      << "pruned assignment drifted the golden stream";
}

// ---------------------------------------------------------------------
// SEGHDC_ASSIGN_MODE: config wins, env fills in for kAuto, malformed
// values are hard errors.

TEST(AssignModeEnv, ParsingAndPrecedence) {
  const AssignModeEnvGuard guard;
  const auto points = make_points(10, 256, 37);
  const auto seeds = first_n_seeds(2);

  // Malformed value: constructing the clusterer throws, it never falls
  // back silently.
  setenv("SEGHDC_ASSIGN_MODE", "fastest", 1);
  EXPECT_THROW(HvKMeans(HvKMeansConfig{.clusters = 2}),
               std::invalid_argument);

  // kAuto + env "pruned": k=2 is far below the auto threshold, so the
  // pruned path running proves the env override took effect.
  setenv("SEGHDC_ASSIGN_MODE", "pruned", 1);
  {
    const HvKMeans kmeans(HvKMeansConfig{.clusters = 2, .iterations = 3});
    EXPECT_TRUE(kmeans.run(points, {}, seeds).pruned_assignment);
  }

  // Explicit config beats the environment.
  {
    const HvKMeans kmeans(HvKMeansConfig{
        .clusters = 2, .iterations = 3,
        .assign_mode = AssignMode::kExhaustive});
    EXPECT_FALSE(kmeans.run(points, {}, seeds).pruned_assignment);
  }

  // env "auto" is accepted and leaves the threshold rule in charge.
  setenv("SEGHDC_ASSIGN_MODE", "auto", 1);
  {
    const HvKMeans kmeans(HvKMeansConfig{.clusters = 2, .iterations = 3});
    EXPECT_FALSE(kmeans.run(points, {}, seeds).pruned_assignment);
  }

  // No override: kAuto prunes exactly from prune_min_clusters up.
  unsetenv("SEGHDC_ASSIGN_MODE");
  {
    const HvKMeans kmeans(HvKMeansConfig{
        .clusters = 2, .iterations = 3, .prune_min_clusters = 2});
    EXPECT_TRUE(kmeans.run(points, {}, seeds).pruned_assignment);
  }
  {
    const HvKMeans kmeans(HvKMeansConfig{
        .clusters = 2, .iterations = 3, .prune_min_clusters = 3});
    EXPECT_FALSE(kmeans.run(points, {}, seeds).pruned_assignment);
  }
}

}  // namespace
