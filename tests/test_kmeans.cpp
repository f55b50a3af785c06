// Tests for the hypervector K-Means clusterer (paper Section III-④).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/kmeans.hpp"
#include "src/hdc/accumulator.hpp"
#include "src/hdc/hypervector.hpp"
#include "src/hdc/kernels.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace seghdc;
using namespace seghdc::core;

/// Two well-separated families of HVs: perturbations (few flips) of two
/// random anchors.
struct TwoClusterData {
  std::vector<hdc::HyperVector> points;
  std::vector<std::size_t> truth;  ///< 0 or 1 per point
};

TwoClusterData make_two_clusters(std::size_t per_cluster, std::size_t dim,
                                 std::uint64_t seed,
                                 std::size_t flip_divisor = 50) {
  util::Rng rng(seed);
  TwoClusterData data;
  const auto anchor_a = hdc::HyperVector::random(dim, rng);
  const auto anchor_b = hdc::HyperVector::random(dim, rng);
  for (std::size_t i = 0; i < per_cluster; ++i) {
    auto a = anchor_a;
    auto b = anchor_b;
    // Perturb ~1/flip_divisor of the bits (~2% by default).
    for (std::size_t f = 0; f < dim / flip_divisor; ++f) {
      a.flip(rng.next_below(dim));
      b.flip(rng.next_below(dim));
    }
    data.points.push_back(a);
    data.truth.push_back(0);
    data.points.push_back(b);
    data.truth.push_back(1);
  }
  return data;
}

/// Fraction of points whose assignment agrees with the ground truth
/// under the better of the two label polarities.
double clustering_accuracy(const std::vector<std::uint32_t>& assignment,
                           const std::vector<std::size_t>& truth) {
  std::size_t agree = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    agree += assignment[i] == truth[i] ? 1 : 0;
  }
  const double direct =
      static_cast<double>(agree) / static_cast<double>(truth.size());
  return std::max(direct, 1.0 - direct);
}

TEST(HvKMeans, SeparatesTwoClusters) {
  const auto data = make_two_clusters(40, 2048, 1);
  const HvKMeans kmeans(HvKMeansConfig{.clusters = 2, .iterations = 10});
  const std::vector<std::size_t> seeds{0, 1};  // one from each family
  const auto result = kmeans.run(data.points, {}, seeds);
  EXPECT_GE(clustering_accuracy(result.assignment, data.truth), 0.99);
  EXPECT_EQ(result.iterations_run, 10u);
}

TEST(HvKMeans, HammingDistanceVariantAlsoSeparates) {
  const auto data = make_two_clusters(40, 2048, 2);
  const HvKMeans kmeans(HvKMeansConfig{
      .clusters = 2, .iterations = 10,
      .distance = ClusterDistance::kHamming});
  const std::vector<std::size_t> seeds{0, 1};
  const auto result = kmeans.run(data.points, {}, seeds);
  EXPECT_GE(clustering_accuracy(result.assignment, data.truth), 0.99);
}

TEST(HvKMeans, WeightedDedupEquivalentToExpandedPoints) {
  // The engineering claim behind the pipeline's dedup: clustering unique
  // points with multiplicities == clustering the expanded multiset.
  util::Rng rng(3);
  std::vector<hdc::HyperVector> unique_points;
  std::vector<std::uint32_t> weights{5, 3, 7, 2, 4, 6};
  for (std::size_t i = 0; i < weights.size(); ++i) {
    unique_points.push_back(hdc::HyperVector::random(512, rng));
  }
  std::vector<hdc::HyperVector> expanded;
  std::vector<std::size_t> expanded_of_unique;
  for (std::size_t u = 0; u < unique_points.size(); ++u) {
    for (std::uint32_t w = 0; w < weights[u]; ++w) {
      expanded.push_back(unique_points[u]);
      expanded_of_unique.push_back(u);
    }
  }

  const HvKMeans kmeans(HvKMeansConfig{.clusters = 2, .iterations = 6});
  const std::vector<std::size_t> unique_seeds{0, 2};
  // Seed the expanded run with copies of the same two uniques.
  std::vector<std::size_t> expanded_seeds;
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    if ((expanded_of_unique[i] == 0 || expanded_of_unique[i] == 2) &&
        (expanded_seeds.empty() ||
         expanded_of_unique[expanded_seeds.back()] !=
             expanded_of_unique[i])) {
      expanded_seeds.push_back(i);
    }
  }
  ASSERT_EQ(expanded_seeds.size(), 2u);

  const auto dedup_result = kmeans.run(unique_points, weights, unique_seeds);
  const auto full_result = kmeans.run(expanded, {}, expanded_seeds);

  for (std::size_t i = 0; i < expanded.size(); ++i) {
    EXPECT_EQ(full_result.assignment[i],
              dedup_result.assignment[expanded_of_unique[i]])
        << "expanded point " << i;
  }
}

TEST(HvKMeans, ClusterWeightsSumToTotal) {
  const auto data = make_two_clusters(10, 256, 4);
  std::vector<std::uint32_t> weights(data.points.size(), 3);
  const HvKMeans kmeans(HvKMeansConfig{.clusters = 2, .iterations = 3});
  const auto result = kmeans.run(data.points, weights,
                                 std::vector<std::size_t>{0, 1});
  EXPECT_EQ(result.cluster_weights[0] + result.cluster_weights[1],
            3 * data.points.size());
}

TEST(HvKMeans, EmptyClusterGetsReseeded) {
  // Three seeds but only two genuine families: one cluster will go
  // empty and must be repaired rather than staying dead.
  const auto data = make_two_clusters(20, 1024, 5);
  const HvKMeans kmeans(HvKMeansConfig{.clusters = 3, .iterations = 8});
  const auto result = kmeans.run(data.points, {},
                                 std::vector<std::size_t>{0, 1, 2});
  std::size_t nonempty = 0;
  for (const auto w : result.cluster_weights) {
    nonempty += w > 0 ? 1 : 0;
  }
  EXPECT_EQ(nonempty, 3u);
}

TEST(HvKMeans, DeterministicAcrossRuns) {
  const auto data = make_two_clusters(15, 512, 6);
  const HvKMeans kmeans(HvKMeansConfig{.clusters = 2, .iterations = 5});
  const auto a = kmeans.run(data.points, {}, std::vector<std::size_t>{0, 1});
  const auto b = kmeans.run(data.points, {}, std::vector<std::size_t>{0, 1});
  EXPECT_EQ(a.assignment, b.assignment);
}

// --- Parallel difference update (persistent per-chunk banks). ---

/// Full-result comparison: everything a caller can observe must match.
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

/// Centroids and cluster weights must equal a from-scratch sequential
/// re-accumulation of `result.assignment`: the persistent banks of the
/// difference update may never drift from the plain re-sum.
void expect_centroids_match_resum(const HvKMeansResult& result,
                                  const std::vector<hdc::HyperVector>& points,
                                  std::span<const std::uint32_t> weights) {
  const std::size_t k = result.centroids.size();
  std::vector<hdc::Accumulator> reference(k,
                                          hdc::Accumulator(points[0].dim()));
  std::vector<std::uint64_t> reference_weights(k, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint32_t w = weights.empty() ? 1 : weights[i];
    reference[result.assignment[i]].add(points[i], w);
    reference_weights[result.assignment[i]] += w;
  }
  EXPECT_EQ(result.cluster_weights, reference_weights);
  for (std::size_t c = 0; c < k; ++c) {
    EXPECT_TRUE(std::ranges::equal(result.centroids[c].counts(),
                                   reference[c].counts()))
        << "centroid " << c;
    EXPECT_EQ(result.centroids[c].total_weight(),
              reference[c].total_weight());
    EXPECT_EQ(result.centroids[c].norm(), reference[c].norm());
  }
}

/// Heavily overlapping families (a third of the bits flipped) seeded
/// from two members of the SAME family: iteration 0 splits the data
/// badly and later iterations keep moving points, so the difference
/// update really subtracts.
TwoClusterData make_moving_data() { return make_two_clusters(40, 1000, 11, 3); }
const std::vector<std::size_t> kMovingSeeds{0, 2};

/// Points whose assignment changed in iterations 1..iterations-1 of a
/// run: the update step's moves after iteration 0, read off the
/// assignments of runs with 1..iterations iterations (each run is a
/// prefix of the next). Valid for runs without reseeds.
std::uint64_t moves_after_first_iteration(
    HvKMeansConfig config, const std::vector<hdc::HyperVector>& points,
    std::span<const std::uint32_t> weights,
    std::span<const std::size_t> seeds) {
  const std::size_t iterations = config.iterations;
  std::uint64_t moved = 0;
  std::vector<std::uint32_t> previous;
  for (std::size_t t = 1; t <= iterations; ++t) {
    config.iterations = t;
    auto assignment = HvKMeans(config).run(points, weights, seeds).assignment;
    for (std::size_t i = 0; i < previous.size(); ++i) {
      moved += previous[i] != assignment[i] ? 1 : 0;
    }
    previous = std::move(assignment);
  }
  return moved;
}

TEST(HvKMeans, ParallelUpdateMatchesSequentialReference) {
  // The difference update (persistent per-chunk banks, moved points
  // subtracted and re-added, merged in chunk order) must leave exactly
  // the centroids a sequential re-accumulation of the final assignment
  // produces, on data that moves points after iteration 0 and at every
  // pool size. Weighted points included so the banks exercise weight
  // handling in both directions.
  const auto data = make_moving_data();
  std::vector<std::uint32_t> weights(data.points.size(), 1);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1 + static_cast<std::uint32_t>(i % 5);
  }
  HvKMeansConfig config{.clusters = 2, .iterations = 6};
  ASSERT_GT(moves_after_first_iteration(config, data.points, weights,
                                        kMovingSeeds),
            0u)
      << "test data no longer moves points after iteration 0";
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    config.pool = &pool;
    const auto result =
        HvKMeans(config).run(data.points, weights, kMovingSeeds);
    ASSERT_EQ(result.reseeds, 0u)
        << "reference recomputation assumes no reseed patch";
    expect_centroids_match_resum(result, data.points, weights);
  }
}

/// Seven heavily overlapping families (a third of the bits flipped) with
/// weights 1-1000, seeded from members of only four of them: points
/// keep moving for several iterations, in and out of every cluster.
struct SevenClusterData {
  std::vector<hdc::HyperVector> points;
  std::vector<std::uint32_t> weights;
  std::vector<std::size_t> seeds;
};

SevenClusterData make_seven_moving_clusters() {
  util::Rng rng(71);
  constexpr std::size_t kFamilies = 7;
  constexpr std::size_t kPerFamily = 30;
  constexpr std::size_t kDim = 700;
  std::vector<hdc::HyperVector> anchors;
  for (std::size_t f = 0; f < kFamilies; ++f) {
    anchors.push_back(hdc::HyperVector::random(kDim, rng));
  }
  SevenClusterData data;
  for (std::size_t i = 0; i < kFamilies * kPerFamily; ++i) {
    auto point = anchors[i % kFamilies];
    for (std::size_t f = 0; f < kDim / 3; ++f) {
      point.flip(rng.next_below(kDim));
    }
    data.points.push_back(std::move(point));
    data.weights.push_back(1 + static_cast<std::uint32_t>(rng() % 1000));
  }
  // Points i and i + 7 share a family: seeds 0, 7, 14 are one family.
  data.seeds = {0, 7, 14, 1, 8, 2, 3};
  return data;
}

TEST(HvKMeans, StagedUpdateEqualsResumAfterEveryIteration) {
  // The bit-sliced update (moved-in rows staged, then moved-out rows,
  // one exact delta per cluster per chunk) must leave exactly the
  // centroids of a sequential re-sum of the assignment after every
  // iteration count, at every pool size and serial.
  const auto data = make_seven_moving_clusters();
  constexpr std::size_t kIterations = 6;
  HvKMeansConfig config{.clusters = 7, .iterations = kIterations};
  const std::uint64_t moved = moves_after_first_iteration(
      config, data.points, data.weights, data.seeds);
  ASSERT_GT(moved, 20u) << "test data no longer keeps points moving";
  for (const std::size_t threads : {1u, 2u, 8u, 0u}) {
    SCOPED_TRACE(threads == 0 ? std::string("SerialScope")
                              : "threads " + std::to_string(threads));
    util::ThreadPool pool(threads == 0 ? 4 : threads);
    std::optional<util::SerialScope> serial;
    if (threads == 0) {
      serial.emplace();
    }
    config.pool = &pool;
    for (std::size_t t = 1; t <= kIterations; ++t) {
      SCOPED_TRACE("iterations " + std::to_string(t));
      config.iterations = t;
      const auto result =
          HvKMeans(config).run(data.points, data.weights, data.seeds);
      ASSERT_EQ(result.reseeds, 0u)
          << "reference recomputation assumes no reseed patch";
      expect_centroids_match_resum(result, data.points, data.weights);
    }
  }
}

TEST(HvKMeans, NormsExactWithWeightsNear2To31) {
  // Cluster masses near 2^33 push single counts past 2^32 and the sum
  // of squares far past 2^63: every centroid norm must still be the
  // exact 128-bit sum of squares rounded once, and the bound filter
  // (whose drifts then fall back to the trivial bound) must keep the
  // exhaustive labels.
  const auto data = make_two_clusters(6, 640, 17, 4);
  std::vector<std::uint32_t> weights(data.points.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = i % 3 == 0 ? (1u << 31) - static_cast<std::uint32_t>(i)
                            : 1 + static_cast<std::uint32_t>(i);
  }
  const std::vector<std::size_t> seeds{0, 1};
  HvKMeansConfig config{.clusters = 2, .iterations = 5};
  config.assign_mode = AssignMode::kAuto;
  const auto bounded = HvKMeans(config).run(data.points, weights, seeds);
  config.assign_mode = AssignMode::kExhaustive;
  const auto exhaustive = HvKMeans(config).run(data.points, weights, seeds);
  EXPECT_EQ(bounded.assignment, exhaustive.assignment);
  __extension__ using Int128 = __int128;
  Int128 largest = 0;
  for (const auto& centroid : bounded.centroids) {
    Int128 sum_squares = 0;
    for (const std::int64_t count : centroid.counts()) {
      sum_squares += static_cast<Int128>(count) * count;
    }
    largest = std::max(largest, sum_squares);
    EXPECT_EQ(centroid.norm(), std::sqrt(static_cast<double>(sum_squares)));
  }
  EXPECT_GT(largest, static_cast<Int128>(1) << 64)
      << "test data no longer overflows a 64-bit sum of squares";
  expect_centroids_match_resum(bounded, data.points, weights);
}

TEST(HvKMeans, DeterministicAcrossThreadCounts) {
  const auto data = make_two_clusters(30, 768, 12);
  std::vector<std::uint32_t> weights(data.points.size(), 1);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1 + static_cast<std::uint32_t>((i * 7) % 4);
  }
  HvKMeansConfig config{.clusters = 2, .iterations = 5};
  util::ThreadPool reference_pool(1);
  config.pool = &reference_pool;
  const auto reference = HvKMeans(config).run(
      data.points, weights, std::vector<std::size_t>{0, 1});
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    config.pool = &pool;
    const auto result = HvKMeans(config).run(
        data.points, weights, std::vector<std::size_t>{0, 1});
    expect_kmeans_results_identical(reference, result);
  }
}

TEST(HvKMeans, ReseedPathDeterministicAcrossThreadCounts) {
  // Seed 2 duplicates seed 0's point, so every point ties between
  // centroids 0 and 2, the tie-break (lowest index) starves cluster 2,
  // and the empty-cluster repair must fire. The reseed choice (farthest
  // point, lowest index) and the patched centroids must not depend on
  // the thread count.
  auto data = make_two_clusters(20, 1024, 5);
  data.points[2] = data.points[0];
  HvKMeansConfig config{.clusters = 3, .iterations = 8};
  util::ThreadPool reference_pool(1);
  config.pool = &reference_pool;
  const auto reference = HvKMeans(config).run(
      data.points, {}, std::vector<std::size_t>{0, 1, 2});
  EXPECT_GT(reference.reseeds, 0u)
      << "test data no longer exercises the reseed path";
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    config.pool = &pool;
    const auto result = HvKMeans(config).run(
        data.points, {}, std::vector<std::size_t>{0, 1, 2});
    expect_kmeans_results_identical(reference, result);
  }
}

TEST(HvKMeans, CentroidsOneIterationAfterReseedEqualResum) {
  // The reseed patches only the destination centroid, leaving the
  // source overcounted until the next update. One iteration later the
  // merged banks must have overwritten the patch with the exact sums.
  auto data = make_two_clusters(20, 1024, 5);
  data.points[2] = data.points[0];
  const std::vector<std::size_t> seeds{0, 1, 2};
  // Find the first iteration that reseeds, then run one iteration more.
  HvKMeansConfig config{.clusters = 3, .iterations = 1};
  std::size_t reseeds = HvKMeans(config).run(data.points, {}, seeds).reseeds;
  while (reseeds == 0) {
    ASSERT_LT(++config.iterations, 8u)
        << "test data no longer exercises the reseed path";
    reseeds = HvKMeans(config).run(data.points, {}, seeds).reseeds;
  }
  ++config.iterations;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    config.pool = &pool;
    const auto result = HvKMeans(config).run(data.points, {}, seeds);
    ASSERT_EQ(result.reseeds, reseeds)
        << "the iteration after the reseed must not reseed again";
    expect_centroids_match_resum(result, data.points, {});
  }
}

TEST(HvKMeans, ExplicitPoolMatchesSharedPool) {
  const auto data = make_two_clusters(15, 512, 13);
  const HvKMeans shared_pool_kmeans(
      HvKMeansConfig{.clusters = 2, .iterations = 5});
  const auto expected = shared_pool_kmeans.run(
      data.points, {}, std::vector<std::size_t>{0, 1});
  util::ThreadPool pool(4);
  HvKMeansConfig config{.clusters = 2, .iterations = 5};
  config.pool = &pool;
  const auto actual = HvKMeans(config).run(data.points, {},
                                           std::vector<std::size_t>{0, 1});
  expect_kmeans_results_identical(expected, actual);
}

TEST(HvKMeans, OpsAccounting) {
  const auto data = make_moving_data();
  const std::uint64_t n = data.points.size();
  const std::uint64_t dim = data.points[0].dim();
  constexpr std::uint64_t kIterations = 5;
  // Pins the exhaustive-mode counts, so force that mode explicitly — an
  // SEGHDC_ASSIGN_MODE=pruned environment (the CI matrix sets it) or the
  // default bound filter would skip pairs, which test_kmeans_pruned
  // pins separately. This data has no zero rows, so every pair runs its
  // dot kernel.
  HvKMeansConfig config{.clusters = 2,
                        .iterations = kIterations,
                        .assign_mode = AssignMode::kExhaustive};
  // The update adds every point once at iteration 0, then subtracts and
  // re-adds each point that moves: n*dim + 2*dim per later move.
  const std::uint64_t moved =
      moves_after_first_iteration(config, data.points, {}, kMovingSeeds);
  ASSERT_GT(moved, 0u) << "test data no longer moves points after "
                          "iteration 0";
  std::vector<OpCounts> ops;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    config.pool = &pool;
    const auto result = HvKMeans(config).run(data.points, {}, kMovingSeeds);
    ASSERT_EQ(result.reseeds, 0u) << "move count assumes no reseed";
    EXPECT_EQ(result.ops.dot_adds, n * 2 * dim * kIterations);
    EXPECT_EQ(result.ops.centroid_update_adds, n * dim + 2 * dim * moved);
    EXPECT_EQ(result.ops.distance_evals, n * 2 * kIterations);
    ops.push_back(result.ops);
  }
  // Pool-invariant: the counts depend on the assignment history alone.
  for (std::size_t p = 1; p < ops.size(); ++p) {
    EXPECT_EQ(ops[p].bind_xor_bits, ops[0].bind_xor_bits);
    EXPECT_EQ(ops[p].popcount_bits, ops[0].popcount_bits);
    EXPECT_EQ(ops[p].dot_adds, ops[0].dot_adds);
    EXPECT_EQ(ops[p].centroid_update_adds, ops[0].centroid_update_adds);
    EXPECT_EQ(ops[p].distance_evals, ops[0].distance_evals);
    EXPECT_EQ(ops[p].candidates_pruned, ops[0].candidates_pruned);
    EXPECT_EQ(ops[p].words_scanned, ops[0].words_scanned);
  }
}

TEST(HvKMeans, ExhaustiveOpsCountOnlyKernelsThatRan) {
  // An all-zero row answers every cosine pair with the 1.0 shortcut and
  // runs no dot: it is a distance evaluation without dot adds or words.
  auto data = make_moving_data();
  data.points[5] = hdc::HyperVector(data.points[0].dim());
  const std::uint64_t n = data.points.size();
  const std::uint64_t dim = data.points[0].dim();
  constexpr std::uint64_t kIterations = 5;
  const HvKMeansConfig config{.clusters = 2,
                              .iterations = kIterations,
                              .assign_mode = AssignMode::kExhaustive};
  const auto result = HvKMeans(config).run(data.points, {}, kMovingSeeds);
  ASSERT_EQ(result.iterations_run, kIterations);
  EXPECT_EQ(result.ops.dot_adds, (n - 1) * 2 * dim * kIterations);
  EXPECT_EQ(result.ops.distance_evals, n * 2 * kIterations);
  EXPECT_EQ(result.ops.candidates_pruned, 0u);
}

TEST(HvKMeans, ValidatesArguments) {
  EXPECT_THROW(HvKMeans(HvKMeansConfig{.clusters = 1}),
               std::invalid_argument);
  EXPECT_THROW(HvKMeans(HvKMeansConfig{.clusters = 2, .iterations = 0}),
               std::invalid_argument);

  const HvKMeans kmeans(HvKMeansConfig{.clusters = 2, .iterations = 1});
  util::Rng rng(8);
  std::vector<hdc::HyperVector> one{hdc::HyperVector::random(64, rng)};
  EXPECT_THROW(kmeans.run(one, {}, std::vector<std::size_t>{0, 0}),
               std::invalid_argument);

  std::vector<hdc::HyperVector> two{hdc::HyperVector::random(64, rng),
                                    hdc::HyperVector::random(64, rng)};
  EXPECT_THROW(kmeans.run(two, {}, std::vector<std::size_t>{0}),
               std::invalid_argument);
  EXPECT_THROW(kmeans.run(two, {}, std::vector<std::size_t>{0, 5}),
               std::invalid_argument);
  const std::vector<std::uint32_t> bad_weights{1};
  EXPECT_THROW(kmeans.run(two, bad_weights, std::vector<std::size_t>{0, 1}),
               std::invalid_argument);
}

TEST(LargestColorDifferenceSeeds, PicksMinAndMaxFirst) {
  const std::vector<std::uint8_t> intensities{50, 10, 200, 120, 10, 200};
  const auto seeds = largest_color_difference_seeds(intensities, 2);
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(intensities[seeds[0]], 200);  // max first
  EXPECT_EQ(intensities[seeds[1]], 10);   // then min
  EXPECT_EQ(seeds[0], 2u);  // first occurrence wins ties
  EXPECT_EQ(seeds[1], 1u);
}

TEST(LargestColorDifferenceSeeds, ThirdSeedMaximizesMinGap) {
  const std::vector<std::uint8_t> intensities{0, 255, 128, 100, 20};
  const auto seeds = largest_color_difference_seeds(intensities, 3);
  ASSERT_EQ(seeds.size(), 3u);
  // 128 has min-gap 127 to {0, 255}; all others are closer to one end.
  EXPECT_EQ(intensities[seeds[2]], 128);
}

TEST(LargestColorDifferenceSeeds, FlatImageFallsBackToDistinctIndices) {
  const std::vector<std::uint8_t> intensities(10, 42);
  const auto seeds = largest_color_difference_seeds(intensities, 3);
  ASSERT_EQ(seeds.size(), 3u);
  EXPECT_NE(seeds[0], seeds[1]);
  EXPECT_NE(seeds[1], seeds[2]);
  EXPECT_NE(seeds[0], seeds[2]);
}

TEST(LargestColorDifferenceSeeds, SeedsAreDistinct) {
  const std::vector<std::uint8_t> intensities{5, 9, 9, 9, 250};
  const auto seeds = largest_color_difference_seeds(intensities, 4);
  for (std::size_t a = 0; a < seeds.size(); ++a) {
    for (std::size_t b = a + 1; b < seeds.size(); ++b) {
      EXPECT_NE(seeds[a], seeds[b]);
    }
  }
}

TEST(LargestColorDifferenceSeeds, ValidatesArguments) {
  const std::vector<std::uint8_t> two{1, 2};
  EXPECT_THROW(largest_color_difference_seeds(two, 1),
               std::invalid_argument);
  EXPECT_THROW(largest_color_difference_seeds(two, 3),
               std::invalid_argument);
}

}  // namespace
