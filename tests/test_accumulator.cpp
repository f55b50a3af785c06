// Tests for the integer accumulator (HDC bundling / K-Means centroids).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/hdc/accumulator.hpp"
#include "src/util/rng.hpp"

namespace {

using seghdc::hdc::Accumulator;
using seghdc::hdc::HyperVector;
using seghdc::hdc::StagedSum;
using seghdc::util::Rng;

TEST(Accumulator, StartsEmpty) {
  const Accumulator acc(64);
  EXPECT_EQ(acc.dim(), 64u);
  EXPECT_EQ(acc.total_weight(), 0u);
  EXPECT_DOUBLE_EQ(acc.norm(), 0.0);
}

TEST(Accumulator, AddCountsSetBits) {
  Accumulator acc(8);
  HyperVector hv(8);
  hv.set(1, true);
  hv.set(5, true);
  acc.add(hv);
  EXPECT_EQ(acc.at(1), 1);
  EXPECT_EQ(acc.at(5), 1);
  EXPECT_EQ(acc.at(0), 0);
  EXPECT_EQ(acc.total_weight(), 1u);
  acc.add(hv, 3);
  EXPECT_EQ(acc.at(1), 4);
  EXPECT_EQ(acc.total_weight(), 4u);
}

TEST(Accumulator, WeightedAddEqualsRepeatedAdds) {
  Rng rng(1);
  const auto a = HyperVector::random(256, rng);
  const auto b = HyperVector::random(256, rng);

  Accumulator weighted(256);
  weighted.add(a, 5);
  weighted.add(b, 2);

  Accumulator repeated(256);
  for (int i = 0; i < 5; ++i) {
    repeated.add(a);
  }
  for (int i = 0; i < 2; ++i) {
    repeated.add(b);
  }

  EXPECT_EQ(weighted.total_weight(), repeated.total_weight());
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(weighted.at(i), repeated.at(i)) << "component " << i;
  }
  EXPECT_DOUBLE_EQ(weighted.norm(), repeated.norm());
}

TEST(Accumulator, DotMatchesManualSum) {
  Rng rng(2);
  Accumulator acc(128);
  for (int i = 0; i < 7; ++i) {
    acc.add(HyperVector::random(128, rng));
  }
  const auto probe = HyperVector::random(128, rng);
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < 128; ++i) {
    if (probe.get(i)) {
      expected += acc.at(i);
    }
  }
  EXPECT_EQ(acc.dot(probe), expected);
}

TEST(Accumulator, IncrementalNormMatchesRecomputed) {
  Rng rng(3);
  Accumulator acc(200);
  for (int i = 0; i < 10; ++i) {
    acc.add(HyperVector::random(200, rng),
            static_cast<std::uint32_t>(1 + i % 3));
  }
  double sum_squares = 0.0;
  for (std::size_t i = 0; i < 200; ++i) {
    sum_squares += static_cast<double>(acc.at(i)) * acc.at(i);
  }
  EXPECT_NEAR(acc.norm(), std::sqrt(sum_squares), 1e-9);
}

TEST(Accumulator, CosineDistanceOfMemberIsSmall) {
  Rng rng(4);
  const auto member = HyperVector::random(2000, rng);
  Accumulator acc(2000);
  acc.add(member, 10);
  // A pure multiple of the member points in the same direction.
  EXPECT_NEAR(acc.cosine_distance(member), 0.0, 1e-9);
}

TEST(Accumulator, CosineDistanceOfRandomIsNearHalfMass) {
  // A random binary HV against a sum of many random HVs: expectation of
  // the cosine is sqrt(density) with density 0.5 -> distance ~0.29.
  Rng rng(5);
  Accumulator acc(4000);
  for (int i = 0; i < 50; ++i) {
    acc.add(HyperVector::random(4000, rng));
  }
  const auto probe = HyperVector::random(4000, rng);
  const double distance = acc.cosine_distance(probe);
  EXPECT_GT(distance, 0.2);
  EXPECT_LT(distance, 0.4);
}

TEST(Accumulator, CosineDistanceEmptyIsOne) {
  const Accumulator acc(64);
  HyperVector probe(64);
  probe.set(1, true);
  EXPECT_DOUBLE_EQ(acc.cosine_distance(probe), 1.0);

  Accumulator nonempty(64);
  nonempty.add(probe);
  const HyperVector zero(64);
  EXPECT_DOUBLE_EQ(nonempty.cosine_distance(zero), 1.0);
}

TEST(Accumulator, ClearResetsEverything) {
  Rng rng(6);
  Accumulator acc(100);
  acc.add(HyperVector::random(100, rng), 4);
  acc.clear();
  EXPECT_EQ(acc.total_weight(), 0u);
  EXPECT_DOUBLE_EQ(acc.norm(), 0.0);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(acc.at(i), 0);
  }
}

TEST(Accumulator, MajorityRule) {
  HyperVector a(4);
  a.set(0, true);
  a.set(1, true);
  HyperVector b(4);
  b.set(1, true);
  b.set(2, true);
  HyperVector c(4);
  c.set(1, true);

  Accumulator acc(4);
  acc.add(a);
  acc.add(b);
  acc.add(c);
  // counts: [1, 3, 1, 0], weight 3 -> majority needs count*2 > 3.
  const auto majority = acc.to_majority();
  EXPECT_FALSE(majority.get(0));
  EXPECT_TRUE(majority.get(1));
  EXPECT_FALSE(majority.get(2));
  EXPECT_FALSE(majority.get(3));
}

TEST(Accumulator, MajorityTieResolvesToZero) {
  HyperVector a(2);
  a.set(0, true);
  HyperVector b(2);
  b.set(1, true);
  Accumulator acc(2);
  acc.add(a);
  acc.add(b);
  // Both bits have count 1 of weight 2: exactly half -> 0.
  const auto majority = acc.to_majority();
  EXPECT_FALSE(majority.get(0));
  EXPECT_FALSE(majority.get(1));
}

TEST(Accumulator, DimensionMismatchThrows) {
  Accumulator acc(10);
  const HyperVector wrong(11);
  EXPECT_THROW(acc.add(wrong), std::invalid_argument);
  EXPECT_THROW(acc.dot(wrong), std::invalid_argument);
  EXPECT_THROW(acc.cosine_distance(wrong), std::invalid_argument);
  EXPECT_THROW(acc.at(10), std::invalid_argument);
}

TEST(Accumulator, MergeEqualsSequentialAdds) {
  // merge() is the reduction step of the parallel K-Means update: two
  // partials merged must equal the one accumulator that saw every add,
  // including the incrementally-maintained norm.
  Rng rng(21);
  const std::size_t dim = 384;
  Accumulator all(dim);
  Accumulator left(dim);
  Accumulator right(dim);
  for (std::uint32_t i = 0; i < 24; ++i) {
    const auto hv = HyperVector::random(dim, rng);
    const std::uint32_t weight = 1 + i % 7;
    all.add(hv, weight);
    (i % 2 == 0 ? left : right).add(hv, weight);
  }
  left.merge(right);
  EXPECT_EQ(left.total_weight(), all.total_weight());
  for (std::size_t i = 0; i < dim; ++i) {
    ASSERT_EQ(left.at(i), all.at(i)) << "component " << i;
  }
  EXPECT_DOUBLE_EQ(left.norm(), all.norm());
}

TEST(Accumulator, MergeWithEmptyIsIdentity) {
  Rng rng(22);
  Accumulator acc(128);
  acc.add(HyperVector::random(128, rng), 3);
  const double norm_before = acc.norm();
  const Accumulator empty(128);
  acc.merge(empty);
  EXPECT_DOUBLE_EQ(acc.norm(), norm_before);
  EXPECT_EQ(acc.total_weight(), 3u);
}

TEST(Accumulator, MergeDimensionMismatchThrows) {
  Accumulator a(10);
  const Accumulator b(11);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Accumulator, HyperVectorAddForwardsThroughPackedOverload) {
  // Both overloads are one implementation (the HyperVector form
  // forwards its packed words), so their outputs — counts, weight, and
  // the incrementally-maintained norm — must be identical.
  Rng rng(23);
  const std::size_t dim = 300;  // non-multiple of 64: padding in play
  Accumulator via_hv(dim);
  Accumulator via_span(dim);
  for (std::uint32_t i = 0; i < 8; ++i) {
    const auto hv = HyperVector::random(dim, rng);
    via_hv.add(hv, 1 + i % 5);
    via_span.add(hv.words(), 1 + i % 5);
  }
  EXPECT_EQ(via_hv.total_weight(), via_span.total_weight());
  EXPECT_DOUBLE_EQ(via_hv.norm(), via_span.norm());
  for (std::size_t i = 0; i < dim; ++i) {
    ASSERT_EQ(via_hv.at(i), via_span.at(i)) << "component " << i;
  }
}

TEST(Accumulator, ApplyRemovalUndoesAddExactly) {
  // A staged removal is the K-Means difference update's inverse of add:
  // taking a weighted point back must restore counts, total weight, and
  // the incrementally-maintained norm bit for bit.
  Rng rng(24);
  const std::size_t dim = 300;  // non-multiple of 64: padding in play
  Accumulator acc(dim);
  for (std::uint32_t i = 0; i < 6; ++i) {
    acc.add(HyperVector::random(dim, rng), 2 + i % 4);
  }
  const Accumulator before = acc;
  const auto point = HyperVector::random(dim, rng);
  acc.add(point, 7);
  StagedSum staged(dim);
  staged.sub(point.words(), 7);
  acc.apply(staged);
  EXPECT_EQ(acc.total_weight(), before.total_weight());
  EXPECT_EQ(acc.norm(), before.norm());
  for (std::size_t i = 0; i < dim; ++i) {
    ASSERT_EQ(acc.at(i), before.at(i)) << "component " << i;
  }
  // Removing everything that was added leaves an empty accumulator.
  Accumulator single(dim);
  single.add(point, 3);
  staged.sub(point.words(), 3);
  single.apply(staged);
  EXPECT_EQ(single.total_weight(), 0u);
  EXPECT_EQ(single.norm(), 0.0);
}

TEST(Accumulator, ApplyRemovingMoreWeightThanHeldThrows) {
  Rng rng(25);
  const auto point = HyperVector::random(128, rng);
  Accumulator acc(128);
  acc.add(point, 2);
  const Accumulator before = acc;
  StagedSum staged(128);
  staged.add(point.words(), 1);
  staged.sub(point.words(), 4);
  try {
    acc.apply(staged);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "precondition violated: Accumulator::apply removes more "
                 "weight than the accumulator holds");
  }
  EXPECT_EQ(acc.total_weight(), 2u) << "a rejected apply must not modify";
  EXPECT_TRUE(std::ranges::equal(acc.counts(), before.counts()));
  EXPECT_EQ(acc.norm(), before.norm());
  EXPECT_EQ(staged.added_weight(), 1u) << "nor consume the staged sum";
  EXPECT_EQ(staged.removed_weight(), 4u);
  // Held plus staged additions is exactly enough.
  staged.sub(point.words(), 3);
  EXPECT_THROW(acc.apply(staged), std::invalid_argument);
  Accumulator enough(128);
  enough.add(point, 6);
  enough.apply(staged);
  EXPECT_EQ(enough.total_weight(), 0u);
  EXPECT_EQ(enough.norm(), 0.0);
}

TEST(Accumulator, ApplyDimensionMismatchThrows) {
  Accumulator acc(10);
  StagedSum staged(11);
  EXPECT_THROW(acc.apply(staged), std::invalid_argument);
  StagedSum rows(10);
  EXPECT_THROW(rows.add(std::vector<std::uint64_t>(2, 0)),
               std::invalid_argument);
  EXPECT_THROW(rows.add(std::vector<std::uint64_t>{1ULL << 12}),
               std::invalid_argument)
      << "padding bits above dim must be zero";
}

// --- The staged (bit-sliced) sum must equal per-row add bit for bit. ---

/// Expects identical counts, total weight and norm.
void expect_same_accumulator(const Accumulator& got,
                             const Accumulator& expected) {
  EXPECT_EQ(got.total_weight(), expected.total_weight());
  EXPECT_EQ(got.norm(), expected.norm());
  EXPECT_TRUE(std::ranges::equal(got.counts(), expected.counts()));
}

/// Rows of `dim` bits: random ones, interleaved with all-ones rows
/// (every lane set, so every fold carries as far as it can) and an
/// all-zero row.
std::vector<HyperVector> staging_rows(std::size_t dim, std::size_t count,
                                      Rng& rng) {
  std::vector<HyperVector> rows;
  for (std::size_t r = 0; r < count; ++r) {
    if (r % 5 == 1) {
      HyperVector ones(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        ones.set(i, true);
      }
      rows.push_back(std::move(ones));
    } else if (r == 3) {
      rows.emplace_back(dim);
    } else {
      rows.push_back(HyperVector::random(dim, rng));
    }
  }
  return rows;
}

TEST(StagedSum, ApplyEqualsPerRowAdds) {
  // Weights on every bit 0-31 (up to 2^32 - 1), all-ones rows, row
  // counts that are not multiples of 8, and dimensions around the word
  // boundaries up to the paper's 10,000.
  for (const std::size_t dim : {1u, 63u, 64u, 65u, 800u, 10000u}) {
    for (const std::size_t count : {1u, 7u, 8u, 9u, 23u, 64u, 70u}) {
      SCOPED_TRACE("dim " + std::to_string(dim) + " rows " +
                   std::to_string(count));
      Rng rng(dim * 131 + count);
      const auto rows = staging_rows(dim, count, rng);
      Accumulator expected(dim);
      Accumulator got(dim);
      StagedSum staged(dim);
      for (std::size_t r = 0; r < count; ++r) {
        std::uint32_t weight = 1;
        switch (r % 4) {
          case 0:
            weight = 1;
            break;
          case 1:
            weight = std::uint32_t{1} << (r % 32);  // one bit, any level
            break;
          case 2:
            weight = static_cast<std::uint32_t>(rng());  // mixed bits
            break;
          default:
            weight = r % 8 == 3 ? 0xFFFFFFFFu : 3;
        }
        expected.add(rows[r], weight);
        staged.add(rows[r].words(), weight);
      }
      got.apply(staged);
      expect_same_accumulator(got, expected);
      EXPECT_EQ(staged.added_weight(), 0u) << "apply empties the stage";
    }
  }
}

TEST(StagedSum, InterleavedAddsAndRemovalsEqualPerRowArithmetic) {
  // Removals of rows the accumulator holds, staged interleaved with
  // additions, over several applies of one reused stage: the result must
  // equal adding the net rows one at a time.
  for (const std::size_t dim : {65u, 800u}) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    Rng rng(dim + 5);
    const auto rows = staging_rows(dim, 40, rng);
    std::vector<std::uint32_t> weights(rows.size());
    for (auto& weight : weights) {
      weight = 1 + static_cast<std::uint32_t>(rng() % 5000);
    }
    Accumulator got(dim);
    for (std::size_t r = 0; r < 20; ++r) {
      got.add(rows[r], weights[r]);
    }
    StagedSum staged(dim);
    // Round 1: add 20..39 and take back the odd rows of 0..19, mixed.
    for (std::size_t r = 20; r < 40; ++r) {
      staged.add(rows[r].words(), weights[r]);
      if (r % 2 == 1) {
        staged.sub(rows[r - 20].words(), weights[r - 20]);
      }
    }
    got.apply(staged);
    // Round 2: take back rows 20..29, in two runs around one addition.
    for (std::size_t r = 20; r < 25; ++r) {
      staged.sub(rows[r].words(), weights[r]);
    }
    staged.add(rows[1].words(), weights[1]);
    for (std::size_t r = 25; r < 30; ++r) {
      staged.sub(rows[r].words(), weights[r]);
    }
    got.apply(staged);
    Accumulator expected(dim);
    for (std::size_t r = 0; r < 40; ++r) {
      const bool held = r < 20 ? (r % 2 == 0 || r == 1) : r >= 30;
      if (held) {
        expected.add(rows[r], weights[r]);
      }
    }
    expect_same_accumulator(got, expected);
  }
}

TEST(StagedSum, TotalsAbove32BitsUseTheHighPlanes) {
  // Lane sums past 2^32: the planes grow with the staged total, so the
  // carries into planes 32 and up land exactly.
  const std::size_t dim = 200;
  Rng rng(41);
  const auto rows = staging_rows(dim, 12, rng);
  Accumulator expected(dim);
  Accumulator got(dim);
  StagedSum staged(dim);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::uint32_t weight = 0xFFFFFFFFu - static_cast<std::uint32_t>(r);
    expected.add(rows[r], weight);
    staged.add(rows[r].words(), weight);
  }
  ASSERT_GT(staged.added_weight(), std::uint64_t{1} << 35);
  got.apply(staged);
  expect_same_accumulator(got, expected);
  EXPECT_GT(got.at(1), std::int64_t{1} << 32) << "an all-ones row is held";
}

// --- The sum of squares must not overflow at large centroid masses. ---

/// sqrt(sum of counts^2), summed exactly in 128 bits.
double exact_norm(const Accumulator& acc) {
  __extension__ using Int128 = __int128;
  Int128 sum = 0;
  for (const std::int64_t count : acc.counts()) {
    sum += static_cast<Int128>(count) * count;
  }
  return std::sqrt(static_cast<double>(sum));
}

TEST(Accumulator, NormExactPastInt64SumOfSquares) {
  // One all-ones row of weight 4e7 at d = 10,000: the sum of squares is
  // 1.6e19 > 2^63, and the norm is exactly 4e9.
  const std::size_t dim = 10000;
  HyperVector ones(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    ones.set(i, true);
  }
  constexpr std::uint32_t kWeight = 40'000'000;
  Accumulator added(dim);
  added.add(ones, kWeight);
  EXPECT_EQ(added.norm(), 4e9);

  // Merging two such accumulators: counts 8e7, norm exactly 8e9.
  Accumulator merged = added;
  merged.merge(added);
  EXPECT_EQ(merged.norm(), 8e9);
  EXPECT_EQ(merged.norm(), exact_norm(merged));

  // The staged apply at the same weight, and back down to one row.
  Accumulator staged_acc(dim);
  StagedSum staged(dim);
  staged.add(ones.words(), kWeight);
  staged_acc.apply(staged);
  EXPECT_EQ(staged_acc.norm(), 4e9);
  staged.add(ones.words(), kWeight);
  staged.add(ones.words(), kWeight);
  staged_acc.apply(staged);
  EXPECT_EQ(staged_acc.norm(), 12e9);
  staged.sub(ones.words(), kWeight);
  staged.sub(ones.words(), kWeight);
  staged_acc.apply(staged);
  EXPECT_EQ(staged_acc.norm(), 4e9);
}

}  // namespace
