// Tests for the integer accumulator (HDC bundling / K-Means centroids).
#include <gtest/gtest.h>

#include <cmath>

#include "src/hdc/accumulator.hpp"
#include "src/util/rng.hpp"

namespace {

using seghdc::hdc::Accumulator;
using seghdc::hdc::HyperVector;
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

TEST(Accumulator, SubUndoesAddExactly) {
  // sub is the K-Means difference update's inverse of add: removing a
  // weighted point must restore counts, total weight, and the
  // incrementally-maintained norm bit for bit.
  Rng rng(24);
  const std::size_t dim = 300;  // non-multiple of 64: padding in play
  Accumulator acc(dim);
  for (std::uint32_t i = 0; i < 6; ++i) {
    acc.add(HyperVector::random(dim, rng), 2 + i % 4);
  }
  const Accumulator before = acc;
  const auto point = HyperVector::random(dim, rng);
  acc.add(point, 7);
  acc.sub(point.words(), 7);
  EXPECT_EQ(acc.total_weight(), before.total_weight());
  EXPECT_EQ(acc.norm(), before.norm());
  for (std::size_t i = 0; i < dim; ++i) {
    ASSERT_EQ(acc.at(i), before.at(i)) << "component " << i;
  }
  // Subtracting everything that was added leaves an empty accumulator.
  Accumulator single(dim);
  single.add(point, 3);
  single.sub(point.words(), 3);
  EXPECT_EQ(single.total_weight(), 0u);
  EXPECT_EQ(single.norm(), 0.0);
}

TEST(Accumulator, SubMoreWeightThanHeldThrows) {
  Rng rng(25);
  const auto point = HyperVector::random(128, rng);
  Accumulator acc(128);
  acc.add(point, 2);
  try {
    acc.sub(point.words(), 3);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "precondition violated: Accumulator::sub weight exceeds "
                 "the total weight held");
  }
  EXPECT_EQ(acc.total_weight(), 2u) << "a rejected sub must not modify";
}

}  // namespace
