// Unit and statistical tests for the random layer.
#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace ccsim {
namespace {

TEST(SplitMix64Test, Deterministic) {
  uint64_t a = 123, b = 123;
  EXPECT_EQ(SplitMix64(a), SplitMix64(b));
  EXPECT_EQ(a, b);
}

TEST(SplitMix64Test, AdvancesState) {
  uint64_t state = 1;
  uint64_t first = SplitMix64(state);
  uint64_t second = SplitMix64(state);
  EXPECT_NE(first, second);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t x = rng.UniformInt(3, 7);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 7);
    saw_lo |= (x == 3);
    saw_hi |= (x == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntDegenerate) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  // Standard error ~ 2/sqrt(n) ≈ 0.0045; 5 sigma margin.
  EXPECT_NEAR(sum / n, 2.0, 0.025);
}

TEST(RngTest, ExponentialNonNegative) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.Exponential(0.5), 0.0);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.25) ? 1 : 0;
  // sd ≈ sqrt(0.25*0.75/n) ≈ 0.0014; 5 sigma margin.
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.007);
}

TEST(SampleWithoutReplacementTest, SizeAndDistinctness) {
  Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    auto sample = rng.SampleWithoutReplacement(100, 12);
    EXPECT_EQ(sample.size(), 12u);
    std::set<int64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 12u);
    for (int64_t x : sample) {
      EXPECT_GE(x, 0);
      EXPECT_LT(x, 100);
    }
  }
}

TEST(SampleWithoutReplacementTest, FullPopulation) {
  Rng rng(29);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(sample[static_cast<size_t>(i)], i);
}

TEST(SampleWithoutReplacementTest, EmptySample) {
  Rng rng(31);
  EXPECT_TRUE(rng.SampleWithoutReplacement(10, 0).empty());
}

TEST(SampleWithoutReplacementTest, UniformMembership) {
  // Each element of [0,20) should appear in a 5-element sample with
  // probability 5/20 = 0.25.
  Rng rng(37);
  const int trials = 40000;
  std::vector<int> counts(20, 0);
  for (int t = 0; t < trials; ++t) {
    for (int64_t x : rng.SampleWithoutReplacement(20, 5)) {
      counts[static_cast<size_t>(x)]++;
    }
  }
  for (int c : counts) {
    // sd ≈ sqrt(0.25*0.75*trials) ≈ 87 → ±5 sigma ≈ 435 on mean 10000.
    EXPECT_NEAR(c, trials / 4, 500);
  }
}

TEST(SampleWithoutReplacementTest, UniformPositions) {
  // After the shuffle, each position of the sample should be uniform too:
  // the first element should be ~uniform over the population.
  Rng rng(41);
  const int trials = 30000;
  std::vector<int> first_counts(10, 0);
  for (int t = 0; t < trials; ++t) {
    auto sample = rng.SampleWithoutReplacement(10, 3);
    first_counts[static_cast<size_t>(sample[0])]++;
  }
  for (int c : first_counts) {
    EXPECT_NEAR(c, trials / 10, 450);  // mean 3000, sd ≈ 52, wide margin.
  }
}

TEST(RngFactoryTest, StreamsDiffer) {
  RngFactory factory(99);
  Rng a = factory.MakeStream();
  Rng b = factory.MakeStream();
  // Streams should diverge immediately (probability of collision ~ 0).
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.NextDouble() != b.NextDouble()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngFactoryTest, SameSeedSameStreams) {
  RngFactory f1(7), f2(7);
  Rng a = f1.MakeStream();
  Rng b = f2.MakeStream();
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.NextDouble(), b.NextDouble());
  }
}

TEST(RngFactoryTest, NthStreamIsTheNthMadeStream) {
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{7}, uint64_t{42},
                        ~uint64_t{0}}) {
    RngFactory factory(seed);
    for (int n = 0; n <= 5; ++n) {
      Rng made = factory.MakeStream();
      Rng nth = RngFactory::NthStream(seed, n);
      for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(nth.engine()(), made.engine()())
            << "seed " << seed << " stream " << n;
      }
    }
  }
}

}  // namespace
}  // namespace ccsim
