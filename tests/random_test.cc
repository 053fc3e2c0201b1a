#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "random/distributions.h"
#include "random/rng.h"
#include "random/stats.h"

namespace catmark {
namespace {

// --------------------------------------------------------------------- RNG

TEST(SplitMix64Test, DeterministicSequence) {
  SplitMix64 a(42), b(42), c(43);
  const std::uint64_t a1 = a.Next();
  EXPECT_EQ(a1, b.Next());
  EXPECT_NE(a1, c.Next());
}

TEST(Xoshiro256Test, DeterministicPerSeed) {
  Xoshiro256ss a(7), b(7), c(8);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  EXPECT_NE(Xoshiro256ss(7).Next(), c.Next());
}

TEST(Xoshiro256Test, NextBoundedStaysInRange) {
  Xoshiro256ss rng(1);
  for (const std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Xoshiro256Test, NextBoundedOneAlwaysZero) {
  Xoshiro256ss rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Xoshiro256Test, NextDoubleInUnitInterval) {
  Xoshiro256ss rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Xoshiro256Test, NextBoolMatchesProbability) {
  Xoshiro256ss rng(4);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Xoshiro256Test, BoundedIsRoughlyUniform) {
  Xoshiro256ss rng(5);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

// ------------------------------------------------------------------- Zipf

TEST(ZipfTest, PmfSumsToOne) {
  const ZipfDistribution zipf(100, 1.0);
  double sum = 0;
  for (std::size_t k = 0; k < 100; ++k) sum += zipf.Pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, PmfIsMonotoneDecreasing) {
  const ZipfDistribution zipf(50, 1.2);
  for (std::size_t k = 1; k < 50; ++k) {
    EXPECT_LE(zipf.Pmf(k), zipf.Pmf(k - 1));
  }
}

TEST(ZipfTest, ZeroSkewIsUniform) {
  const ZipfDistribution zipf(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(zipf.Pmf(k), 0.1, 1e-9);
}

TEST(ZipfTest, SampleMatchesPmf) {
  const ZipfDistribution zipf(20, 1.0);
  Xoshiro256ss rng(6);
  std::vector<int> counts(20, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (std::size_t k = 0; k < 20; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), zipf.Pmf(k), 0.01)
        << "rank " << k;
  }
}

TEST(ZipfTest, SingleValueDomain) {
  const ZipfDistribution zipf(1, 1.0);
  Xoshiro256ss rng(7);
  EXPECT_EQ(zipf.Sample(rng), 0u);
  EXPECT_NEAR(zipf.Pmf(0), 1.0, 1e-12);
}

// --------------------------------------------------------------- Discrete

TEST(DiscreteTest, MatchesWeights) {
  const DiscreteDistribution dist({1.0, 2.0, 3.0, 4.0});
  Xoshiro256ss rng(8);
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[dist.Sample(rng)];
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), (k + 1) / 10.0, 0.01);
  }
}

TEST(DiscreteTest, NormalizedProbabilities) {
  const DiscreteDistribution dist({2.0, 6.0});
  EXPECT_NEAR(dist.Probability(0), 0.25, 1e-12);
  EXPECT_NEAR(dist.Probability(1), 0.75, 1e-12);
}

TEST(DiscreteTest, ZeroWeightNeverSampled) {
  const DiscreteDistribution dist({0.0, 1.0, 0.0});
  Xoshiro256ss rng(9);
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(dist.Sample(rng), 1u);
}

TEST(DiscreteTest, SingleOutcome) {
  const DiscreteDistribution dist({5.0});
  Xoshiro256ss rng(10);
  EXPECT_EQ(dist.Sample(rng), 0u);
}

// ----------------------------------------------------------------- Normal

TEST(NormalSampleTest, MomentsMatchStandardNormal) {
  Xoshiro256ss rng(11);
  std::vector<double> xs(50000);
  for (double& x : xs) x = SampleStandardNormal(rng);
  const MeanStd ms = ComputeMeanStd(xs);
  EXPECT_NEAR(ms.mean, 0.0, 0.02);
  EXPECT_NEAR(ms.stddev, 1.0, 0.02);
}

// ---------------------------------------------------------------- Shuffle

TEST(ShuffleTest, ProducesPermutation) {
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  Xoshiro256ss rng(12);
  std::vector<int> shuffled = v;
  Shuffle(shuffled, rng);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(ShuffleTest, EmptyAndSingleton) {
  std::vector<int> empty;
  std::vector<int> one = {42};
  Xoshiro256ss rng(13);
  Shuffle(empty, rng);
  Shuffle(one, rng);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(one[0], 42);
}

TEST(SampleWithoutReplacementTest, DistinctAndInRange) {
  Xoshiro256ss rng(14);
  const auto sample = SampleWithoutReplacement(100, 30, rng);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t i : sample) EXPECT_LT(i, 100u);
}

TEST(SampleWithoutReplacementTest, FullSampleIsPermutation) {
  Xoshiro256ss rng(15);
  const auto sample = SampleWithoutReplacement(50, 50, rng);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(SampleWithoutReplacementTest, ZeroSample) {
  Xoshiro256ss rng(16);
  EXPECT_TRUE(SampleWithoutReplacement(10, 0, rng).empty());
}

TEST(SampleWithoutReplacementTest, DrawsArePinnedPerSeed) {
  // Attacks and subsets are reproducible from their seed, so every draw is
  // pinned: the sample, in order, and the generator's next output (the
  // same number of draws was taken). n = 64, 65 and 129 straddle the
  // chosen-set bitmap's words.
  struct Case {
    std::size_t n;
    std::size_t k;
    std::uint64_t seed;
    std::vector<std::size_t> sample;
    std::uint64_t next;
  };
  const Case cases[] = {
      {10, 0, 21, {}, 571145536561302545ull},
      {7, 7, 22, {5, 3, 2, 4, 6, 0, 1}, 2556659306615222175ull},
      {9, 8, 23, {4, 1, 8, 3, 2, 6, 0, 5}, 3262490460126471063ull},
      {1000, 5, 24, {341, 583, 887, 988, 872}, 8947516948707256758ull},
      {64, 33, 25,
       {17, 30, 13, 42, 57, 14, 3, 43, 8, 38, 34, 37, 12, 11, 44, 5, 31,
        15, 27, 1, 9, 7, 62, 53, 23, 45, 29, 28, 16, 60, 40, 51, 36},
       648311055640393486ull},
      {65, 40, 26,
       {52, 18, 16, 35, 0, 11, 30, 45, 42, 32, 9, 48, 46, 38, 63, 21, 14,
        10, 58, 64, 24, 61, 57, 37, 60, 56, 43, 39, 25, 13, 20, 54, 41, 59,
        26, 22, 15, 55, 8, 47},
       3632870870563119878ull},
      {129, 100, 27,
       {62,  84,  65, 94, 54, 3,   11,  39, 60, 113, 59,  114, 96,  17, 128,
        41,  98,  27, 66, 38, 105, 50,  43, 28, 115, 122, 79,  53,  75, 6,
        126, 104, 22, 107, 36, 57, 12,  70, 31, 110, 14,  92,  26,  121, 9,
        118, 93,  37, 2,  40, 48,  100, 95, 42, 116, 4,   0,   88,  124, 77,
        25,  108, 90, 97, 78, 74,  20,  34, 21, 19,  82,  85,  73,  33, 10,
        23,  87,  55, 125, 24, 35, 44,  18, 49, 1,   69,  91,  99,  8,  81,
        64,  45,  61, 63, 103, 123, 102, 72, 56, 29},
       146853585196660352ull},
  };
  for (const Case& c : cases) {
    Xoshiro256ss rng(c.seed);
    EXPECT_EQ(SampleWithoutReplacement(c.n, c.k, rng), c.sample)
        << "n=" << c.n << " k=" << c.k;
    EXPECT_EQ(rng.Next(), c.next) << "n=" << c.n << " k=" << c.k;
  }
}

TEST(SampleWithoutReplacementTest, UniformCoverage) {
  // Each index should appear in ~k/n of the samples.
  Xoshiro256ss rng(17);
  std::vector<int> hits(20, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (std::size_t i : SampleWithoutReplacement(20, 5, rng)) ++hits[i];
  }
  for (int h : hits) EXPECT_NEAR(h / static_cast<double>(trials), 0.25, 0.02);
}

// ------------------------------------------------------------------ stats

TEST(StatsTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-9);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.2816), 0.1, 1e-3);
}

TEST(StatsTest, NormalQuantileInvertsCdf) {
  for (const double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.9, 0.975, 0.999}) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-7) << "p=" << p;
  }
}

TEST(StatsTest, NormalQuantileKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.9), 1.2816, 1e-3);
  EXPECT_NEAR(NormalQuantile(0.975), 1.95996, 1e-4);
}

TEST(StatsTest, LogBinomialCoefficient) {
  EXPECT_NEAR(std::exp(LogBinomialCoefficient(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(LogBinomialCoefficient(10, 0)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(LogBinomialCoefficient(52, 5)), 2598960.0, 1e-3);
}

TEST(StatsTest, BinomialTailEdgeCases) {
  EXPECT_DOUBLE_EQ(BinomialTailAtLeast(10, 0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(BinomialTailAtLeast(10, 11, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(BinomialTailAtLeast(10, 5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(BinomialTailAtLeast(10, 5, 1.0), 1.0);
}

TEST(StatsTest, BinomialTailExactValues) {
  // P[X >= 5 | X ~ Bin(10, 0.5)] = 0.623046875
  EXPECT_NEAR(BinomialTailAtLeast(10, 5, 0.5), 0.623046875, 1e-9);
  // P[X >= 10 | X ~ Bin(10, 0.5)] = 2^-10
  EXPECT_NEAR(BinomialTailAtLeast(10, 10, 0.5), std::pow(0.5, 10), 1e-12);
}

TEST(StatsTest, NormalApproxTracksExactTail) {
  // In the CLT regime (n p >= 5 and n (1-p) >= 5, as the paper requires).
  const double exact = BinomialTailAtLeast(100, 60, 0.5);
  const double approx = BinomialTailNormalApprox(100, 60, 0.5);
  EXPECT_NEAR(approx, exact, 0.02);
}

TEST(StatsTest, MeanStd) {
  const MeanStd ms = ComputeMeanStd({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_NEAR(ms.mean, 5.0, 1e-12);
  EXPECT_NEAR(ms.stddev, 2.0, 1e-12);
}

TEST(StatsTest, MeanStdEmpty) {
  const MeanStd ms = ComputeMeanStd({});
  EXPECT_EQ(ms.mean, 0.0);
  EXPECT_EQ(ms.stddev, 0.0);
}

}  // namespace
}  // namespace catmark
