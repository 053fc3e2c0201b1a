#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/numeric_set_mark.h"
#include "exp/harness.h"
#include "random/distributions.h"
#include "random/rng.h"

namespace catmark {
namespace {

std::vector<double> GaussianSet(std::size_t n, double mean, double sd,
                                std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = mean + sd * SampleStandardNormal(rng);
  return out;
}

NumericSetMarkParams Params(double step = 0.5) {
  NumericSetMarkParams params;
  params.quantization_step = step;
  return params;
}

TEST(NumericSetTest, CleanRoundTrip) {
  std::vector<double> values = GaussianSet(4000, 100.0, 10.0, 1);
  const NumericSetMarker marker(SecretKey::FromSeed(1), Params());
  const BitVector wm = MakeWatermark(8, 1);
  const NumericSetEmbedReport report = marker.Embed(values, wm).value();
  EXPECT_EQ(marker.Detect(values, wm.size()).value(), wm);
  // Per-item change bounded by the quantization step.
  EXPECT_LE(report.max_item_change, 0.5 + 1e-9);
}

TEST(NumericSetTest, ChunkMeansArePinned) {
  // The chunk boundaries are jittered by the keyed hash of each boundary
  // index (SHA-256 sandwich over its 8 big-endian bytes); pinning the
  // resulting chunk means catches any change to that hash input.
  std::vector<double> values(1024);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>((i * 37) % 1024);
  }
  const NumericSetMarker marker(SecretKey::FromSeed(5), Params(0.25));
  const BitVector wm = BitVector::FromString("10110010").value();
  const NumericSetEmbedReport report = marker.Embed(values, wm).value();
  const std::vector<double> expected = {66.75, 189.0, 312.75, 445.25,
                                        576.5, 710.0, 832.75, 957.0};
  EXPECT_EQ(report.chunk_means, expected);
}

TEST(NumericSetTest, MinimizesAbsoluteChange) {
  // [10]'s design goal: "minimize the absolute data alteration in terms of
  // distance from the original data set". Mean per-item change stays below
  // half the step (the distance to the nearest correct-parity centre).
  std::vector<double> values = GaussianSet(4000, 0.0, 20.0, 2);
  const std::vector<double> original = values;
  const NumericSetMarker marker(SecretKey::FromSeed(2), Params(1.0));
  ASSERT_TRUE(marker.Embed(values, MakeWatermark(8, 2)).ok());
  double total = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    total += std::abs(values[i] - original[i]);
  }
  EXPECT_LE(total / static_cast<double>(values.size()), 1.0);
}

TEST(NumericSetTest, SurvivesShuffling) {
  std::vector<double> values = GaussianSet(4000, 50.0, 5.0, 3);
  const NumericSetMarker marker(SecretKey::FromSeed(3), Params(0.25));
  const BitVector wm = MakeWatermark(8, 3);
  ASSERT_TRUE(marker.Embed(values, wm).ok());
  Xoshiro256ss rng(33);
  Shuffle(values, rng);
  EXPECT_EQ(marker.Detect(values, wm.size()).value(), wm);
}

TEST(NumericSetTest, SurvivesUniformSubsetSelection) {
  std::vector<double> values = GaussianSet(20000, 100.0, 10.0, 4);
  const NumericSetMarker marker(SecretKey::FromSeed(4), Params());
  const BitVector wm = MakeWatermark(8, 4);
  ASSERT_TRUE(marker.Embed(values, wm).ok());
  // Keep a uniform 50% sample.
  Xoshiro256ss rng(44);
  std::vector<double> kept;
  for (double v : values) {
    if (rng.NextBool(0.5)) kept.push_back(v);
  }
  const BitVector detected = marker.Detect(kept, wm.size()).value();
  EXPECT_GE(wm.size() - wm.HammingDistance(detected), 7u);
}

TEST(NumericSetTest, SurvivesSmallNoise) {
  std::vector<double> values = GaussianSet(8000, 100.0, 10.0, 5);
  const NumericSetMarker marker(SecretKey::FromSeed(5), Params(1.0));
  const BitVector wm = MakeWatermark(8, 5);
  ASSERT_TRUE(marker.Embed(values, wm).ok());
  // Additive noise well below the robustness radius q/2.
  Xoshiro256ss rng(55);
  for (double& v : values) v += 0.1 * SampleStandardNormal(rng);
  EXPECT_EQ(marker.Detect(values, wm.size()).value(), wm);
}

TEST(NumericSetTest, WrongKeyReadsDifferentChunks) {
  std::vector<double> values = GaussianSet(4000, 100.0, 10.0, 6);
  const NumericSetMarker marker(SecretKey::FromSeed(6), Params());
  const BitVector wm = MakeWatermark(16, 6);
  ASSERT_TRUE(marker.Embed(values, wm).ok());
  const NumericSetMarker wrong(SecretKey::FromSeed(999), Params());
  const BitVector detected = wrong.Detect(values, wm.size()).value();
  // Different jittered boundaries shift some chunk means across cells; a
  // perfect read with a wrong key would defeat the secrecy property.
  // (Boundaries only jitter by 1/8 chunk, so many bits still agree — the
  // keyed part is the boundary placement, not the whole channel.)
  EXPECT_NE(detected, wm);
}

TEST(NumericSetTest, RejectsDegenerateInputs) {
  const NumericSetMarker marker(SecretKey::FromSeed(7), Params());
  std::vector<double> tiny(10, 1.0);
  EXPECT_FALSE(marker.Embed(tiny, MakeWatermark(8, 7)).ok());  // < 4 per bit
  std::vector<double> constant(1000, 5.0);
  EXPECT_FALSE(marker.Embed(constant, MakeWatermark(8, 7)).ok());
  std::vector<double> fine = GaussianSet(1000, 0, 1, 7);
  EXPECT_FALSE(marker.Embed(fine, BitVector()).ok());
  EXPECT_FALSE(marker.Detect(fine, 0).ok());
}

TEST(NumericSetTest, ModifiesInPlaceWithoutPermuting) {
  // Embedding works on a sorted *view* but writes each shift back to the
  // item's original storage slot: position i still holds (a slightly moved
  // version of) the same item.
  std::vector<double> values = GaussianSet(1000, 10.0, 2.0, 8);
  const std::vector<double> original = values;
  const NumericSetMarker marker(SecretKey::FromSeed(8), Params(0.1));
  const NumericSetEmbedReport report =
      marker.Embed(values, MakeWatermark(4, 8)).value();
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_LE(std::abs(values[i] - original[i]),
              report.max_item_change + 1e-12);
  }
}

}  // namespace
}  // namespace catmark
