// Per-bit decode confidence: the court-facing evidence-quality signal.

#include <gtest/gtest.h>

#include "attack/attacks.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "ecc/majority.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"

namespace catmark {
namespace {

/// Majority-code confidence over detection's view of a payload: one ±1
/// run per present position; an erased position has no run.
std::vector<double> Confidence(const MajorityVotingCode& code,
                               const BitVector& bits, const BitVector& present,
                               std::size_t wm_len) {
  std::vector<SlotVote> runs;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (present.Get(i)) runs.push_back({i, bits.Get(i) ? 1 : -1});
  }
  return code.Decode(runs, bits.size(), wm_len).value().confidence;
}

TEST(MajorityConfidenceTest, UnanimousVotesGiveFullConfidence) {
  MajorityVotingCode code;
  const BitVector wm = MakeWatermark(5, 1);
  const BitVector payload = code.Encode(wm, 100).value();
  const std::vector<double> conf =
      Confidence(code, payload, BitVector(payload.size(), 1), 5);
  ASSERT_EQ(conf.size(), 5u);
  for (double c : conf) EXPECT_DOUBLE_EQ(c, 1.0);
}

TEST(MajorityConfidenceTest, ErasedBitsGetZero) {
  MajorityVotingCode code;
  const BitVector wm = MakeWatermark(5, 2);
  const BitVector payload = code.Encode(wm, 100).value();
  BitVector present(payload.size(), 1);
  // Erase every position of residue class 0 (0, 5, 10, ...).
  for (std::size_t i = 0; i < payload.size(); i += 5) {
    present.Set(i, 0);
  }
  const std::vector<double> conf = Confidence(code, payload, present, 5);
  EXPECT_DOUBLE_EQ(conf[0], 0.0);
  for (std::size_t j = 1; j < 5; ++j) EXPECT_DOUBLE_EQ(conf[j], 1.0);
}

TEST(MajorityConfidenceTest, FlipsReduceConfidenceProportionally) {
  MajorityVotingCode code;
  const BitVector wm = BitVector(4, 1);
  BitVector payload = code.Encode(wm, 100).value();  // 25 votes per bit
  // Flip 5 of bit 0's votes: margin 15/25 = 0.6.
  for (std::size_t k = 0; k < 5; ++k) payload.Flip(k * 4);
  const std::vector<double> conf =
      Confidence(code, payload, BitVector(payload.size(), 1), 4);
  EXPECT_NEAR(conf[0], 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(conf[1], 1.0);
}

TEST(DetectorConfidenceTest, CleanDetectionIsFullyConfident) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 6000;
  gen.domain_size = 100;
  gen.seed = 91;
  Relation rel = GenerateKeyedCategorical(gen);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(91);
  WatermarkParams params;
  params.e = 30;
  const BitVector wm = MakeWatermark(10, 91);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const EmbedReport report =
      Embedder(keys, params).Embed(rel, options, wm).value();

  const Detector detector(keys, params);
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.payload_length = report.payload_length;
  detect_options.domain = report.domain;
  const DetectionResult clean =
      detector.Detect(rel, detect_options, wm.size()).value();
  ASSERT_EQ(clean.bit_confidence.size(), wm.size());
  double clean_mean = 0.0;
  for (double c : clean.bit_confidence) clean_mean += c;
  clean_mean /= static_cast<double>(wm.size());
  EXPECT_DOUBLE_EQ(clean_mean, 1.0);

  // Attack damage shows up as reduced confidence even where bits decode
  // correctly — the evidence weakens before it breaks.
  const Relation attacked =
      SubsetAlterationAttack(rel, "A", 0.4, 99).value();
  const DetectionResult damaged =
      detector.Detect(attacked, detect_options, wm.size()).value();
  double damaged_mean = 0.0;
  for (double c : damaged.bit_confidence) damaged_mean += c;
  damaged_mean /= static_cast<double>(wm.size());
  EXPECT_LT(damaged_mean, clean_mean);
  EXPECT_GT(damaged_mean, 0.0);
}

TEST(DetectorConfidenceTest, NonMajorityEccYieldsEmptyConfidence) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 2000;
  gen.domain_size = 50;
  gen.seed = 92;
  Relation rel = GenerateKeyedCategorical(gen);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(92);
  WatermarkParams params;
  params.e = 20;
  params.ecc = EccKind::kHamming74;
  const BitVector wm = MakeWatermark(8, 92);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const EmbedReport report =
      Embedder(keys, params).Embed(rel, options, wm).value();
  const Detector detector(keys, params);
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.payload_length = report.payload_length;
  const DetectionResult result =
      detector.Detect(rel, detect_options, wm.size()).value();
  EXPECT_TRUE(result.bit_confidence.empty());
}

}  // namespace
}  // namespace catmark
