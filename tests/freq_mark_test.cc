#include <gtest/gtest.h>

#include <memory>

#include "attack/attacks.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "core/freq_mark.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "quality/plugins.h"
#include "relation/ops.h"

namespace catmark {
namespace {

Relation SkewedRelation(std::size_t n = 20000, std::size_t domain = 60,
                        std::uint64_t seed = 51) {
  KeyedCategoricalConfig config;
  config.num_tuples = n;
  config.domain_size = domain;
  config.zipf_s = 1.0;
  config.seed = seed;
  return GenerateKeyedCategorical(config);
}

FreqMarkParams DefaultParams() {
  FreqMarkParams params;
  params.quantization_step = 0.02;
  return params;
}

TEST(FreqMarkTest, CleanRoundTrip) {
  Relation rel = SkewedRelation();
  const FrequencyMarker marker(SecretKey::FromSeed(1), DefaultParams());
  const BitVector wm = MakeWatermark(8, 1);
  const FreqEmbedReport report = marker.Embed(rel, "A", wm).value();
  EXPECT_GT(report.tuples_moved, 0u);
  const FreqDetectReport detect = marker.Detect(rel, "A", wm.size()).value();
  EXPECT_EQ(detect.wm, wm);
}

TEST(FreqMarkTest, EmbeddingRecentersMasses) {
  Relation rel = SkewedRelation();
  const FrequencyMarker marker(SecretKey::FromSeed(2), DefaultParams());
  const BitVector wm = MakeWatermark(8, 2);
  const FreqEmbedReport report = marker.Embed(rel, "A", wm).value();
  // Re-centred masses leave a healthy margin to the cell edges (>= ~1/3 of
  // the half-step, minus the residual-balancing nudges).
  EXPECT_GT(report.min_cell_margin, DefaultParams().quantization_step / 6);
}

TEST(FreqMarkTest, SurvivesExtremeVerticalPartition) {
  // The Section 4.2 scenario: Mallory keeps ONLY attribute A.
  Relation rel = SkewedRelation();
  const FrequencyMarker marker(SecretKey::FromSeed(3), DefaultParams());
  const BitVector wm = MakeWatermark(8, 3);
  ASSERT_TRUE(marker.Embed(rel, "A", wm).ok());
  const Relation only_a = VerticalPartitionAttack(rel, {"A"}).value();
  EXPECT_EQ(marker.Detect(only_a, "A", wm.size()).value().wm, wm);
}

TEST(FreqMarkTest, SurvivesSubsetSelection) {
  // Normalized masses make the channel A1-invariant up to sampling noise.
  Relation rel = SkewedRelation(40000);
  const FrequencyMarker marker(SecretKey::FromSeed(4), DefaultParams());
  const BitVector wm = MakeWatermark(8, 4);
  ASSERT_TRUE(marker.Embed(rel, "A", wm).ok());
  const Relation kept = HorizontalPartitionAttack(rel, 0.5, 44).value();
  const FreqDetectReport detect = marker.Detect(kept, "A", wm.size()).value();
  const MatchStats stats = MatchWatermark(wm, detect.wm);
  EXPECT_GE(stats.match_fraction, 7.0 / 8.0);
}

TEST(FreqMarkTest, SurvivesResorting) {
  Relation rel = SkewedRelation();
  const FrequencyMarker marker(SecretKey::FromSeed(5), DefaultParams());
  const BitVector wm = MakeWatermark(8, 5);
  ASSERT_TRUE(marker.Embed(rel, "A", wm).ok());
  const Relation shuffled = ResortAttack(rel, 55);
  EXPECT_EQ(marker.Detect(shuffled, "A", wm.size()).value().wm, wm);
}

TEST(FreqMarkTest, WrongKeyReadsNoise) {
  Relation rel = SkewedRelation();
  const FrequencyMarker marker(SecretKey::FromSeed(6), DefaultParams());
  const BitVector wm = MakeWatermark(8, 6);
  ASSERT_TRUE(marker.Embed(rel, "A", wm).ok());
  const FrequencyMarker wrong(SecretKey::FromSeed(999), DefaultParams());
  const FreqDetectReport detect = wrong.Detect(rel, "A", wm.size()).value();
  // Wrong grouping: the parities are essentially random.
  EXPECT_LT(MatchWatermark(wm, detect.wm).matched_bits, 8u);
}

TEST(FreqMarkTest, MinimizesItemsChanged) {
  // Cost should be on the order of |wm| * q/2 of the tuples, not more than
  // ~|wm| * q of them.
  Relation rel = SkewedRelation();
  const FrequencyMarker marker(SecretKey::FromSeed(7), DefaultParams());
  const BitVector wm = MakeWatermark(8, 7);
  const FreqEmbedReport report = marker.Embed(rel, "A", wm).value();
  const double bound = 8 * DefaultParams().quantization_step *
                       static_cast<double>(rel.NumRows());
  EXPECT_LE(static_cast<double>(report.tuples_moved), bound);
}

TEST(FreqMarkTest, GroupAssignmentIsKeyedAndStable) {
  const FrequencyMarker a(SecretKey::FromSeed(8), DefaultParams());
  const FrequencyMarker b(SecretKey::FromSeed(9), DefaultParams());
  const Value v("V0001");
  EXPECT_EQ(a.GroupOf(v, 8), a.GroupOf(v, 8));
  bool any_difference = false;
  for (int i = 0; i < 50; ++i) {
    const Value vi("V" + std::to_string(i));
    if (a.GroupOf(vi, 8) != b.GroupOf(vi, 8)) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FreqMarkTest, GroupingIsPinnedAtMd5AndSha256) {
  // The grouping is the keyed hash of each label's canonical bytes plus a
  // salt byte; these exact groups (and the salt the domain selects) are
  // what a deployed frequency-domain mark was embedded with.
  std::vector<Value> labels;
  for (int i = 0; i < 12; ++i) {
    labels.push_back(Value("L" + std::to_string(i)));
  }
  const CategoricalDomain domain =
      CategoricalDomain::FromValues(labels).value();
  const struct {
    HashAlgorithm algo;
    std::uint8_t salt;
    const char* groups;
  } kPins[] = {{HashAlgorithm::kMd5, 0, "322021222201/373"},
               {HashAlgorithm::kSha256, 1, "130211023212/626"}};
  for (const auto& pin : kPins) {
    FreqMarkParams params = DefaultParams();
    params.hash_algo = pin.algo;
    const FrequencyMarker marker(SecretKey::FromSeed(21), params);
    EXPECT_EQ(marker.FindGroupingSalt(domain, 4).value(), pin.salt);
    std::string groups;
    for (std::size_t t = 0; t < domain.size(); ++t) {
      groups += static_cast<char>(
          '0' + marker.GroupOf(domain.value(t), 4, pin.salt));
    }
    groups += '/';
    for (std::uint8_t salt = 0; salt < 3; ++salt) {
      groups += static_cast<char>(
          '0' + marker.GroupOf(Value(std::int64_t{7}), 8, salt));
    }
    EXPECT_EQ(groups, pin.groups) << HashAlgorithmName(pin.algo);
  }
}

TEST(FreqMarkTest, RejectsTooSmallDomain) {
  Relation rel = SkewedRelation(5000, 10);
  const FrequencyMarker marker(SecretKey::FromSeed(10), DefaultParams());
  // nA = 10 < 2 * |wm| = 16.
  EXPECT_FALSE(marker.Embed(rel, "A", MakeWatermark(8, 10)).ok());
}

TEST(FreqMarkTest, RejectsTooFineQuantization) {
  Relation rel = SkewedRelation(500, 60);
  FreqMarkParams params;
  params.quantization_step = 0.001;  // q*N = 0.5 < 2
  const FrequencyMarker marker(SecretKey::FromSeed(11), params);
  EXPECT_FALSE(marker.Embed(rel, "A", MakeWatermark(8, 11)).ok());
}

TEST(FreqMarkTest, RejectsEmptyWatermarkAndUnknownColumn) {
  Relation rel = SkewedRelation(2000);
  const FrequencyMarker marker(SecretKey::FromSeed(12), DefaultParams());
  EXPECT_FALSE(marker.Embed(rel, "A", BitVector()).ok());
  EXPECT_FALSE(marker.Embed(rel, "NOPE", MakeWatermark(8, 12)).ok());
  EXPECT_FALSE(marker.Detect(rel, "A", 0).ok());
}

TEST(FreqMarkTest, QualityAssessorCanVetoMoves) {
  Relation rel = SkewedRelation();
  const FrequencyMarker marker(SecretKey::FromSeed(13), DefaultParams());
  QualityAssessor assessor;
  assessor.AddPlugin(std::make_unique<MaxAlterationsPlugin>(0.0));
  ASSERT_TRUE(assessor.Begin(rel).ok());
  const Relation before = rel;
  const FreqEmbedReport report =
      marker.Embed(rel, "A", MakeWatermark(8, 13), std::nullopt, &assessor)
          .value();
  EXPECT_EQ(report.tuples_moved, 0u);
  EXPECT_TRUE(rel.SameContent(before));
}

TEST(FreqMarkTest, CombinesWithKeyBasedMark) {
  // Frequency-domain marking is "an additional (or alternate) encoding
  // channel" (Section 3.1): both marks must coexist... the frequency pass
  // moves few tuples, so the key-based mark survives mostly intact.
  Relation rel = SkewedRelation(30000);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(14);
  WatermarkParams params;
  params.e = 30;
  const BitVector wm = MakeWatermark(10, 14);

  Embedder embedder(keys, params);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const EmbedReport key_report = embedder.Embed(rel, options, wm).value();

  const FrequencyMarker marker(keys.k2, DefaultParams());
  const BitVector freq_wm = MakeWatermark(8, 15);
  ASSERT_TRUE(marker.Embed(rel, "A", freq_wm).ok());

  // Frequency mark reads back exactly.
  EXPECT_EQ(marker.Detect(rel, "A", freq_wm.size()).value().wm, freq_wm);

  // Key-based mark survives with at most mild damage.
  Detector detector(keys, params);
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.payload_length = key_report.payload_length;
  detect_options.domain = key_report.domain;
  const DetectionResult detection =
      detector.Detect(rel, detect_options, wm.size()).value();
  EXPECT_GE(MatchWatermark(wm, detection.wm).match_fraction, 0.9);
}

}  // namespace
}  // namespace catmark
