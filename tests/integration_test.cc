// End-to-end integration tests spanning generator -> quality-constrained
// embedding -> CSV round trip -> attacks -> blind detection: the workflows a
// data owner would actually run.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "core/catmark.h"
#include "exp/harness.h"

namespace catmark {
namespace {

TEST(IntegrationTest, OwnerPipelineOnItemScan) {
  // 1. The owner's data: an ItemScan sample.
  SalesGenConfig gen;
  gen.num_tuples = 8000;
  gen.num_items = 300;
  gen.seed = 81;
  Relation data = GenerateItemScan(gen);

  // 2. Embed under quality constraints.
  const WatermarkKeySet keys = WatermarkKeySet::FromPassphrase("wal-mart");
  WatermarkParams params;
  params.e = 40;
  const BitVector wm = MakeWatermark(10, 81);

  QualityAssessor assessor;
  assessor.AddPlugin(std::make_unique<MaxAlterationsPlugin>(0.05));
  assessor.AddPlugin(std::make_unique<HistogramDriftPlugin>("Item_Nbr", 0.10));
  ASSERT_TRUE(assessor.Begin(data).ok());

  EmbedOptions options;
  options.key_attr = "Visit_Nbr";
  options.target_attr = "Item_Nbr";
  const Embedder embedder(keys, params);
  const EmbedReport report =
      embedder.Embed(data, options, wm, &assessor).value();
  EXPECT_GT(report.altered_tuples, 0u);
  EXPECT_LE(report.alteration_fraction, 0.05);

  // 3. The marked data ships as CSV and comes back.
  const std::string path = ::testing::TempDir() + "/itemscan_marked.csv";
  ASSERT_TRUE(WriteCsvFile(data, path).ok());
  const Relation shipped = ReadCsvFile(path, data.schema()).value();
  std::remove(path.c_str());

  // 4. Blind detection on the shipped copy.
  WatermarkParams detect_params = params;
  detect_params.payload_length = report.payload_length;
  const Detector detector(keys, detect_params);
  DetectOptions detect_options;
  detect_options.key_attr = "Visit_Nbr";
  detect_options.target_attr = "Item_Nbr";
  detect_options.domain = report.domain;
  const DetectionResult detection =
      detector.Detect(shipped, detect_options, wm.size()).value();
  EXPECT_EQ(detection.wm, wm);
  const MatchStats stats = MatchWatermark(wm, detection.wm);
  EXPECT_LT(stats.false_match_probability, 1e-2);
}

TEST(IntegrationTest, CombinedAttackGauntlet) {
  // Mallory chains A4 + A2 + A3 + A1: re-sort, add 20%, alter 20%, keep 60%.
  KeyedCategoricalConfig gen;
  gen.num_tuples = 12000;
  gen.domain_size = 200;
  gen.seed = 82;
  Relation data = GenerateKeyedCategorical(gen);

  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(82);
  WatermarkParams params;
  params.e = 30;
  const BitVector wm = MakeWatermark(10, 82);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const EmbedReport report =
      Embedder(keys, params).Embed(data, options, wm).value();

  Relation attacked = ResortAttack(data, 1);
  attacked = SubsetAdditionAttack(attacked, 0.2, 2).value();
  attacked = SubsetAlterationAttack(attacked, "A", 0.2, 3).value();
  attacked = HorizontalPartitionAttack(attacked, 0.6, 4).value();

  WatermarkParams detect_params = params;
  detect_params.payload_length = report.payload_length;
  const Detector detector(keys, detect_params);
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.domain = report.domain;
  const DetectionResult detection =
      detector.Detect(attacked, detect_options, wm.size()).value();
  const MatchStats stats = MatchWatermark(wm, detection.wm);
  EXPECT_GE(stats.match_fraction, 0.8)
      << "mark should survive the combined gauntlet";
}

TEST(IntegrationTest, MultiChannelDefenseInDepth) {
  // Key-based multi-attribute channels + frequency-domain channel together:
  // whichever projection Mallory keeps, some witness testifies.
  SalesGenConfig gen;
  gen.num_tuples = 24000;
  gen.num_items = 120;
  gen.item_zipf_s = 1.0;
  gen.seed = 83;
  Relation data = GenerateItemScan(gen);

  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(83);
  WatermarkParams params;
  params.e = 30;
  const BitVector wm = MakeWatermark(10, 83);

  const MultiAttributeEmbedder multi(keys, params);
  const auto pairs = PlanPairClosure(data).value();
  const MultiEmbedReport multi_report =
      multi.EmbedAll(data, pairs, wm).value();

  FreqMarkParams freq_params;
  freq_params.quantization_step = 0.02;
  const FrequencyMarker freq(keys.k1, freq_params);
  const BitVector freq_wm = MakeWatermark(8, 84);
  ASSERT_TRUE(freq.Embed(data, "Item_Nbr", freq_wm).ok());

  // Partition 1: two categorical columns, no key.
  {
    const Relation part =
        VerticalPartitionAttack(data, {"Item_Nbr", "Dept_Desc"}).value();
    const auto detections =
        multi.DetectAll(part, pairs, wm.size(),
                        multi_report.passes[0].report.payload_length)
            .value();
    ASSERT_FALSE(detections.empty());
    const BitVector combined =
        MultiAttributeEmbedder::CombineDetections(detections, wm.size());
    EXPECT_GE(MatchWatermark(wm, combined).match_fraction, 0.7);
  }

  // Partition 2 (extreme): Item_Nbr alone — only the frequency channel
  // survives.
  {
    const Relation part = VerticalPartitionAttack(data, {"Item_Nbr"}).value();
    const FreqDetectReport detect =
        freq.Detect(part, "Item_Nbr", freq_wm.size()).value();
    EXPECT_GE(MatchWatermark(freq_wm, detect.wm).match_fraction, 7.0 / 8.0);
  }
}

TEST(IntegrationTest, CourtCaseNumbers) {
  // The rights-claim math the paper takes to court: detection of the
  // owner's mark with overwhelming confidence, near-chance match for a
  // party holding wrong keys.
  KeyedCategoricalConfig gen;
  gen.num_tuples = 6000;
  gen.domain_size = 500;
  gen.seed = 85;
  Relation data = GenerateKeyedCategorical(gen);

  const WatermarkKeySet owner = WatermarkKeySet::FromPassphrase("owner");
  const WatermarkKeySet impostor = WatermarkKeySet::FromPassphrase("impostor");
  WatermarkParams params;
  params.e = 60;
  const BitVector wm = MakeWatermark(16, 85);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const EmbedReport report =
      Embedder(owner, params).Embed(data, options, wm).value();

  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.domain = report.domain;
  params.payload_length = report.payload_length;

  const DetectionResult owner_detection =
      Detector(owner, params).Detect(data, detect_options, wm.size()).value();
  const MatchStats owner_stats = MatchWatermark(wm, owner_detection.wm);
  EXPECT_EQ(owner_stats.matched_bits, wm.size());
  EXPECT_LT(owner_stats.false_match_probability, 1e-4);  // (1/2)^16

  const DetectionResult impostor_detection =
      Detector(impostor, params)
          .Detect(data, detect_options, wm.size())
          .value();
  const MatchStats impostor_stats = MatchWatermark(wm, impostor_detection.wm);
  EXPECT_LT(impostor_stats.matched_bits, wm.size());
}

TEST(IntegrationTest, IncrementalUpdatesStayDetectable) {
  // Section 4.3: as updates occur, new tuples are evaluated on the fly for
  // fitness and watermarked accordingly; detection keeps working.
  KeyedCategoricalConfig gen;
  gen.num_tuples = 6000;
  gen.domain_size = 100;
  gen.seed = 86;
  Relation data = GenerateKeyedCategorical(gen);

  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(86);
  WatermarkParams params;
  params.e = 30;
  const BitVector wm = MakeWatermark(10, 86);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const EmbedReport report =
      Embedder(keys, params).Embed(data, options, wm).value();

  // New batch arrives; watermark it with the same keys/payload length and
  // append (the injector implements exactly the on-the-fly rule).
  KeyedCategoricalConfig more;
  more.num_tuples = 2000;
  more.domain_size = 100;
  more.seed = 87;
  Relation batch = GenerateKeyedCategorical(more);
  WatermarkParams batch_params = params;
  batch_params.payload_length = report.payload_length;
  ASSERT_TRUE(Embedder(keys, batch_params)
                  .Embed(batch, options, wm)
                  .ok());
  ASSERT_TRUE(AppendAll(data, batch).ok());

  WatermarkParams detect_params = params;
  detect_params.payload_length = report.payload_length;
  const Detector detector(keys, detect_params);
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  const DetectionResult detection =
      detector.Detect(data, detect_options, wm.size()).value();
  EXPECT_EQ(detection.wm, wm);
}

}  // namespace
}  // namespace catmark
