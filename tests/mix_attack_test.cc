#include <gtest/gtest.h>

#include "attack/attacks.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"

namespace catmark {
namespace {

struct MarkedSource {
  Relation rel;
  WatermarkKeySet keys;
  BitVector wm;
  EmbedReport report;
};

MarkedSource MakeSource(std::uint64_t seed, const WatermarkParams& params) {
  MarkedSource s;
  KeyedCategoricalConfig gen;
  gen.num_tuples = 10000;
  gen.domain_size = 100;
  gen.seed = seed;
  s.rel = GenerateKeyedCategorical(gen);
  s.keys = WatermarkKeySet::FromSeed(seed);
  s.wm = MakeWatermark(10, seed);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  s.report = Embedder(s.keys, params).Embed(s.rel, options, s.wm).value();
  return s;
}

double MatchOn(const Relation& suspect, const MarkedSource& source,
               const WatermarkParams& params) {
  WatermarkParams detect_params = params;
  detect_params.payload_length = source.report.payload_length;
  const Detector detector(source.keys, detect_params);
  DetectOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.domain = source.report.domain;
  const DetectionResult detection =
      detector.Detect(suspect, options, source.wm.size()).value();
  return MatchWatermark(source.wm, detection.wm).match_fraction;
}

TEST(MixAndMatchTest, PreservesSizeAndSchema) {
  WatermarkParams params;
  params.e = 30;
  const MarkedSource a = MakeSource(131, params);
  const MarkedSource b = MakeSource(132, params);
  const Relation mixed = MixAndMatchAttack(a.rel, b.rel, 0.5, 1).value();
  EXPECT_EQ(mixed.NumRows(), 10000u);
  EXPECT_TRUE(mixed.schema() == a.rel.schema());
}

TEST(MixAndMatchTest, BothMarksSurviveDiluted) {
  // Mixing behaves like subset selection toward each owner: both marks
  // remain detectable, which means mixing *doubles* Mallory's legal
  // exposure rather than hiding him.
  WatermarkParams params;
  params.e = 30;
  const MarkedSource a = MakeSource(133, params);
  const MarkedSource b = MakeSource(134, params);
  const Relation mixed = MixAndMatchAttack(a.rel, b.rel, 0.5, 2).value();
  EXPECT_GE(MatchOn(mixed, a, params), 0.9);
  EXPECT_GE(MatchOn(mixed, b, params), 0.9);
}

TEST(MixAndMatchTest, LopsidedMixFavorsTheBiggerSource) {
  WatermarkParams params;
  params.e = 60;
  const MarkedSource a = MakeSource(135, params);
  const MarkedSource b = MakeSource(136, params);
  const Relation mixed = MixAndMatchAttack(a.rel, b.rel, 0.9, 3).value();
  EXPECT_GE(MatchOn(mixed, a, params), MatchOn(mixed, b, params) - 1e-9);
}

TEST(MixAndMatchTest, RejectsBadInput) {
  WatermarkParams params;
  const MarkedSource a = MakeSource(137, params);
  SalesGenConfig sales;
  sales.num_tuples = 100;
  const Relation other_schema = GenerateItemScan(sales);
  EXPECT_FALSE(MixAndMatchAttack(a.rel, other_schema, 0.5, 4).ok());
  EXPECT_FALSE(MixAndMatchAttack(a.rel, a.rel, 1.5, 4).ok());
}

TEST(MixAndMatchTest, DeterministicPerSeed) {
  WatermarkParams params;
  const MarkedSource a = MakeSource(138, params);
  const MarkedSource b = MakeSource(139, params);
  EXPECT_TRUE(MixAndMatchAttack(a.rel, b.rel, 0.3, 5)
                  .value()
                  .SameContent(MixAndMatchAttack(a.rel, b.rel, 0.3, 5).value()));
}

}  // namespace
}  // namespace catmark
