// Parameterized attack-chain properties: the mark must survive (to a
// quantified degree) every realistic composition of the Section 2.3
// attacks, and the attacks themselves must preserve the invariants they
// claim (sizes, schemas, key sets).

#include <gtest/gtest.h>

#include <tuple>

#include "attack/attacks.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"

namespace catmark {
namespace {

enum class Step { kResort, kAlter10, kAlter20, kLoss30, kAdd20 };

std::string StepName(Step s) {
  switch (s) {
    case Step::kResort:
      return "Resort";
    case Step::kAlter10:
      return "Alter10";
    case Step::kAlter20:
      return "Alter20";
    case Step::kLoss30:
      return "Loss30";
    case Step::kAdd20:
      return "Add20";
  }
  return "?";
}

Result<Relation> ApplyStep(const Relation& rel, Step step,
                           std::uint64_t seed) {
  switch (step) {
    case Step::kResort:
      return ResortAttack(rel, seed);
    case Step::kAlter10:
      return SubsetAlterationAttack(rel, "A", 0.10, seed);
    case Step::kAlter20:
      return SubsetAlterationAttack(rel, "A", 0.20, seed);
    case Step::kLoss30:
      return HorizontalPartitionAttack(rel, 0.70, seed);
    case Step::kAdd20:
      return SubsetAdditionAttack(rel, 0.20, seed);
  }
  return Status::Internal("unhandled step");
}

using Chain = std::vector<Step>;

std::string ChainName(const ::testing::TestParamInfo<Chain>& info) {
  std::string out;
  for (const Step s : info.param) out += StepName(s);
  return out;
}

class AttackChainProperty : public ::testing::TestWithParam<Chain> {};

TEST_P(AttackChainProperty, MarkSurvivesChain) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 12000;
  gen.domain_size = 150;
  gen.seed = 777;
  Relation rel = GenerateKeyedCategorical(gen);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(777);
  WatermarkParams params;
  params.e = 30;
  const BitVector wm = MakeWatermark(10, 777);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const EmbedReport report =
      Embedder(keys, params).Embed(rel, options, wm).value();

  std::uint64_t seed = 1000;
  for (const Step step : GetParam()) {
    Result<Relation> next = ApplyStep(rel, step, seed++);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    rel = std::move(next).value();
  }

  WatermarkParams detect_params = params;
  detect_params.payload_length = report.payload_length;
  const Detector detector(keys, detect_params);
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.domain = report.domain;
  const DetectionResult detection =
      detector.Detect(rel, detect_options, wm.size()).value();
  const MatchStats stats = MatchWatermark(wm, detection.wm);
  // Every chain here stays within the regime the paper claims resilience
  // for (<=20% alterations, <=~50% cumulative loss, additions): the mark
  // must remain court-usable.
  EXPECT_GE(stats.match_fraction, 0.8)
      << "chain destroyed the mark: " << stats.mark_alteration;
}

INSTANTIATE_TEST_SUITE_P(
    Chains, AttackChainProperty,
    ::testing::Values(
        Chain{Step::kResort},
        Chain{Step::kAlter10, Step::kResort},
        Chain{Step::kLoss30, Step::kAlter10},
        Chain{Step::kAdd20, Step::kLoss30},
        Chain{Step::kResort, Step::kAdd20, Step::kAlter10},
        Chain{Step::kAlter10, Step::kLoss30, Step::kAdd20},
        Chain{Step::kLoss30, Step::kLoss30},
        Chain{Step::kAlter20, Step::kAdd20, Step::kResort},
        Chain{Step::kAdd20, Step::kAdd20},
        Chain{Step::kLoss30, Step::kAlter20, Step::kResort, Step::kAdd20}),
    ChainName);

// ----------------------------------------------------- attack invariants

TEST(AttackInvariantsTest, AttacksPreserveSchema) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 2000;
  gen.seed = 778;
  const Relation rel = GenerateKeyedCategorical(gen);
  for (const Step step : {Step::kResort, Step::kAlter10, Step::kLoss30,
                          Step::kAdd20}) {
    const Relation out = ApplyStep(rel, step, 5).value();
    EXPECT_TRUE(out.schema() == rel.schema()) << StepName(step);
  }
}

TEST(AttackInvariantsTest, AlterationNeverTouchesKeys) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 2000;
  gen.seed = 779;
  const Relation rel = GenerateKeyedCategorical(gen);
  const Relation out = ApplyStep(rel, Step::kAlter20, 6).value();
  for (std::size_t i = 0; i < rel.NumRows(); ++i) {
    ASSERT_EQ(out.Get(i, 0).AsInt64(), rel.Get(i, 0).AsInt64());
  }
}

TEST(AttackInvariantsTest, ChainsAreDeterministicPerSeed) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 1000;
  gen.seed = 780;
  const Relation rel = GenerateKeyedCategorical(gen);
  const Relation a = ApplyStep(ApplyStep(rel, Step::kLoss30, 7).value(),
                               Step::kAlter10, 8)
                         .value();
  const Relation b = ApplyStep(ApplyStep(rel, Step::kLoss30, 7).value(),
                               Step::kAlter10, 8)
                         .value();
  EXPECT_TRUE(a.SameContent(b));
}

}  // namespace
}  // namespace catmark
