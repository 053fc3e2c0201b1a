// Attack-robustness matrix (in the spirit of Tekgul & Asokan's adversarial
// evaluation of dataset watermarking): embed once, then sweep the Section
// 2.3 attack suite across survival fractions and require the ownership
// decision to clear RequiredMatchThreshold exactly where the paper's
// Figures 4/7 predict it should — and to FAIL where it should: a rightful-
// looking claim with the wrong key must never cross the court's evidence
// bar (false-positive guard), and survival below the channel's capacity
// floor must degrade the decoded mark below the threshold.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "attack/attacks.h"
#include "core/decision.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"

namespace catmark {
namespace {

constexpr double kAlpha = 1e-3;  // court-facing significance level

struct MatrixFixture {
  Relation marked;       // watermarked relation (embedded once, shared)
  Relation decoy;        // same schema, never watermarked (mix-and-match)
  BitVector wm;
  WatermarkKeySet keys = WatermarkKeySet::FromSeed(2004);
  WatermarkKeySet wrong_keys = WatermarkKeySet::FromSeed(666);
  WatermarkParams params;
  DetectOptions detect_options;

  static MatrixFixture Make() {
    KeyedCategoricalConfig gen;
    gen.num_tuples = 6000;  // the paper's Section 4.4 worked example size
    gen.domain_size = 30;
    gen.zipf_s = 0.0;  // uniform: the draining guard stays out of the way
    gen.seed = 2004;
    MatrixFixture f;
    f.marked = GenerateKeyedCategorical(gen);
    gen.seed = 4002;
    f.decoy = GenerateKeyedCategorical(gen);
    f.wm = MakeWatermark(10, 2004);  // the paper's 10-bit mark
    f.params.e = 6;                  // ~1000 fit tuples: Figure 7's regime
    EmbedOptions options;
    options.key_attr = "K";
    options.target_attr = "A";
    const EmbedReport report =
        Embedder(f.keys, f.params).Embed(f.marked, options, f.wm).value();
    f.detect_options.key_attr = "K";
    f.detect_options.target_attr = "A";
    f.params.payload_length = report.payload_length;
    f.detect_options.domain = report.domain;
    return f;
  }

  OwnershipDecision Decide(const Relation& suspect, bool right_keys) const {
    const DetectionResult result =
        Detector(right_keys ? keys : wrong_keys, params)
            .Detect(suspect, detect_options, wm.size())
            .value();
    return DecideOwnership(wm, result.wm, kAlpha);
  }
};

const MatrixFixture& Fixture() {
  static const MatrixFixture f = MatrixFixture::Make();
  return f;
}

// One attacked relation per (attack, survival) grid cell. `survival` is the
// fraction of marked tuples that remain in the suspect data.
Relation AttackedCell(const std::string& attack, double survival,
                      std::uint64_t seed) {
  const MatrixFixture& f = Fixture();
  if (attack == "subset") {
    return HorizontalPartitionAttack(f.marked, survival, seed).value();
  }
  if (attack == "mix") {
    return MixAndMatchAttack(f.marked, f.decoy, survival, seed).value();
  }
  if (attack == "additive") {
    // Dilute with fresh tuples until marked data is `survival` of the set.
    const double add_fraction = (1.0 - survival) / survival;
    return SubsetAdditionAttack(f.marked, add_fraction, seed).value();
  }
  if (attack == "vertical") {
    // Mallory keeps only the key/target association, plus horizontal loss.
    return VerticalPartitionAttack(
               HorizontalPartitionAttack(f.marked, survival, seed).value(),
               {"K", "A"})
        .value();
  }
  if (attack == "resort") {
    return ResortAttack(
        HorizontalPartitionAttack(f.marked, survival, seed).value(), seed);
  }
  ADD_FAILURE() << "unknown attack " << attack;
  return f.marked;
}

// Figures 4/7 predict: with e = 6 on 6000 tuples the channel carries ~100
// redundant votes per mark bit, so majority voting survives every Section
// 2.3 attack at 25% survival and above — the decision must clear the
// threshold in every grid cell, while the same evidence bar must reject
// the decode produced with a wrong key (Section 4.4's false-claim
// probability).
TEST(AttackMatrixTest, SurvivalGridClearsThresholdWithRightKeyOnly) {
  const MatrixFixture& f = Fixture();
  const std::size_t threshold = RequiredMatchThreshold(f.wm.size(), kAlpha);
  // A 10-bit mark at alpha = 1e-3 needs a perfect match: P[Bin(10,1/2) >=
  // 10] ~ 0.00098 is the first tail below alpha.
  ASSERT_EQ(threshold, 10u);

  std::uint64_t seed = 77;
  for (const char* attack :
       {"subset", "mix", "additive", "vertical", "resort"}) {
    for (const double survival : {0.25, 0.50, 0.75}) {
      SCOPED_TRACE(std::string(attack) + " @ " + std::to_string(survival));
      const Relation suspect = AttackedCell(attack, survival, ++seed);

      const OwnershipDecision right = Fixture().Decide(suspect, true);
      EXPECT_TRUE(right.owned);
      EXPECT_GE(right.matched_bits, threshold);
      EXPECT_LE(right.p_value, kAlpha);

      const OwnershipDecision wrong = Fixture().Decide(suspect, false);
      EXPECT_FALSE(wrong.owned) << "wrong key cleared the evidence bar";
      EXPECT_LT(wrong.matched_bits, threshold);
    }
  }
}

// The re-sorting attack alone (no data loss) must be a perfect no-op for
// detection: every decision is per-tuple, so a permutation changes nothing
// — mark alteration exactly 0, unanimous confidence.
TEST(AttackMatrixTest, ResortAloneIsLossless) {
  const MatrixFixture& f = Fixture();
  const Relation resorted = ResortAttack(f.marked, 99);
  const DetectionResult result =
      Detector(f.keys, f.params).Detect(resorted, f.detect_options,
                                        f.wm.size())
          .value();
  const MatchStats stats = MatchWatermark(f.wm, result.wm);
  EXPECT_EQ(stats.mark_alteration, 0.0);
  EXPECT_EQ(stats.matched_bits, f.wm.size());
}

// Below the channel's capacity floor the threshold must NOT be cleared:
// at 0.2% survival (~2 of the ~1000 fit tuples remain) most mark bits
// receive zero votes and decode to the all-absent default, so the match
// count falls to chance level — Figure 7's degradation endpoint. A scheme
// that still "detects" here would be manufacturing evidence.
TEST(AttackMatrixTest, SurvivalBelowCapacityFloorFailsTheThreshold) {
  const MatrixFixture& f = Fixture();
  const Relation suspect =
      HorizontalPartitionAttack(f.marked, 0.002, 123).value();
  const OwnershipDecision decision = f.Decide(suspect, true);
  EXPECT_FALSE(decision.owned);
  EXPECT_LT(decision.matched_bits, RequiredMatchThreshold(f.wm.size(),
                                                          kAlpha));
}

// The false-positive guard holds on pristine (never-watermarked) data too:
// detecting with either key set over the decoy must not produce a claim.
TEST(AttackMatrixTest, UnmarkedDataNeverClearsTheThreshold) {
  const MatrixFixture& f = Fixture();
  EXPECT_FALSE(f.Decide(f.decoy, true).owned);
  EXPECT_FALSE(f.Decide(f.decoy, false).owned);
}

}  // namespace
}  // namespace catmark
