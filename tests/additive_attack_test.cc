// The additive watermark attack (paper Section 6 future work): Mallory
// marks the owner's marked data with his own keys. These tests establish
// the two facts the dispute analysis rests on: additive marking does not
// remove the first mark, and both parties detect — so resolution must come
// from key commitment, which the "mark in the original" test provides.

#include <gtest/gtest.h>

#include "core/additive_attack.h"
#include "core/decision.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"

namespace catmark {
namespace {

struct OwnerData {
  Relation original;       // the owner's pre-watermark data (owner-private)
  Relation marked;         // what was published
  WatermarkKeySet keys = WatermarkKeySet::FromSeed(101);
  WatermarkParams params;
  BitVector wm;
  EmbedReport report;
};

OwnerData MakeOwner() {
  OwnerData o;
  KeyedCategoricalConfig gen;
  gen.num_tuples = 9000;
  gen.domain_size = 150;
  gen.seed = 101;
  o.original = GenerateKeyedCategorical(gen);
  o.marked = o.original;
  o.params.e = 30;
  o.wm = MakeWatermark(12, 101);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  o.report = Embedder(o.keys, o.params)
                 .Embed(o.marked, options, o.wm)
                 .value();
  return o;
}

DetectionResult DetectWith(const Relation& rel, const WatermarkKeySet& keys,
                           const WatermarkParams& params,
                           std::size_t payload_length, std::size_t wm_len) {
  WatermarkParams detect_params = params;
  detect_params.payload_length = payload_length;
  const Detector detector(keys, detect_params);
  DetectOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  return detector.Detect(rel, options, wm_len).value();
}

TEST(AdditiveAttackTest, OwnersMarkSurvivesAdditiveMarking) {
  const OwnerData owner = MakeOwner();
  const AdditiveAttackResult attack =
      AdditiveWatermarkAttack(owner.marked, "K", "A", owner.params, 12, 999)
          .value();
  const DetectionResult detection =
      DetectWith(attack.relation, owner.keys, owner.params,
                 owner.report.payload_length, owner.wm.size());
  const MatchStats stats = MatchWatermark(owner.wm, detection.wm);
  // Mallory altered only ~N/e tuples; collisions damage at most a bit or
  // two of the owner's ECC-protected mark.
  EXPECT_GE(stats.match_fraction, 10.0 / 12.0);
  EXPECT_TRUE(DecideOwnership(owner.wm, detection.wm, 1e-3).owned);
}

TEST(AdditiveAttackTest, MalloryAlsoDetectsHisMark) {
  // Which is exactly why detection alone cannot arbitrate ownership.
  const OwnerData owner = MakeOwner();
  const AdditiveAttackResult attack =
      AdditiveWatermarkAttack(owner.marked, "K", "A", owner.params, 12, 998)
          .value();
  const DetectionResult detection =
      DetectWith(attack.relation, attack.mallory_keys, owner.params,
                 attack.mallory_report.payload_length,
                 attack.mallory_wm.size());
  EXPECT_TRUE(
      DecideOwnership(attack.mallory_wm, detection.wm, 1e-3).owned);
}

TEST(AdditiveAttackTest, KeyCommitmentResolvesTheDispute) {
  // The asymmetry that settles court: the owner's mark is detectable in
  // MALLORY's "original" (his copy pre-dates nothing — it IS the owner's
  // publication), while Mallory's mark is NOT detectable in the owner's
  // true original, which only the owner can produce.
  const OwnerData owner = MakeOwner();
  const AdditiveAttackResult attack =
      AdditiveWatermarkAttack(owner.marked, "K", "A", owner.params, 12, 997)
          .value();

  // Owner's mark in the data Mallory claims as his original:
  const DetectionResult owner_in_mallory =
      DetectWith(owner.marked, owner.keys, owner.params,
                 owner.report.payload_length, owner.wm.size());
  EXPECT_TRUE(DecideOwnership(owner.wm, owner_in_mallory.wm, 1e-3).owned);

  // Mallory's mark in the owner's true original:
  const DetectionResult mallory_in_owner =
      DetectWith(owner.original, attack.mallory_keys, owner.params,
                 attack.mallory_report.payload_length,
                 attack.mallory_wm.size());
  EXPECT_FALSE(
      DecideOwnership(attack.mallory_wm, mallory_in_owner.wm, 1e-3).owned);
}

TEST(AdditiveAttackTest, AttackAltersOnlyAboutNOverETuples) {
  const OwnerData owner = MakeOwner();
  const AdditiveAttackResult attack =
      AdditiveWatermarkAttack(owner.marked, "K", "A", owner.params, 12, 996)
          .value();
  EXPECT_LT(attack.mallory_report.alteration_fraction, 1.5 / 30.0);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < owner.marked.NumRows(); ++i) {
    if (!(attack.relation.Get(i, 1) == owner.marked.Get(i, 1))) ++changed;
  }
  EXPECT_EQ(changed, attack.mallory_report.altered_tuples);
}

TEST(AdditiveAttackTest, RepeatedAdditiveMarkingDegradesGracefully) {
  // Even a stack of three additive marks leaves the owner's mark standing
  // (each pass touches ~1/e of the tuples).
  const OwnerData owner = MakeOwner();
  Relation stacked = owner.marked;
  for (std::uint64_t seed = 300; seed < 303; ++seed) {
    stacked = AdditiveWatermarkAttack(stacked, "K", "A", owner.params, 12,
                                      seed)
                  .value()
                  .relation;
  }
  const DetectionResult detection =
      DetectWith(stacked, owner.keys, owner.params,
                 owner.report.payload_length, owner.wm.size());
  EXPECT_TRUE(DecideOwnership(owner.wm, detection.wm, 1e-2).owned);
}

TEST(AdditiveAttackTest, RejectsEmptyMalloryMark) {
  const OwnerData owner = MakeOwner();
  EXPECT_FALSE(
      AdditiveWatermarkAttack(owner.marked, "K", "A", owner.params, 0, 1)
          .ok());
}

}  // namespace
}  // namespace catmark
