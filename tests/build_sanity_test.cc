// End-to-end embed -> attack -> detect roundtrip through the public
// umbrella header. This suite exists to guard the build graph itself: it
// links against every module via catmark::catmark and exercises the main
// ownership-proof flow, so a broken target or ODR drift fails loudly here.
#include <gtest/gtest.h>

#include "core/catmark.h"
#include "test_util.h"

namespace catmark {
namespace {

TEST(BuildSanityTest, EmbedAttackDetectRoundtrip) {
  Relation rel = testutil::SmallKeyedRelation(/*num_tuples=*/4000,
                                              /*domain_size=*/40);
  const WatermarkKeySet keys = testutil::TestKeys();
  WatermarkParams params;
  params.e = 40;
  const BitVector wm = testutil::TestWatermark(24);

  EmbedOptions embed_options;
  embed_options.key_attr = testutil::kKeyAttr;
  embed_options.target_attr = testutil::kTargetAttr;

  const Embedder embedder(keys, params);
  auto embed = embedder.Embed(rel, embed_options, wm);
  ASSERT_TRUE(embed.ok()) << embed.status().ToString();
  EXPECT_GT(embed->fit_tuples, 0u);
  EXPECT_GT(embed->payload_length, 0u);

  // A3 subset alteration over 5% of the tuples, then A4 re-sorting.
  auto attacked = SubsetAlterationAttack(rel, testutil::kTargetAttr,
                                         /*alter_fraction=*/0.05,
                                         /*seed=*/123);
  ASSERT_TRUE(attacked.ok()) << attacked.status().ToString();
  const Relation suspect = ResortAttack(*attacked, /*seed=*/456);

  DetectOptions detect_options;
  detect_options.key_attr = testutil::kKeyAttr;
  detect_options.target_attr = testutil::kTargetAttr;
  detect_options.domain = embed->domain;
  params.payload_length = embed->payload_length;

  const Detector detector(keys, params);
  auto detection = detector.Detect(suspect, detect_options, wm.size());
  ASSERT_TRUE(detection.ok()) << detection.status().ToString();

  const MatchStats stats = MatchWatermark(wm, detection->wm);
  EXPECT_EQ(stats.total_bits, wm.size());
  // A 5% alteration leaves the majority-voted mark essentially intact.
  EXPECT_GE(stats.match_fraction, 0.9);
  EXPECT_LT(stats.false_match_probability, 1e-3);
}

TEST(BuildSanityTest, DetectWithWrongKeysFindsNothing) {
  Relation rel = testutil::SmallKeyedRelation(/*num_tuples=*/4000,
                                              /*domain_size=*/40);
  WatermarkParams params;
  params.e = 40;
  const BitVector wm = testutil::TestWatermark(24);

  EmbedOptions embed_options;
  embed_options.key_attr = testutil::kKeyAttr;
  embed_options.target_attr = testutil::kTargetAttr;

  const Embedder embedder(testutil::TestKeys(/*seed=*/7), params);
  auto embed = embedder.Embed(rel, embed_options, wm);
  ASSERT_TRUE(embed.ok()) << embed.status().ToString();

  DetectOptions detect_options;
  detect_options.key_attr = testutil::kKeyAttr;
  detect_options.target_attr = testutil::kTargetAttr;
  detect_options.domain = embed->domain;
  params.payload_length = embed->payload_length;

  const Detector mallory(testutil::TestKeys(/*seed=*/1234), params);
  auto detection = mallory.Detect(rel, detect_options, wm.size());
  ASSERT_TRUE(detection.ok()) << detection.status().ToString();

  const MatchStats stats = MatchWatermark(wm, detection->wm);
  // With the wrong keys the decoded mark is random: ~50% agreement.
  EXPECT_LE(stats.match_fraction, 0.8);
  EXPECT_GT(stats.false_match_probability, 1e-6);
}

}  // namespace
}  // namespace catmark
