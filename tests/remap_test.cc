#include <gtest/gtest.h>

#include "attack/attacks.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "core/remap_recovery.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "relation/histogram.h"

namespace catmark {
namespace {

Relation SkewedRelation(std::size_t n = 30000, std::size_t domain = 40,
                        std::uint64_t seed = 61) {
  KeyedCategoricalConfig config;
  config.num_tuples = n;
  config.domain_size = domain;
  config.zipf_s = 1.1;  // distinctly non-uniform — the paper's precondition
  config.seed = seed;
  return GenerateKeyedCategorical(config);
}

struct RemapTestData {
  Relation original;
  CategoricalDomain domain;
  std::vector<double> frequencies;
};

RemapTestData MakeSetup(std::size_t n = 30000, std::size_t domain_size = 40) {
  RemapTestData s;
  s.original = SkewedRelation(n, domain_size);
  s.domain =
      CategoricalDomain::FromRelationColumn(s.original, 1).value();
  s.frequencies =
      FrequencyHistogram::Compute(s.original, 1, s.domain).value()
          .Frequencies();
  return s;
}

TEST(RemapRecoveryTest, RecoversExactMappingOnSkewedData) {
  const RemapTestData s = MakeSetup();
  const RemapAttackResult attack =
      BijectiveRemapAttack(s.original, "A", 1).value();
  const RemapRecovery recovery =
      RecoverBijectiveMapping(attack.relation, "A", s.domain, s.frequencies)
          .value();

  // Check against the ground truth: every suspect value maps back to its
  // true pre-image (frequencies are distinct at this skew/sample size).
  std::size_t correct = 0;
  for (std::size_t i = 0; i < recovery.suspect_domain.size(); ++i) {
    const std::size_t orig = recovery.suspect_to_original[i];
    ASSERT_NE(orig, RemapRecovery::npos);
    const std::string mapped_back = s.domain.value(orig).ToString();
    const std::string suspect_label =
        recovery.suspect_domain.value(i).ToString();
    if (attack.ground_truth.forward.at(mapped_back) == suspect_label) {
      ++correct;
    }
  }
  // Zipf tails have near-equal frequencies, so a few rank swaps among the
  // rarest values are expected; the bulk must be exact.
  EXPECT_GE(correct, recovery.suspect_domain.size() * 8 / 10);
  EXPECT_LT(recovery.mean_frequency_error, 0.01);
}

TEST(RemapRecoveryTest, WatermarkSurvivesRemapPlusRecovery) {
  // End-to-end Section 4.5: embed, remap (A6), recover, detect.
  RemapTestData s = MakeSetup();
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(2);
  WatermarkParams params;
  params.e = 30;
  const BitVector wm = MakeWatermark(10, 2);

  Relation marked = s.original;
  EmbedOptions embed_options;
  embed_options.key_attr = "K";
  embed_options.target_attr = "A";
  embed_options.domain = s.domain;
  const EmbedReport report =
      Embedder(keys, params).Embed(marked, embed_options, wm).value();

  // The owner's frequency table describes the *marked* data (what was
  // published).
  const std::vector<double> published_freqs =
      FrequencyHistogram::Compute(marked, 1, s.domain).value().Frequencies();

  const RemapAttackResult attack = BijectiveRemapAttack(marked, "A", 3).value();

  // Without recovery, detection fails outright: no suspect value is in the
  // original domain.
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.domain = report.domain;
  params.payload_length = report.payload_length;
  const Detector detector(keys, params);
  const DetectionResult blind =
      detector.Detect(attack.relation, detect_options, wm.size()).value();
  EXPECT_EQ(blind.usable_votes, 0u);

  // With recovery, the mark comes back.
  const RemapRecovery recovery =
      RecoverBijectiveMapping(attack.relation, "A", s.domain,
                              published_freqs)
          .value();
  const Relation restored =
      ApplyRecoveredMapping(attack.relation, "A", recovery, s.domain).value();
  const DetectionResult detection =
      detector.Detect(restored, detect_options, wm.size()).value();
  const MatchStats stats = MatchWatermark(wm, detection.wm);
  EXPECT_GE(stats.match_fraction, 0.9);
}

TEST(RemapRecoveryTest, RestoredColumnHasOriginalType) {
  SalesGenConfig config;
  config.num_tuples = 5000;
  config.num_items = 30;
  const Relation rel = GenerateItemScan(config);
  const auto domain = CategoricalDomain::FromRelationColumn(rel, 1).value();
  const auto freqs =
      FrequencyHistogram::Compute(rel, 1, domain).value().Frequencies();
  const RemapAttackResult attack =
      BijectiveRemapAttack(rel, "Item_Nbr", 4).value();
  const RemapRecovery recovery =
      RecoverBijectiveMapping(attack.relation, "Item_Nbr", domain, freqs)
          .value();
  const Relation restored =
      ApplyRecoveredMapping(attack.relation, "Item_Nbr", recovery, domain)
          .value();
  const int col = restored.schema().ColumnIndex("Item_Nbr");
  ASSERT_GE(col, 0);
  EXPECT_EQ(restored.schema().column(static_cast<std::size_t>(col)).type,
            ColumnType::kInt64);
  EXPECT_TRUE(domain.Contains(restored.Get(0, static_cast<std::size_t>(col))));
}

TEST(RemapRecoveryTest, RejectsMisalignedFrequencyTable) {
  const RemapTestData s = MakeSetup(2000, 20);
  std::vector<double> wrong_size(s.domain.size() + 1, 0.0);
  EXPECT_FALSE(
      RecoverBijectiveMapping(s.original, "A", s.domain, wrong_size).ok());
}

TEST(RemapRecoveryTest, UnknownColumnFails) {
  const RemapTestData s = MakeSetup(2000, 20);
  EXPECT_FALSE(
      RecoverBijectiveMapping(s.original, "NOPE", s.domain, s.frequencies)
          .ok());
}

TEST(RemapRecoveryTest, UniformFrequenciesDegradeRecovery) {
  // The paper's caveat: "if the data value occurrences are uniformly
  // distributed ... there is nothing one can do". Rank matching then
  // scrambles the mapping.
  KeyedCategoricalConfig config;
  config.num_tuples = 30000;
  config.domain_size = 40;
  config.zipf_s = 0.0;  // uniform
  config.seed = 5;
  const Relation uniform = GenerateKeyedCategorical(config);
  const auto domain = CategoricalDomain::FromRelationColumn(uniform, 1).value();
  const auto freqs =
      FrequencyHistogram::Compute(uniform, 1, domain).value().Frequencies();
  const RemapAttackResult attack =
      BijectiveRemapAttack(uniform, "A", 6).value();
  // Subsample so the frequency estimates carry sampling noise; on uniform
  // data that noise exceeds the (near-zero) gaps between true frequencies
  // and rank matching scrambles. (Without any post-remap noise the counts
  // are bit-identical and even uniform data rank-matches trivially.)
  const Relation noisy =
      HorizontalPartitionAttack(attack.relation, 0.3, 66).value();
  const RemapRecovery recovery =
      RecoverBijectiveMapping(noisy, "A", domain, freqs).value();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < recovery.suspect_domain.size(); ++i) {
    const std::size_t orig = recovery.suspect_to_original[i];
    if (orig == RemapRecovery::npos) continue;
    if (attack.ground_truth.forward.at(domain.value(orig).ToString()) ==
        recovery.suspect_domain.value(i).ToString()) {
      ++correct;
    }
  }
  EXPECT_LT(correct, recovery.suspect_domain.size() / 2);
}

TEST(RemapRecoveryTest, HandlesSuspectWithFewerValues) {
  // After remap + heavy subset selection some categories may vanish; the
  // recovery must still return a (partial) mapping.
  RemapTestData s = MakeSetup(10000, 30);
  const RemapAttackResult attack =
      BijectiveRemapAttack(s.original, "A", 7).value();
  const Relation reduced =
      HorizontalPartitionAttack(attack.relation, 0.1, 77).value();
  const RemapRecovery recovery =
      RecoverBijectiveMapping(reduced, "A", s.domain, s.frequencies).value();
  EXPECT_LE(recovery.suspect_domain.size(), s.domain.size());
  for (const std::size_t orig : recovery.suspect_to_original) {
    if (orig != RemapRecovery::npos) {
      EXPECT_LT(orig, s.domain.size());
    }
  }
}

}  // namespace
}  // namespace catmark
