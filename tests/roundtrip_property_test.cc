// Parameterized property tests: the blind embed -> detect round trip must be
// the identity for every configuration point, and must stay the identity
// under value-preserving transformations (re-sorting), degrade gracefully
// under subset selection, and respect the alteration bound ~N/e.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "attack/attacks.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "relation/ops.h"

namespace catmark {
namespace {

struct Config {
  std::size_t n;
  std::uint64_t e;
  std::size_t domain;
  std::size_t wm_bits;
  EccKind ecc;
};

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  const Config& c = info.param;
  return "n" + std::to_string(c.n) + "_e" + std::to_string(c.e) + "_d" +
         std::to_string(c.domain) + "_w" + std::to_string(c.wm_bits) + "_" +
         std::string(EccKindName(c.ecc)).substr(0, 3);
}

class RoundTripProperty : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    const Config& c = GetParam();
    KeyedCategoricalConfig gen;
    gen.num_tuples = c.n;
    gen.domain_size = c.domain;
    gen.seed = 17 + c.n + c.e;
    original_ = GenerateKeyedCategorical(gen);
    keys_ = WatermarkKeySet::FromSeed(c.n * 31 + c.e);
    params_.e = c.e;
    params_.ecc = c.ecc;
    if (c.ecc == EccKind::kIdentity) {
      // The identity code reads exactly |wm| payload positions; with the
      // default payload length N/e most of those positions would receive no
      // fit tuple at all. Concentrating the payload is how a no-redundancy
      // deployment must be configured.
      params_.payload_length = c.wm_bits;
    }
    wm_ = MakeWatermark(c.wm_bits, c.n * 7 + c.e);

    marked_ = original_;
    EmbedOptions options;
    options.key_attr = "K";
    options.target_attr = "A";
    const Embedder embedder(keys_, params_);
    Result<EmbedReport> r = embedder.Embed(marked_, options, wm_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    report_ = std::move(r).value();
  }

  DetectionResult Detect(const Relation& suspect) {
    DetectOptions options;
    options.key_attr = "K";
    options.target_attr = "A";
    options.domain = report_.domain;
    WatermarkParams params = params_;
    params.payload_length = report_.payload_length;
    const Detector detector(keys_, params);
    Result<DetectionResult> r = detector.Detect(suspect, options, wm_.size());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  Relation original_;
  Relation marked_;
  WatermarkKeySet keys_;
  WatermarkParams params_;
  BitVector wm_;
  EmbedReport report_;
};

TEST_P(RoundTripProperty, DetectIsIdentityOnMarkedData) {
  EXPECT_EQ(Detect(marked_).wm, wm_);
}

TEST_P(RoundTripProperty, DetectionInvariantUnderResorting) {
  // A4: any re-ordering of tuples decodes identically.
  const Relation shuffled = ResortAttack(marked_, 123);
  EXPECT_EQ(Detect(shuffled).wm, wm_);
  const Relation sorted = SortByColumn(marked_, 1).value();
  EXPECT_EQ(Detect(sorted).wm, wm_);
}

TEST_P(RoundTripProperty, EmbeddingAltersAtMostFitTuples) {
  std::size_t changed = 0;
  for (std::size_t i = 0; i < original_.NumRows(); ++i) {
    if (!(marked_.Get(i, 1) == original_.Get(i, 1))) ++changed;
  }
  EXPECT_EQ(changed, report_.altered_tuples);
  EXPECT_LE(report_.fit_tuples,
            original_.NumRows() / GetParam().e +
                4 * static_cast<std::size_t>(std::sqrt(
                        static_cast<double>(original_.NumRows()) /
                        static_cast<double>(GetParam().e))) +
                2);
}

TEST_P(RoundTripProperty, HalfDataLossKeepsMarkMostlyIntact) {
  const Relation kept = HorizontalPartitionAttack(marked_, 0.5, 321).value();
  const MatchStats stats = MatchWatermark(wm_, Detect(kept).wm);
  // With majority voting each bit keeps ~half its votes; mark alteration
  // stays low. Identity code has no redundancy, so only require better
  // than chance there.
  if (GetParam().ecc == EccKind::kIdentity) {
    EXPECT_GE(stats.match_fraction, 0.5);
  } else {
    EXPECT_GE(stats.match_fraction, 0.8);
  }
}

TEST_P(RoundTripProperty, DetectionIsDeterministic) {
  const BitVector first = Detect(marked_).wm;
  const BitVector second = Detect(marked_).wm;
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoundTripProperty,
    ::testing::Values(
        // Vary N.
        Config{1000, 20, 100, 10, EccKind::kMajorityVoting},
        Config{3000, 20, 100, 10, EccKind::kMajorityVoting},
        Config{6000, 20, 100, 10, EccKind::kMajorityVoting},
        // Vary e.
        Config{6000, 35, 100, 10, EccKind::kMajorityVoting},
        Config{6000, 65, 100, 10, EccKind::kMajorityVoting},
        Config{6000, 100, 100, 10, EccKind::kMajorityVoting},
        // Vary domain size nA (odd sizes exercise the wrap case; 2 is the
        // minimum channel).
        Config{3000, 20, 2, 10, EccKind::kMajorityVoting},
        Config{3000, 20, 3, 10, EccKind::kMajorityVoting},
        Config{3000, 20, 17, 10, EccKind::kMajorityVoting},
        Config{3000, 20, 1001, 10, EccKind::kMajorityVoting},
        // Vary watermark length. (Longer marks need proportionally more
        // bandwidth N/e for full payload coverage — e drops as |wm| grows.)
        Config{3000, 20, 100, 1, EccKind::kMajorityVoting},
        Config{3000, 20, 100, 32, EccKind::kMajorityVoting},
        Config{6000, 10, 100, 64, EccKind::kMajorityVoting},
        // Vary the ECC.
        Config{3000, 20, 100, 10, EccKind::kIdentity},
        Config{3000, 20, 100, 10, EccKind::kBlockRepetition},
        Config{3000, 20, 100, 10, EccKind::kHamming74},
        Config{6000, 60, 100, 10, EccKind::kHamming74}),
    ConfigName);

// ----------------------------------------------------- graceful degradation

/// Mark alteration must be monotone-ish in attack size: heavier random
/// alteration can only hurt (checked with slack on averaged runs).
TEST(GracefulDegradationTest, AlterationGrowsWithAttackSize) {
  ExperimentConfig config;
  config.num_tuples = 4000;
  config.passes = 5;
  WatermarkParams params;
  params.e = 65;
  double prev = -1.0;
  for (const double attack : {0.2, 0.5, 0.8}) {
    const TrialOutcome outcome = RunAveragedTrial(
        config, params, [attack](const Relation& rel, std::uint64_t seed) {
          return SubsetAlterationAttack(rel, "A", attack, seed);
        });
    EXPECT_GE(outcome.mean_alteration_pct, prev - 6.0)
        << "attack " << attack;
    prev = outcome.mean_alteration_pct;
  }
  // At 80% random alteration with e=65 the mark is visibly damaged but not
  // destroyed (Figure 4 shows ~25-40%).
  EXPECT_GT(prev, 5.0);
  EXPECT_LT(prev, 50.0);
}

TEST(GracefulDegradationTest, MoreBandwidthMeansMoreResilience) {
  // Figure 5's core claim: decreasing e (more fit tuples) lowers the mark
  // alteration under the same attack.
  ExperimentConfig config;
  config.num_tuples = 4000;
  config.passes = 5;
  const auto attack = [](const Relation& rel, std::uint64_t seed) {
    return SubsetAlterationAttack(rel, "A", 0.5, seed);
  };
  WatermarkParams low_e;
  low_e.e = 15;
  WatermarkParams high_e;
  high_e.e = 150;
  const double low =
      RunAveragedTrial(config, low_e, attack).mean_alteration_pct;
  const double high =
      RunAveragedTrial(config, high_e, attack).mean_alteration_pct;
  EXPECT_LT(low, high + 1e-9);
}

}  // namespace
}  // namespace catmark
