// Full configuration-matrix sweep: every (hash algorithm, bit-index mode,
// position-source) combination must round-trip blindly and survive
// re-sorting — no configuration corner may silently break the channel.

#include <gtest/gtest.h>

#include <tuple>

#include "attack/attacks.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"

namespace catmark {
namespace {

using MatrixParam = std::tuple<HashAlgorithm, BitIndexMode, bool /*use map*/>;

std::string MatrixName(const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto [algo, mode, use_map] = info.param;
  std::string name;
  switch (algo) {
    case HashAlgorithm::kMd5:
      name = "Md5";
      break;
    case HashAlgorithm::kSha1:
      name = "Sha1";
      break;
    case HashAlgorithm::kSha256:
      name = "Sha256";
      break;
  }
  name += mode == BitIndexMode::kModulo ? "Mod" : "Msb";
  name += use_map ? "Map" : "Hash";
  return name;
}

class ParamsMatrixTest : public ::testing::TestWithParam<MatrixParam> {
 protected:
  void SetUp() override {
    const auto [algo, mode, use_map] = GetParam();
    KeyedCategoricalConfig gen;
    gen.num_tuples = 3000;
    gen.domain_size = 100;
    gen.seed = 2026;
    rel_ = GenerateKeyedCategorical(gen);
    keys_ = WatermarkKeySet::FromSeed(2026);
    params_.e = 20;
    params_.hash_algo = algo;
    params_.bit_index_mode = mode;
    wm_ = MakeWatermark(10, 2026);

    EmbedOptions options;
    options.key_attr = "K";
    options.target_attr = "A";
    options.build_embedding_map = use_map;
    const Embedder embedder(keys_, params_);
    Result<EmbedReport> report = embedder.Embed(rel_, options, wm_);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    report_ = std::move(report).value();
  }

  DetectionResult Detect(const Relation& suspect) {
    DetectOptions options;
    options.key_attr = "K";
    options.target_attr = "A";
    options.domain = report_.domain;
    if (std::get<2>(GetParam())) {
      options.embedding_map = &report_.embedding_map;
    }
    WatermarkParams params = params_;
    params.payload_length = report_.payload_length;
    const Detector detector(keys_, params);
    Result<DetectionResult> r = detector.Detect(suspect, options, wm_.size());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  Relation rel_;
  WatermarkKeySet keys_;
  WatermarkParams params_;
  BitVector wm_;
  EmbedReport report_;
};

TEST_P(ParamsMatrixTest, BlindRoundTrip) {
  EXPECT_EQ(Detect(rel_).wm, wm_);
}

TEST_P(ParamsMatrixTest, SurvivesResort) {
  EXPECT_EQ(Detect(ResortAttack(rel_, 9)).wm, wm_);
}

TEST_P(ParamsMatrixTest, ModerateAlterationStaysCourtUsable) {
  const Relation attacked =
      SubsetAlterationAttack(rel_, "A", 0.15, 10).value();
  const MatchStats stats = MatchWatermark(wm_, Detect(attacked).wm);
  EXPECT_GE(stats.match_fraction, 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ParamsMatrixTest,
    ::testing::Combine(::testing::Values(HashAlgorithm::kMd5,
                                         HashAlgorithm::kSha1,
                                         HashAlgorithm::kSha256),
                       ::testing::Values(BitIndexMode::kModulo,
                                         BitIndexMode::kMsbModL),
                       ::testing::Bool()),
    MatrixName);

}  // namespace
}  // namespace catmark
