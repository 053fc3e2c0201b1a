#include <gtest/gtest.h>

#include <set>

#include "attack/attacks.h"
#include "core/codec.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "core/injection.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "test_util.h"

namespace catmark {
namespace {

using testutil::HashValue;

Relation StandardRelation(std::size_t n = 6000, std::uint64_t seed = 71) {
  KeyedCategoricalConfig config;
  config.num_tuples = n;
  config.domain_size = 100;
  config.seed = seed;
  return GenerateKeyedCategorical(config);
}

EmbedOptions KA() {
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  return options;
}

TEST(InjectionTest, AddsRequestedFraction) {
  Relation rel = StandardRelation();
  const FitTupleInjector injector(WatermarkKeySet::FromSeed(1),
                                  WatermarkParams{});
  InjectionConfig config;
  config.padd = 0.05;
  const InjectionReport report =
      injector.Inject(rel, KA(), MakeWatermark(10, 1), config).value();
  EXPECT_EQ(report.tuples_added, 300u);
  EXPECT_EQ(rel.NumRows(), 6300u);
}

TEST(InjectionTest, InjectedTuplesAreFit) {
  Relation rel = StandardRelation();
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(2);
  WatermarkParams params;
  params.e = 40;
  const FitTupleInjector injector(keys, params);
  InjectionConfig config;
  config.padd = 0.03;
  const std::size_t before = rel.NumRows();
  ASSERT_TRUE(injector.Inject(rel, KA(), MakeWatermark(10, 2), config).ok());
  const auto k1 = CreateKeyedPrf(ResolvePrfKind(params.prf).value(), keys.k1,
                                 params.hash_algo);
  HashScratch scratch;
  for (std::size_t i = before; i < rel.NumRows(); ++i) {
    EXPECT_EQ(HashValue(*k1, rel.Get(i, 0), scratch) % params.e, 0u)
        << "injected tuple " << i << " fails the fitness test";
  }
}

TEST(InjectionTest, InjectedKeysAreUnique) {
  Relation rel = StandardRelation();
  const FitTupleInjector injector(WatermarkKeySet::FromSeed(3),
                                  WatermarkParams{});
  InjectionConfig config;
  config.padd = 0.1;
  ASSERT_TRUE(injector.Inject(rel, KA(), MakeWatermark(10, 3), config).ok());
  std::set<std::int64_t> keys;
  for (std::size_t i = 0; i < rel.NumRows(); ++i) {
    EXPECT_TRUE(keys.insert(rel.Get(i, 0).AsInt64()).second);
  }
}

TEST(InjectionTest, InjectedValuesConformToDomain) {
  Relation rel = StandardRelation();
  const auto domain = CategoricalDomain::FromRelationColumn(rel, 1).value();
  const FitTupleInjector injector(WatermarkKeySet::FromSeed(4),
                                  WatermarkParams{});
  InjectionConfig config;
  config.padd = 0.05;
  const std::size_t before = rel.NumRows();
  ASSERT_TRUE(injector.Inject(rel, KA(), MakeWatermark(10, 4), config).ok());
  for (std::size_t i = before; i < rel.NumRows(); ++i) {
    EXPECT_TRUE(domain.Contains(rel.Get(i, 1)));
  }
}

TEST(InjectionTest, CandidateCostIsAboutEPerHit) {
  Relation rel = StandardRelation();
  WatermarkParams params;
  params.e = 50;
  const FitTupleInjector injector(WatermarkKeySet::FromSeed(5), params);
  InjectionConfig config;
  config.padd = 0.02;  // 120 tuples
  const InjectionReport report =
      injector.Inject(rel, KA(), MakeWatermark(10, 5), config).value();
  EXPECT_EQ(report.tuples_added, 120u);
  // ~e candidates per accepted tuple (generous 2x band).
  EXPECT_GT(report.candidates_tried, 120u * 50 / 2);
  EXPECT_LT(report.candidates_tried, 120u * 50 * 2);
}

TEST(InjectionTest, InjectionAloneCarriesDetectableMark) {
  // Pure data-addition embedding: no original tuple is altered, yet the
  // mark is detectable (weakly on its own — boosted when combined with the
  // base embedding, see InjectionStrengthensMark).
  Relation rel = StandardRelation();
  const Relation original = rel;
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(6);
  WatermarkParams params;
  params.e = 30;
  const BitVector wm = MakeWatermark(10, 6);
  const FitTupleInjector injector(keys, params);
  InjectionConfig config;
  config.padd = 0.10;
  const InjectionReport report =
      injector.Inject(rel, KA(), wm, config).value();

  // Original rows untouched.
  for (std::size_t i = 0; i < original.NumRows(); ++i) {
    EXPECT_EQ(rel.Get(i, 1), original.Get(i, 1));
  }

  WatermarkParams detect_params = params;
  detect_params.payload_length = report.payload_length;
  const Detector detector(keys, detect_params);
  DetectOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const DetectionResult detection =
      detector.Detect(rel, options, wm.size()).value();
  // 600 injected fit tuples vs ~200 random-voting original fit tuples:
  // clear majority for the mark.
  EXPECT_GE(MatchWatermark(wm, detection.wm).match_fraction, 0.9);
}

TEST(InjectionTest, InjectionStrengthensMarkUnderDataLoss) {
  // Section 4.6: "the watermark is effectively enforced with an additional
  // padd*N bits". Compare data-loss resilience with and without injection.
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(7);
  WatermarkParams params;
  params.e = 60;
  const BitVector wm = MakeWatermark(10, 7);

  auto detect_after_loss = [&](const Relation& marked,
                               std::size_t payload_len) {
    double match = 0.0;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      const Relation kept =
          HorizontalPartitionAttack(marked, 0.15, 700 + seed).value();
      WatermarkParams detect_params = params;
      detect_params.payload_length = payload_len;
      const Detector detector(keys, detect_params);
      DetectOptions options;
      options.key_attr = "K";
      options.target_attr = "A";
      const DetectionResult detection =
          detector.Detect(kept, options, wm.size()).value();
      match += MatchWatermark(wm, detection.wm).match_fraction;
    }
    return match / 5.0;
  };

  Relation base = StandardRelation();
  const EmbedReport embed_report =
      Embedder(keys, params).Embed(base, KA(), wm).value();
  const double without = detect_after_loss(base, embed_report.payload_length);

  Relation boosted = base;
  const FitTupleInjector injector(keys, params);
  InjectionConfig config;
  config.padd = 0.10;
  ASSERT_TRUE(injector.Inject(boosted, KA(), wm, config).ok());
  const double with = detect_after_loss(boosted, embed_report.payload_length);

  EXPECT_GE(with + 1e-9, without);
}

TEST(InjectionTest, RejectsBadConfig) {
  Relation rel = StandardRelation(500);
  const FitTupleInjector injector(WatermarkKeySet::FromSeed(8),
                                  WatermarkParams{});
  InjectionConfig config;
  config.padd = -0.1;
  EXPECT_FALSE(injector.Inject(rel, KA(), MakeWatermark(10, 8), config).ok());
  config.padd = 0.1;
  EXPECT_FALSE(injector.Inject(rel, KA(), BitVector(), config).ok());
  Relation empty(rel.schema());
  EXPECT_FALSE(
      injector.Inject(empty, KA(), MakeWatermark(10, 8), config).ok());
}

// k1 == k2 and e == 0 are values a library caller can pass: Inject returns
// InvalidArgument for each and leaves the relation untouched, instead of
// aborting in the constructor or dividing by zero.
TEST(InjectionTest, InvalidKeysOrEReturnInvalidArgument) {
  Relation rel = StandardRelation(500);
  const Relation before = rel;
  InjectionConfig config;
  config.padd = 0.1;
  WatermarkKeySet same_keys = WatermarkKeySet::FromSeed(10);
  same_keys.k2 = same_keys.k1;
  const FitTupleInjector bad_keys(same_keys, WatermarkParams{});
  Status status = bad_keys.Inject(rel, KA(), MakeWatermark(10, 10), config)
                      .status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  WatermarkParams zero_e;
  zero_e.e = 0;
  const FitTupleInjector bad_e(WatermarkKeySet::FromSeed(11), zero_e);
  status = bad_e.Inject(rel, KA(), MakeWatermark(10, 11), config).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_TRUE(rel.SameContent(before));
}

// A base smaller than e has no bandwidth to derive a payload length from:
// Inject refuses it, as Embedder::Embed does, and leaves the relation
// untouched. A pinned payload length still injects.
TEST(InjectionTest, DerivingPayloadLengthFromTooSmallBaseFails) {
  Relation rel = StandardRelation(50);
  const Relation before = rel;
  InjectionConfig config;
  config.padd = 0.1;
  WatermarkParams params;
  params.e = 60;
  const FitTupleInjector derive(WatermarkKeySet::FromSeed(12), params);
  const Status status =
      derive.Inject(rel, KA(), MakeWatermark(10, 12), config).status();
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
  EXPECT_TRUE(rel.SameContent(before));

  params.payload_length = 10;
  const FitTupleInjector pinned(WatermarkKeySet::FromSeed(12), params);
  const Result<InjectionReport> report =
      pinned.Inject(rel, KA(), MakeWatermark(10, 12), config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->payload_length, 10u);
}

TEST(InjectionTest, StringKeysSupported) {
  Relation rel(Schema::Create({{"K", ColumnType::kString, false},
                               {"A", ColumnType::kString, true}},
                              "K")
                   .value());
  for (int i = 0; i < 2000; ++i) {
    rel.AppendRowUnchecked({Value("key" + std::to_string(i)),
                            Value(i % 2 ? "x" : "y")});
  }
  const FitTupleInjector injector(WatermarkKeySet::FromSeed(9),
                                  WatermarkParams{});
  InjectionConfig config;
  config.padd = 0.02;
  const InjectionReport report =
      injector.Inject(rel, KA(), MakeWatermark(10, 9), config).value();
  EXPECT_EQ(report.tuples_added, 40u);
}

}  // namespace
}  // namespace catmark
