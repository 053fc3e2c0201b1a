#include <gtest/gtest.h>

#include <cmath>

#include <memory>

#include "core/detector.h"
#include "core/embedder.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "quality/plugins.h"
#include "relation/csv.h"

namespace catmark {
namespace {

Relation StandardRelation(std::size_t n = 3000, std::uint64_t seed = 21) {
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

TEST(EmbedderTest, ReportsFitTuplesNearNOverE) {
  Relation rel = StandardRelation();
  WatermarkParams params;
  params.e = 30;
  const Embedder embedder(WatermarkKeySet::FromSeed(1), params);
  const EmbedReport report =
      embedder.Embed(rel, KA(), MakeWatermark(10, 1)).value();
  const double expected = 3000.0 / 30.0;
  EXPECT_NEAR(static_cast<double>(report.fit_tuples), expected,
              4 * std::sqrt(expected));
  EXPECT_EQ(report.num_tuples, 3000u);
  EXPECT_EQ(report.payload_length, 100u);
}

TEST(EmbedderTest, AltersOnlyFitTuples) {
  const Relation original = StandardRelation();
  Relation rel = original;
  WatermarkParams params;
  params.e = 20;
  const Embedder embedder(WatermarkKeySet::FromSeed(2), params);
  const EmbedReport report =
      embedder.Embed(rel, KA(), MakeWatermark(10, 2)).value();
  std::size_t changed = 0;
  for (std::size_t i = 0; i < rel.NumRows(); ++i) {
    if (!(rel.Get(i, 1) == original.Get(i, 1))) ++changed;
  }
  EXPECT_EQ(changed, report.altered_tuples);
  EXPECT_LE(report.altered_tuples, report.fit_tuples);
  EXPECT_EQ(report.altered_tuples + report.unchanged_tuples +
                report.skipped_by_domain_guard,
            report.fit_tuples);
}

TEST(EmbedderTest, DomainGuardKeepsEveryCategoryAlive) {
  // A relation where one category has a single occurrence: embedding must
  // not drain it (blind detection re-derives the domain from the data).
  Relation rel(Schema::Create({{"K", ColumnType::kInt64, false},
                               {"A", ColumnType::kString, true}},
                              "K")
                   .value());
  rel.AppendRowUnchecked({Value(std::int64_t{0}), Value("rare")});
  for (int i = 1; i < 2000; ++i) {
    rel.AppendRowUnchecked({Value(static_cast<std::int64_t>(i)),
                            Value(i % 2 ? "common1" : "common2")});
  }
  WatermarkParams params;
  params.e = 5;  // dense marking: without the guard "rare" would vanish
  const Embedder embedder(WatermarkKeySet::FromSeed(77), params);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  ASSERT_TRUE(embedder.Embed(rel, options, MakeWatermark(10, 77)).ok());
  const auto domain = CategoricalDomain::FromRelationColumn(rel, 1).value();
  EXPECT_TRUE(domain.Contains(Value("rare")));
  EXPECT_EQ(domain.size(), 3u);
}

TEST(EmbedderTest, DomainGuardDisabledSkipsNothing) {
  Relation rel(Schema::Create({{"K", ColumnType::kInt64, false},
                               {"A", ColumnType::kString, true}},
                              "K")
                   .value());
  for (int i = 0; i < 2000; ++i) {
    rel.AppendRowUnchecked({Value(static_cast<std::int64_t>(i)),
                            Value(i == 0 ? "rare" : (i % 2 ? "c1" : "c2"))});
  }
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";

  // Guard enabled (default): with e=1 every tuple is fit and the sole
  // "rare" occurrence must be protected at least once.
  {
    Relation copy = rel;
    WatermarkParams params;
    params.e = 1;
    const Embedder embedder(WatermarkKeySet::FromSeed(78), params);
    const EmbedReport report =
        embedder.Embed(copy, options, MakeWatermark(10, 78)).value();
    EXPECT_GT(report.skipped_by_domain_guard, 0u);
    const auto domain =
        CategoricalDomain::FromRelationColumn(copy, 1).value();
    EXPECT_TRUE(domain.Contains(Value("rare")));
  }

  // Guard disabled: nothing is skipped on its account.
  {
    Relation copy = rel;
    WatermarkParams params;
    params.e = 1;
    params.min_category_keep = 0;
    const Embedder embedder(WatermarkKeySet::FromSeed(78), params);
    const EmbedReport report =
        embedder.Embed(copy, options, MakeWatermark(10, 78)).value();
    EXPECT_EQ(report.skipped_by_domain_guard, 0u);
  }
}

TEST(EmbedderTest, AlterationFractionRoughlyOneOverE) {
  Relation rel = StandardRelation(6000);
  WatermarkParams params;
  params.e = 60;
  const Embedder embedder(WatermarkKeySet::FromSeed(3), params);
  const EmbedReport report =
      embedder.Embed(rel, KA(), MakeWatermark(10, 3)).value();
  // Roughly 1/e of tuples are touched (minus the already-correct ones).
  EXPECT_LT(report.alteration_fraction, 1.5 / 60.0);
  EXPECT_GT(report.alteration_fraction, 0.5 / 60.0);
}

TEST(EmbedderTest, KeysUntouchedAndOnlyTargetColumnModified) {
  const Relation original = StandardRelation();
  Relation rel = original;
  const Embedder embedder(WatermarkKeySet::FromSeed(4), WatermarkParams{});
  ASSERT_TRUE(embedder.Embed(rel, KA(), MakeWatermark(10, 4)).ok());
  for (std::size_t i = 0; i < rel.NumRows(); ++i) {
    EXPECT_EQ(rel.Get(i, 0).AsInt64(), original.Get(i, 0).AsInt64());
  }
}

TEST(EmbedderTest, NewValuesStayInDomain) {
  Relation rel = StandardRelation();
  const auto domain = CategoricalDomain::FromRelationColumn(rel, 1).value();
  const Embedder embedder(WatermarkKeySet::FromSeed(5), WatermarkParams{});
  ASSERT_TRUE(embedder.Embed(rel, KA(), MakeWatermark(10, 5)).ok());
  for (std::size_t i = 0; i < rel.NumRows(); ++i) {
    EXPECT_TRUE(domain.Contains(rel.Get(i, 1)));
  }
}

TEST(EmbedderTest, DeterministicPerKey) {
  Relation a = StandardRelation();
  Relation b = StandardRelation();
  const Embedder embedder(WatermarkKeySet::FromSeed(6), WatermarkParams{});
  const BitVector wm = MakeWatermark(10, 6);
  ASSERT_TRUE(embedder.Embed(a, KA(), wm).ok());
  ASSERT_TRUE(embedder.Embed(b, KA(), wm).ok());
  EXPECT_TRUE(a.SameContent(b));
}

TEST(EmbedderTest, DifferentKeysMarkDifferentTuples) {
  Relation a = StandardRelation();
  Relation b = StandardRelation();
  const BitVector wm = MakeWatermark(10, 7);
  ASSERT_TRUE(Embedder(WatermarkKeySet::FromSeed(7), WatermarkParams{})
                  .Embed(a, KA(), wm)
                  .ok());
  ASSERT_TRUE(Embedder(WatermarkKeySet::FromSeed(8), WatermarkParams{})
                  .Embed(b, KA(), wm)
                  .ok());
  EXPECT_FALSE(a.SameContent(b));
}

TEST(EmbedderTest, ExplicitDomainIsRespected) {
  Relation rel = StandardRelation();
  EmbedOptions options = KA();
  options.domain = CategoricalDomain::FromRelationColumn(rel, 1).value();
  const Embedder embedder(WatermarkKeySet::FromSeed(9), WatermarkParams{});
  const EmbedReport report =
      embedder.Embed(rel, options, MakeWatermark(10, 9)).value();
  EXPECT_EQ(report.domain.size(), options.domain->size());
}

TEST(EmbedderTest, PayloadLengthOverride) {
  Relation rel = StandardRelation();
  WatermarkParams params;
  params.payload_length = 64;
  const Embedder embedder(WatermarkKeySet::FromSeed(10), params);
  const EmbedReport report =
      embedder.Embed(rel, KA(), MakeWatermark(10, 10)).value();
  EXPECT_EQ(report.payload_length, 64u);
}

TEST(EmbedderTest, BuildsEmbeddingMap) {
  Relation rel = StandardRelation();
  EmbedOptions options = KA();
  options.build_embedding_map = true;
  const Embedder embedder(WatermarkKeySet::FromSeed(11), WatermarkParams{});
  const EmbedReport report =
      embedder.Embed(rel, options, MakeWatermark(10, 11)).value();
  // Exactly the committed tuples get map entries.
  EXPECT_EQ(report.embedding_map.size(),
            report.altered_tuples + report.unchanged_tuples);
  EXPECT_EQ(report.embedding_map.size(), report.fit_tuples);
}

// Regression: the embedding map used to record an entry (and consume a map
// index) *before* the ledger/quality/domain-guard checks, so vetoed tuples
// pointed the map-based detector at positions that were never written. Only
// committed tuples (altered or unchanged-hit) may appear in the map.
TEST(EmbedderTest, EmbeddingMapRecordsOnlyCommittedTuples) {
  Relation rel = StandardRelation();
  WatermarkParams params;
  params.e = 10;
  const Embedder embedder(WatermarkKeySet::FromSeed(24), params);
  EmbedOptions options = KA();
  options.build_embedding_map = true;
  QualityAssessor assessor;
  assessor.AddPlugin(std::make_unique<MaxAlterationsPlugin>(0.0));  // veto all
  ASSERT_TRUE(assessor.Begin(rel).ok());
  const EmbedReport report =
      embedder.Embed(rel, options, MakeWatermark(10, 24), &assessor).value();
  EXPECT_EQ(report.altered_tuples, 0u);
  EXPECT_GT(report.skipped_by_quality, 0u);
  EXPECT_EQ(report.embedding_map.size(), report.unchanged_tuples)
      << "vetoed tuples must not occupy embedding-map slots";
}

// Regression companion: with the map trimmed to committed tuples, every map
// hit at detect time is a usable vote on a genuinely written position.
TEST(EmbedderTest, EmbeddingMapDetectionVotesOnlyOnWrittenPositions) {
  Relation rel = StandardRelation();
  WatermarkParams params;
  params.e = 10;
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(25);
  const Embedder embedder(keys, params);
  EmbedOptions options = KA();
  options.build_embedding_map = true;
  QualityAssessor assessor;
  assessor.AddPlugin(std::make_unique<MaxAlterationsPlugin>(0.0));  // veto all
  ASSERT_TRUE(assessor.Begin(rel).ok());
  const BitVector wm = MakeWatermark(10, 25);
  const EmbedReport report =
      embedder.Embed(rel, options, wm, &assessor).value();

  WatermarkParams detect_params = params;
  detect_params.payload_length = report.payload_length;
  const Detector detector(keys, detect_params);
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.domain = report.domain;
  detect_options.embedding_map = &report.embedding_map;
  const DetectionResult detection =
      detector.Detect(rel, detect_options, wm.size()).value();
  // Every map entry resolves to a committed (unchanged-hit) tuple, and all
  // of those carry the correct bit — so every present position agrees with
  // the payload that was embedded.
  EXPECT_EQ(detection.usable_votes, report.embedding_map.size());
  EXPECT_EQ(detection.positions_present, report.positions_written);
}

TEST(EmbedderTest, LedgerSkipsDoNotOccupyMapSlots) {
  Relation rel = StandardRelation();
  WatermarkParams params;
  params.e = 10;
  const Embedder embedder(WatermarkKeySet::FromSeed(26), params);
  EmbedOptions options = KA();
  options.build_embedding_map = true;
  EmbeddingLedger ledger;
  const BitVector wm = MakeWatermark(10, 26);
  const EmbedReport first =
      embedder.Embed(rel, options, wm, nullptr, &ledger).value();
  EXPECT_GT(first.embedding_map.size(), 0u);
  // Second pass over fully-marked cells: everything is ledger-skipped, so
  // the map must stay empty (it used to fill up with one entry per fit
  // tuple, all pointing at unwritten positions).
  const EmbedReport second =
      embedder.Embed(rel, options, wm, nullptr, &ledger).value();
  EXPECT_EQ(second.skipped_by_ledger, second.fit_tuples);
  EXPECT_EQ(second.embedding_map.size(), 0u);
}

TEST(EmbedderTest, NoMapByDefault) {
  Relation rel = StandardRelation();
  const Embedder embedder(WatermarkKeySet::FromSeed(12), WatermarkParams{});
  const EmbedReport report =
      embedder.Embed(rel, KA(), MakeWatermark(10, 12)).value();
  EXPECT_TRUE(report.embedding_map.empty());
}

// ------------------------------------------------------------- error paths

TEST(EmbedderTest, RejectsEmptyWatermark) {
  Relation rel = StandardRelation();
  const Embedder embedder(WatermarkKeySet::FromSeed(13), WatermarkParams{});
  EXPECT_FALSE(embedder.Embed(rel, KA(), BitVector()).ok());
}

TEST(EmbedderTest, RejectsUnknownAttributes) {
  Relation rel = StandardRelation();
  const Embedder embedder(WatermarkKeySet::FromSeed(14), WatermarkParams{});
  EmbedOptions options;
  options.key_attr = "NOPE";
  options.target_attr = "A";
  EXPECT_FALSE(embedder.Embed(rel, options, MakeWatermark(10, 14)).ok());
  options.key_attr = "K";
  options.target_attr = "NOPE";
  EXPECT_FALSE(embedder.Embed(rel, options, MakeWatermark(10, 14)).ok());
}

TEST(EmbedderTest, RejectsSameKeyAndTarget) {
  Relation rel = StandardRelation();
  const Embedder embedder(WatermarkKeySet::FromSeed(15), WatermarkParams{});
  EmbedOptions options;
  options.key_attr = "A";
  options.target_attr = "A";
  EXPECT_FALSE(embedder.Embed(rel, options, MakeWatermark(10, 15)).ok());
}

TEST(EmbedderTest, RejectsNonCategoricalTarget) {
  SalesGenConfig config;
  config.num_tuples = 100;
  Relation rel = GenerateItemScan(config);
  const Embedder embedder(WatermarkKeySet::FromSeed(16), WatermarkParams{});
  EmbedOptions options;
  options.key_attr = "Visit_Nbr";
  options.target_attr = "Sale_Amount";  // DOUBLE, not categorical
  EXPECT_FALSE(embedder.Embed(rel, options, MakeWatermark(10, 16)).ok());
}

TEST(EmbedderTest, RejectsSingleValueDomain) {
  Relation rel(Schema::Create({{"K", ColumnType::kInt64, false},
                               {"A", ColumnType::kString, true}},
                              "K")
                   .value());
  for (int i = 0; i < 50; ++i) {
    rel.AppendRowUnchecked(
        {Value(static_cast<std::int64_t>(i)), Value("only")});
  }
  const Embedder embedder(WatermarkKeySet::FromSeed(17), WatermarkParams{});
  EXPECT_FALSE(embedder.Embed(rel, KA(), MakeWatermark(10, 17)).ok());
}

TEST(EmbedderTest, RejectsEmptyRelation) {
  Relation rel(StandardRelation().schema());
  const Embedder embedder(WatermarkKeySet::FromSeed(18), WatermarkParams{});
  EXPECT_FALSE(embedder.Embed(rel, KA(), MakeWatermark(10, 18)).ok());
}

// k1 == k2 and e == 0 are values a library caller can pass: Embed returns
// InvalidArgument for each and leaves the relation untouched, instead of
// aborting in the constructor.
TEST(EmbedderTest, InvalidKeySetReturnsInvalidArgument) {
  Relation rel = StandardRelation(500);
  const Relation before = rel;
  WatermarkKeySet keys = WatermarkKeySet::FromSeed(28);
  keys.k2 = keys.k1;
  const Embedder embedder(keys, WatermarkParams{});
  const Status status =
      embedder.Embed(rel, KA(), MakeWatermark(10, 28)).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_TRUE(rel.SameContent(before));
}

TEST(EmbedderTest, ZeroEReturnsInvalidArgument) {
  Relation rel = StandardRelation(500);
  const Relation before = rel;
  WatermarkParams params;
  params.e = 0;
  const Embedder embedder(WatermarkKeySet::FromSeed(29), params);
  const Status status =
      embedder.Embed(rel, KA(), MakeWatermark(10, 29)).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_TRUE(rel.SameContent(before));
}

// Regression: a payload length past kMaxPayloadLength, the range a
// certificate accepts, used to have the ECC fill a 2^32-bit wm_data and then
// abort in the plan build's 32-bit position check (the map path sized a
// byte per position instead). ResolvePayloadLength now refuses it before
// anything is sized by it, on both position paths.
TEST(EmbedderTest, PayloadLengthAboveCertificateRangeIsInvalidArgument) {
  Relation rel = StandardRelation(500);
  const Relation before = rel;
  WatermarkParams params;
  params.payload_length = kMaxPayloadLength + 1;
  const Embedder embedder(WatermarkKeySet::FromSeed(31), params);
  EmbedOptions options = KA();
  for (const bool map_mode : {false, true}) {
    options.build_embedding_map = map_mode;
    const Status status =
        embedder.Embed(rel, options, MakeWatermark(10, 31)).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_TRUE(rel.SameContent(before)) << "map=" << map_mode;
  }
}

// The largest payload length in range is an ordinary embed: wm_data is
// looked up per slot and the distinct written positions are counted over
// the committed tuples, so nothing is sized by the 2^32 - 1 slots. The
// mark reads back at the same length on both position paths.
TEST(EmbedderTest, LargestPayloadLengthEmbedsAndDetects) {
  WatermarkParams params;
  params.e = 10;
  params.payload_length = kMaxPayloadLength;
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(33);
  const BitVector wm = MakeWatermark(10, 33);
  for (const bool map_mode : {false, true}) {
    Relation rel = StandardRelation(2000);
    EmbedOptions options = KA();
    options.build_embedding_map = map_mode;
    const EmbedReport report =
        Embedder(keys, params).Embed(rel, options, wm).value();
    EXPECT_EQ(report.payload_length, kMaxPayloadLength);
    EXPECT_GT(report.positions_written, 0u);
    EXPECT_LE(report.positions_written,
              report.altered_tuples + report.unchanged_tuples);

    DetectOptions detect_options;
    detect_options.key_attr = "K";
    detect_options.target_attr = "A";
    detect_options.domain = report.domain;
    if (map_mode) detect_options.embedding_map = &report.embedding_map;
    const DetectionResult detection =
        Detector(keys, params).Detect(rel, detect_options, wm.size()).value();
    EXPECT_EQ(detection.wm, wm) << "map=" << map_mode;
    EXPECT_EQ(detection.positions_present, report.positions_written)
        << "map=" << map_mode;
  }
}

// Regression: with e > N, DerivePayloadLength's N/e floors to 0 and used to
// be silently replaced by |wm| — embed "succeeded" with an expected fit
// count below one tuple. That is now an explicit precondition failure.
TEST(EmbedderTest, RejectsEExceedingRelationSize) {
  Relation rel = StandardRelation(50);
  WatermarkParams params;
  params.e = 100;
  const Embedder embedder(WatermarkKeySet::FromSeed(27), params);
  const Status status =
      embedder.Embed(rel, KA(), MakeWatermark(10, 27)).status();
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
}

// Regression: a caller domain holding a value of another type than the
// target column used to fail only when the apply pass reached a tuple that
// selected it — after earlier fit tuples had already been rewritten. The
// domain is now checked before any cell is written.
TEST(EmbedderTest, WronglyTypedDomainLeavesRelationUntouched) {
  Relation rel(Schema::Create({{"K", ColumnType::kInt64, false},
                               {"A", ColumnType::kString, true}},
                              "K")
                   .value());
  const char* const labels[] = {"a", "b", "c", "d"};
  for (int i = 0; i < 400; ++i) {
    rel.AppendRowUnchecked(
        {Value(static_cast<std::int64_t>(i)), Value(labels[i % 4])});
  }
  const Relation before = rel;
  EmbedOptions options = KA();
  options.domain = CategoricalDomain::FromValues({Value("a"), Value("b"),
                                                  Value("c"), Value("d"),
                                                  Value(std::int64_t{7})})
                       .value();
  for (const bool map_mode : {false, true}) {
    options.build_embedding_map = map_mode;
    WatermarkParams params;
    params.e = 2;
    const Embedder embedder(WatermarkKeySet::FromSeed(30), params);
    const Status status =
        embedder.Embed(rel, options, MakeWatermark(10, 30)).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_TRUE(rel.SameContent(before)) << "map=" << map_mode;
    EXPECT_EQ(WriteCsvString(rel), WriteCsvString(before)) << "map=" << map_mode;
  }
}

// The work counters `catmark embed` prints: every row is scanned, and the k1
// PRF sees each non-NULL key row of a plain key column but each live
// distinct value of a dictionary-encoded one.
TEST(EmbedderTest, WorkCountersOnPlainAndDictKeys) {
  Relation rel(Schema::Create({{"K", ColumnType::kInt64, false},
                               {"C", ColumnType::kString, true},
                               {"A", ColumnType::kString, true}},
                              "")
                   .value());
  constexpr std::size_t kRows = 3000;
  std::size_t null_keys = 0;
  for (std::size_t i = 0; i < kRows; ++i) {
    Value k;
    if (i % 11 == 0) {
      ++null_keys;
    } else {
      k = Value(static_cast<std::int64_t>(i * 977));
    }
    // 37 distinct categorical keys, NULL on every 13th row.
    Value c = i % 13 == 0 ? Value() : Value("c" + std::to_string(i % 37));
    rel.AppendRowUnchecked(
        {std::move(k), std::move(c), Value("v" + std::to_string(i % 9))});
  }
  rel.mutable_store().InternValue(1, Value("dead"));  // hashed by nobody
  WatermarkParams params;
  params.e = 5;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    params.num_threads = threads;
    const Embedder embedder(WatermarkKeySet::FromSeed(31), params);
    EmbedOptions plain = KA();
    Relation a = rel;
    const EmbedReport on_plain =
        embedder.Embed(a, plain, MakeWatermark(10, 31)).value();
    EXPECT_EQ(on_plain.rows_scanned, kRows);
    EXPECT_EQ(on_plain.messages_hashed, kRows - null_keys);

    EmbedOptions dict = KA();
    dict.key_attr = "C";
    Relation b = rel;
    const EmbedReport on_dict =
        embedder.Embed(b, dict, MakeWatermark(10, 31)).value();
    EXPECT_EQ(on_dict.rows_scanned, kRows);
    EXPECT_EQ(on_dict.messages_hashed, 37u);
  }
}

TEST(EmbedderTest, NullKeysAreSkipped) {
  Relation rel = StandardRelation(200);
  for (std::size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(rel.Set(i, 0, Value()).ok());
  }
  const Embedder embedder(WatermarkKeySet::FromSeed(19), WatermarkParams{});
  EXPECT_TRUE(embedder.Embed(rel, KA(), MakeWatermark(10, 19)).ok());
}

// ------------------------------------------------------------ ledger paths

TEST(EmbedderTest, LedgerSkipsMarkedCells) {
  Relation rel = StandardRelation();
  WatermarkParams params;
  params.e = 10;
  const Embedder embedder(WatermarkKeySet::FromSeed(20), params);
  EmbeddingLedger ledger;
  const BitVector wm = MakeWatermark(10, 20);
  const EmbedReport first = embedder.Embed(rel, KA(), wm, nullptr, &ledger).value();
  EXPECT_EQ(first.skipped_by_ledger, 0u);
  EXPECT_EQ(ledger.size(), first.fit_tuples);
  // Re-embedding over the same cells: everything is already marked.
  const EmbedReport second =
      embedder.Embed(rel, KA(), wm, nullptr, &ledger).value();
  EXPECT_EQ(second.skipped_by_ledger, second.fit_tuples);
  EXPECT_EQ(second.altered_tuples, 0u);
}

// ----------------------------------------------------------- quality paths

TEST(EmbedderTest, QualityVetoSkipsBits) {
  Relation rel = StandardRelation();
  WatermarkParams params;
  params.e = 10;
  const Embedder embedder(WatermarkKeySet::FromSeed(21), params);
  QualityAssessor assessor;
  assessor.AddPlugin(std::make_unique<MaxAlterationsPlugin>(0.0));  // veto all
  ASSERT_TRUE(assessor.Begin(rel).ok());
  const Relation before = rel;
  const EmbedReport report =
      embedder.Embed(rel, KA(), MakeWatermark(10, 21), &assessor).value();
  EXPECT_EQ(report.altered_tuples, 0u);
  EXPECT_EQ(report.skipped_by_quality,
            report.fit_tuples - report.unchanged_tuples);
  EXPECT_TRUE(rel.SameContent(before));
}

TEST(EmbedderTest, QualityBudgetPartiallyApplies) {
  Relation rel = StandardRelation(3000);
  WatermarkParams params;
  params.e = 10;  // ~300 fit tuples
  const Embedder embedder(WatermarkKeySet::FromSeed(22), params);
  QualityAssessor assessor;
  assessor.AddPlugin(std::make_unique<MaxAlterationsPlugin>(0.02));  // 60 max
  ASSERT_TRUE(assessor.Begin(rel).ok());
  const EmbedReport report =
      embedder.Embed(rel, KA(), MakeWatermark(10, 22), &assessor).value();
  EXPECT_LE(report.altered_tuples, 60u);
  EXPECT_GT(report.altered_tuples, 0u);
  EXPECT_GT(report.skipped_by_quality, 0u);
  EXPECT_EQ(assessor.accepted_count(), report.altered_tuples);
}

TEST(EmbedderTest, RollbackAllRestoresOriginal) {
  const Relation original = StandardRelation();
  Relation rel = original;
  const Embedder embedder(WatermarkKeySet::FromSeed(23), WatermarkParams{});
  QualityAssessor assessor;  // no plugins: everything accepted but logged
  ASSERT_TRUE(assessor.Begin(rel).ok());
  ASSERT_TRUE(
      embedder.Embed(rel, KA(), MakeWatermark(10, 23), &assessor).ok());
  EXPECT_FALSE(rel.SameContent(original));
  ASSERT_TRUE(assessor.RollbackAll(rel).ok());
  EXPECT_TRUE(rel.SameContent(original));
}

}  // namespace
}  // namespace catmark
