#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "attack/attacks.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "crypto/prf.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"

namespace catmark {
namespace {

Relation StandardRelation(std::size_t n = 3000, std::uint64_t seed = 31) {
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

DetectOptions DetectKA(const EmbedReport& report) {
  DetectOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.payload_length = report.payload_length;
  options.domain = report.domain;
  return options;
}

struct Marked {
  Relation rel;
  BitVector wm;
  EmbedReport report;
  WatermarkKeySet keys;
  WatermarkParams params;
};

Marked EmbedStandard(std::uint64_t seed, std::uint64_t e = 30,
                     std::size_t n = 3000) {
  Marked m;
  m.rel = StandardRelation(n, seed);
  m.keys = WatermarkKeySet::FromSeed(seed);
  m.params.e = e;
  m.wm = MakeWatermark(10, seed);
  const Embedder embedder(m.keys, m.params);
  m.report = embedder.Embed(m.rel, KA(), m.wm).value();
  return m;
}

// ------------------------------------------------------------- round trips

TEST(DetectorTest, CleanRoundTripRecoversWatermark) {
  const Marked m = EmbedStandard(1);
  const Detector detector(m.keys, m.params);
  const DetectionResult result =
      detector.Detect(m.rel, DetectKA(m.report), m.wm.size()).value();
  EXPECT_EQ(result.wm, m.wm);
  EXPECT_EQ(result.fit_tuples, m.report.fit_tuples);
  EXPECT_GT(result.payload_fill, 0.5);
}

TEST(DetectorTest, BlindDetectionWithoutExplicitDomain) {
  // Fully blind: the detector derives the domain from the suspect data.
  const Marked m = EmbedStandard(2);
  const Detector detector(m.keys, m.params);
  DetectOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.payload_length = m.report.payload_length;
  const DetectionResult result =
      detector.Detect(m.rel, options, m.wm.size()).value();
  EXPECT_EQ(result.wm, m.wm);
}

TEST(DetectorTest, BlindDetectionWithDerivedPayloadLength) {
  // When no tuples were added/removed, deriving N/e at detect time matches.
  const Marked m = EmbedStandard(3);
  const Detector detector(m.keys, m.params);
  DetectOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const DetectionResult result =
      detector.Detect(m.rel, options, m.wm.size()).value();
  EXPECT_EQ(result.wm, m.wm);
}

TEST(DetectorTest, WrongKeysDecodeGarbage) {
  const Marked m = EmbedStandard(4);
  const Detector wrong(WatermarkKeySet::FromSeed(999), m.params);
  const DetectionResult result =
      wrong.Detect(m.rel, DetectKA(m.report), m.wm.size()).value();
  const MatchStats stats = MatchWatermark(m.wm, result.wm);
  // A wrong key reads random bits: expect ~half the bits to match.
  EXPECT_LT(stats.matched_bits, m.wm.size());
}

TEST(DetectorTest, SurvivesResortAttack) {
  const Marked m = EmbedStandard(5);
  const Relation shuffled = ResortAttack(m.rel, 55);
  const Detector detector(m.keys, m.params);
  const DetectionResult result =
      detector.Detect(shuffled, DetectKA(m.report), m.wm.size()).value();
  EXPECT_EQ(result.wm, m.wm) << "A4 re-sorting must not affect detection";
}

TEST(DetectorTest, SurvivesModerateDataLoss) {
  const Marked m = EmbedStandard(6, 20, 6000);
  const Relation kept = HorizontalPartitionAttack(m.rel, 0.5, 66).value();
  const Detector detector(m.keys, m.params);
  const DetectionResult result =
      detector.Detect(kept, DetectKA(m.report), m.wm.size()).value();
  const MatchStats stats = MatchWatermark(m.wm, result.wm);
  EXPECT_GE(stats.match_fraction, 0.9);
}

TEST(DetectorTest, SurvivesSubsetAddition) {
  const Marked m = EmbedStandard(7, 20, 6000);
  const Relation enlarged = SubsetAdditionAttack(m.rel, 0.5, 77).value();
  const Detector detector(m.keys, m.params);
  const DetectionResult result =
      detector.Detect(enlarged, DetectKA(m.report), m.wm.size()).value();
  const MatchStats stats = MatchWatermark(m.wm, result.wm);
  // Added tuples vote randomly on random positions; majority voting plus
  // per-position tallies absorb them.
  EXPECT_GE(stats.match_fraction, 0.9);
}

TEST(DetectorTest, EmbeddingMapVariantRoundTrips) {
  Relation rel = StandardRelation(3000, 8);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(8);
  WatermarkParams params;
  params.e = 30;
  const BitVector wm = MakeWatermark(10, 8);
  EmbedOptions options = KA();
  options.build_embedding_map = true;
  const Embedder embedder(keys, params);
  const EmbedReport report = embedder.Embed(rel, options, wm).value();
  ASSERT_GT(report.embedding_map.size(), 0u);

  const Detector detector(keys, params);
  DetectOptions detect_options = DetectKA(report);
  detect_options.embedding_map = &report.embedding_map;
  const DetectionResult result =
      detector.Detect(rel, detect_options, wm.size()).value();
  EXPECT_EQ(result.wm, wm);
}

// Figure 2(b) counters, pinned exactly on both key layouts and at several
// worker counts: fit_tuples counts every fit key row, usable_votes only the
// fit rows whose key the owner's map holds, and messages_hashed the keys
// pushed through k1 — the non-NULL rows of a plain column, the live distinct
// entries of a dict column. The suspect carries fit-keyed rows appended
// after the embed (absent from the map; twice each on the dict column, so
// rows and messages differ), a NULL key row and, on the dict column, a
// removed row whose dictionary entry is left dead.
TEST(DetectorTest, EmbeddingMapCountersOnPlainAndDictKeys) {
  for (const bool dict_key : {false, true}) {
    SCOPED_TRACE(dict_key ? "dict STRING key" : "plain INT64 key");
    Relation rel(Schema::Create({{"K",
                                  dict_key ? ColumnType::kString
                                           : ColumnType::kInt64,
                                  dict_key},
                                 {"A", ColumnType::kString, true}})
                     .value());
    const auto key_of = [dict_key](std::int64_t i) {
      return dict_key ? Value("key-" + std::to_string(i)) : Value(i);
    };
    for (std::int64_t i = 0; i < 3000; ++i) {
      rel.AppendRowUnchecked({key_of(i), Value("V" + std::to_string(i % 40))});
    }
    const WatermarkKeySet keys = WatermarkKeySet::FromSeed(23);
    WatermarkParams params;
    params.e = 10;
    params.prf = PrfKind::kKeyedHash;
    const BitVector wm = MakeWatermark(10, 23);
    EmbedOptions options = KA();
    options.build_embedding_map = true;
    const EmbedReport report =
        Embedder(keys, params).Embed(rel, options, wm).value();
    ASSERT_GT(report.embedding_map.size(), 0u);

    const std::unique_ptr<KeyedPrf> k1 =
        CreateKeyedPrf(PrfKind::kKeyedHash, keys.k1, params.hash_algo);
    std::vector<std::uint8_t> bytes;
    const auto is_fit = [&](const Value& key) {
      return k1->Hash64(key.SerializeKeyInto(bytes)) % params.e == 0;
    };
    std::size_t appended_rows = 0;
    for (std::int64_t i = 1000000, keys_added = 0; keys_added < 30; ++i) {
      if (!is_fit(key_of(i))) continue;
      ++keys_added;
      for (int copy = 0; copy < (dict_key ? 2 : 1); ++copy) {
        rel.AppendRowUnchecked({key_of(i), Value("V1")});
        ++appended_rows;
      }
    }
    rel.AppendRowUnchecked({Value(), Value("V2")});
    if (dict_key) rel.SwapRemoveRow(0);

    // The expected counters, row by row.
    std::size_t fit_rows = 0;
    std::size_t mapped_rows = 0;
    std::size_t non_null_rows = 0;
    std::set<std::string> live_keys;
    for (std::size_t j = 0; j < rel.NumRows(); ++j) {
      const Value key = rel.Get(j, 0);
      if (key.is_null()) continue;
      ++non_null_rows;
      live_keys.insert(std::string(key.SerializeKeyInto(bytes)));
      if (!is_fit(key)) continue;
      ++fit_rows;
      if (report.embedding_map.Lookup(key).has_value()) ++mapped_rows;
    }
    ASSERT_EQ(fit_rows, mapped_rows + appended_rows);

    DetectOptions detect_options = DetectKA(report);
    detect_options.embedding_map = &report.embedding_map;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      WatermarkParams detect_params = params;
      detect_params.num_threads = threads;
      const DetectionResult result = Detector(keys, detect_params)
                                         .Detect(rel, detect_options, wm.size())
                                         .value();
      EXPECT_EQ(result.wm, wm);
      EXPECT_EQ(result.fit_tuples, fit_rows);
      EXPECT_EQ(result.usable_votes, mapped_rows);
      EXPECT_EQ(result.messages_hashed,
                dict_key ? live_keys.size() : non_null_rows);
      EXPECT_EQ(result.num_tuples, rel.NumRows());
      EXPECT_EQ(result.rows_scanned, rel.NumRows());
    }
  }
}

TEST(DetectorTest, EmbeddingMapSerializationRoundTrips) {
  Relation rel = StandardRelation(1000, 9);
  EmbedOptions options = KA();
  options.build_embedding_map = true;
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(9);
  const Embedder embedder(keys, WatermarkParams{});
  const BitVector wm = MakeWatermark(10, 9);
  const EmbedReport report = embedder.Embed(rel, options, wm).value();

  const EmbeddingMap restored =
      EmbeddingMap::Deserialize(report.embedding_map.Serialize()).value();
  EXPECT_EQ(restored.size(), report.embedding_map.size());

  const Detector detector(keys, WatermarkParams{});
  DetectOptions detect_options = DetectKA(report);
  detect_options.embedding_map = &restored;
  EXPECT_EQ(detector.Detect(rel, detect_options, wm.size()).value().wm, wm);
}

TEST(DetectorTest, MsbModeRoundTrips) {
  Relation rel = StandardRelation(3000, 10);
  WatermarkParams params;
  params.bit_index_mode = BitIndexMode::kMsbModL;
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(10);
  const BitVector wm = MakeWatermark(10, 10);
  const EmbedReport report =
      Embedder(keys, params).Embed(rel, KA(), wm).value();
  DetectOptions options = DetectKA(report);
  EXPECT_EQ(Detector(keys, params).Detect(rel, options, wm.size()).value().wm,
            wm);
}

TEST(DetectorTest, AllHashAlgorithmsRoundTrip) {
  for (const HashAlgorithm algo :
       {HashAlgorithm::kMd5, HashAlgorithm::kSha1, HashAlgorithm::kSha256}) {
    Relation rel = StandardRelation(2000, 11);
    WatermarkParams params;
    params.e = 20;  // ~10 payload positions per wm bit: reliable coverage
    params.hash_algo = algo;
    const WatermarkKeySet keys = WatermarkKeySet::FromSeed(11);
    const BitVector wm = MakeWatermark(10, 11);
    const EmbedReport report =
        Embedder(keys, params).Embed(rel, KA(), wm).value();
    DetectOptions options = DetectKA(report);
    EXPECT_EQ(
        Detector(keys, params).Detect(rel, options, wm.size()).value().wm, wm)
        << HashAlgorithmName(algo);
  }
}

// ------------------------------------------------------------- error paths

// k1 == k2 and e == 0 are values a library caller can pass: Detect returns
// InvalidArgument for both Figure 2 variants instead of aborting.
TEST(DetectorTest, InvalidKeysOrEReturnInvalidArgument) {
  Relation rel = StandardRelation(1000, 18);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(18);
  const BitVector wm = MakeWatermark(10, 18);
  EmbedOptions options = KA();
  options.build_embedding_map = true;
  const EmbedReport report =
      Embedder(keys, WatermarkParams{}).Embed(rel, options, wm).value();
  WatermarkKeySet same_keys = keys;
  same_keys.k2 = same_keys.k1;
  WatermarkParams zero_e;
  zero_e.e = 0;
  for (const bool use_map : {false, true}) {
    SCOPED_TRACE(use_map ? "embedding map" : "k2");
    DetectOptions detect_options = DetectKA(report);
    if (use_map) detect_options.embedding_map = &report.embedding_map;
    const Status same = Detector(same_keys, WatermarkParams{})
                            .Detect(rel, detect_options, wm.size())
                            .status();
    EXPECT_TRUE(same.IsInvalidArgument()) << same.ToString();
    const Status zero =
        Detector(keys, zero_e).Detect(rel, detect_options, wm.size()).status();
    EXPECT_TRUE(zero.IsInvalidArgument()) << zero.ToString();
  }
}

TEST(DetectorTest, RejectsZeroLengthWatermark) {
  const Marked m = EmbedStandard(12);
  const Detector detector(m.keys, m.params);
  EXPECT_FALSE(detector.Detect(m.rel, DetectKA(m.report), 0).ok());
}

TEST(DetectorTest, RejectsUnknownColumns) {
  const Marked m = EmbedStandard(13);
  const Detector detector(m.keys, m.params);
  DetectOptions options;
  options.key_attr = "NOPE";
  options.target_attr = "A";
  EXPECT_FALSE(detector.Detect(m.rel, options, 10).ok());
}

TEST(DetectorTest, RejectsEmptyRelation) {
  const Marked m = EmbedStandard(14);
  Relation empty(m.rel.schema());
  const Detector detector(m.keys, m.params);
  EXPECT_FALSE(detector.Detect(empty, DetectKA(m.report), 10).ok());
}

// Regression: deriving the payload length from a suspect relation smaller
// than e used to silently floor N/e to |wm| and "succeed" with no usable
// channel; it is now an explicit precondition failure. Owner-side
// payload_length keeps working on arbitrarily small suspects.
TEST(DetectorTest, DerivedPayloadLengthFailsWhenEExceedsSuspectSize) {
  const Marked m = EmbedStandard(16, 30);
  Relation tiny(m.rel.schema());
  for (std::size_t j = 0; j < 20; ++j) {
    tiny.AppendRowUnchecked(m.rel.row(j));
  }
  const Detector detector(m.keys, m.params);
  DetectOptions derived;
  derived.key_attr = "K";
  derived.target_attr = "A";
  derived.domain = m.report.domain;
  const Status status = detector.Detect(tiny, derived, 10).status();
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();

  // The explicit owner-side payload length is unaffected.
  EXPECT_TRUE(detector.Detect(tiny, DetectKA(m.report), 10).ok());
}

// -------------------------------------------------------------- MatchStats

TEST(MatchStatsTest, PerfectMatch) {
  const BitVector wm = MakeWatermark(10, 15);
  const MatchStats stats = MatchWatermark(wm, wm);
  EXPECT_EQ(stats.matched_bits, 10u);
  EXPECT_DOUBLE_EQ(stats.match_fraction, 1.0);
  EXPECT_DOUBLE_EQ(stats.mark_alteration, 0.0);
  // (1/2)^10 — the Section 4.4 false-claim probability.
  EXPECT_NEAR(stats.false_match_probability, 1.0 / 1024.0, 1e-12);
}

TEST(MatchStatsTest, PartialMatch) {
  const BitVector a = BitVector::FromString("1111100000").value();
  const BitVector b = BitVector::FromString("1111111111").value();
  const MatchStats stats = MatchWatermark(a, b);
  EXPECT_EQ(stats.matched_bits, 5u);
  EXPECT_DOUBLE_EQ(stats.mark_alteration, 0.5);
  EXPECT_GT(stats.false_match_probability, 0.5);
}

TEST(MatchStatsTest, TotalMismatch) {
  const BitVector a = BitVector(8, 0);
  const BitVector b = BitVector(8, 1);
  const MatchStats stats = MatchWatermark(a, b);
  EXPECT_EQ(stats.matched_bits, 0u);
  EXPECT_DOUBLE_EQ(stats.mark_alteration, 1.0);
  EXPECT_FALSE(stats.length_mismatch);
}

// Regression: a length mismatch (usually a payload-length mix-up between
// embed and detect) used to CHECK-crash the whole process. It now scores
// the overhang as mismatched bits and flags the condition.
TEST(MatchStatsTest, LengthMismatchIsToleratedAndFlagged) {
  const BitVector expected = BitVector::FromString("1111111111").value();
  const BitVector decoded = BitVector::FromString("1111").value();
  const MatchStats stats = MatchWatermark(expected, decoded);
  EXPECT_TRUE(stats.length_mismatch);
  EXPECT_EQ(stats.total_bits, 10u);
  EXPECT_EQ(stats.matched_bits, 4u);
  EXPECT_DOUBLE_EQ(stats.match_fraction, 0.4);
  EXPECT_DOUBLE_EQ(stats.mark_alteration, 0.6);
}

TEST(MatchStatsTest, LengthMismatchIsSymmetricInTotal) {
  const BitVector shorter = BitVector(3, 1);
  const BitVector longer = BitVector(12, 1);
  EXPECT_EQ(MatchWatermark(shorter, longer).total_bits, 12u);
  EXPECT_EQ(MatchWatermark(longer, shorter).total_bits, 12u);
  EXPECT_EQ(MatchWatermark(shorter, longer).matched_bits, 3u);
}

TEST(MatchStatsTest, EmptyAgainstNonEmptyDoesNotCrash) {
  const BitVector empty;
  const BitVector mark = BitVector(8, 1);
  const MatchStats stats = MatchWatermark(empty, mark);
  EXPECT_TRUE(stats.length_mismatch);
  EXPECT_EQ(stats.matched_bits, 0u);
  EXPECT_EQ(stats.total_bits, 8u);
}

}  // namespace
}  // namespace catmark
