#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/certificate.h"
#include "core/detect_engine.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "reference_scheme.h"
#include "service/service.h"
#include "test_util.h"

namespace catmark {
namespace {

// ---------------------------------------------------------------- fixtures

/// (K STRING CATEGORICAL, A STRING CATEGORICAL) with heavily repeated keys
/// — the dict-code gather path, where one prepared message serves many rows.
Relation DictKeyRelation(std::size_t num_tuples = 2400,
                         std::size_t num_keys = 400,
                         std::size_t domain_size = 24,
                         std::uint64_t seed = 11) {
  Schema schema =
      Schema::Create({{"K", ColumnType::kString, /*categorical=*/true},
                      {"A", ColumnType::kString, /*categorical=*/true}})
          .value();
  Relation rel(schema);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < num_tuples; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t h = state >> 17;
    Row row;
    row.emplace_back("cust-" + std::to_string(h % num_keys));
    row.emplace_back("val-" + std::to_string((h / num_keys) % domain_size));
    rel.AppendRowUnchecked(std::move(row));
  }
  return rel;
}

/// (K INT64, A STRING CATEGORICAL) with repeated keys, negative keys and
/// every 53rd key NULL; K is a dictionary column when `dict_keys`, else a
/// plain int64 lane. On the dictionary layout the last row's original key
/// is re-keyed away, leaving a dictionary entry no row references.
Relation Int64KeyRelation(bool dict_keys, std::size_t num_tuples = 2400,
                          std::size_t num_keys = 400,
                          std::size_t domain_size = 24,
                          std::uint64_t seed = 13) {
  Schema schema =
      Schema::Create({{"K", ColumnType::kInt64, dict_keys},
                      {"A", ColumnType::kString, /*categorical=*/true}})
          .value();
  Relation rel(schema);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < num_tuples; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t h = state >> 17;
    Row row;
    if (i % 53 == 0) {
      row.emplace_back();  // NULL key
    } else {
      row.emplace_back(static_cast<std::int64_t>(h % num_keys) * 7919 -
                       1000000);
    }
    row.emplace_back("val-" + std::to_string((h / num_keys) % domain_size));
    rel.AppendRowUnchecked(std::move(row));
  }
  rel.AppendRowUnchecked({Value(std::int64_t{123456789}), Value("val-0")});
  EXPECT_TRUE(
      rel.Set(rel.NumRows() - 1, 0, Value(std::int64_t{-1000000})).ok());
  return rel;
}

struct Marked {
  Relation rel;
  BitVector wm;
  EmbedReport report;
  WatermarkKeySet keys;
  WatermarkParams params;
};

Marked EmbedOn(Relation rel, PrfKind prf, std::uint64_t e = 4,
               bool build_embedding_map = false) {
  Marked m;
  m.rel = std::move(rel);
  m.keys = testutil::TestKeys();
  m.params.e = e;
  m.params.prf = prf;
  // Pin a short payload: on the dict-key fixture the position channel has
  // one slot per *distinct* fit key (~num_keys / e), so a derived N/e-long
  // payload would be mostly erasures by construction.
  m.params.payload_length = 12;
  m.wm = testutil::TestWatermark(12);
  EmbedOptions options;
  options.key_attr = testutil::kKeyAttr;
  options.target_attr = testutil::kTargetAttr;
  options.build_embedding_map = build_embedding_map;
  const Embedder embedder(m.keys, m.params);
  m.report = embedder.Embed(m.rel, options, m.wm).value();
  return m;
}

std::vector<KeyCandidate> CandidatesFor(const Marked& m) {
  // The true keys plus wrong keys and a wrong-parameter claim: a sweep's
  // population is mostly non-owners, so parity must hold off the happy path.
  std::vector<KeyCandidate> candidates;
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{101},
                                   std::uint64_t{202}, std::uint64_t{303}}) {
    KeyCandidate c;
    c.keys = seed == 0 ? m.keys : WatermarkKeySet::FromSeed(seed);
    c.params = m.params;
    c.params.payload_length = m.report.payload_length;
    c.wm_len = m.wm.size();
    candidates.push_back(std::move(c));
  }
  candidates.back().params.e = 7;  // wrong e claimed in its certificate
  return candidates;
}

void ExpectSameDetection(const DetectionResult& got,
                         const DetectionResult& want) {
  EXPECT_EQ(got.wm, want.wm);
  EXPECT_EQ(got.num_tuples, want.num_tuples);
  EXPECT_EQ(got.fit_tuples, want.fit_tuples);
  EXPECT_EQ(got.usable_votes, want.usable_votes);
  EXPECT_EQ(got.payload_length, want.payload_length);
  EXPECT_EQ(got.positions_present, want.positions_present);
  EXPECT_EQ(got.payload_fill, want.payload_fill);
  EXPECT_EQ(got.prf, want.prf);
  EXPECT_EQ(got.bit_confidence, want.bit_confidence);
}

// DetectMany, the engine's single Detect and a standalone Detector::Detect
// each match the paper-literal Figure 2 oracle for every candidate, across
// PRF backends x thread counts, on both key layouts.
void RunParitySweep(bool dict_keys) {
  for (const PrfKind prf : {PrfKind::kKeyedHash, PrfKind::kSipHash24}) {
    Marked m = EmbedOn(dict_keys ? DictKeyRelation()
                                 : testutil::SmallKeyedRelation(),
                       prf);
    const std::vector<KeyCandidate> candidates = CandidatesFor(m);

    // Expected: the oracle, once per candidate (it has no thread count).
    std::vector<Result<reference::ReferenceDetection>> expected;
    for (const KeyCandidate& c : candidates) {
      expected.push_back(reference::ReferenceDetect(
          m.rel, reference::DetectInputsOf(c, m.report.domain)));
    }
    ASSERT_TRUE(expected[0].ok()) << expected[0].status().ToString();
    ASSERT_TRUE(expected[1].ok()) << expected[1].status().ToString();
    EXPECT_EQ(expected[0].value().wm, m.wm)
        << "true keys must recover the mark (prf=" << static_cast<int>(prf)
        << ")";
    EXPECT_NE(expected[1].value().wm, m.wm) << "wrong keys must not";

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      DetectEngineOptions options;
      options.key_attr = testutil::kKeyAttr;
      options.target_attr = testutil::kTargetAttr;
      options.domain = &m.report.domain;
      options.num_threads = threads;
      const DetectEngine engine =
          DetectEngine::Create(m.rel, options).value();
      EXPECT_EQ(engine.dict_keys(), dict_keys);
      EXPECT_EQ(engine.num_rows(), m.rel.NumRows());
      if (dict_keys) {
        EXPECT_LT(engine.num_messages(), m.rel.NumRows())
            << "repeated keys must fold into fewer prepared messages";
      }

      const std::vector<Result<DetectionResult>> many =
          engine.DetectMany(std::span<const KeyCandidate>(candidates));
      ASSERT_EQ(many.size(), candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const KeyCandidate& c = candidates[i];
        const std::string where =
            "candidate " + std::to_string(i) + " prf=" +
            std::to_string(static_cast<int>(prf)) +
            " threads=" + std::to_string(threads);
        ASSERT_TRUE(many[i].ok()) << many[i].status().ToString();
        reference::ExpectDetectMatchesReference(many[i], expected[i],
                                                where + " DetectMany");
        EXPECT_EQ(many[i].value().prf, prf) << where;
        EXPECT_EQ(many[i].value().messages_hashed, engine.num_messages());

        reference::ExpectDetectMatchesReference(engine.Detect(c), expected[i],
                                                where + " Detect");

        // The claimed payload length reaches the Detector only through
        // DetectOptions, which must override the params' (here 0).
        WatermarkParams params = c.params;
        params.num_threads = threads;
        params.payload_length = 0;
        DetectOptions detect_options;
        detect_options.key_attr = testutil::kKeyAttr;
        detect_options.target_attr = testutil::kTargetAttr;
        detect_options.domain = m.report.domain;
        detect_options.payload_length = c.params.payload_length;
        reference::ExpectDetectMatchesReference(
            Detector(c.keys, params).Detect(m.rel, detect_options, c.wm_len),
            expected[i], where + " Detector");
      }
    }
  }
}

TEST(DetectEngineTest, ParityPlainKeys) { RunParitySweep(false); }

TEST(DetectEngineTest, ParityDictKeys) { RunParitySweep(true); }

// Figure 2(b) candidates run on the same engine: in a DetectMany block next
// to k2 candidates, through the engine's single Detect and through
// Detector::Detect with DetectOptions::embedding_map, a candidate carrying
// an embedding map matches the paper-literal oracle — on both key layouts,
// with rows appended after the embed whose keys the map does not hold.
TEST(DetectEngineTest, EmbeddingMapCandidatesMatchTheReference) {
  for (const bool dict_keys : {false, true}) {
    Marked m = EmbedOn(dict_keys ? DictKeyRelation()
                                 : testutil::SmallKeyedRelation(),
                       PrfKind::kKeyedHash, 4, /*build_embedding_map=*/true);
    ASSERT_GT(m.report.embedding_map.size(), 0u);
    for (std::int64_t i = 0; i < 200; ++i) {
      const Value key = dict_keys ? Value("new-" + std::to_string(i))
                                  : Value(std::int64_t{1000000000} + i);
      m.rel.AppendRowUnchecked(
          {key, m.report.domain.value(static_cast<std::size_t>(i) %
                                      m.report.domain.size())});
    }
    std::vector<KeyCandidate> candidates = CandidatesFor(m);
    const std::size_t owner_map = candidates.size();
    for (const std::size_t i : {std::size_t{0}, std::size_t{1}}) {
      KeyCandidate map_candidate = candidates[i];
      map_candidate.embedding_map = &m.report.embedding_map;
      candidates.push_back(std::move(map_candidate));
    }
    std::vector<Result<reference::ReferenceDetection>> want;
    for (const KeyCandidate& c : candidates) {
      want.push_back(reference::ReferenceDetect(
          m.rel, reference::DetectInputsOf(c, m.report.domain)));
    }

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      DetectEngineOptions engine_options;
      engine_options.key_attr = testutil::kKeyAttr;
      engine_options.target_attr = testutil::kTargetAttr;
      engine_options.domain = &m.report.domain;
      engine_options.num_threads = threads;
      const DetectEngine engine =
          DetectEngine::Create(m.rel, engine_options).value();
      const std::vector<Result<DetectionResult>> many =
          engine.DetectMany(std::span<const KeyCandidate>(candidates));
      ASSERT_EQ(many.size(), candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const std::string where = "dict_keys " + std::to_string(dict_keys) +
                                  ", threads " + std::to_string(threads) +
                                  ", candidate " + std::to_string(i);
        const KeyCandidate& c = candidates[i];
        WatermarkParams params = c.params;
        params.num_threads = threads;
        DetectOptions options;
        options.key_attr = testutil::kKeyAttr;
        options.target_attr = testutil::kTargetAttr;
        options.domain = m.report.domain;
        options.payload_length = c.params.payload_length;
        options.embedding_map = c.embedding_map;
        reference::ExpectDetectMatchesReference(many[i], want[i],
                                                where + " DetectMany");
        reference::ExpectDetectMatchesReference(engine.Detect(c), want[i],
                                                where + " Detect");
        reference::ExpectDetectMatchesReference(
            Detector(c.keys, params).Detect(m.rel, options, c.wm_len),
            want[i], where + " Detector::Detect");
        EXPECT_EQ(many[i].value().messages_hashed, engine.num_messages());
      }
      // The owner's map on unique keys recovers the mark exactly.
      if (!dict_keys) {
        EXPECT_EQ(many[owner_map].value().wm, m.wm);
      }
    }
  }
}

// An INT64 dictionary key column keeps its plan messages as a typed int64
// lane. With NULL keys and a dead dictionary entry, k2 and embedding-map
// candidates in one DetectMany block and through Detector::Detect must
// match the paper-literal oracle — on the dictionary column and on the
// same rows with K as a plain lane, where the pass reads the key column in
// place. messages_hashed counts the live distinct non-NULL keys on the
// dictionary and the non-NULL key rows on the lane.
TEST(DetectEngineTest, Int64DictKeysMatchDetectorAndPlainLane) {
  Marked m = EmbedOn(Int64KeyRelation(/*dict_keys=*/true),
                     PrfKind::kSipHash24, 4, /*build_embedding_map=*/true);
  ASSERT_TRUE(m.rel.store().IsDictColumn(0));
  const std::vector<std::int64_t>& live = m.rel.store().DictLiveCounts(0);
  ASSERT_NE(std::find(live.begin(), live.end(), 0), live.end())
      << "the fixture must hold a dead dictionary entry";
  Relation plain(Int64KeyRelation(/*dict_keys=*/false, 0).schema());
  std::set<std::int64_t> distinct_keys;
  std::size_t keyed_rows = 0;
  for (std::size_t j = 0; j < m.rel.NumRows(); ++j) {
    const Row row = m.rel.row(j);
    if (!row[0].is_null()) {
      distinct_keys.insert(row[0].AsInt64());
      ++keyed_rows;
    }
    ASSERT_TRUE(plain.AppendRow(row).ok());
  }
  ASSERT_TRUE(plain.store().IsLaneColumn(0));
  ASSERT_LT(keyed_rows, plain.NumRows()) << "the fixture must hold NULL keys";

  std::vector<KeyCandidate> candidates = CandidatesFor(m);
  for (const std::size_t i : {std::size_t{0}, std::size_t{1}}) {
    KeyCandidate map_candidate = candidates[i];
    map_candidate.embedding_map = &m.report.embedding_map;
    candidates.push_back(std::move(map_candidate));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    DetectEngineOptions engine_options;
    engine_options.key_attr = testutil::kKeyAttr;
    engine_options.target_attr = testutil::kTargetAttr;
    engine_options.domain = &m.report.domain;
    engine_options.num_threads = threads;
    const DetectEngine engine =
        DetectEngine::Create(m.rel, engine_options).value();
    ASSERT_TRUE(engine.dict_keys());
    EXPECT_EQ(engine.num_messages(), distinct_keys.size());
    const std::vector<Result<DetectionResult>> many =
        engine.DetectMany(std::span<const KeyCandidate>(candidates));
    ASSERT_EQ(many.size(), candidates.size());
    // The plain lane, NULL keys included, through the engine: one typed
    // int64 message per keyed row.
    const DetectEngine lane_engine =
        DetectEngine::Create(plain, engine_options).value();
    ASSERT_FALSE(lane_engine.dict_keys());
    EXPECT_EQ(lane_engine.num_messages(), keyed_rows);
    const std::vector<Result<DetectionResult>> lane_many =
        lane_engine.DetectMany(std::span<const KeyCandidate>(candidates));
    ASSERT_EQ(lane_many.size(), candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      SCOPED_TRACE("candidate " + std::to_string(i) + ", threads " +
                   std::to_string(threads));
      const KeyCandidate& c = candidates[i];
      WatermarkParams params = c.params;
      params.num_threads = threads;
      DetectOptions options;
      options.key_attr = testutil::kKeyAttr;
      options.target_attr = testutil::kTargetAttr;
      options.domain = m.report.domain;
      options.payload_length = c.params.payload_length;
      options.embedding_map = c.embedding_map;
      const Detector detector(c.keys, params);
      const Result<DetectionResult> on_dict =
          detector.Detect(m.rel, options, c.wm_len);
      const Result<DetectionResult> on_lane =
          detector.Detect(plain, options, c.wm_len);
      const Result<reference::ReferenceDetection> want =
          reference::ReferenceDetect(
              m.rel, reference::DetectInputsOf(c, m.report.domain));
      reference::ExpectDetectMatchesReference(many[i], want, "DetectMany");
      reference::ExpectDetectMatchesReference(on_dict, want, "Detector");
      reference::ExpectDetectMatchesReference(lane_many[i], want,
                                              "lane DetectMany");
      reference::ExpectDetectMatchesReference(on_lane, want, "lane Detector");
      ASSERT_TRUE(many[i].ok() && on_dict.ok() && lane_many[i].ok() &&
                  on_lane.ok());
      EXPECT_EQ(lane_many[i].value().messages_hashed, keyed_rows);
      EXPECT_EQ(on_lane.value().messages_hashed, keyed_rows);
      EXPECT_EQ(many[i].value().messages_hashed, distinct_keys.size());
      EXPECT_EQ(on_dict.value().messages_hashed, distinct_keys.size());
      EXPECT_GT(many[i].value().fit_tuples, 0u);
    }
  }
}

// ------------------------------------------------------------- edge cases

TEST(DetectEngineTest, EmptyRelationFailsCleanly) {
  Relation rel(Schema::Create({{"K", ColumnType::kInt64, false},
                               {"A", ColumnType::kString, true}})
                   .value());
  DetectEngineOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const Result<DetectEngine> engine = DetectEngine::Create(rel, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsFailedPrecondition());
}

TEST(DetectEngineTest, UnknownAttributeFailsCleanly) {
  Relation rel = DictKeyRelation(50);
  DetectEngineOptions options;
  options.key_attr = "NOPE";
  options.target_attr = "A";
  const Result<DetectEngine> engine = DetectEngine::Create(rel, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsNotFound());
}

KeyCandidate PlainCandidate(std::size_t payload_length = 16,
                            std::size_t wm_len = 8) {
  KeyCandidate c;
  c.keys = testutil::TestKeys();
  c.params.e = 5;
  c.params.prf = PrfKind::kKeyedHash;
  c.params.payload_length = payload_length;
  c.wm_len = wm_len;
  return c;
}

TEST(DetectEngineTest, AllNullKeysDetectCleanlyOnEveryLayout) {
  // Plain lane, string arena, typed int64 dictionary.
  for (const auto& [type, dict] :
       {std::pair{ColumnType::kInt64, false},
        std::pair{ColumnType::kString, true},
        std::pair{ColumnType::kInt64, true}}) {
    Relation rel(Schema::Create({{"K", type, dict},
                                 {"A", ColumnType::kString, true}})
                     .value());
    for (int i = 0; i < 40; ++i) {
      Row row;
      row.emplace_back();  // NULL key: unfit, never a prepared message
      row.emplace_back(i % 2 == 0 ? "left" : "right");
      rel.AppendRowUnchecked(std::move(row));
    }
    DetectEngineOptions options;
    options.key_attr = "K";
    options.target_attr = "A";
    const DetectEngine engine = DetectEngine::Create(rel, options).value();
    EXPECT_EQ(engine.dict_keys(), dict);
    EXPECT_EQ(engine.num_messages(), 0u);

    const DetectionResult result = engine.Detect(PlainCandidate()).value();
    EXPECT_EQ(result.fit_tuples, 0u);
    EXPECT_EQ(result.usable_votes, 0u);
    EXPECT_EQ(result.positions_present, 0u);
  }
}

TEST(DetectEngineTest, AllNullTargetWithProvidedDomainDetectsCleanly) {
  // Zero live dict entries in the target attribute: detection must run on
  // the provided domain and report zero usable votes, never crash.
  Relation rel(Schema::Create({{"K", ColumnType::kInt64, false},
                               {"A", ColumnType::kString, true}})
                   .value());
  for (int i = 0; i < 40; ++i) {
    Row row;
    row.emplace_back(static_cast<std::int64_t>(i));
    row.emplace_back();  // NULL target everywhere
    rel.AppendRowUnchecked(std::move(row));
  }
  const CategoricalDomain domain =
      CategoricalDomain::FromValues({Value("left"), Value("right")}).value();
  DetectEngineOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.domain = &domain;
  const DetectEngine engine = DetectEngine::Create(rel, options).value();

  const DetectionResult result = engine.Detect(PlainCandidate()).value();
  EXPECT_GT(result.fit_tuples, 0u);  // fitness is key-only; rows still fit
  EXPECT_EQ(result.usable_votes, 0u);
  EXPECT_EQ(result.positions_present, 0u);

  // And the Detector front door agrees.
  WatermarkParams params;
  params.e = 5;
  params.prf = PrfKind::kKeyedHash;
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.domain = domain;
  detect_options.payload_length = 16;
  const Detector detector(testutil::TestKeys(), params);
  const DetectionResult front = detector.Detect(rel, detect_options, 8).value();
  EXPECT_EQ(front.usable_votes, 0u);
  EXPECT_EQ(front.fit_tuples, result.fit_tuples);
}

TEST(DetectEngineTest, DetectManyIsolatesBadCandidates) {
  const Marked m = EmbedOn(DictKeyRelation(), PrfKind::kKeyedHash);
  std::vector<KeyCandidate> candidates = CandidatesFor(m);
  candidates[1].wm_len = 0;                       // invalid mark length
  candidates[2].keys.k2 = candidates[2].keys.k1;  // k1 == k2
  KeyCandidate zero_e = candidates[0];
  zero_e.params.e = 0;
  candidates.push_back(zero_e);

  DetectEngineOptions options;
  options.key_attr = testutil::kKeyAttr;
  options.target_attr = testutil::kTargetAttr;
  options.domain = &m.report.domain;
  const DetectEngine engine = DetectEngine::Create(m.rel, options).value();

  const std::vector<Result<DetectionResult>> results =
      engine.DetectMany(std::span<const KeyCandidate>(candidates));
  ASSERT_EQ(results.size(), candidates.size());
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(results[0].value().wm, m.wm);
  EXPECT_TRUE(results[1].status().IsInvalidArgument());
  EXPECT_TRUE(results[2].status().IsInvalidArgument());
  ASSERT_TRUE(results[3].ok());  // wrong e is a valid (losing) claim
  EXPECT_TRUE(results[4].status().IsInvalidArgument());
}

// ---------------------------------------------------------- service sweep

TEST(DetectEngineTest, SweepOwnershipRanksTrueOwnerFirst) {
  const Marked m = EmbedOn(DictKeyRelation(), PrfKind::kSipHash24);
  EmbedOptions embed_options;
  embed_options.key_attr = testutil::kKeyAttr;
  embed_options.target_attr = testutil::kTargetAttr;

  std::vector<OwnershipCandidate> candidates;
  {
    OwnershipCandidate owner;
    owner.id = "owner";
    owner.certificate = WatermarkCertificate::Create(
        m.keys, m.params, embed_options, m.report, m.wm);
    owner.keys = m.keys;
    candidates.push_back(std::move(owner));
  }
  for (const std::uint64_t seed : {std::uint64_t{41}, std::uint64_t{42}}) {
    OwnershipCandidate impostor;
    impostor.id = "impostor-" + std::to_string(seed);
    // Forged claim: the owner's public certificate with the impostor's keys
    // — the commitment mismatch must be reported, not veto the detection.
    impostor.certificate = candidates[0].certificate;
    impostor.keys = WatermarkKeySet::FromSeed(seed);
    candidates.push_back(std::move(impostor));
  }
  {
    OwnershipCandidate bad;
    bad.id = "bad-attrs";
    bad.certificate = candidates[0].certificate;
    bad.certificate.key_attr = "NO_SUCH_COLUMN";
    bad.keys = m.keys;
    candidates.push_back(std::move(bad));
  }

  const WatermarkService service;
  const SweepReport report =
      service
          .SweepOwnership(m.rel,
                          std::span<const OwnershipCandidate>(candidates))
          .value();

  ASSERT_EQ(report.ranked.size(), 3u);
  EXPECT_EQ(report.ranked[0].id, "owner");
  EXPECT_TRUE(report.ranked[0].commitment_verified);
  EXPECT_TRUE(report.ranked[0].decision.owned);
  EXPECT_EQ(report.ranked[0].detection.wm, m.wm);
  for (std::size_t i = 1; i < report.ranked.size(); ++i) {
    EXPECT_FALSE(report.ranked[i].commitment_verified);
    EXPECT_FALSE(report.ranked[i].decision.owned);
  }
  ASSERT_EQ(report.failed.size(), 1u);
  EXPECT_EQ(report.failed[0].first, "bad-attrs");
  EXPECT_TRUE(report.failed[0].second.IsNotFound());
  // One plan serves the three same-attribute candidates; the bad group
  // never builds one.
  EXPECT_EQ(report.plans_built, 1u);
  EXPECT_GT(report.messages_hashed, 0u);

  // Sweep results match a certificate-driven detection for the true owner.
  const CertifiedDetection certified =
      DetectWithCertificate(m.rel, candidates[0].certificate, m.keys).value();
  ExpectSameDetection(report.ranked[0].detection, certified.detection);
  EXPECT_EQ(report.ranked[0].decision.matched_bits,
            certified.decision.matched_bits);
}

// A certificate may claim any payload_length up to 2^32 - 1. Detection's
// tally is sparse, so the largest claim costs what any other does: every
// entry point returns an ordinary verdict instead of sizing a 32 GB vote
// array per worker.
TEST(DetectEngineTest, HostilePayloadLengthCertificateReturnsAVerdict) {
  constexpr std::size_t kHostileLength = 4294967295u;
  for (const bool dict : {false, true}) {
    const Marked m = EmbedOn(
        dict ? DictKeyRelation() : testutil::SmallKeyedRelation(),
        PrfKind::kSipHash24);
    EmbedOptions embed_options;
    embed_options.key_attr = testutil::kKeyAttr;
    embed_options.target_attr = testutil::kTargetAttr;
    WatermarkCertificate honest = WatermarkCertificate::Create(
        m.keys, m.params, embed_options, m.report, m.wm);
    honest.payload_length = kHostileLength;
    // Through the parser: the field is inside its accepted range.
    const WatermarkCertificate cert =
        WatermarkCertificate::Deserialize(honest.Serialize()).value();
    ASSERT_EQ(cert.payload_length, kHostileLength);

    const CertifiedDetection certified =
        DetectWithCertificate(m.rel, cert, m.keys).value();
    EXPECT_EQ(certified.detection.payload_length, kHostileLength);
    EXPECT_GT(certified.detection.positions_present, 0u);
    EXPECT_LE(certified.detection.positions_present,
              certified.detection.usable_votes);
    EXPECT_EQ(certified.detection.wm.size(), m.wm.size());

    for (const EccKind ecc :
         {EccKind::kMajorityVoting, EccKind::kIdentity,
          EccKind::kBlockRepetition, EccKind::kHamming74}) {
      WatermarkParams params = m.params;
      params.ecc = ecc;
      DetectOptions options;
      options.key_attr = testutil::kKeyAttr;
      options.target_attr = testutil::kTargetAttr;
      options.domain = m.report.domain;
      options.payload_length = kHostileLength;
      const DetectionResult detected =
          Detector(m.keys, params).Detect(m.rel, options, m.wm.size()).value();
      EXPECT_EQ(detected.payload_length, kHostileLength);
      EXPECT_EQ(detected.wm.size(), m.wm.size());

      DetectEngineOptions engine_options;
      engine_options.key_attr = testutil::kKeyAttr;
      engine_options.target_attr = testutil::kTargetAttr;
      engine_options.domain = &m.report.domain;
      const DetectEngine engine =
          DetectEngine::Create(m.rel, engine_options).value();
      KeyCandidate candidate{m.keys, params, m.wm.size()};
      candidate.params.payload_length = kHostileLength;
      const std::vector<Result<DetectionResult>> many =
          engine.DetectMany(std::span<const KeyCandidate>(&candidate, 1));
      ASSERT_TRUE(many[0].ok()) << many[0].status().ToString();
      ExpectSameDetection(many[0].value(), detected);
    }

    std::vector<OwnershipCandidate> candidates(2);
    candidates[0] = {"hostile", cert, m.keys};
    candidates[1] = {"stranger", cert, WatermarkKeySet::FromSeed(77)};
    const SweepReport report =
        WatermarkService()
            .SweepOwnership(m.rel,
                            std::span<const OwnershipCandidate>(candidates))
            .value();
    ASSERT_EQ(report.ranked.size(), 2u);
    EXPECT_TRUE(report.failed.empty());
    for (const SweepMatch& match : report.ranked) {
      EXPECT_EQ(match.detection.payload_length, kHostileLength);
    }
  }
}

TEST(DetectEngineTest, SweepOwnershipRejectsEmptyCandidateList) {
  const Relation rel = DictKeyRelation(50);
  const WatermarkService service;
  const Result<SweepReport> report =
      service.SweepOwnership(rel, std::span<const OwnershipCandidate>());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument());
}

}  // namespace
}  // namespace catmark
