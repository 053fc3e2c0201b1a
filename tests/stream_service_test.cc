// Streaming service equivalence suite: the batched StreamSession /
// WatermarkService path must be byte-identical to inserting one row at a
// time — same relation bytes, same dictionary code assignment, same
// detection outcome — across batch splits, source ranges, key shapes, PRF
// backends and service thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/certificate.h"
#include "core/codec.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "crypto/prf.h"
#include "ecc/code.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "relation/catm_io.h"
#include "relation/csv.h"
#include "service/service.h"
#include "service/session.h"

namespace catmark {
namespace {

// The key column shapes the fit scanner branches on: NULL-free int64 keys
// (the dense typed lane), int64 keys with NULLs (the typed lane with row
// backfill) and string keys with NULLs (the serialized-arena path).
enum class KeyShape { kInt, kIntWithNulls, kString };

struct Fixture {
  Relation rel;
  WatermarkKeySet keys = WatermarkKeySet::FromSeed(91);
  WatermarkParams params;
  BitVector wm;
  EmbedOptions options;
  EmbedReport report;
  KeyShape shape = KeyShape::kInt;
};

Value KeyValue(KeyShape shape, std::int64_t key) {
  if (shape == KeyShape::kString) return Value("C" + std::to_string(key));
  return Value(key);
}

Fixture MakeFixture(std::optional<PrfKind> prf = std::nullopt,
                    std::uint64_t seed = 91,
                    KeyShape shape = KeyShape::kInt) {
  Fixture f;
  f.keys = WatermarkKeySet::FromSeed(seed);
  f.shape = shape;
  KeyedCategoricalConfig gen;
  gen.num_tuples = 3000;
  gen.domain_size = 100;
  gen.seed = seed;
  f.rel = GenerateKeyedCategorical(gen);
  if (shape == KeyShape::kString) {
    Relation keyed(Schema::Create({{"K", ColumnType::kString, false},
                                   {"A", ColumnType::kString, true}},
                                  "K")
                       .value());
    for (std::size_t i = 0; i < f.rel.NumRows(); ++i) {
      Row row = f.rel.row(i);
      row[0] = KeyValue(shape, *row[0].TryInt64());
      keyed.AppendRowUnchecked(std::move(row));
    }
    f.rel = std::move(keyed);
  }
  f.params.e = 30;
  f.params.prf = prf;
  f.wm = MakeWatermark(10, seed);
  f.options.key_attr = "K";
  f.options.target_attr = "A";
  f.report = Embedder(f.keys, f.params).Embed(f.rel, f.options, f.wm).value();
  return f;
}

SessionSpec SpecOf(const Fixture& f) {
  return SessionSpec::FromEmbedReport(f.keys, f.params, f.options, f.report,
                                      f.wm);
}

DetectionResult Detect(const Fixture& f, const Relation& rel) {
  const Detector detector(f.keys, f.params);
  DetectOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.payload_length = f.report.payload_length;
  options.domain = f.report.domain;
  return detector.Detect(rel, options, f.wm.size()).value();
}

// A stream of rows with repeat-heavy keys (like a live feed re-inserting
// the same customers) plus a unique tail, deterministic in `seed`. Target
// cells mix in-domain values with values the relation has never seen, so
// dictionary code assignment order is exercised. Every shape but kInt
// carries ~3% NULL keys.
std::vector<Row> MakeStream(std::size_t n, std::uint64_t seed,
                            KeyShape shape = KeyShape::kInt) {
  std::mt19937_64 rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool repeat = (rng() % 4) != 0;  // ~75% repeats of a small pool
    const std::int64_t key =
        repeat ? static_cast<std::int64_t>(1000000 + rng() % 200)
               : static_cast<std::int64_t>(2000000 + i);
    const bool null_key = shape != KeyShape::kInt && rng() % 32 == 0;
    const std::uint64_t pick = rng() % 8;
    Value target = pick == 0   ? Value("NEW" + std::to_string(rng() % 5))
                   : pick == 1 ? Value()
                               : Value("V0001");
    rows.push_back(
        {null_key ? Value() : KeyValue(shape, key), std::move(target)});
  }
  return rows;
}

// True when the relations are byte-identical *including* dictionary code
// assignment (SameContent deliberately ignores code order; the streaming
// path promises to preserve it exactly): the .catm image serializes every
// dictionary in code order.
void ExpectIdenticalState(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  EXPECT_EQ(WriteCsvString(a), WriteCsvString(b));
  EXPECT_EQ(WriteCatmString(a), WriteCatmString(b));
}

// Independent single-shot reference built straight from the codec
// primitives — what Section 4.3 says each insert must do. Pins the batched
// path to the spec, not just to another insert path. `fit` reports
// whether the tuple carries a mark bit.
Row ReferenceMarkedRow(const Fixture& f, Row row, bool* fit = nullptr) {
  if (fit != nullptr) *fit = false;
  if (row[0].is_null()) return row;  // NULL keys are never fit
  const auto prf_k1 =
      CreateKeyedPrf(f.report.prf, f.keys.k1, f.params.hash_algo);
  const auto prf_k2 =
      CreateKeyedPrf(f.report.prf, f.keys.k2, f.params.hash_algo);
  const BitVector wm_data = CreateEcc(f.params.ecc)
                                ->Encode(f.wm, f.report.payload_length)
                                .value();
  HashScratch scratch;
  const std::uint64_t h1 = HashValue(*prf_k1, row[0], scratch);
  if (h1 % f.params.e == 0) {
    const std::size_t idx =
        PayloadIndexFromHash(HashValue(*prf_k2, row[0], scratch),
                             f.report.payload_length, f.params.bit_index_mode);
    const std::size_t t = SelectValueIndex(h1, f.report.domain.size(),
                                           wm_data.Get(idx));
    row[1] = f.report.domain.value(t);
    if (fit != nullptr) *fit = true;
  }
  return row;
}

class StreamEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<PrfKind, KeyShape>> {};

TEST_P(StreamEquivalenceTest, EveryInsertPathMatchesTheRowReference) {
  const auto [prf, shape] = GetParam();
  const Fixture f = MakeFixture(prf, 91, shape);
  const std::vector<Row> stream = MakeStream(3000, 7, shape);
  std::size_t non_null_keys = 0;
  std::set<std::string> distinct_keys;
  for (const Row& row : stream) {
    if (row[0].is_null()) continue;
    ++non_null_keys;
    distinct_keys.insert(row[0].ToString());
  }
  const bool caches = StreamSession::CachesVerdicts(prf);

  // Reference: every row marked from first principles, appended one at a
  // time through the row path.
  Relation reference = f.rel;
  std::size_t reference_fit = 0;
  for (const Row& row : stream) {
    bool fit = false;
    ASSERT_TRUE(reference.AppendRow(ReferenceMarkedRow(f, row, &fit)).ok());
    reference_fit += fit;
  }

  // Path 1: one row at a time.
  Relation one_at_a_time = f.rel;
  StreamSession single = StreamSession::Create(SpecOf(f)).value();
  std::size_t single_fit = 0;
  for (const Row& row : stream) {
    if (single.Insert(one_at_a_time, row).value()) ++single_fit;
  }
  EXPECT_EQ(single_fit, reference_fit);
  ExpectIdenticalState(reference, one_at_a_time);

  // Path 2: one giant batch.
  Relation one_batch = f.rel;
  StreamSession big = StreamSession::Create(SpecOf(f)).value();
  std::vector<Row> rows = stream;
  const BatchReport report =
      big.InsertBatch(one_batch, std::span<Row>(rows)).value();
  EXPECT_EQ(report.rows, stream.size());
  EXPECT_EQ(report.fit_rows, single_fit);
  // siphash24 hashes every non-NULL key; a caching backend hashes each
  // distinct key once, however often the stream repeats it.
  if (caches) {
    EXPECT_EQ(report.hashed_keys, distinct_keys.size());
    EXPECT_LT(report.hashed_keys, non_null_keys);
    EXPECT_EQ(big.cached_keys(), distinct_keys.size());
  } else {
    EXPECT_EQ(report.hashed_keys, non_null_keys);
    EXPECT_EQ(big.cached_keys(), 0u);
  }
  EXPECT_EQ(big.total_rows(), stream.size());
  EXPECT_EQ(big.total_fit(), single_fit);
  ExpectIdenticalState(reference, one_batch);

  // Path 3: random batch splits.
  Relation split_rel = f.rel;
  StreamSession split = StreamSession::Create(SpecOf(f)).value();
  std::mt19937_64 rng(13);
  rows = stream;
  std::size_t split_fit = 0;
  for (std::size_t at = 0; at < rows.size();) {
    const std::size_t len =
        std::min(rows.size() - at, 1 + rng() % 700);
    split_fit += split.InsertBatch(split_rel,
                                   std::span<Row>(&rows[at], len))
                     .value()
                     .fit_rows;
    at += len;
  }
  EXPECT_EQ(split_fit, single_fit);
  ExpectIdenticalState(reference, split_rel);

  // Path 4: a warm session re-inserting the stream — a caching backend now
  // answers every key from its cache, and the bytes do not move.
  Relation warm_rel = f.rel;
  rows = stream;
  std::size_t warm_hashed = 0;
  for (std::size_t at = 0; at < rows.size();) {
    const std::size_t len = std::min(rows.size() - at, std::size_t{257});
    warm_hashed +=
        big.InsertBatch(warm_rel, std::span<Row>(&rows[at], len))
            .value()
            .hashed_keys;
    at += len;
  }
  EXPECT_EQ(warm_hashed, caches ? 0u : non_null_keys);
  ExpectIdenticalState(reference, warm_rel);

  // Path 5: the columnar core over a source relation, at begin offsets
  // with counts 0, 1, 1023 and 1025, then the rest — onto an empty
  // relation, where marked values intern fresh and their order shows.
  Relation source(f.rel.schema());
  rows = stream;
  ASSERT_TRUE(source.AppendRows(std::span<Row>(rows)).ok());
  const std::string source_image = WriteCatmString(source);
  Relation fresh_reference(f.rel.schema());
  for (const Row& row : stream) {
    ASSERT_TRUE(fresh_reference.AppendRow(ReferenceMarkedRow(f, row)).ok());
  }
  Relation ranged(f.rel.schema());
  StreamSession columnar = StreamSession::Create(SpecOf(f)).value();
  std::size_t ranged_fit = 0;
  std::size_t at = 0;
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{1023}, std::size_t{1025},
        stream.size() - 2049}) {
    const BatchReport r =
        columnar.InsertRange(ranged, source, at, count).value();
    EXPECT_EQ(r.rows, count);
    ranged_fit += r.fit_rows;
    at += count;
  }
  EXPECT_EQ(ranged_fit, single_fit);
  EXPECT_EQ(WriteCatmString(source), source_image);  // source untouched
  ExpectIdenticalState(fresh_reference, ranged);

  // The grown relation still detects the offline-embedded mark.
  EXPECT_EQ(Detect(f, one_batch).wm, f.wm);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, StreamEquivalenceTest,
    ::testing::Combine(::testing::Values(PrfKind::kKeyedHash,
                                         PrfKind::kHmacSha256,
                                         PrfKind::kSipHash24),
                       ::testing::Values(KeyShape::kInt,
                                         KeyShape::kIntWithNulls,
                                         KeyShape::kString)),
    [](const auto& info) {
      const PrfKind prf = std::get<0>(info.param);
      const KeyShape shape = std::get<1>(info.param);
      return std::string(prf == PrfKind::kKeyedHash    ? "KeyedHash"
                         : prf == PrfKind::kHmacSha256 ? "HmacSha256"
                                                       : "SipHash24") +
             (shape == KeyShape::kInt           ? "IntKeys"
              : shape == KeyShape::kIntWithNulls ? "IntKeysWithNulls"
                                                 : "StringKeys");
    });

TEST(StreamSessionTest, InsertRangeErrorsLeaveTheRelationUnchanged) {
  const Fixture f = MakeFixture();
  StreamSession session = StreamSession::Create(SpecOf(f)).value();
  Relation rel = f.rel;
  const std::string before = WriteCatmString(rel);

  // Schema mismatch: same column names, but the key column is a string.
  Relation other_schema(Schema::Create({{"K", ColumnType::kString, false},
                                        {"A", ColumnType::kString, true}})
                            .value());
  ASSERT_TRUE(other_schema.AppendRow({Value("k"), Value("V0001")}).ok());
  const Result<BatchReport> mismatch =
      session.InsertRange(rel, other_schema, 0, 1);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteCatmString(rel), before);

  // Ranges past the end of the source, by count and by begin.
  Relation source(f.rel.schema());
  std::vector<Row> rows = MakeStream(10, 3);
  ASSERT_TRUE(source.AppendRows(std::span<Row>(rows)).ok());
  const std::pair<std::size_t, std::size_t> kPastTheEnd[] = {
      {0, 11}, {5, 6}, {11, 0}, {1, SIZE_MAX}};
  for (const auto& [begin, count] : kPastTheEnd) {
    const Result<BatchReport> past =
        session.InsertRange(rel, source, begin, count);
    ASSERT_FALSE(past.ok()) << begin << "+" << count;
    EXPECT_EQ(past.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(WriteCatmString(rel), before);
  }
  EXPECT_EQ(session.total_rows(), 0u);

  // The full range and an empty range at the end are fine.
  EXPECT_EQ(session.InsertRange(rel, source, 10, 0).value().rows, 0u);
  EXPECT_EQ(session.InsertRange(rel, source, 0, 10).value().rows, 10u);
  EXPECT_EQ(rel.NumRows(), f.rel.NumRows() + 10);
}

TEST(StreamSessionTest, ChunkBoundariesDoNotChangeVerdicts) {
  // A batch larger than the fit scanner's chunk forces several chunks
  // inside one InsertBatch; keys repeating across chunk boundaries must
  // resolve identically.
  const Fixture f = MakeFixture();
  std::vector<Row> stream = MakeStream(3 * FitScanner::kChunk + 37, 17);

  Relation batched = f.rel;
  StreamSession session = StreamSession::Create(SpecOf(f)).value();
  ASSERT_TRUE(session.InsertBatch(batched, std::span<Row>(stream)).ok());

  Relation serial = f.rel;
  StreamSession single = StreamSession::Create(SpecOf(f)).value();
  for (const Row& row : MakeStream(3 * FitScanner::kChunk + 37, 17)) {
    ASSERT_TRUE(single.Insert(serial, row).ok());
  }
  ExpectIdenticalState(serial, batched);
}

TEST(StreamSessionTest, NullKeysAreUnfitAndAppended) {
  const Fixture f = MakeFixture();
  StreamSession session = StreamSession::Create(SpecOf(f)).value();
  Relation rel = f.rel;
  std::vector<Row> rows;
  rows.push_back({Value(), Value("V0001")});
  const BatchReport report =
      session.InsertBatch(rel, std::span<Row>(rows)).value();
  EXPECT_EQ(report.rows, 1u);
  EXPECT_EQ(report.fit_rows, 0u);
  EXPECT_EQ(report.hashed_keys, 0u);
  EXPECT_EQ(rel.NumRows(), f.rel.NumRows() + 1);
}

TEST(StreamSessionTest, BatchesAreAtomicOnValidationErrors) {
  const Fixture f = MakeFixture();
  StreamSession session = StreamSession::Create(SpecOf(f)).value();
  Relation rel = f.rel;
  const std::string before = WriteCsvString(rel);

  // Arity error in the middle of the batch: nothing lands.
  std::vector<Row> bad_arity = MakeStream(10, 3);
  bad_arity[7] = {Value(std::int64_t{1})};
  EXPECT_FALSE(session.InsertBatch(rel, std::span<Row>(bad_arity)).ok());
  EXPECT_EQ(WriteCsvString(rel), before);

  // Type error: the key column is int64, hand it a string.
  std::vector<Row> bad_type = MakeStream(10, 3);
  bad_type[4][0] = Value("not-a-key");
  EXPECT_FALSE(session.InsertBatch(rel, std::span<Row>(bad_type)).ok());
  EXPECT_EQ(WriteCsvString(rel), before);

  // Unknown attribute: a relation without the key column.
  Relation wrong_schema(
      Schema::Create({{"X", ColumnType::kInt64, false}}).value());
  std::vector<Row> one = {{Value(std::int64_t{5})}};
  EXPECT_FALSE(session.InsertBatch(wrong_schema, std::span<Row>(one)).ok());
}

// Refresh runs its cache miss through the session's FitScanner: on
// siphash24 an int64 key takes the typed Hash64Int64Keys lane, on the other
// backends the serialized bytes. The row is found with HashValue, the
// single-message PRF call, so the two must agree on every backend.
class StreamRefreshTest : public ::testing::TestWithParam<PrfKind> {
 protected:
  // The first `limit` rows of `f` whose key is fit (or unfit, when `fit`
  // is false) under `f`'s backend.
  static std::vector<std::size_t> Rows(const Fixture& f, bool fit,
                                       std::size_t limit) {
    const auto k1 =
        CreateKeyedPrf(*f.params.prf, f.keys.k1, f.params.hash_algo);
    HashScratch scratch;
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < f.rel.NumRows() && rows.size() < limit;
         ++i) {
      if ((HashValue(*k1, f.rel.Get(i, 0), scratch) % f.params.e == 0) ==
          fit) {
        rows.push_back(i);
      }
    }
    return rows;
  }
};

TEST_P(StreamRefreshTest, RefreshReusesResidentStateAndRepairs) {
  Fixture f = MakeFixture(GetParam());
  StreamSession session = StreamSession::Create(SpecOf(f)).value();
  // Several fit rows, so a wrong payload position flips some repaired bit.
  const std::vector<std::size_t> fit_rows = Rows(f, /*fit=*/true, 16);
  ASSERT_EQ(fit_rows.size(), 16u);
  for (const std::size_t row : fit_rows) {
    const Value marked_value = f.rel.Get(row, 1);
    const Value damage(marked_value == Value("V0002") ? "V0003" : "V0002");
    ASSERT_TRUE(f.rel.Set(row, 1, damage).ok());
    EXPECT_TRUE(session.Refresh(f.rel, row).value());
    EXPECT_EQ(f.rel.Get(row, 1), marked_value) << "row " << row;
  }
  // A caching backend keeps the verdicts resident, and a second refresh
  // hits the cache; siphash24 keeps no cache and hashes the key again.
  if (StreamSession::CachesVerdicts(GetParam())) {
    EXPECT_GE(session.cached_keys(), 1u);
  } else {
    EXPECT_EQ(session.cached_keys(), 0u);
  }
  const Value marked_value = f.rel.Get(fit_rows[0], 1);
  EXPECT_TRUE(session.Refresh(f.rel, fit_rows[0]).value());
  EXPECT_EQ(f.rel.Get(fit_rows[0], 1), marked_value);
  EXPECT_FALSE(session.Refresh(f.rel, f.rel.NumRows()).ok());
}

TEST_P(StreamRefreshTest, RefreshLeavesUnfitRowsAlone) {
  Fixture f = MakeFixture(GetParam());
  StreamSession session = StreamSession::Create(SpecOf(f)).value();
  const std::vector<std::size_t> unfit_rows = Rows(f, /*fit=*/false, 16);
  ASSERT_EQ(unfit_rows.size(), 16u);
  for (const std::size_t row : unfit_rows) {
    const Value before = f.rel.Get(row, 1);
    EXPECT_FALSE(session.Refresh(f.rel, row).value());
    EXPECT_EQ(f.rel.Get(row, 1), before);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, StreamRefreshTest,
                         ::testing::Values(PrfKind::kKeyedHash,
                                           PrfKind::kHmacSha256,
                                           PrfKind::kSipHash24),
                         [](const auto& info) {
                           return std::string(
                               info.param == PrfKind::kKeyedHash
                                   ? "KeyedHash"
                               : info.param == PrfKind::kHmacSha256
                                   ? "HmacSha256"
                                   : "SipHash24");
                         });

TEST(StreamSessionTest, InsertedRowsAloneCarryTheMark) {
  // A relation of only inserted rows must detect the mark. The second spec
  // leaves params.prf on auto after a siphash24 embed: FromEmbedReport pins
  // the backend, so the inserts still detect under the embed-time one.
  for (const std::optional<PrfKind> prf :
       {std::optional<PrfKind>(),
        std::optional<PrfKind>(PrfKind::kSipHash24)}) {
    const Fixture f = MakeFixture(prf);
    WatermarkParams auto_params = f.params;
    auto_params.prf.reset();
    StreamSession session =
        StreamSession::Create(SessionSpec::FromEmbedReport(
                                  f.keys, auto_params, f.options, f.report,
                                  f.wm))
            .value();
    Relation fresh(f.rel.schema());
    std::size_t fit = 0;
    for (std::int64_t k = 5000000; fit < 200; ++k) {
      if (session.Insert(fresh, {Value(k), Value("V0001")}).value()) ++fit;
    }
    EXPECT_EQ(Detect(f, fresh).wm, f.wm);
  }
}

TEST(StreamSessionTest, InsertRejectsAWrongArity) {
  const Fixture f = MakeFixture();
  StreamSession session = StreamSession::Create(SpecOf(f)).value();
  Relation rel = f.rel;
  EXPECT_FALSE(session.Insert(rel, {Value(std::int64_t{1})}).ok());
  EXPECT_EQ(rel.NumRows(), f.rel.NumRows());
}

TEST(StreamSessionTest, ReportsTheSpecPayloadLengthAndDomain) {
  const Fixture f = MakeFixture();
  const StreamSession session = StreamSession::Create(SpecOf(f)).value();
  EXPECT_EQ(session.payload_length(), f.report.payload_length);
  EXPECT_EQ(session.domain().size(), f.report.domain.size());
}

TEST(SessionSpecTest, FromEmbedReportPinsThePrfBackend) {
  Fixture f = MakeFixture(PrfKind::kSipHash24);
  ASSERT_EQ(f.report.prf, PrfKind::kSipHash24);
  WatermarkParams auto_params = f.params;
  auto_params.prf.reset();  // the later-process default
  const SessionSpec spec = SessionSpec::FromEmbedReport(
      f.keys, auto_params, f.options, f.report, f.wm);
  ASSERT_TRUE(spec.params.prf.has_value());
  EXPECT_EQ(*spec.params.prf, PrfKind::kSipHash24);
}

TEST(SessionSpecTest, ValidateRejectsBrokenSpecs) {
  const Fixture f = MakeFixture();
  ASSERT_TRUE(SpecOf(f).Validate().ok());

  SessionSpec no_prf = SpecOf(f);
  no_prf.params.prf.reset();
  EXPECT_FALSE(no_prf.Validate().ok());

  SessionSpec no_wm = SpecOf(f);
  no_wm.wm = BitVector();
  EXPECT_FALSE(no_wm.Validate().ok());

  SessionSpec short_payload = SpecOf(f);
  short_payload.payload_length = f.wm.size() - 1;
  EXPECT_FALSE(short_payload.Validate().ok());

  SessionSpec tiny_domain = SpecOf(f);
  tiny_domain.domain =
      CategoricalDomain::FromValues({Value("only")}).value();
  EXPECT_FALSE(tiny_domain.Validate().ok());

  SessionSpec bad_keys = SpecOf(f);
  bad_keys.keys.k2 = bad_keys.keys.k1;
  EXPECT_FALSE(bad_keys.Validate().ok());

  SessionSpec bad_e = SpecOf(f);
  bad_e.params.e = 0;
  EXPECT_FALSE(bad_e.Validate().ok());
  EXPECT_FALSE(StreamSession::Create(std::move(bad_e)).ok());
}

TEST(SessionSpecTest, FromCertificateVerifiesTheKeyCommitment) {
  const Fixture f = MakeFixture();
  const WatermarkCertificate cert = WatermarkCertificate::Create(
      f.keys, f.params, f.options, f.report, f.wm);

  const Result<SessionSpec> wrong =
      SessionSpec::FromCertificate(cert, WatermarkKeySet::FromSeed(4444));
  ASSERT_FALSE(wrong.ok());

  SessionSpec spec = SessionSpec::FromCertificate(cert, f.keys).value();
  EXPECT_EQ(spec.payload_length, f.report.payload_length);
  ASSERT_TRUE(spec.params.prf.has_value());

  // Inserts under the certificate spec are byte-identical to inserts under
  // the embed-report spec.
  const std::vector<Row> stream = MakeStream(500, 23);
  Relation from_cert = f.rel;
  Relation from_report = f.rel;
  StreamSession cert_session =
      StreamSession::Create(std::move(spec)).value();
  StreamSession report_session = StreamSession::Create(SpecOf(f)).value();
  std::vector<Row> a = stream;
  std::vector<Row> b = stream;
  ASSERT_TRUE(cert_session.InsertBatch(from_cert, std::span<Row>(a)).ok());
  ASSERT_TRUE(
      report_session.InsertBatch(from_report, std::span<Row>(b)).ok());
  ExpectIdenticalState(from_cert, from_report);
  // The grown relation still passes certificate-driven detection.
  const CertifiedDetection verdict =
      DetectWithCertificate(from_cert, cert, f.keys).value();
  EXPECT_EQ(verdict.detection.wm, f.wm);
}

TEST(WatermarkServiceTest,
     MultiplexedSessionsMatchSequentialAtEveryThreadCount) {
  // Three tenants with distinct keys/marks; one mixed batch stream. The
  // parallel executor must produce byte-identical relations at 1, 2 and 8
  // workers, all equal to running each session sequentially.
  constexpr std::size_t kSessions = 3;
  std::vector<Fixture> fixtures;
  for (std::size_t s = 0; s < kSessions; ++s) {
    fixtures.push_back(MakeFixture(std::nullopt, 100 + s));
  }

  // The mixed stream: interleaved per-session batches, deterministic.
  struct Piece {
    std::size_t fixture;
    std::vector<Row> rows;
  };
  std::vector<Piece> pieces;
  std::mt19937_64 rng(5);
  for (int round = 0; round < 12; ++round) {
    const std::size_t s = rng() % kSessions;
    pieces.push_back(Piece{s, MakeStream(50 + rng() % 300, rng())});
  }

  // Reference: each session sequentially.
  std::vector<Relation> expected;
  for (std::size_t s = 0; s < kSessions; ++s) {
    expected.push_back(fixtures[s].rel);
  }
  {
    std::vector<StreamSession> sessions;
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions.push_back(
          StreamSession::Create(SpecOf(fixtures[s])).value());
    }
    for (const Piece& piece : pieces) {
      std::vector<Row> rows = piece.rows;
      ASSERT_TRUE(sessions[piece.fixture]
                      .InsertBatch(expected[piece.fixture],
                                   std::span<Row>(rows))
                      .ok());
    }
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    WatermarkService service(ServiceOptions{threads});
    std::vector<std::size_t> ids;
    for (std::size_t s = 0; s < kSessions; ++s) {
      ids.push_back(
          service.Open(SpecOf(fixtures[s]), fixtures[s].rel).value());
    }
    EXPECT_EQ(service.num_sessions(), kSessions);
    std::vector<WatermarkService::SessionBatch> batches;
    for (const Piece& piece : pieces) {
      batches.push_back(
          WatermarkService::SessionBatch{ids[piece.fixture], piece.rows});
    }
    const std::vector<Result<BatchReport>> results =
        service.ExecuteBatches(std::span<WatermarkService::SessionBatch>(
            batches));
    ASSERT_EQ(results.size(), pieces.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      EXPECT_EQ(results[i]->rows, pieces[i].rows.size());
    }
    for (std::size_t s = 0; s < kSessions; ++s) {
      ExpectIdenticalState(expected[s], service.relation(ids[s]));
      // Each grown tenant relation still detects its own mark.
      EXPECT_EQ(Detect(fixtures[s], service.relation(ids[s])).wm,
                fixtures[s].wm);
    }
    // Close hands the relation back and invalidates the handle.
    Relation closed = service.Close(ids[0]).value();
    ExpectIdenticalState(expected[0], closed);
    EXPECT_EQ(service.num_sessions(), kSessions - 1);
    EXPECT_FALSE(service.Close(ids[0]).ok());
    std::vector<Row> one = MakeStream(1, 1);
    EXPECT_FALSE(service.InsertBatch(ids[0], std::span<Row>(one)).ok());
  }
}

TEST(WatermarkServiceTest, BadSessionIdsFailTheirBatchOnly) {
  const Fixture f = MakeFixture();
  WatermarkService service;
  const std::size_t id = service.Open(SpecOf(f), f.rel).value();
  std::vector<WatermarkService::SessionBatch> batches;
  batches.push_back(WatermarkService::SessionBatch{id, MakeStream(20, 2)});
  batches.push_back(
      WatermarkService::SessionBatch{id + 999, MakeStream(20, 2)});
  batches.push_back(WatermarkService::SessionBatch{id, MakeStream(20, 3)});
  const auto results = service.ExecuteBatches(
      std::span<WatermarkService::SessionBatch>(batches));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(service.relation(id).NumRows(), f.rel.NumRows() + 40);
}

TEST(WatermarkServiceTest, OpenRejectsInvalidSpecs) {
  const Fixture f = MakeFixture();
  SessionSpec spec = SpecOf(f);
  spec.params.prf.reset();
  WatermarkService service;
  EXPECT_FALSE(service.Open(std::move(spec), f.rel).ok());
  EXPECT_EQ(service.num_sessions(), 0u);
}

}  // namespace
}  // namespace catmark
