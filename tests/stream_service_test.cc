// Streaming service equivalence suite: the batched StreamSession path must
// be byte-identical to inserting one row at a time — same relation bytes,
// same dictionary code assignment, same detection outcome — across batch
// splits, source ranges, key shapes, column orders and PRF backends.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "attack/attacks.h"
#include "core/certificate.h"
#include "core/codec.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "crypto/prf.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "relation/catm_io.h"
#include "reference_scheme.h"
#include "relation/csv.h"
#include "service/service.h"
#include "service/session.h"
#include "test_util.h"

namespace catmark {
namespace {

using testutil::HashValue;

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
  WatermarkParams params = f.params;
  params.payload_length = f.report.payload_length;
  const Detector detector(f.keys, params);
  DetectOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
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
  const BitVector wm_data =
      reference::ReferencePayload(f.params.ecc, f.wm, f.report.payload_length)
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
  for (const Row& row : stream) non_null_keys += !row[0].is_null();

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
  // Every backend hashes every non-NULL key, however often the stream
  // repeats it.
  EXPECT_EQ(report.hashed_keys, non_null_keys);
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

  // Path 4: a warm session re-inserting the stream hashes every key again,
  // and the bytes do not move.
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
  EXPECT_EQ(warm_hashed, non_null_keys);
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

  // Path 6: the same session alternates between two relations whose
  // schemas list the attributes in different column orders; each looks its
  // columns up by name and matches the reference.
  const Column& key_column = f.rel.schema().column(0);
  const Column& target_column = f.rel.schema().column(1);
  const Schema swapped =
      Schema::Create({target_column, key_column}, key_column.name).value();
  Relation in_order(f.rel.schema());
  Relation reordered(swapped);
  Relation in_order_reference(f.rel.schema());
  Relation reordered_reference(swapped);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const bool swap = i % 3 == 0;
    Row row = stream[i];
    if (swap) std::swap(row[0], row[1]);
    ASSERT_TRUE(big.Insert(swap ? reordered : in_order, row).ok());
    Row marked = ReferenceMarkedRow(f, stream[i]);
    if (swap) std::swap(marked[0], marked[1]);
    ASSERT_TRUE((swap ? reordered_reference : in_order_reference)
                    .AppendRow(std::move(marked))
                    .ok());
  }
  ExpectIdenticalState(in_order_reference, in_order);
  ExpectIdenticalState(reordered_reference, reordered);

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

// Refresh runs the row's key through the session's FitScanner: on
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

TEST_P(StreamRefreshTest, RefreshRepairsFitRows) {
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
  // A second refresh of a repaired row leaves it as it is.
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

// The session-only checks: an unpinned PRF backend or payload length is
// refused at Create. The channel checks every path shares are pinned in
// channel_test's table.
TEST(SessionSpecTest, CreateRefusesUnpinnedSpecs) {
  const Fixture f = MakeFixture();
  ASSERT_TRUE(StreamSession::Create(SpecOf(f)).ok());

  SessionSpec no_prf = SpecOf(f);
  no_prf.params.prf.reset();
  EXPECT_TRUE(
      StreamSession::Create(std::move(no_prf)).status().IsInvalidArgument());

  SessionSpec no_payload = SpecOf(f);
  no_payload.params.payload_length = 0;
  EXPECT_TRUE(StreamSession::Create(std::move(no_payload))
                  .status()
                  .IsInvalidArgument());

  SessionSpec short_payload = SpecOf(f);
  short_payload.params.payload_length = f.wm.size() - 1;
  EXPECT_TRUE(StreamSession::Create(std::move(short_payload))
                  .status()
                  .IsInvalidArgument());
}

TEST(SessionSpecTest, FromCertificateVerifiesTheKeyCommitment) {
  const Fixture f = MakeFixture();
  const WatermarkCertificate cert = WatermarkCertificate::Create(
      f.keys, f.params, f.options, f.report, f.wm);

  const Result<SessionSpec> wrong =
      SessionSpec::FromCertificate(cert, WatermarkKeySet::FromSeed(4444));
  ASSERT_FALSE(wrong.ok());

  SessionSpec spec = SessionSpec::FromCertificate(cert, f.keys).value();
  EXPECT_EQ(spec.params.payload_length, f.report.payload_length);
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

// Every certificate consumer runs with the certificate's payload length
// (params.payload_length), never one derived from the data in front of it:
// after a subset attack N'/e no longer gives the embed-time |wm_data|, and
// certified detection, a one-candidate sweep and a session opened from the
// certificate must all still use the certified value.
TEST(CertificateConsumersTest, EveryConsumerUsesTheCertifiedPayloadLength) {
  const Fixture f = MakeFixture();
  const WatermarkCertificate cert =
      WatermarkCertificate::Deserialize(
          WatermarkCertificate::Create(f.keys, f.params, f.options, f.report,
                                       f.wm)
              .Serialize())
          .value();
  const std::size_t certified = cert.params.payload_length;
  ASSERT_EQ(certified, f.report.payload_length);
  const Relation suspect = HorizontalPartitionAttack(f.rel, 0.45, 17).value();
  const std::size_t derived =
      DerivePayloadLength(suspect.NumRows(), f.params.e, f.wm.size());
  ASSERT_NE(derived, certified);

  const CertifiedDetection detection =
      DetectWithCertificate(suspect, cert, f.keys).value();
  EXPECT_EQ(detection.detection.payload_length, certified);

  const std::vector<OwnershipCandidate> candidates = {{"owner", cert, f.keys}};
  const SweepReport sweep =
      WatermarkService()
          .SweepOwnership(suspect,
                          std::span<const OwnershipCandidate>(candidates))
          .value();
  ASSERT_EQ(sweep.ranked.size(), 1u);
  EXPECT_EQ(sweep.ranked[0].detection.payload_length, certified);
  EXPECT_EQ(sweep.ranked[0].detection.wm, detection.detection.wm);

  // The session encodes wm over the certified length: the streamed rows
  // match the first-principles reference, which encodes over the report's.
  StreamSession session =
      StreamSession::Create(SessionSpec::FromCertificate(cert, f.keys).value())
          .value();
  EXPECT_EQ(session.payload_length(), certified);
  const std::vector<Row> stream = MakeStream(1000, 29);
  Relation reference = suspect;
  for (const Row& row : stream) {
    ASSERT_TRUE(reference.AppendRow(ReferenceMarkedRow(f, row)).ok());
  }
  Relation grown = suspect;
  std::vector<Row> rows = stream;
  ASSERT_TRUE(session.InsertBatch(grown, std::span<Row>(rows)).ok());
  ExpectIdenticalState(reference, grown);

  // And the length matters: a spec carrying the derived length marks the
  // same rows differently.
  SessionSpec derived_spec = SessionSpec::FromCertificate(cert, f.keys).value();
  derived_spec.params.payload_length = derived;
  StreamSession derived_session =
      StreamSession::Create(std::move(derived_spec)).value();
  Relation misplaced = suspect;
  rows = stream;
  ASSERT_TRUE(derived_session.InsertBatch(misplaced, std::span<Row>(rows)).ok());
  EXPECT_NE(WriteCsvString(misplaced), WriteCsvString(grown));
}

// The largest payload length a claimant certificate may state is an
// ordinary session: wm_data is looked up per slot, never written out, so
// the session opens and marks 200 rows at once, and every fit row carries
// wm[idx mod |wm|] at its 2^32 - 1 slot position idx.
TEST(CertificateConsumersTest, LargestClaimedPayloadLengthStreams) {
  const Fixture f = MakeFixture();
  WatermarkCertificate cert = WatermarkCertificate::Create(
      f.keys, f.params, f.options, f.report, f.wm);
  cert.params.payload_length = kMaxPayloadLength;
  StreamSession session =
      StreamSession::Create(SessionSpec::FromCertificate(cert, f.keys).value())
          .value();
  EXPECT_EQ(session.payload_length(), kMaxPayloadLength);
  const std::vector<Row> stream = MakeStream(200, 37);
  Relation grown = f.rel;
  std::vector<Row> rows = stream;
  ASSERT_TRUE(session.InsertBatch(grown, std::span<Row>(rows)).ok());
  ASSERT_EQ(grown.NumRows(), f.rel.NumRows() + stream.size());

  const auto prf_k1 =
      CreateKeyedPrf(f.report.prf, f.keys.k1, f.params.hash_algo);
  const auto prf_k2 =
      CreateKeyedPrf(f.report.prf, f.keys.k2, f.params.hash_algo);
  HashScratch scratch;
  std::size_t fit = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Value& key = stream[i][0];
    const Value got = grown.Get(f.rel.NumRows() + i, 1);
    const std::uint64_t h1 = HashValue(*prf_k1, key, scratch);
    if (h1 % f.params.e != 0) {
      EXPECT_TRUE(got == stream[i][1]) << "unfit row " << i;
      continue;
    }
    ++fit;
    const std::size_t idx =
        PayloadIndexFromHash(HashValue(*prf_k2, key, scratch),
                             kMaxPayloadLength, f.params.bit_index_mode);
    const std::size_t t = SelectValueIndex(h1, f.report.domain.size(),
                                           f.wm.Get(idx % f.wm.size()));
    EXPECT_TRUE(got == f.report.domain.value(t)) << "fit row " << i;
  }
  EXPECT_GT(fit, 0u);
}

}  // namespace
}  // namespace catmark
