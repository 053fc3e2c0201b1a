// Seeded fuzz-style sweep of the relation formats: randomly generated
// relations with adversarial string content must round-trip exactly through
// CSV, through the .catm binary image (byte-identically, embed channel
// included), and through the chunked parallel CSV reader at every thread
// count — and randomly corrupted .catm bytes must fail with a clean Status,
// never a crash.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/embedder.h"
#include "random/rng.h"
#include "relation/catm_io.h"
#include "relation/csv.h"
#include "relation/relation.h"

namespace catmark {
namespace {

/// Characters chosen to stress the quoting logic.
constexpr char kAlphabet[] =
    "abcXYZ019 ,\"'\n\r;|\\\t=%$\xc3\xa9";  // includes UTF-8 bytes

std::string RandomString(Xoshiro256ss& rng, std::size_t max_len) {
  const std::size_t len = rng.NextBounded(max_len + 1);
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

Relation RandomRelation(std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const Schema schema =
      Schema::Create({{"K", ColumnType::kInt64, false},
                      {"S", ColumnType::kString, true},
                      {"D", ColumnType::kDouble, false},
                      {"T", ColumnType::kString, false}},
                     "K")
          .value();
  Relation rel(schema);
  const std::size_t rows = 1 + rng.NextBounded(200);
  for (std::size_t i = 0; i < rows; ++i) {
    Row row;
    row.push_back(rng.NextBool(0.05)
                      ? Value()
                      : Value(static_cast<std::int64_t>(rng.Next())));
    row.push_back(rng.NextBool(0.05) ? Value()
                                     : Value(RandomString(rng, 24)));
    row.push_back(rng.NextBool(0.05)
                      ? Value()
                      : Value(static_cast<double>(rng.NextBounded(1u << 20)) /
                              64.0));
    row.push_back(Value(RandomString(rng, 8)));
    rel.AppendRowUnchecked(std::move(row));
  }
  return rel;
}

class CsvFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsvFuzzTest, RoundTripsExactly) {
  const Relation rel = RandomRelation(GetParam());
  const std::string csv = WriteCsvString(rel);
  Result<Relation> back = ReadCsvString(csv, rel.schema());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // NULL strings round-trip as empty strings (CSV cannot tell them apart),
  // so compare cell-by-cell with that equivalence.
  ASSERT_EQ(back->NumRows(), rel.NumRows());
  for (std::size_t r = 0; r < rel.NumRows(); ++r) {
    for (std::size_t c = 0; c < rel.schema().num_columns(); ++c) {
      const Value& a = rel.Get(r, c);
      const Value& b = back->Get(r, c);
      if (a.is_string() && a.AsString().empty()) {
        EXPECT_TRUE(b.is_null() || (b.is_string() && b.AsString().empty()));
      } else {
        EXPECT_EQ(a, b) << "row " << r << " col " << c;
      }
    }
  }
}

TEST_P(CsvFuzzTest, DoubleWriteIsStable) {
  // write(read(write(x))) == write(x): the serialized form is a fixpoint.
  const Relation rel = RandomRelation(GetParam() ^ 0xF00D);
  const std::string once = WriteCsvString(rel);
  const Relation back = ReadCsvString(once, rel.schema()).value();
  EXPECT_EQ(WriteCsvString(back), once);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- .catm format fuzz ----------------------------------------------------

/// Random relation over a random schema. Always embeddable: column 0 is an
/// INT64 key "K" with distinct non-null values, column 1 a categorical
/// string "A" whose first rows pin at least two distinct labels; 0-3 extra
/// columns of random type/kind (adversarial content included) follow.
Relation RandomSchemaRelation(std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<Column> cols = {{"K", ColumnType::kInt64, false},
                              {"A", ColumnType::kString, true}};
  const std::size_t extra = rng.NextBounded(4);
  for (std::size_t i = 0; i < extra; ++i) {
    const ColumnType type = static_cast<ColumnType>(rng.NextBounded(3));
    cols.push_back({"X" + std::to_string(i), type, rng.NextBool(0.5)});
  }
  Relation rel(Schema::Create(cols, "K").value());

  const std::size_t labels = 2 + rng.NextBounded(6);
  const std::size_t rows = 30 + rng.NextBounded(170);
  for (std::size_t r = 0; r < rows; ++r) {
    Row row;
    row.push_back(Value(static_cast<std::int64_t>(1000 + r)));
    // First `labels` rows pin one label each so the domain has >= 2 values.
    const std::size_t label = r < labels ? r : rng.NextBounded(labels);
    row.push_back(Value("L" + std::to_string(label)));
    for (std::size_t i = 0; i < extra; ++i) {
      if (rng.NextBool(0.1)) {
        row.push_back(Value());
        continue;
      }
      switch (cols[2 + i].type) {
        case ColumnType::kInt64:
          row.push_back(Value(static_cast<std::int64_t>(rng.Next())));
          break;
        case ColumnType::kDouble:
          row.push_back(
              Value(static_cast<double>(rng.NextBounded(1u << 20)) / 64.0));
          break;
        case ColumnType::kString:
          row.push_back(Value(RandomString(rng, 16)));
          break;
      }
    }
    rel.AppendRowUnchecked(std::move(row));
  }
  return rel;
}

class CatmFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CatmFuzzTest, RoundTripsByteIdentically) {
  const Relation rel = RandomSchemaRelation(GetParam());
  const std::string bytes = WriteCatmString(rel);
  Result<Relation> back = ReadCatmString(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->schema() == rel.schema());
  EXPECT_TRUE(back->SameContent(rel));
  EXPECT_EQ(WriteCatmString(*back), bytes);
}

TEST_P(CatmFuzzTest, RoundTripPreservesEmbedChannel) {
  // The loaded store must be equivalent down to the embed channel: marking
  // the round-tripped relation and the original produces byte-identical
  // results under both the compatibility and the fast PRF backend.
  const Relation rel = RandomSchemaRelation(GetParam() ^ 0xCA73);
  Result<Relation> back = ReadCatmString(WriteCatmString(rel));
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  for (const PrfKind prf : {PrfKind::kKeyedHash, PrfKind::kSipHash24}) {
    const WatermarkKeySet keys = WatermarkKeySet::FromSeed(GetParam());
    WatermarkParams params;
    params.e = 5;
    params.prf = prf;
    const BitVector wm = BitVector::FromString("1011001110").value();
    EmbedOptions options;
    options.key_attr = "K";
    options.target_attr = "A";

    Relation marked_orig = rel;
    Relation marked_back = *back;
    Result<EmbedReport> r1 =
        Embedder(keys, params).Embed(marked_orig, options, wm);
    Result<EmbedReport> r2 =
        Embedder(keys, params).Embed(marked_back, options, wm);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    EXPECT_EQ(r1->altered_tuples, r2->altered_tuples);
    EXPECT_EQ(WriteCatmString(marked_orig), WriteCatmString(marked_back))
        << "embedding diverged after a .catm round trip under "
        << PrfKindName(prf);
  }
}

TEST_P(CatmFuzzTest, ParallelCsvReadMatchesSerialByteIdentically) {
  const Relation rel = RandomSchemaRelation(GetParam() ^ 0x9A11);
  const std::string csv = WriteCsvString(rel);
  Result<Relation> serial = ReadCsvString(csv, rel.schema(), 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::string want = WriteCatmString(*serial);
  // Tiny inputs with explicit thread counts: every chunk-boundary edge case
  // (chunks smaller than a record, empty tail chunks) gets exercised.
  for (const std::size_t threads : {2u, 8u}) {
    Result<Relation> got = ReadCsvString(csv, rel.schema(), threads);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(WriteCatmString(*got), want)
        << "parallel CSV read diverged at " << threads << " threads";
  }
}

TEST_P(CatmFuzzTest, CorruptedBytesNeverCrash) {
  // Hostile-input sweep: random flips, truncations and splices. Every
  // mutation must either fail with a Status or — when it happens to leave
  // the image intact (e.g. a zero-length splice) — load the original
  // content. Run under ASan in CI, this is the no-crash guarantee.
  const Relation rel = RandomSchemaRelation(GetParam() ^ 0xDEAD);
  const std::string bytes = WriteCatmString(rel);
  Xoshiro256ss rng(GetParam() * 0x9E3779B97F4A7C15ULL + 1);
  for (int trial = 0; trial < 120; ++trial) {
    std::string mutated = bytes;
    switch (rng.NextBounded(3)) {
      case 0:  // flip 1-4 random bytes
        for (std::size_t f = 1 + rng.NextBounded(4); f > 0; --f) {
          const std::size_t pos = rng.NextBounded(mutated.size());
          mutated[pos] = static_cast<char>(rng.Next());
        }
        break;
      case 1:  // truncate
        mutated.resize(rng.NextBounded(mutated.size() + 1));
        break;
      case 2: {  // splice random bytes over a random range
        const std::size_t at = rng.NextBounded(mutated.size());
        const std::size_t len =
            std::min<std::size_t>(rng.NextBounded(64), mutated.size() - at);
        for (std::size_t i = 0; i < len; ++i) {
          mutated[at + i] = static_cast<char>(rng.Next());
        }
        break;
      }
    }
    const Result<Relation> r = ReadCatmString(mutated);
    if (r.ok()) {
      EXPECT_TRUE(r->SameContent(rel))
          << "a corrupted image parsed to different content";
    }
  }
}

// --- quote-free CSV fuzz ----------------------------------------------------

/// Like kAlphabet, minus every byte that forces quoting: the CSV text of a
/// relation over it has no '"' at all, so the parallel reader's chunk
/// boundaries all come from its quote-free newline search.
constexpr char kPlainAlphabet[] = "abcXYZ019 ';|\\\t=%$\xc3\xa9";

/// A random quote-free CSV and what it holds.
struct PlainCsv {
  Schema schema;
  std::string text;
  std::size_t rows = 0;
};

/// Random quote-free CSV: a random schema (every column kind: numeric lanes,
/// numeric and STRING dictionaries, plain STRING), NULLs in every column,
/// each record end drawn from \n, \r\n and a lone \r, and sometimes no
/// terminator after the last record.
PlainCsv RandomPlainCsv(std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<Column> cols = {{"K", ColumnType::kInt64, false},
                              {"A", ColumnType::kString, true},
                              {"S", ColumnType::kString, false}};
  for (std::size_t i = rng.NextBounded(4); i > 0; --i) {
    cols.push_back({"X" + std::to_string(cols.size()),
                    static_cast<ColumnType>(rng.NextBounded(3)),
                    rng.NextBool(0.5)});
  }
  PlainCsv out;
  out.schema = Schema::Create(cols, "K").value();
  Relation rel(out.schema);
  const std::size_t labels = 1 + rng.NextBounded(12);
  out.rows = 1 + rng.NextBounded(400);
  for (std::size_t r = 0; r < out.rows; ++r) {
    Row row;
    for (const Column& col : cols) {
      if (rng.NextBool(0.08)) {
        row.push_back(Value());
        continue;
      }
      switch (col.type) {
        case ColumnType::kInt64:
          row.push_back(Value(static_cast<std::int64_t>(
              col.categorical ? rng.NextBounded(labels) : rng.Next())));
          break;
        case ColumnType::kDouble:
          row.push_back(Value(
              static_cast<double>(rng.NextBounded(col.categorical ? labels
                                                                  : 1u << 20)) /
              8.0));
          break;
        case ColumnType::kString: {
          std::string text =
              col.categorical ? "L" + std::to_string(rng.NextBounded(labels))
                              : "";
          for (std::size_t n = rng.NextBounded(12); n > 0; --n) {
            text.push_back(
                kPlainAlphabet[rng.NextBounded(sizeof(kPlainAlphabet) - 1)]);
          }
          row.push_back(Value(std::move(text)));
          break;
        }
      }
    }
    rel.AppendRowUnchecked(std::move(row));
  }
  const std::string lf = WriteCsvString(rel);
  EXPECT_EQ(lf.find('"'), std::string::npos);
  for (std::size_t i = 0; i < lf.size(); ++i) {
    if (lf[i] != '\n') {
      out.text.push_back(lf[i]);
      continue;
    }
    if (i + 1 == lf.size() && rng.NextBool(0.3)) break;
    static constexpr const char* kEnds[] = {"\n", "\r\n", "\r"};
    out.text += kEnds[rng.NextBounded(3)];
  }
  return out;
}

TEST_P(CatmFuzzTest, QuoteFreeParallelCsvReadMatchesSerialByteIdentically) {
  const PlainCsv csv = RandomPlainCsv(GetParam() ^ 0x0F4E);
  Result<Relation> serial = ReadCsvString(csv.text, csv.schema, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->NumRows(), csv.rows);
  const std::string want = WriteCatmString(*serial);
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    Result<Relation> got = ReadCsvString(csv.text, csv.schema, threads);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(WriteCatmString(*got), want)
        << "quote-free parallel CSV read diverged at " << threads
        << " threads";
  }
}

TEST_P(CatmFuzzTest, QuotedRecordEndsNeverSplitAChunk) {
  // One STRING column of long values dense in quoted newlines: chunk
  // targets land inside quoted runs, and because any record is valid here,
  // a boundary placed by a wrong quote state would not fail the read but
  // silently change the rows.
  Xoshiro256ss rng(GetParam() ^ 0x5EC7);
  const bool categorical = rng.NextBool(0.5);
  Relation rel(
      Schema::Create({{"S", ColumnType::kString, categorical}}, "").value());
  constexpr char kDense[] = "ab,\"\n\r\n\n ";
  const std::size_t rows = 20 + rng.NextBounded(200);
  for (std::size_t r = 0; r < rows; ++r) {
    std::string text = "v";
    for (std::size_t n = rng.NextBounded(120); n > 0; --n) {
      text.push_back(kDense[rng.NextBounded(sizeof(kDense) - 1)]);
    }
    rel.AppendRowUnchecked({Value(std::move(text))});
  }
  const std::string csv = WriteCsvString(rel);
  Result<Relation> serial = ReadCsvString(csv, rel.schema(), 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(serial->SameContent(rel));
  const std::string want = WriteCatmString(*serial);
  for (const std::size_t threads : {2u, 3u, 4u, 8u}) {
    Result<Relation> got = ReadCsvString(csv, rel.schema(), threads);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(WriteCatmString(*got), want)
        << "quoted newlines split a record at " << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CatmFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace catmark
