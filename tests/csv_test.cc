#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "relation/catm_io.h"
#include "relation/csv.h"
#include "relation/relation.h"

namespace catmark {
namespace {

Schema TestSchema() {
  return Schema::Create({{"K", ColumnType::kInt64, false},
                         {"A", ColumnType::kString, true},
                         {"X", ColumnType::kDouble, false}},
                        "K")
      .value();
}

Relation TestRelation() {
  Relation rel(TestSchema());
  EXPECT_TRUE(
      rel.AppendRow({Value(std::int64_t{1}), Value("red"), Value(1.5)}).ok());
  EXPECT_TRUE(
      rel.AppendRow({Value(std::int64_t{2}), Value("blue"), Value(2.5)}).ok());
  return rel;
}

TEST(CsvTest, WriteProducesHeaderAndRows) {
  const std::string csv = WriteCsvString(TestRelation());
  EXPECT_EQ(csv.substr(0, 6), "K,A,X\n");
  EXPECT_NE(csv.find("1,red,1.5\n"), std::string::npos);
}

TEST(CsvTest, RoundTrips) {
  const Relation rel = TestRelation();
  const Relation back = ReadCsvString(WriteCsvString(rel), rel.schema()).value();
  EXPECT_TRUE(rel.SameContent(back));
}

TEST(CsvTest, QuotesFieldsWithCommas) {
  Relation rel(TestSchema());
  ASSERT_TRUE(
      rel.AppendRow({Value(std::int64_t{1}), Value("a,b"), Value(0.0)}).ok());
  const std::string csv = WriteCsvString(rel);
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  const Relation back = ReadCsvString(csv, rel.schema()).value();
  EXPECT_EQ(back.Get(0, 1).AsString(), "a,b");
}

TEST(CsvTest, QuotesFieldsWithQuotes) {
  Relation rel(TestSchema());
  ASSERT_TRUE(rel.AppendRow({Value(std::int64_t{1}), Value("say \"hi\""),
                             Value(0.0)})
                  .ok());
  const Relation back =
      ReadCsvString(WriteCsvString(rel), rel.schema()).value();
  EXPECT_EQ(back.Get(0, 1).AsString(), "say \"hi\"");
}

TEST(CsvTest, QuotesFieldsWithNewlines) {
  Relation rel(TestSchema());
  ASSERT_TRUE(rel.AppendRow({Value(std::int64_t{1}), Value("two\nlines"),
                             Value(0.0)})
                  .ok());
  const Relation back =
      ReadCsvString(WriteCsvString(rel), rel.schema()).value();
  EXPECT_EQ(back.Get(0, 1).AsString(), "two\nlines");
}

TEST(CsvTest, NullsRoundTripAsEmpty) {
  Relation rel(TestSchema());
  ASSERT_TRUE(rel.AppendRow({Value(std::int64_t{1}), Value(), Value()}).ok());
  const Relation back =
      ReadCsvString(WriteCsvString(rel), rel.schema()).value();
  EXPECT_TRUE(back.Get(0, 1).is_null());
  EXPECT_TRUE(back.Get(0, 2).is_null());
}

TEST(CsvTest, RejectsMissingHeader) {
  EXPECT_FALSE(ReadCsvString("", TestSchema()).ok());
}

TEST(CsvTest, RejectsHeaderMismatch) {
  EXPECT_FALSE(ReadCsvString("K,B,X\n", TestSchema()).ok());
  EXPECT_FALSE(ReadCsvString("K,A\n", TestSchema()).ok());
}

TEST(CsvTest, RejectsArityMismatch) {
  EXPECT_FALSE(ReadCsvString("K,A,X\n1,red\n", TestSchema()).ok());
}

TEST(CsvTest, RejectsTypeMismatch) {
  EXPECT_FALSE(ReadCsvString("K,A,X\nnot-int,red,1.0\n", TestSchema()).ok());
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ReadCsvString("K,A,X\n1,\"red,1.0\n", TestSchema()).ok());
}

// Regression: input that ends inside an open quote is a truncated record,
// and must surface as InvalidArgument — not parse as a complete row.
TEST(CsvTest, UnterminatedQuoteAtEndOfInputIsInvalidArgument) {
  for (const char* text : {
           "K,A,X\n1,\"red",         // EOF inside the quoted field
           "K,A,X\n1,\"red\"\",1.0"  // doubled quote then EOF, still open
       }) {
    const Result<Relation> r = ReadCsvString(text, TestSchema());
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  }
  // The header is held to the same standard.
  const Result<Relation> header = ReadCsvString("K,\"A", TestSchema());
  ASSERT_FALSE(header.ok());
  EXPECT_TRUE(header.status().IsInvalidArgument());
}

TEST(CsvTest, EmbeddedCrLfRoundTrips) {
  Relation rel(TestSchema());
  ASSERT_TRUE(rel.AppendRow({Value(std::int64_t{1}), Value("line1\nline2"),
                             Value(0.5)})
                  .ok());
  ASSERT_TRUE(rel.AppendRow({Value(std::int64_t{2}), Value("cr\rlf\r\nend"),
                             Value(1.5)})
                  .ok());
  const Relation back = ReadCsvString(WriteCsvString(rel), TestSchema()).value();
  EXPECT_TRUE(rel.SameContent(back));
  EXPECT_EQ(back.Get(0, 1).AsString(), "line1\nline2");
  EXPECT_EQ(back.Get(1, 1).AsString(), "cr\rlf\r\nend");
}

TEST(CsvTest, DoubledQuotesRoundTrip) {
  Relation rel(TestSchema());
  ASSERT_TRUE(rel.AppendRow({Value(std::int64_t{1}), Value("say \"hi\""),
                             Value(0.5)})
                  .ok());
  ASSERT_TRUE(
      rel.AppendRow({Value(std::int64_t{2}), Value("\"\""), Value(1.5)}).ok());
  const std::string csv = WriteCsvString(rel);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
  const Relation back = ReadCsvString(csv, TestSchema()).value();
  EXPECT_TRUE(rel.SameContent(back));
}

TEST(CsvTest, FinalRecordWithoutTrailingNewlineRoundTrips) {
  // A quoted final field that closes exactly at EOF is a complete record.
  const Relation back =
      ReadCsvString("K,A,X\n1,red,1.5\n2,\"bl,ue\",2.5", TestSchema())
          .value();
  ASSERT_EQ(back.NumRows(), 2u);
  EXPECT_EQ(back.Get(1, 1).AsString(), "bl,ue");
}

TEST(CsvTest, HandlesCrLf) {
  const Relation back =
      ReadCsvString("K,A,X\r\n1,red,1.5\r\n", TestSchema()).value();
  EXPECT_EQ(back.NumRows(), 1u);
  EXPECT_EQ(back.Get(0, 1).AsString(), "red");
}

TEST(CsvTest, MissingFinalNewlineIsFine) {
  const Relation back =
      ReadCsvString("K,A,X\n1,red,1.5", TestSchema()).value();
  EXPECT_EQ(back.NumRows(), 1u);
}

TEST(CsvTest, FileRoundTrip) {
  const Relation rel = TestRelation();
  const std::string path = ::testing::TempDir() + "/catmark_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(rel, path).ok());
  const Relation back = ReadCsvFile(path, rel.schema()).value();
  EXPECT_TRUE(rel.SameContent(back));
  std::remove(path.c_str());
}

TEST(CsvTest, FileReadMissingFails) {
  EXPECT_FALSE(ReadCsvFile("/nonexistent/path.csv", TestSchema()).ok());
}

// --- the Status contract --------------------------------------------------
//
// Every read path reports the same code and message text for the same
// malformed input: the serial reader, and the chunked reader at any thread
// count (a chunk numbers its bad line from the records of the chunks before
// it).

/// Reads `text` serially and in parallel at 1, 2, 4 and 8 threads; every
/// read must fail with exactly `code` and `message`.
void ExpectCsvError(const std::string& text, const Schema& schema,
                    StatusCode code, const std::string& message) {
  const Result<Relation> serial = ReadCsvString(text, schema, 1);
  ASSERT_FALSE(serial.ok()) << text;
  EXPECT_EQ(serial.status().code(), code) << serial.status().ToString();
  EXPECT_EQ(serial.status().message(), message);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const Result<Relation> par = ReadCsvString(text, schema, threads);
    ASSERT_FALSE(par.ok()) << threads << " threads";
    EXPECT_EQ(par.status().code(), code) << threads << " threads";
    EXPECT_EQ(par.status().message(), message) << threads << " threads";
  }
}

TEST(CsvStatusTest, ArityMismatchNamesTheLine) {
  ExpectCsvError("K,A,X\n1,red,1.5\n2,blue\n3,green,3.5\n", TestSchema(),
                 StatusCode::kIoError, "CSV line 3: arity mismatch");
  ExpectCsvError("K,A,X\n1,red,1.5\n2,blue,2.5,extra\n", TestSchema(),
                 StatusCode::kIoError, "CSV line 3: arity mismatch");
}

TEST(CsvStatusTest, Int64ParseError) {
  ExpectCsvError("K,A,X\n1,red,1.5\n2,blue,2.5\nx7,green,3.5\n", TestSchema(),
                 StatusCode::kIoError,
                 "CSV line 4: cannot parse INT64 from 'x7'");
}

TEST(CsvStatusTest, DoubleParseError) {
  ExpectCsvError("K,A,X\n1,red,1.5\n2,blue,2.5z\n", TestSchema(),
                 StatusCode::kIoError,
                 "CSV line 3: cannot parse DOUBLE from '2.5z'");
}

TEST(CsvStatusTest, ArityIsReportedBeforeACellError) {
  ExpectCsvError("K,A,X\n1,red,1.5\nbad,blue\n", TestSchema(),
                 StatusCode::kIoError, "CSV line 3: arity mismatch");
}

TEST(CsvStatusTest, FirstBadLineWins) {
  ExpectCsvError("K,A,X\n1,red,1.5\n2,blue,oops\n3,green\n", TestSchema(),
                 StatusCode::kIoError,
                 "CSV line 3: cannot parse DOUBLE from 'oops'");
}

TEST(CsvStatusTest, QuotedNewlineCountsAsOneLine) {
  // Line numbers count records: the quoted newline in record 2 does not
  // advance them.
  ExpectCsvError("K,A,X\n1,\"two\nlines\",1.5\n\"x\"\"3\",blue,2.5\n",
                 TestSchema(), StatusCode::kIoError,
                 "CSV line 3: cannot parse INT64 from 'x\"3'");
}

TEST(CsvStatusTest, UnterminatedQuoteAfterAValidRecord) {
  ExpectCsvError("K,A,X\n1,red,1.5\n2,\"blue,2.5\n3,green,3.5\n",
                 TestSchema(), StatusCode::kInvalidArgument,
                 "CSV: unterminated quoted field");
}

TEST(CsvStatusTest, LongLineDenseInQuotesFailsFast) {
  // One 4.5 MB record of empty quoted fields. Finding a chunk boundary
  // inside it must scan each byte a bounded number of times: a scan that
  // re-searched the rest of the line after every quote would run for hours.
  std::string text = "K,A,X\n";
  for (int i = 0; i < 1'500'000; ++i) text += "\"\",";
  text += "\n";
  for (const std::size_t threads : {0u, 1u, 2u}) {
    const Result<Relation> read =
        ReadCsvString(text, TestSchema(), threads);
    ASSERT_FALSE(read.ok()) << threads << " threads";
    EXPECT_EQ(read.status().code(), StatusCode::kIoError);
    EXPECT_EQ(read.status().message(), "CSV line 2: arity mismatch");
  }
}

TEST(CsvStatusTest, HeaderMismatch) {
  ExpectCsvError("K,B,X\n1,red,1.5\n", TestSchema(), StatusCode::kIoError,
                 "CSV: header column 'B' != schema column 'A'");
  ExpectCsvError("K,A\n1,red\n", TestSchema(), StatusCode::kIoError,
                 "CSV: header arity mismatch");
  ExpectCsvError("", TestSchema(), StatusCode::kIoError,
                 "CSV: missing header row");
}

// --- cell semantics -------------------------------------------------------

TEST(CsvCellTest, Int64IsStrict) {
  ExpectCsvError("K,A,X\n+5,red,1.5\n", TestSchema(), StatusCode::kIoError,
                 "CSV line 2: cannot parse INT64 from '+5'");
  ExpectCsvError("K,A,X\n 5,red,1.5\n", TestSchema(), StatusCode::kIoError,
                 "CSV line 2: cannot parse INT64 from ' 5'");
  ExpectCsvError("K,A,X\n9223372036854775808,red,1.5\n", TestSchema(),
                 StatusCode::kIoError,
                 "CSV line 2: cannot parse INT64 from '9223372036854775808'");
  const Relation back =
      ReadCsvString("K,A,X\n-9223372036854775808,red,1.5\n", TestSchema())
          .value();
  EXPECT_EQ(back.Get(0, 0).AsInt64(), std::numeric_limits<std::int64_t>::min());
}

TEST(CsvCellTest, DoubleFollowsStrtod) {
  const std::string text =
      "K,A,X\n1,a, 1.5\n2,b,nan\n3,c,1e400\n4,d,0x1p3\n";
  const Relation back = ReadCsvString(text, TestSchema()).value();
  ASSERT_EQ(back.NumRows(), 4u);
  EXPECT_EQ(back.Get(0, 2).AsDouble(), 1.5);
  EXPECT_TRUE(std::isnan(back.Get(1, 2).AsDouble()));
  EXPECT_EQ(back.Get(2, 2).AsDouble(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(back.Get(3, 2).AsDouble(), 8.0);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const Relation par = ReadCsvString(text, TestSchema(), threads).value();
    EXPECT_EQ(WriteCatmString(par), WriteCatmString(back)) << threads;
  }
}

TEST(CsvCellTest, NegativeZeroKeepsItsOwnDictEntry) {
  const Schema schema = Schema::Create({{"K", ColumnType::kInt64, false},
                                        {"D", ColumnType::kDouble, true}},
                                       "K")
                            .value();
  const std::string text = "K,D\n1,-0.0\n2,0.0\n3,0\n4,-0\n";
  const Relation back = ReadCsvString(text, schema).value();
  const std::vector<Value>& dict = back.store().Dict(1);
  ASSERT_EQ(dict.size(), 2u);
  EXPECT_TRUE(std::signbit(dict[0].AsDouble()));
  EXPECT_FALSE(std::signbit(dict[1].AsDouble()));
  EXPECT_TRUE(std::ranges::equal(back.store().Codes(1),
                                 std::vector<std::int32_t>{0, 1, 1, 0}));
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const Relation par = ReadCsvString(text, schema, threads).value();
    EXPECT_EQ(WriteCatmString(par), WriteCatmString(back)) << threads;
  }
}

// --- in-place parallel read ------------------------------------------------
//
// A parallel read counts each chunk's records, sizes every lane and code
// array once, and has each chunk write its rows in place. These inputs put
// a chunk's record count and its newline count apart, and put NULLs and
// first-seen dictionary keys in late chunks; 16 workers cut a few hundred
// records into 64 chunks of a few records each.

Schema MixedSchema() {
  return Schema::Create({{"K", ColumnType::kInt64, false},
                         {"A", ColumnType::kString, true},
                         {"N", ColumnType::kInt64, true},
                         {"X", ColumnType::kDouble, false},
                         {"S", ColumnType::kString, false}},
                        "K")
      .value();
}

/// `rows` records over MixedSchema(), each ended by `eol`. X is NULL at
/// every row r with r % 7 == 3, S at every r % 11 == 0. The last tenth of
/// the rows takes A and N keys no earlier row holds. With `quoted_breaks`
/// every A field holds a quoted \n and every S field a quoted \r\n.
std::string MixedCsv(std::size_t rows, const std::string& eol,
                     bool quoted_breaks) {
  std::string text = "K,A,N,X,S" + eol;
  for (std::size_t r = 0; r < rows; ++r) {
    const bool late = r >= rows - rows / 10;
    const std::string a = (late ? "late" : "a") + std::to_string(r % 5);
    const std::size_t n = late ? 1000 + r % 3 : r % 4;
    text += std::to_string(r) + ",";
    text += quoted_breaks ? "\"" + a + "\nx\"" : a;
    text += "," + std::to_string(n) + ",";
    if (r % 7 != 3) text += std::to_string(r) + ".5";
    text += ",";
    if (r % 11 != 0) {
      const std::string str = "s" + std::to_string(r);
      text += quoted_breaks ? "\"" + str + "\r\nt\"" : str;
    }
    text += eol;
  }
  return text;
}

/// Reads `text` on one thread, then on 2, 3, 8 and 16; every parallel read
/// must give the one-thread relation and its .catm image. Returns the
/// one-thread read.
Relation ExpectSameAtEveryThreadCount(const std::string& text,
                                      const Schema& schema) {
  Result<Relation> serial = ReadCsvString(text, schema, 1);
  EXPECT_TRUE(serial.ok()) << serial.status().ToString();
  if (!serial.ok()) return Relation(schema);
  const std::string image = WriteCatmString(*serial);
  for (const std::size_t threads : {2u, 3u, 8u, 16u}) {
    const Result<Relation> par = ReadCsvString(text, schema, threads);
    EXPECT_TRUE(par.ok()) << threads << ": " << par.status().ToString();
    if (!par.ok()) continue;
    EXPECT_TRUE(par->SameContent(*serial)) << threads << " threads";
    EXPECT_EQ(WriteCatmString(*par), image) << threads << " threads";
  }
  return std::move(*serial);
}

/// Checks the cells MixedCsv wrote into `rel`.
void ExpectMixedCells(const Relation& rel, std::size_t rows,
                      bool quoted_breaks) {
  ASSERT_EQ(rel.NumRows(), rows);
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(rel.Get(r, 0).AsInt64(), static_cast<std::int64_t>(r));
    EXPECT_EQ(rel.Get(r, 3).is_null(), r % 7 == 3) << r;
    EXPECT_EQ(rel.Get(r, 4).is_null(), r % 11 == 0) << r;
  }
  if (quoted_breaks) {
    EXPECT_EQ(rel.Get(0, 1).AsString(), "a0\nx");
    EXPECT_EQ(rel.Get(1, 4).AsString(), "s1\r\nt");
  }
}

TEST(CsvInPlaceTest, QuotedNewlinesAndCrLfsAreNotRecordEnds) {
  for (const std::string eol : {"\n", "\r\n"}) {
    const std::string text = MixedCsv(400, eol, /*quoted_breaks=*/true);
    ExpectMixedCells(ExpectSameAtEveryThreadCount(text, MixedSchema()), 400,
                     true);
  }
  // Every field quoted (numbers and empty fields too) with CRLF record
  // ends reads as the bare text does.
  const std::string bare = MixedCsv(400, "\r\n", /*quoted_breaks=*/false);
  std::string quoted = "\"";
  for (std::size_t i = 0; i < bare.size(); ++i) {
    if (bare[i] == ',') {
      quoted += "\",\"";
    } else if (bare[i] == '\r') {
      quoted += i + 2 < bare.size() ? "\"\r\n\"" : "\"\r\n";
      ++i;
    } else {
      quoted += bare[i];
    }
  }
  const Relation from_bare = ExpectSameAtEveryThreadCount(bare, MixedSchema());
  const Relation from_quoted =
      ExpectSameAtEveryThreadCount(quoted, MixedSchema());
  EXPECT_TRUE(from_quoted.SameContent(from_bare));
  EXPECT_EQ(WriteCatmString(from_quoted), WriteCatmString(from_bare));
}

TEST(CsvInPlaceTest, LoneCrEndsRecords) {
  for (const bool quoted_breaks : {false, true}) {
    const std::string text = MixedCsv(400, "\r", quoted_breaks);
    ExpectMixedCells(ExpectSameAtEveryThreadCount(text, MixedSchema()), 400,
                     quoted_breaks);
  }
}

TEST(CsvInPlaceTest, LastRecordWithoutTerminator) {
  for (const std::string eol : {"\n", "\r", "\r\n"}) {
    for (const bool quoted_breaks : {false, true}) {
      std::string text = MixedCsv(300, eol, quoted_breaks);
      text.resize(text.size() - eol.size());
      ExpectMixedCells(ExpectSameAtEveryThreadCount(text, MixedSchema()),
                       300, quoted_breaks);
    }
  }
}

TEST(CsvInPlaceTest, NullsLandAtTheirRowsWhateverTheChunkOffset) {
  // 16 workers cut 1000 records into 64 chunks of about 15: almost no
  // chunk starts on a multiple of 64, so each chunk's NULL words shift
  // into the lane's bitmap.
  const Relation rel =
      ExpectSameAtEveryThreadCount(MixedCsv(1000, "\n", false), MixedSchema());
  ExpectMixedCells(rel, 1000, false);
  const NumericLane lane = rel.store().Lane(3);
  ASSERT_FALSE(lane.null_words.empty());
  for (std::size_t r = 0; r < rel.NumRows(); ++r) {
    EXPECT_EQ(lane.IsNull(r), r % 7 == 3) << r;
    if (lane.IsNull(r)) {
      EXPECT_EQ(lane.bits[r], 0u) << r;
    }
  }
}

TEST(CsvInPlaceTest, KeysFirstSeenInALateChunkTakeTheLastCodes) {
  const Relation rel =
      ExpectSameAtEveryThreadCount(MixedCsv(600, "\n", false), MixedSchema());
  // Codes follow first occurrence: a0..a4 then late0..late4; 0..3 then
  // 1000..1002.
  const std::vector<Value>& strings = rel.store().Dict(1);
  ASSERT_EQ(strings.size(), 10u);
  EXPECT_EQ(strings[0].AsString(), "a0");
  EXPECT_EQ(strings[5].AsString().substr(0, 4), "late");
  const std::vector<Value>& numbers = rel.store().Dict(2);
  ASSERT_EQ(numbers.size(), 7u);
  EXPECT_EQ(numbers[3].AsInt64(), 3);
  EXPECT_GE(numbers[4].AsInt64(), 1000);
  const std::vector<std::int64_t>& live = rel.store().DictLiveCounts(2);
  EXPECT_EQ(live[4] + live[5] + live[6], 60);
}

TEST(CsvInPlaceTest, QuotedFieldStraddlingEveryChunkTarget) {
  // Every A field is a quoted run of lines with "" escapes. The first
  // record is half as long as the 32 after it, so each of the 31 offsets a
  // 32-chunk (8-worker) read aims its boundaries at falls inside a quoted
  // field; the 16-, 8- and 4-chunk targets are among them.
  const std::string unit = "ab\"\"cd\n";
  std::string text = "K,A\n";
  const std::size_t data_begin = text.size();
  std::vector<std::pair<std::size_t, std::size_t>> fields;  // inside quotes
  for (std::size_t k = 0; k <= 32; ++k) {
    text += std::to_string(k) + ",\"";
    const std::size_t open = text.size();
    for (std::size_t i = 0; i < (k == 0 ? 32u : 64u); ++i) text += unit;
    fields.emplace_back(open, text.size());
    text += "\"\n";
  }
  const std::size_t data_size = text.size() - data_begin;
  for (std::size_t s = 1; s < 32; ++s) {
    const std::size_t target = data_begin + s * data_size / 32;
    EXPECT_TRUE(std::any_of(fields.begin(), fields.end(), [&](const auto& f) {
      return f.first < target && target < f.second;
    })) << "target " << s << " at " << target;
  }

  const Schema schema = Schema::Create({{"K", ColumnType::kInt64, false},
                                        {"A", ColumnType::kString, false}},
                                       "K")
                            .value();
  const Result<Relation> serial = ReadCsvString(text, schema, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->NumRows(), 33u);
  std::string last;
  for (std::size_t i = 0; i < 64; ++i) last += "ab\"cd\n";
  EXPECT_EQ(serial->Get(32, 1).AsString(), last);
  const std::string image = WriteCatmString(*serial);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const Result<Relation> par = ReadCsvString(text, schema, threads);
    ASSERT_TRUE(par.ok()) << threads << ": " << par.status().ToString();
    EXPECT_EQ(WriteCatmString(*par), image) << threads << " threads";
  }
}

TEST(CsvInPlaceTest, FewerRecordsThanChunks) {
  for (const std::size_t rows : {0u, 1u, 3u}) {
    ExpectMixedCells(
        ExpectSameAtEveryThreadCount(MixedCsv(rows, "\n", true), MixedSchema()),
        rows, rows >= 2);
  }
}

TEST(CsvInPlaceTest, RunAwayQuoteLeavesLaterChunksEmpty) {
  // Record 40's S field opens a quote that never closes: every chunk
  // boundary after it collapses to the end of the input.
  std::string text = MixedCsv(400, "\n", false);
  const std::size_t at = text.find(",s40\n");
  ASSERT_NE(at, std::string::npos);
  text.insert(at + 1, "\"");
  ExpectCsvError(text, MixedSchema(), StatusCode::kInvalidArgument,
                 "CSV: unterminated quoted field");
  for (const std::size_t threads : {3u, 16u}) {
    const Result<Relation> read = ReadCsvString(text, MixedSchema(), threads);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().message(), "CSV: unterminated quoted field");
  }
  // A bad record before the run-away quote still wins.
  const std::size_t bad = text.find("\n12,");
  ASSERT_NE(bad, std::string::npos);
  text.insert(bad + 1, "x");
  ExpectCsvError(text, MixedSchema(), StatusCode::kIoError,
                 "CSV line 14: cannot parse INT64 from 'x12'");
}

}  // namespace
}  // namespace catmark
