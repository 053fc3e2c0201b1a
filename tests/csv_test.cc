#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

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
  EXPECT_EQ(back.store().Codes(1), (std::vector<std::int32_t>{0, 1, 1, 0}));
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const Relation par = ReadCsvString(text, schema, threads).value();
    EXPECT_EQ(WriteCatmString(par), WriteCatmString(back)) << threads;
  }
}

}  // namespace
}  // namespace catmark
