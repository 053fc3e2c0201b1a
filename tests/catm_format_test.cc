// Contract tests of the .catm v1 on-disk format. The serialized image is
// part of the deployment surface — marked datasets get archived in this
// format and must load byte-for-byte forever — so the golden image below is
// pinned at the hex level, round-trips must be exact (dead dictionary
// entries included), the parallel converter, the sharded writer and the
// column-parallel loader must be thread-count invariant, and hostile bytes
// must fail with a clean, pinned Status: the corruption sweep flips every
// single byte and tries every truncation of the golden image.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.h"
#include "core/embedder.h"
#include "crypto/sha256.h"
#include "gen/sales_gen.h"
#include "relation/catm_format.h"
#include "relation/catm_io.h"
#include "relation/csv.h"
#include "relation/relation.h"

namespace catmark {
namespace {

std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

void PutLeU64(std::string& bytes, std::size_t pos, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[pos + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void PutBeU64(std::string& bytes, std::size_t pos, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[pos + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * (7 - i))) & 0xFF);
  }
}

Schema TinySchema() {
  return Schema::Create({{"K", ColumnType::kInt64, false},
                         {"A", ColumnType::kString, true}},
                        "K")
      .value();
}

/// Three rows over (K INT64 PK, A STRING CATEGORICAL): dict {x=0, y=1},
/// live {2, 1}, codes {0, 1, 0}. Small enough that the full image is
/// pinnable as hex and the byte-flip sweep stays cheap.
Relation TinyRelation() {
  Relation rel(TinySchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value(std::string("x"))});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value(std::string("y"))});
  rel.AppendRowUnchecked({Value(std::int64_t{3}), Value(std::string("x"))});
  return rel;
}

/// Sets CATMARK_THREADS for one scope — the writer and the loader size
/// their worker pools from it — and restores the previous value.
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* threads) {
    if (const char* old = std::getenv("CATMARK_THREADS")) saved_ = old;
    ::setenv("CATMARK_THREADS", threads, 1);
  }
  ~ScopedThreads() {
    if (saved_.has_value()) {
      ::setenv("CATMARK_THREADS", saved_->c_str(), 1);
    } else {
      ::unsetenv("CATMARK_THREADS");
    }
  }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  std::optional<std::string> saved_;
};

/// `n` rows over (K INT64 PK, D DOUBLE, S STRING, C STRING CATEGORICAL,
/// N INT64). With n >= 8 * kCatmRowsPerShard the writer runs one row shard
/// per worker, so at 2, 3, 4 and 8 workers its shard boundaries are
/// ShardBounds(n, workers); the three rows either side of every such
/// boundary hold a NULL in N, a long string in S and -0.0 in D. Elsewhere
/// the columns mix NULLs, short strings and ordinary doubles.
Relation ShardedRelation(std::size_t n) {
  const Schema schema = Schema::Create({{"K", ColumnType::kInt64, false},
                                        {"D", ColumnType::kDouble, false},
                                        {"S", ColumnType::kString, false},
                                        {"C", ColumnType::kString, true},
                                        {"N", ColumnType::kInt64, false}},
                                       "K")
                            .value();
  std::vector<bool> near_boundary(n, false);
  for (const std::size_t workers : {2u, 3u, 4u, 8u}) {
    const std::vector<std::size_t> bounds = ShardBounds(n, workers);
    for (std::size_t s = 1; s < workers; ++s) {
      for (std::size_t r = bounds[s] - 3; r < bounds[s] + 3 && r < n; ++r) {
        near_boundary[r] = true;
      }
    }
  }
  Relation rel(schema);
  for (std::size_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::int64_t>(i);
    Row row{Value(k), Value(0.25 * static_cast<double>(i)),
            Value(std::to_string(i)), Value(std::to_string(i % 37)),
            Value(k * 7)};
    if (i % 13 == 0) row[2] = Value();
    if (i % 17 == 0) row[3] = Value();
    if (i % 11 < 3) row[4] = Value();
    if (near_boundary[i]) {
      row[1] = Value(-0.0);
      row[2] = Value(
          std::string(700 + i % 300, static_cast<char>('a' + i % 26)));
      row[4] = Value();
    }
    rel.AppendRowUnchecked(std::move(row));
  }
  return rel;
}

/// One section-table entry, as read back from an image.
struct TableEntry {
  std::size_t entry_pos = 0;  // where the entry sits in the meta block
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

std::vector<TableEntry> ReadSectionTable(std::string_view bytes) {
  std::uint32_t meta_length = 0;
  std::uint32_t num_columns = 0;
  ByteReader(bytes.substr(12)).ReadLeU32(meta_length);
  ByteReader(bytes.substr(32)).ReadLeU32(num_columns);
  constexpr std::size_t kEntryBytes = 1 + 8 + 8 + 8;
  const std::size_t table_pos =
      kCatmHeaderSize + meta_length - num_columns * kEntryBytes;
  std::vector<TableEntry> table(num_columns);
  for (std::size_t c = 0; c < num_columns; ++c) {
    table[c].entry_pos = table_pos + c * kEntryBytes;
    ByteReader r(bytes.substr(table[c].entry_pos + 1));
    r.ReadLeU64(table[c].offset);
    r.ReadLeU64(table[c].length);
  }
  return table;
}

/// Re-computes column `c`'s section checksum and then the meta checksum, so
/// an edit inside that section is no longer caught by a checksum.
void Reseal(std::string& bytes, const std::vector<TableEntry>& table,
            std::size_t c) {
  const std::string_view view(bytes);
  std::uint32_t meta_length = 0;
  ByteReader(view.substr(12)).ReadLeU32(meta_length);
  PutLeU64(bytes, table[c].entry_pos + 1 + 8 + 8,
           CatmChecksum(view.substr(static_cast<std::size_t>(table[c].offset),
                                    static_cast<std::size_t>(table[c].length))));
  PutLeU64(bytes, 16,
           CatmChecksum(view.substr(kCatmChecksumStart, 16 + meta_length)));
}

// --- golden image ---------------------------------------------------------

// The full .catm image of TinyRelation(). Regenerating this constant is a
// conscious format break: every archived .catm file in the field stops
// loading under a reader that disagrees with it.
constexpr const char* kTinyGoldenHex =
    // magic            version    meta_len   meta_checksum
    "894341544d0d0a1a" "01000000" "3c000000" "1752e252d19756b8"
    // num_rows=3       num_cols   pk_index=0
    "0300000000000000" "02000000" "00000000"
    // schema: "K" INT64 plain, "A" STRING categorical
    "01004b0000" "0100410201"
    // section table: K plain @100 len 27, A dict @127 len 76 (+ checksums)
    "02" "6400000000000000" "1b00000000000000" "a3d3c6a7a1e1f0f0"
    "01" "7f00000000000000" "4c00000000000000" "2efe2f64e135fa6b"
    // plain K section: values 1, 2, 3 (tag 0x01 + big-endian payload)
    "010000000000000001" "010000000000000002" "010000000000000003"
    // dict A section: count=2; offsets {0, 10, 20}; blob {"x", "y"}
    // (tag 0x03 + big-endian length + bytes); live {2, 1}; codes {0, 1, 0}
    "02000000" "0000000000000000" "0a00000000000000" "1400000000000000"
    "03000000000000000178" "03000000000000000179"
    "0200000000000000" "0100000000000000" "00000000" "01000000" "00000000";

TEST(CatmGoldenTest, ImageIsByteStable) {
  EXPECT_EQ(ToHex(WriteCatmString(TinyRelation())), kTinyGoldenHex);
}

TEST(CatmGoldenTest, HeaderAndSectionLayout) {
  const std::string bytes = WriteCatmString(TinyRelation());
  ASSERT_GE(bytes.size(), kCatmHeaderSize);
  const std::string_view view(bytes);

  EXPECT_EQ(std::memcmp(bytes.data(), kCatmMagic, sizeof(kCatmMagic)), 0);

  ByteReader r(view.substr(sizeof(kCatmMagic)));
  std::uint32_t version = 0;
  std::uint32_t meta_length = 0;
  std::uint64_t meta_checksum = 0;
  std::uint64_t num_rows = 0;
  std::uint32_t num_columns = 0;
  std::int32_t pk_index = 0;
  ASSERT_TRUE(r.ReadLeU32(version));
  ASSERT_TRUE(r.ReadLeU32(meta_length));
  ASSERT_TRUE(r.ReadLeU64(meta_checksum));
  ASSERT_TRUE(r.ReadLeU64(num_rows));
  ASSERT_TRUE(r.ReadLeU32(num_columns));
  ASSERT_TRUE(r.ReadLeI32(pk_index));

  EXPECT_EQ(version, kCatmVersion);
  EXPECT_EQ(num_rows, 3u);
  EXPECT_EQ(num_columns, 2u);
  EXPECT_EQ(pk_index, 0);
  // kCatmMetaPerColumn covers everything per column but the name bytes
  // themselves; the two column names ("K", "A") are one byte each.
  EXPECT_EQ(meta_length, 1 + 1 + 2 * kCatmMetaPerColumn);
  // The meta checksum covers counts + schema + section table.
  EXPECT_EQ(meta_checksum,
            CatmChecksum(view.substr(kCatmChecksumStart, 16 + meta_length)));

  // Section table: entries are contiguous from the end of the meta block
  // and cover the rest of the file exactly, each checksummed.
  std::uint64_t expect_offset = kCatmHeaderSize + meta_length;
  for (std::size_t c = 0; c < num_columns; ++c) {
    // Skip this column's schema entry (name_len + name + type + cat).
    std::uint16_t name_len = 0;
    ASSERT_TRUE(r.ReadLeU16(name_len));
    ASSERT_TRUE(r.Skip(name_len + 2));
  }
  for (std::size_t c = 0; c < num_columns; ++c) {
    std::uint8_t kind = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint64_t checksum = 0;
    ASSERT_TRUE(r.ReadU8(kind));
    ASSERT_TRUE(r.ReadLeU64(offset));
    ASSERT_TRUE(r.ReadLeU64(length));
    ASSERT_TRUE(r.ReadLeU64(checksum));
    EXPECT_EQ(kind, c == 0 ? kCatmSectionPlain : kCatmSectionDict);
    EXPECT_EQ(offset, expect_offset);
    EXPECT_EQ(checksum, CatmChecksum(view.substr(offset, length)));
    expect_offset += length;
  }
  EXPECT_EQ(expect_offset, bytes.size()) << "sections must cover the file";
}

// --- round trips ----------------------------------------------------------

TEST(CatmRoundTripTest, ExactIncludingDeadDictEntries) {
  Relation rel = TinyRelation();
  // A dictionary entry no row references (embedding can strand these when
  // the last row holding a category is rewritten) must survive verbatim —
  // dropping it would renumber codes and change the image.
  const std::int32_t dead =
      rel.mutable_store().InternValue(1, Value(std::string("zombie")));
  ASSERT_EQ(rel.store().DictLiveCounts(1)[static_cast<std::size_t>(dead)], 0);

  const std::string bytes = WriteCatmString(rel);
  Result<Relation> back = ReadCatmString(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  EXPECT_TRUE(back->schema() == rel.schema());
  EXPECT_EQ(back->store().Codes(1), rel.store().Codes(1));
  EXPECT_EQ(back->store().Dict(1), rel.store().Dict(1));
  EXPECT_EQ(back->store().DictLiveCounts(1), rel.store().DictLiveCounts(1));
  EXPECT_TRUE(std::ranges::equal(back->store().Lane(0).bits,
                                 rel.store().Lane(0).bits));
  EXPECT_TRUE(back->SameContent(rel));
  // write(read(write(x))) == write(x): the image is a fixpoint.
  EXPECT_EQ(WriteCatmString(*back), bytes);
}

TEST(CatmRoundTripTest, EveryValueTypeAndNull) {
  const Schema schema =
      Schema::Create({{"I", ColumnType::kInt64, false},
                      {"D", ColumnType::kDouble, false},
                      {"S", ColumnType::kString, false},
                      {"C", ColumnType::kString, true}},
                     "")
          .value();
  Relation rel(schema);
  rel.AppendRowUnchecked({Value(std::int64_t{-1}), Value(0.5),
                          Value(std::string("a,b\"c\nd")),
                          Value(std::string("red"))});
  rel.AppendRowUnchecked({Value(), Value(), Value(), Value()});
  rel.AppendRowUnchecked(
      {Value(std::numeric_limits<std::int64_t>::min()), Value(-0.0),
       Value(std::string()), Value(std::string("red"))});

  Result<Relation> back = ReadCatmString(WriteCatmString(rel));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_TRUE(back->SameContent(rel));
  // NULL round-trips as NULL (unlike CSV, which conflates it with ""), and
  // -0.0 keeps its sign bit: the encoding is the exact bit pattern.
  EXPECT_TRUE(back->Get(1, 2).is_null());
  EXPECT_TRUE(std::signbit(back->Get(2, 1).AsDouble()));
}

// Numeric plain columns load straight into their 8-byte lanes; the bits
// (and which rows are NULL) must come back exactly, across NULL-bitmap
// word boundaries.
TEST(CatmRoundTripTest, LaneValuesRoundTripBitExactly) {
  const Schema schema =
      Schema::Create({{"I", ColumnType::kInt64, false},
                      {"D", ColumnType::kDouble, false},
                      {"N", ColumnType::kInt64, false}},
                     "")
          .value();
  const std::vector<Value> ints = {
      Value(std::numeric_limits<std::int64_t>::min()),
      Value(std::numeric_limits<std::int64_t>::max()), Value(std::int64_t{-1}),
      Value(std::int64_t{0}), Value()};
  const std::vector<Value> doubles = {
      Value(-0.0),
      Value(std::bit_cast<double>(std::uint64_t{0x7ff8000000000abcULL})),
      Value(std::bit_cast<double>(std::uint64_t{0xfff0000000000001ULL})),
      Value(std::numeric_limits<double>::infinity()),
      Value(std::numeric_limits<double>::denorm_min()), Value(0.0), Value()};
  Relation rel(schema);
  for (std::size_t r = 0; r < 150; ++r) {
    rel.AppendRowUnchecked(
        {ints[r % ints.size()], doubles[r % doubles.size()], Value()});
  }
  const std::string bytes = WriteCatmString(rel);
  Result<Relation> back = ReadCatmString(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  for (std::size_t c = 0; c < 3; ++c) {
    const NumericLane want = rel.store().Lane(c);
    const NumericLane got = back->store().Lane(c);
    EXPECT_TRUE(std::ranges::equal(got.bits, want.bits)) << c;
    EXPECT_TRUE(std::ranges::equal(got.null_words, want.null_words)) << c;
  }
  EXPECT_EQ(back->Get(0, 0).AsInt64(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(std::signbit(back->Get(0, 1).AsDouble()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back->Get(1, 1).AsDouble()),
            0x7ff8000000000abcULL);
  // The all-NULL column: one tag byte a row, every row NULL.
  EXPECT_EQ(ReadSectionTable(bytes)[2].length, 150u);
  for (std::size_t r = 0; r < 150; ++r) EXPECT_TRUE(back->Get(r, 2).is_null());
  EXPECT_EQ(WriteCatmString(*back), bytes);
}

TEST(CatmRoundTripTest, ExpectedSchemaMismatchIsInvalidArgument) {
  const std::string bytes = WriteCatmString(TinyRelation());
  const Schema other = Schema::Create({{"K", ColumnType::kInt64, false},
                                       {"B", ColumnType::kString, true}},
                                      "K")
                           .value();
  const Result<Relation> r = ReadCatmString(bytes, other);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

// --- converter determinism ------------------------------------------------

TEST(CatmConvertTest, ParallelIngestIsThreadCountInvariant) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 3000;
  gen.domain_size = 40;
  gen.seed = 99;
  const Relation rel = GenerateKeyedCategorical(gen);
  const std::string csv = WriteCsvString(rel);

  Result<Relation> serial = ReadCsvString(csv, rel.schema());
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::string want = WriteCatmString(*serial);
  // The serial parse assigns codes in first-occurrence order — the same
  // order the generator appended in, so the original image matches too.
  EXPECT_EQ(WriteCatmString(rel), want);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    Result<Relation> got = ReadCsvStringParallel(csv, rel.schema(), threads);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(WriteCatmString(*got), want)
        << "converter output depends on thread count " << threads;
  }
}

// --- corruption -----------------------------------------------------------

TEST(CatmCorruptionTest, TruncationIsDataLoss) {
  const std::string bytes = WriteCatmString(TinyRelation());
  for (const std::size_t keep : {std::size_t{10}, bytes.size() - 1}) {
    const Result<Relation> r =
        ReadCatmString(std::string_view(bytes).substr(0, keep));
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  }
}

TEST(CatmCorruptionTest, SectionByteFlipIsDataLoss) {
  std::string bytes = WriteCatmString(TinyRelation());
  bytes.back() = static_cast<char>(bytes.back() ^ 0xFF);
  const Result<Relation> r = ReadCatmString(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
}

TEST(CatmCorruptionTest, BadMagicIsInvalidArgument) {
  std::string bytes = WriteCatmString(TinyRelation());
  bytes[0] = static_cast<char>(bytes[0] ^ 0xFF);
  const Result<Relation> r = ReadCatmString(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST(CatmCorruptionTest, UnsupportedVersionIsInvalidArgument) {
  std::string bytes = WriteCatmString(TinyRelation());
  bytes[8] = 2;  // version field, little-endian u32 at offset 8
  const Result<Relation> r = ReadCatmString(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

/// One letter per load: '.' for OK, 'D' DataLoss, 'I' InvalidArgument, '?'
/// anything else — so a sweep's outcome pins as one string.
char StatusLetter(const Status& s) {
  if (s.ok()) return '.';
  if (s.IsDataLoss()) return 'D';
  if (s.IsInvalidArgument()) return 'I';
  return '?';
}

TEST(CatmCorruptionTest, EverySingleByteFlipFailsToParse) {
  // Whole-file integrity: the meta checksum covers the counts, schema and
  // section table (which embeds the per-section checksums); the magic,
  // version and meta_length fields are structurally validated. So there is
  // no byte whose corruption goes unnoticed. The status code of every flip
  // is pinned: flips in the magic and version fields are InvalidArgument,
  // every later flip is caught by a checksum or a bound as DataLoss.
  const std::string bytes = WriteCatmString(TinyRelation());
  std::string codes;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    codes += StatusLetter(ReadCatmString(mutated).status());
  }
  EXPECT_EQ(codes, std::string(12, 'I') + std::string(bytes.size() - 12, 'D'));
}

TEST(CatmCorruptionTest, HostileDictOffsetsWithValidChecksumsAreRejected) {
  // A crafted file can carry any offsets array behind *valid* (unkeyed)
  // checksums, so the byte-flip sweep above never reaches this path — every
  // flip dies on a checksum first. Regression for an out-of-bounds read:
  // offsets [0, 2^32, blob_len] satisfy the endpoint checks, and the first
  // blob entry claims a ~4 GiB string, so a loader that interleaves the
  // monotonicity check with decoding builds a reader far past the section
  // and copies attacker-chosen lengths out of unmapped memory.
  std::string bytes = WriteCatmString(TinyRelation());
  const std::string_view view(bytes);

  std::uint32_t meta_length = 0;
  std::uint32_t num_columns = 0;
  {
    ByteReader r(view.substr(12));
    ASSERT_TRUE(r.ReadLeU32(meta_length));
  }
  {
    ByteReader r(view.substr(32));
    ASSERT_TRUE(r.ReadLeU32(num_columns));
  }
  ASSERT_EQ(num_columns, 2u);

  // Section-table entry of the dict column ("A", column 1). Entries are
  // kind(1) + offset(8) + length(8) + checksum(8) at the meta block's tail.
  constexpr std::size_t kEntryBytes = 1 + 8 + 8 + 8;
  const std::size_t table_pos =
      kCatmHeaderSize + meta_length - num_columns * kEntryBytes;
  const std::size_t entry_pos = table_pos + kEntryBytes;
  std::uint8_t kind = 0;
  std::uint64_t sec_off = 0;
  std::uint64_t sec_len = 0;
  {
    ByteReader r(view.substr(entry_pos));
    ASSERT_TRUE(r.ReadU8(kind));
    ASSERT_TRUE(r.ReadLeU64(sec_off));
    ASSERT_TRUE(r.ReadLeU64(sec_len));
  }
  ASSERT_EQ(kind, kCatmSectionDict);

  // Dict section: u32 dict_count, u64 offsets[3], then the blob whose first
  // entry is tag byte + big-endian u64 string length.
  const auto sec = static_cast<std::size_t>(sec_off);
  const std::uint64_t huge = std::uint64_t{1} << 32;
  PutLeU64(bytes, sec + 4 + 8, huge);       // offsets[1]
  PutBeU64(bytes, sec + 4 + 3 * 8 + 1, huge - 9);  // blob[0] string length
  // Re-seal the file: section checksum in the table entry, then the meta
  // checksum that covers the table.
  PutLeU64(bytes, entry_pos + 1 + 8 + 8,
           CatmChecksum(std::string_view(bytes).substr(
               sec, static_cast<std::size_t>(sec_len))));
  PutLeU64(bytes, 16,
           CatmChecksum(std::string_view(bytes).substr(kCatmChecksumStart,
                                                       16 + meta_length)));

  const Result<Relation> r = ReadCatmString(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

// A checksum-valid INT64 plain section whose value carries another tag:
// a value that decodes is a type mismatch, one that does not reports its
// own decode error, exactly as DecodeValue words it.
TEST(CatmCorruptionTest, WrongTagInInt64SectionKeepsItsStatus) {
  const std::string good = WriteCatmString(TinyRelation());
  const std::vector<TableEntry> table = ReadSectionTable(good);
  const auto with_tag = [&](std::size_t row, char tag) {
    std::string bytes = good;
    bytes[static_cast<std::size_t>(table[0].offset) + 9 * row] = tag;
    Reseal(bytes, table, 0);
    return ReadCatmString(bytes).status();
  };
  EXPECT_EQ(with_tag(0, 2).ToString(),
            "InvalidArgument: .catm value type disagrees with the schema in "
            "column 'K'");
  EXPECT_EQ(with_tag(1, 7).ToString(),
            "InvalidArgument: unknown value tag 7");
  EXPECT_EQ(with_tag(2, 3).ToString(),
            "InvalidArgument: string length 3 exceeds the 0 bytes left in its "
            "section");
  // A NULL tag on the last row leaves its 8 payload bytes over.
  EXPECT_EQ(with_tag(2, 0).ToString(),
            "InvalidArgument: .catm plain section has trailing bytes in "
            "column 'K'");
}

TEST(CatmCorruptionTest, EveryTruncationFailsToParse) {
  // Shorter than the magic is "not a .catm file"; anything longer is a
  // truncated one.
  const std::string bytes = WriteCatmString(TinyRelation());
  std::string codes;
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    codes += StatusLetter(
        ReadCatmString(std::string_view(bytes).substr(0, keep)).status());
  }
  EXPECT_EQ(codes, std::string(sizeof(kCatmMagic), 'I') +
                       std::string(bytes.size() - sizeof(kCatmMagic), 'D'));
}

TEST(CatmCorruptionTest, LowestCorruptColumnWinsAtEveryWorkerCount) {
  // Columns verify and decode on separate workers, but install in column
  // order: with two corrupt sections the lower column's Status is the one
  // reported, exactly as a serial load reports it.
  const Relation rel = ShardedRelation(2 * kCatmRowsPerShard + 5);
  const std::string bytes = WriteCatmString(rel);
  const std::vector<TableEntry> table = ReadSectionTable(bytes);
  ASSERT_EQ(table.size(), 5u);
  const auto flip = [&](std::string& image, std::size_t c) {
    const auto at = static_cast<std::size_t>(table[c].offset + 3);
    image[at] = static_cast<char>(image[at] ^ 0x5A);
  };

  // Columns 1 ("D", plain) and 3 ("C", dict) each fail their checksum.
  std::string two_flips = bytes;
  flip(two_flips, 3);
  flip(two_flips, 1);
  // Column 2 ("S", plain) decodes to a type error behind valid checksums
  // (row 1's string "1", after row 0's one-byte NULL, is retagged INT64);
  // column 3 fails its checksum.
  std::string decode_error = bytes;
  const auto s_at = static_cast<std::size_t>(table[2].offset + 1);
  ASSERT_EQ(decode_error[s_at], 3);
  decode_error[s_at] = 1;
  Reseal(decode_error, table, 2);
  flip(decode_error, 3);
  // Column 3 ("C", dict) decodes but fails its install (live count 0 is
  // bumped, behind valid checksums); column 4 ("N") fails its checksum.
  std::string install_error = bytes;
  {
    const auto c_at = static_cast<std::size_t>(table[3].offset);
    ByteReader r(std::string_view(install_error).substr(c_at));
    std::uint32_t dict_count = 0;
    ASSERT_TRUE(r.ReadLeU32(dict_count));
    ASSERT_TRUE(r.Skip(8 * std::size_t{dict_count}));
    std::uint64_t blob_len = 0;
    ASSERT_TRUE(r.ReadLeU64(blob_len));
    const std::size_t live0 =
        c_at + 4 + 8 * (std::size_t{dict_count} + 1) + blob_len;
    install_error[live0] = static_cast<char>(install_error[live0] + 1);
    Reseal(install_error, table, 3);
    flip(install_error, 4);
  }

  for (const char* threads : {"1", "2", "3", "8"}) {
    const ScopedThreads scoped(threads);
    const Status flipped = ReadCatmString(two_flips).status();
    EXPECT_TRUE(flipped.IsDataLoss()) << flipped.ToString();
    EXPECT_NE(flipped.message().find("column 'D'"), std::string::npos)
        << threads << " workers: " << flipped.ToString();

    const Status decode = ReadCatmString(decode_error).status();
    EXPECT_TRUE(decode.IsInvalidArgument()) << decode.ToString();
    EXPECT_NE(decode.message().find("column 'S'"), std::string::npos)
        << threads << " workers: " << decode.ToString();

    const Status install = ReadCatmString(install_error).status();
    EXPECT_TRUE(install.IsInvalidArgument()) << install.ToString();
    EXPECT_NE(install.message().find("live counts"), std::string::npos)
        << threads << " workers: " << install.ToString();
  }
}

// --- writer determinism and edge shapes ------------------------------------

TEST(CatmWriterTest, ImageIsIdenticalAtEveryWorkerCount) {
  // Shard boundaries sit inside NULL runs, long strings and -0.0 doubles
  // (see ShardedRelation); none of them may change a byte.
  const Relation rel = ShardedRelation(8 * kCatmRowsPerShard + 1234);
  const std::size_t boundary = ShardBounds(rel.NumRows(), 8)[4];
  std::string want;
  {
    const ScopedThreads one("1");
    want = WriteCatmString(rel);
  }
  for (const char* threads : {"2", "3", "4", "8"}) {
    const ScopedThreads scoped(threads);
    EXPECT_TRUE(WriteCatmString(rel) == want)
        << "image depends on the worker count at " << threads;
    Result<Relation> back = ReadCatmString(want);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(back->SameContent(rel)) << threads << " workers";
    EXPECT_TRUE(std::signbit(back->Get(boundary, 1).AsDouble()))
        << "-0.0 lost its sign at a shard boundary";
  }
}

TEST(CatmWriterTest, EmptySingleRowAndAllNullColumns) {
  const Schema schema = Schema::Create({{"K", ColumnType::kInt64, false},
                                        {"P", ColumnType::kInt64, false},
                                        {"C", ColumnType::kString, true}},
                                       "K")
                            .value();
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              2 * kCatmRowsPerShard + 1}) {
    Relation rel(schema);
    for (std::size_t i = 0; i < n; ++i) {
      rel.AppendRowUnchecked({Value(static_cast<std::int64_t>(i)), Value(),
                              i % 3 == 0 ? Value("a") : Value()});
    }
    std::string want;
    {
      const ScopedThreads one("1");
      want = WriteCatmString(rel);
    }
    {
      const ScopedThreads eight("8");
      EXPECT_TRUE(WriteCatmString(rel) == want) << n << " rows";
    }
    // The all-NULL plain column costs one tag byte per row.
    EXPECT_EQ(ReadSectionTable(want)[1].length, n);
    Result<Relation> back = ReadCatmString(want);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->NumRows(), n);
    EXPECT_TRUE(back->SameContent(rel)) << n << " rows";
    EXPECT_TRUE(WriteCatmString(*back) == want) << n << " rows";
  }
}

// --- install API validation ----------------------------------------------

TEST(CatmInstallTest, RejectsDuplicateDictionaryEntries) {
  Relation rel(TinySchema());
  const Status s = rel.mutable_store().InstallDictColumn(
      1, {Value(std::string("x")), Value(std::string("x"))}, {1, 1}, {0, 1});
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(CatmInstallTest, RejectsCodeOutOfRange) {
  Relation rel(TinySchema());
  const Status s = rel.mutable_store().InstallDictColumn(
      1, {Value(std::string("x"))}, {1}, {0, 7});
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(CatmInstallTest, RejectsLiveCountMismatch) {
  Relation rel(TinySchema());
  const Status s = rel.mutable_store().InstallDictColumn(
      1, {Value(std::string("x"))}, {5}, {0, 0});
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(CatmInstallTest, FinalizeRejectsRowCountMismatch) {
  Relation rel(TinySchema());
  ASSERT_TRUE(rel.mutable_store()
                  .InstallLaneColumn(0, {1}, {})
                  .ok());
  ASSERT_TRUE(rel.mutable_store()
                  .InstallDictColumn(1, {Value(std::string("x"))}, {2},
                                     {0, 0})
                  .ok());
  EXPECT_TRUE(rel.mutable_store().FinalizeInstall(2).IsInvalidArgument());
}

// --- file I/O and sniffing ------------------------------------------------

TEST(CatmIoTest, LoadRelationSniffsContentNotExtension) {
  const Relation rel = TinyRelation();
  const std::string catm_path =
      ::testing::TempDir() + "catm_sniff_binary.dat";
  const std::string csv_path = ::testing::TempDir() + "catm_sniff_text.dat";
  ASSERT_TRUE(WriteCatmFile(rel, catm_path).ok());
  ASSERT_TRUE(WriteCsvFile(rel, csv_path).ok());

  // Same neutral ".dat" extension for both: only the content differs, and
  // LoadRelation must dispatch on the magic, not the name.
  Result<Relation> from_catm = LoadRelation(catm_path, rel.schema());
  ASSERT_TRUE(from_catm.ok()) << from_catm.status().ToString();
  EXPECT_TRUE(from_catm->SameContent(rel));

  Result<Relation> from_csv = LoadRelation(csv_path, rel.schema());
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  EXPECT_TRUE(from_csv->SameContent(rel));

  std::remove(catm_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(CatmIoTest, SaveRelationPicksFormatByExtension) {
  const Relation rel = TinyRelation();
  const std::string catm_path = ::testing::TempDir() + "catm_save_test.catm";
  const std::string csv_path = ::testing::TempDir() + "catm_save_test.csv";
  ASSERT_TRUE(SaveRelation(rel, catm_path).ok());
  ASSERT_TRUE(SaveRelation(rel, csv_path).ok());

  const FileBytes catm_bytes = FileBytes::Open(catm_path).value();
  const FileBytes csv_bytes = FileBytes::Open(csv_path).value();
  EXPECT_TRUE(LooksLikeCatm(catm_bytes.view()));
  EXPECT_FALSE(LooksLikeCatm(csv_bytes.view()));
  EXPECT_EQ(catm_bytes.view(), WriteCatmString(rel));
  EXPECT_EQ(csv_bytes.view(), WriteCsvString(rel));

  std::remove(catm_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(CatmIoTest, FileBytesEqualStringBytes) {
  const std::string path = ::testing::TempDir() + "catm_file_vs_string.catm";
  for (const Relation& rel :
       {TinyRelation(), ShardedRelation(2 * kCatmRowsPerShard + 5)}) {
    ASSERT_TRUE(WriteCatmFile(rel, path).ok());
    const FileBytes written = FileBytes::Open(path).value();
    EXPECT_TRUE(written.view() == WriteCatmString(rel))
        << rel.NumRows() << " rows";
  }
  std::remove(path.c_str());
}

TEST(CatmIoTest, WriteErrorsAreIoError) {
  const Relation rel = TinyRelation();
  const auto is_io_error = [](const Status& s) {
    return s.code() == StatusCode::kIoError;
  };
  const Status missing_dir = WriteCatmFile(
      rel, ::testing::TempDir() + "catm_no_such_dir/out.catm");
  EXPECT_TRUE(is_io_error(missing_dir)) << missing_dir.ToString();
  const Status directory = WriteCatmFile(rel, ::testing::TempDir());
  EXPECT_TRUE(is_io_error(directory)) << directory.ToString();
#if defined(__linux__)
  // Every write to /dev/full fails with ENOSPC.
  if (std::filesystem::exists("/dev/full")) {
    const Status full = WriteCatmFile(rel, "/dev/full");
    EXPECT_TRUE(is_io_error(full)) << full.ToString();
  }
#endif
}

TEST(CatmIoTest, ColumnNamesAreBoundedByTheirLengthField) {
  // The format stores a name's length in a u16: the longest name that fits
  // round-trips, and one byte more is refused by Schema::Create, so the
  // writer never meets a name it cannot encode.
  const std::string longest(kMaxColumnNameBytes, 'n');
  const Schema schema = Schema::Create({{longest, ColumnType::kInt64, false},
                                        {"A", ColumnType::kString, true}},
                                       longest)
                            .value();
  Relation rel(schema);
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("x")});
  Result<Relation> back = ReadCatmString(WriteCatmString(rel));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->schema() == schema);

  const Result<Schema> too_long = Schema::Create(
      {{longest + "n", ColumnType::kInt64, false}}, "");
  ASSERT_FALSE(too_long.ok());
  EXPECT_TRUE(too_long.status().IsInvalidArgument())
      << too_long.status().ToString();
}

// --- cross-format golden pins ---------------------------------------------

// The .catm round trip must preserve the exact embed/detect channel: the
// pinned hashes below are the same constants golden_test.cc pins for the
// CSV path, so a .catm loader that perturbed codes or dictionary order —
// even content-preservingly — would fail here.

TEST(CatmCrossFormatTest, RoundTripPreservesGoldenGeneratorHash) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 2000;
  gen.domain_size = 64;
  gen.seed = 424242;
  const Relation rel = GenerateKeyedCategorical(gen);
  Result<Relation> back = ReadCatmString(WriteCatmString(rel));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  Sha256 sha;
  EXPECT_EQ(
      sha.Hash(WriteCsvString(*back)).ToHex(),
      "a74968c3b53d067b5bf36f885cadf48e6c8ec835c801cd26b51b6cba8084a0a8");
}

TEST(CatmCrossFormatTest, EmbeddingOnRoundTrippedRelationIsPinned) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 2000;
  gen.domain_size = 64;
  gen.seed = 424242;
  const Relation rel = GenerateKeyedCategorical(gen);
  Result<Relation> back = ReadCatmString(WriteCatmString(rel));
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  const struct {
    PrfKind prf;
    const char* pinned;
  } kCases[] = {
      {PrfKind::kKeyedHash,
       "cdc9fcdcdc04480afcdb7338d8c67512911da1251e3ce1e57be25df5903c2e82"},
      {PrfKind::kSipHash24,
       "d325634b623a545ca00b353945cf90dd2f06ca31b9f47fc44d372f13fa2fc690"},
  };
  for (const auto& kase : kCases) {
    Relation marked = *back;
    const WatermarkKeySet keys = WatermarkKeySet::FromPassphrase("golden");
    WatermarkParams params;
    params.e = 25;
    params.prf = kase.prf;
    const BitVector wm = BitVector::FromString("1011001110").value();
    EmbedOptions options;
    options.key_attr = "K";
    options.target_attr = "A";
    Result<EmbedReport> report =
        Embedder(keys, params).Embed(marked, options, wm);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    Sha256 sha;
    EXPECT_EQ(sha.Hash(WriteCsvString(marked)).ToHex(), kase.pinned)
        << "embedding over the .catm round trip diverged under "
        << PrfKindName(kase.prf);
  }
}

}  // namespace
}  // namespace catmark
