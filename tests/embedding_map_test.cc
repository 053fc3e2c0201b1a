#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/embedding_map.h"
#include "relation/value.h"

namespace catmark {
namespace {

TEST(EmbeddingMapTest, InsertLookupRoundTrip) {
  EmbeddingMap map;
  map.Insert(Value(std::int64_t{7}), 3);
  map.Insert(Value("seven"), 5);
  EXPECT_EQ(map.Lookup(Value(std::int64_t{7})).value(), 3u);
  EXPECT_EQ(map.Lookup(Value("seven")).value(), 5u);
  EXPECT_FALSE(map.Lookup(Value(std::int64_t{8})).has_value());
  // INT64 7 and STRING "7" must stay distinct.
  EXPECT_FALSE(map.Lookup(Value("7")).has_value());
}

TEST(EmbeddingMapTest, HeterogeneousLookupMatchesValueLookup) {
  EmbeddingMap map;
  map.Insert(Value("alpha"), 11);
  std::vector<std::uint8_t> scratch;
  EXPECT_EQ(map.Lookup(EmbeddingMap::SerializeKey(Value("alpha"), scratch))
                .value(),
            11u);
  EXPECT_FALSE(
      map.Lookup(EmbeddingMap::SerializeKey(Value("beta"), scratch))
          .has_value());
}

// ----------------------------------------------------- segment splicing

EmbeddingMap::Segment::value_type Entry(const Value& pk, std::size_t idx) {
  std::vector<std::uint8_t> scratch;
  return {std::string(EmbeddingMap::SerializeKey(pk, scratch)), idx};
}

TEST(EmbeddingMapSegmentTest, SplicedSegmentsMatchSerialInserts) {
  // The sharded apply pass splices per-shard segments in shard order; the
  // result — including Serialize(), whose entry order reflects the map's
  // internal layout — must be indistinguishable from the serial Insert
  // sequence over the same entries.
  EmbeddingMap serial;
  for (int i = 0; i < 40; ++i) {
    serial.Insert(Value(std::int64_t{i * 31}), static_cast<std::size_t>(i));
  }

  EmbeddingMap spliced;
  EmbeddingMap::Segment a, b, c;
  for (int i = 0; i < 13; ++i) {
    a.push_back(Entry(Value(std::int64_t{i * 31}), i));
  }
  for (int i = 13; i < 14; ++i) {  // single-entry shard
    b.push_back(Entry(Value(std::int64_t{i * 31}), i));
  }
  for (int i = 14; i < 40; ++i) {
    c.push_back(Entry(Value(std::int64_t{i * 31}), i));
  }
  spliced.AppendSegment(std::move(a));
  spliced.AppendSegment(std::move(b));
  spliced.AppendSegment(std::move(c));

  EXPECT_EQ(spliced.size(), serial.size());
  EXPECT_EQ(spliced.Serialize(), serial.Serialize());
}

TEST(EmbeddingMapSegmentTest, EmptySegmentsAreNoOps) {
  // All-skip shards splice empty segments — before, between and after
  // non-empty ones.
  EmbeddingMap map;
  map.AppendSegment({});
  EXPECT_TRUE(map.empty());
  map.AppendSegment({Entry(Value("k"), 4)});
  map.AppendSegment({});
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.Lookup(Value("k")).value(), 4u);
}

TEST(EmbeddingMapSegmentTest, DuplicateKeyAcrossSegmentsOverwritesLikeInsert) {
  // Insert overwrites on re-insertion; a later segment must do the same so
  // duplicate primary keys behave identically on both apply paths.
  EmbeddingMap serial;
  serial.Insert(Value("dup"), 1);
  serial.Insert(Value("dup"), 9);

  EmbeddingMap spliced;
  spliced.AppendSegment({Entry(Value("dup"), 1)});
  spliced.AppendSegment({Entry(Value("dup"), 9)});

  EXPECT_EQ(spliced.size(), 1u);
  EXPECT_EQ(spliced.Lookup(Value("dup")).value(), 9u);
  EXPECT_EQ(spliced.Serialize(), serial.Serialize());
}

TEST(EmbeddingMapSegmentTest, SegmentsInterleaveWithInserts) {
  // The serial fallback uses Insert while sharded runs splice segments; a
  // map touched by both (e.g. two embedding passes with different thread
  // counts) must stay coherent.
  EmbeddingMap map;
  map.Insert(Value(std::int64_t{1}), 0);
  map.AppendSegment({Entry(Value(std::int64_t{2}), 1)});
  map.Insert(Value(std::int64_t{3}), 2);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.Lookup(Value(std::int64_t{2})).value(), 1u);
}

TEST(EmbeddingMapTest, SerializeDeserializeRoundTrip) {
  EmbeddingMap map;
  map.Insert(Value(std::int64_t{1}), 0);
  map.Insert(Value("x"), 9);
  const EmbeddingMap back = EmbeddingMap::Deserialize(map.Serialize()).value();
  EXPECT_EQ(back.size(), 2u);
  EXPECT_EQ(back.Lookup(Value("x")).value(), 9u);
}

// Regression: a duplicate key used to silently overwrite the earlier entry,
// leaving the detector voting on a position the embedder never assigned to
// that tuple. Two lines for one PK now reject the whole file.
TEST(EmbeddingMapTest, DeserializeRejectsDuplicateKey) {
  EmbeddingMap map;
  map.Insert(Value(std::int64_t{42}), 1);
  std::string text = map.Serialize();
  const std::size_t comma = text.find(',');
  ASSERT_NE(comma, std::string::npos);
  // Same hex key, different index.
  text += text.substr(0, comma) + ",7\n";
  const Result<EmbeddingMap> r = EmbeddingMap::Deserialize(text);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(EmbeddingMapTest, DeserializeRejectsMalformedLines) {
  EXPECT_FALSE(EmbeddingMap::Deserialize("deadbeef").ok());      // no comma
  EXPECT_FALSE(EmbeddingMap::Deserialize("zz,1\n").ok());        // bad hex
  EXPECT_FALSE(EmbeddingMap::Deserialize("ab,x\n").ok());        // bad index
}

}  // namespace
}  // namespace catmark
