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
