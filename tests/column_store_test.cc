#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "relation/column_store.h"
#include "relation/domain.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "relation/value_index_column.h"

namespace catmark {
namespace {

Schema TestSchema() {
  return Schema::Create({{"K", ColumnType::kInt64, false},
                         {"A", ColumnType::kString, true},
                         {"X", ColumnType::kDouble, false}},
                        "K")
      .value();
}

TEST(ColumnStoreTest, LayoutFollowsSchema) {
  const Relation rel(TestSchema());
  EXPECT_FALSE(rel.store().IsDictColumn(0));  // key: plain
  EXPECT_TRUE(rel.store().IsDictColumn(1));   // categorical: dictionary
  EXPECT_FALSE(rel.store().IsDictColumn(2));  // measure: plain
}

TEST(ColumnStoreTest, DictionaryInternsDistinctValues) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value("blue"), Value(2.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{3}), Value("red"), Value(3.0)});

  const ColumnStore& store = rel.store();
  EXPECT_EQ(store.Dict(1).size(), 2u);  // red, blue — interned once each
  EXPECT_EQ(store.Codes(1).size(), 3u);
  EXPECT_EQ(store.Codes(1)[0], store.Codes(1)[2]);  // both "red"
  EXPECT_NE(store.Codes(1)[0], store.Codes(1)[1]);
  EXPECT_EQ(store.DictLiveCounts(1)[0], 2);  // "red" held by two rows
  EXPECT_EQ(store.DictLiveCounts(1)[1], 1);
}

TEST(ColumnStoreTest, NullCellsUseNullCode) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value(), Value(1.0)});
  EXPECT_EQ(rel.store().Codes(1)[0], ColumnStore::kNullCode);
  EXPECT_TRUE(rel.Get(0, 1).is_null());
  EXPECT_TRUE(rel.store().Dict(1).empty());
}

TEST(ColumnStoreTest, SetMaintainsLiveCounts) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value("red"), Value(2.0)});
  ASSERT_TRUE(rel.Set(0, 1, Value("blue")).ok());
  const ColumnStore& store = rel.store();
  EXPECT_EQ(store.DictLiveCounts(1)[0], 1);  // red: one holder left
  EXPECT_EQ(store.DictLiveCounts(1)[1], 1);  // blue: newly interned
  ASSERT_TRUE(rel.Set(1, 1, Value()).ok());
  EXPECT_EQ(store.DictLiveCounts(1)[0], 0);  // red now dead
  EXPECT_EQ(store.Dict(1).size(), 2u);       // ...but never garbage-collected
}

TEST(ColumnStoreTest, DeadDictEntriesLeaveRecoveredDomain) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value("blue"), Value(2.0)});
  ASSERT_TRUE(rel.Set(0, 1, Value("blue")).ok());  // "red" goes dead
  const CategoricalDomain d =
      CategoricalDomain::FromRelationColumn(rel, 1).value();
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.value(0).AsString(), "blue");
}

TEST(ColumnStoreTest, InternValueDoesNotTouchRows) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  const std::int32_t code = rel.mutable_store().InternValue(1, Value("green"));
  EXPECT_GE(code, 0);
  EXPECT_EQ(rel.store().DictLiveCounts(1)[static_cast<std::size_t>(code)], 0);
  EXPECT_EQ(rel.Get(0, 1).AsString(), "red");
  // Interning the same value again returns the same code.
  EXPECT_EQ(rel.mutable_store().InternValue(1, Value("green")), code);
  // A dead interned value must not leak into the recovered domain.
  const CategoricalDomain d =
      CategoricalDomain::FromRelationColumn(rel, 1).value();
  EXPECT_EQ(d.size(), 1u);
}

TEST(ColumnStoreTest, SetCodeWritesWithoutSerialization) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  const std::int32_t green = rel.mutable_store().InternValue(1, Value("green"));
  rel.mutable_store().SetCode(0, 1, green);
  EXPECT_EQ(rel.Get(0, 1).AsString(), "green");
  EXPECT_EQ(rel.store().DictLiveCounts(1)[static_cast<std::size_t>(green)], 1);
  rel.mutable_store().SetCode(0, 1, ColumnStore::kNullCode);
  EXPECT_TRUE(rel.Get(0, 1).is_null());
  EXPECT_EQ(rel.store().DictLiveCounts(1)[static_cast<std::size_t>(green)], 0);
}

TEST(ColumnStoreTest, CodeOfDistinguishesTypes) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("7"), Value(1.0)});
  EXPECT_GE(rel.store().CodeOf(1, Value("7")), 0);
  EXPECT_EQ(rel.store().CodeOf(1, Value(std::int64_t{7})),
            ColumnStore::kNullCode);
  EXPECT_EQ(rel.store().CodeOf(1, Value("8")), ColumnStore::kNullCode);
}

TEST(ColumnStoreTest, SwapRemoveUpdatesCodesAndCounts) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value("blue"), Value(2.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{3}), Value("red"), Value(3.0)});
  rel.SwapRemoveRow(0);
  ASSERT_EQ(rel.NumRows(), 2u);
  EXPECT_EQ(rel.Get(0, 0).AsInt64(), 3);  // last row swapped into slot 0
  EXPECT_EQ(rel.Get(0, 1).AsString(), "red");
  EXPECT_EQ(rel.store().DictLiveCounts(1)[0], 1);  // one "red" remains
  rel.SwapRemoveRow(0);
  rel.SwapRemoveRow(0);
  EXPECT_TRUE(rel.empty());
  EXPECT_EQ(rel.store().DictLiveCounts(1)[0], 0);
  EXPECT_EQ(rel.store().DictLiveCounts(1)[1], 0);
}

TEST(ColumnStoreTest, AppendRowsFromTranslatesDictCodes) {
  // Different insertion orders assign different codes; the bulk path must
  // translate them, intern each referenced entry once, and skip dead ones.
  Relation src(TestSchema()), dst(TestSchema());
  src.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  src.AppendRowUnchecked({Value(std::int64_t{2}), Value("blue"), Value(2.0)});
  src.AppendRowUnchecked({Value(std::int64_t{3}), Value(), Value(3.0)});
  dst.AppendRowUnchecked({Value(std::int64_t{4}), Value("blue"), Value(4.0)});

  ASSERT_TRUE(dst.AppendRowsFrom(src, {2, 0, 1}).ok());
  ASSERT_EQ(dst.NumRows(), 4u);
  EXPECT_TRUE(dst.Get(1, 1).is_null());
  EXPECT_EQ(dst.Get(2, 1).AsString(), "red");
  EXPECT_EQ(dst.Get(3, 1).AsString(), "blue");
  EXPECT_EQ(dst.store().Dict(1).size(), 2u);  // blue, red — no duplicates
  EXPECT_EQ(dst.store().DictLiveCounts(1)[0], 2);  // blue: rows 0 and 3
  EXPECT_EQ(dst.store().DictLiveCounts(1)[1], 1);  // red

  Relation expected(TestSchema());
  expected.AppendRowUnchecked(
      {Value(std::int64_t{4}), Value("blue"), Value(4.0)});
  ASSERT_TRUE(expected.AppendRowsFrom(src, {0, 1, 2}).ok());
  // Order-insensitive equality: {row3, row1, row2} == {row1, row2, row3}.
  EXPECT_TRUE(dst.SameContent(expected));
}

TEST(ColumnStoreTest, AppendRowsFromValidates) {
  Relation src(TestSchema()), dst(TestSchema());
  src.AppendRowUnchecked({Value(std::int64_t{1}), Value("a"), Value(0.0)});
  EXPECT_FALSE(dst.AppendRowsFrom(src, {5}).ok());  // out of range
  Relation other(
      Schema::Create({{"Z", ColumnType::kInt64, false}}, "").value());
  EXPECT_FALSE(other.AppendRowsFrom(src, {0}).ok());  // schema mismatch
  // Self-append goes through the safe row path.
  ASSERT_TRUE(src.AppendRowsFrom(src, {0, 0}).ok());
  EXPECT_EQ(src.NumRows(), 3u);
  EXPECT_EQ(src.store().DictLiveCounts(1)[0], 3);
}

TEST(ColumnStoreTest, AppendRowsFromGrowsGeometrically) {
  // A caller appending per batch (the streaming insert path) must not
  // reallocate every column on every batch.
  Relation src(TestSchema()), dst(TestSchema());
  constexpr std::size_t kBatch = 1024;
  constexpr std::size_t kAppends = 500;
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < kBatch; ++i) {
    src.AppendRowUnchecked({Value(static_cast<std::int64_t>(i)),
                            Value(i % 2 == 0 ? "even" : "odd"),
                            Value(static_cast<double>(i))});
    indices.push_back(i);
  }
  std::size_t code_growths = 0, value_growths = 0;
  for (std::size_t a = 0; a < kAppends; ++a) {
    // A reallocation moves a column's storage.
    const std::int32_t* codes_before = dst.store().Codes(1).data();
    const std::uint64_t* lane_before = dst.store().Lane(0).bits.data();
    ASSERT_TRUE(dst.AppendRowsFrom(src, indices).ok());
    code_growths += dst.store().Codes(1).data() != codes_before;
    value_growths += dst.store().Lane(0).bits.data() != lane_before;
  }
  EXPECT_EQ(dst.NumRows(), kBatch * kAppends);
  // log2(500) < 9; the first append allocates, then capacity doubles.
  EXPECT_LE(code_growths, 10u);
  EXPECT_LE(value_growths, 10u);
}

TEST(ColumnStoreTest, AppendRowsFromOverrideInternsInRowOrder) {
  Relation src(TestSchema());
  src.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  src.AppendRowUnchecked({Value(std::int64_t{2}), Value("blue"), Value(2.0)});
  src.AppendRowUnchecked({Value(std::int64_t{3}), Value("red"), Value(3.0)});
  const Value green("green");
  const Value null_value;
  const std::vector<const Value*> over = {nullptr, &green, &null_value};

  Relation bulk(TestSchema());
  ASSERT_TRUE(
      bulk.AppendRowsFrom(src, {0, 1, 2}, ColumnOverride{1, over}).ok());

  // The same rows appended one at a time: codes must match exactly (red
  // before green, and the overridden "blue" never interned).
  Relation rows(TestSchema());
  rows.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  rows.AppendRowUnchecked({Value(std::int64_t{2}), Value("green"), Value(2.0)});
  rows.AppendRowUnchecked({Value(std::int64_t{3}), Value(), Value(3.0)});
  EXPECT_TRUE(std::ranges::equal(bulk.store().Codes(1), rows.store().Codes(1)));
  EXPECT_EQ(bulk.store().Dict(1), rows.store().Dict(1));
  EXPECT_EQ(bulk.store().DictLiveCounts(1), rows.store().DictLiveCounts(1));

  // A plain column override, through the self-append row path too.
  const Value big(std::int64_t{99});
  const std::vector<const Value*> key_over = {nullptr, &big};
  ASSERT_TRUE(
      bulk.AppendRowsFrom(bulk, {0, 1}, ColumnOverride{0, key_over}).ok());
  EXPECT_EQ(bulk.Get(3, 0).AsInt64(), 1);
  EXPECT_EQ(bulk.Get(4, 0).AsInt64(), 99);
  EXPECT_EQ(bulk.Get(4, 1).AsString(), "green");
}

TEST(ColumnStoreTest, AppendRowsFromOverrideValidates) {
  Relation src(TestSchema()), dst(TestSchema());
  src.AppendRowUnchecked({Value(std::int64_t{1}), Value("a"), Value(0.0)});
  const Value wrong_type(std::int64_t{7});
  const Value ok("b");
  const std::vector<const Value*> bad = {&wrong_type};
  const std::vector<const Value*> two = {&ok, &ok};
  const std::vector<const Value*> one = {&ok};
  EXPECT_FALSE(dst.AppendRowsFrom(src, {0}, ColumnOverride{1, bad}).ok());
  EXPECT_FALSE(dst.AppendRowsFrom(src, {0}, ColumnOverride{1, two}).ok());
  EXPECT_FALSE(dst.AppendRowsFrom(src, {0}, ColumnOverride{3, one}).ok());
  EXPECT_TRUE(dst.empty());  // atomic: nothing landed
  ASSERT_TRUE(dst.AppendRowsFrom(src, {0}, ColumnOverride{1, one}).ok());
  EXPECT_EQ(dst.Get(0, 1).AsString(), "b");
}

TEST(ColumnStoreTest, ClearRowsKeepsDictionariesWithDeadEntries) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value("blue"), Value(2.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{3}), Value(), Value(3.0)});
  rel.ClearRows();
  EXPECT_TRUE(rel.empty());
  EXPECT_TRUE(rel.store().Codes(1).empty());
  EXPECT_EQ(rel.store().Lane(0).size(), 0u);
  EXPECT_EQ(rel.store().Dict(1).size(), 2u);
  EXPECT_EQ(rel.store().DictLiveCounts(1), (std::vector<std::int64_t>{0, 0}));
  // A recurring value keeps its code; the recovered domain sees live rows
  // only.
  rel.AppendRowUnchecked({Value(std::int64_t{4}), Value("blue"), Value(4.0)});
  EXPECT_EQ(rel.store().Codes(1)[0], 1);
  EXPECT_EQ(rel.store().DictLiveCounts(1), (std::vector<std::int64_t>{0, 1}));
  EXPECT_EQ(CategoricalDomain::FromRelationColumn(rel, 1).value().size(), 1u);
}

TEST(ColumnStoreTest, NumericPlainColumnsAreLanes) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{-9}), Value("a"), Value(2.5)});
  const ColumnStore& store = rel.store();
  EXPECT_TRUE(store.IsLaneColumn(0));
  EXPECT_FALSE(store.IsLaneColumn(1));
  EXPECT_TRUE(store.IsLaneColumn(2));
  EXPECT_EQ(store.Lane(0).type, ColumnType::kInt64);
  EXPECT_EQ(store.Lane(0).int64s()[0], -9);
  EXPECT_EQ(store.Lane(2).type, ColumnType::kDouble);
  EXPECT_EQ(store.Lane(2).bits[0], std::bit_cast<std::uint64_t>(2.5));
  // No NULL yet: no bitmap.
  EXPECT_TRUE(store.Lane(0).null_words.empty());
}

// --- numeric lanes and their NULL bitmap ----------------------------------

// Checks the lane invariants of column `col` and returns its cells: the
// bitmap is absent or exactly one word per 64 rows with nothing set past
// the last row, and a NULL slot holds 0.
std::vector<Value> LaneCells(const Relation& rel, std::size_t col) {
  const NumericLane lane = rel.store().Lane(col);
  EXPECT_EQ(lane.size(), rel.NumRows());
  if (!lane.null_words.empty()) {
    EXPECT_EQ(lane.null_words.size(), (lane.size() + 63) / 64);
    if (lane.size() % 64 != 0) {
      EXPECT_EQ(lane.null_words.back() >> (lane.size() % 64), 0u);
    }
  }
  std::vector<Value> cells;
  for (std::size_t r = 0; r < lane.size(); ++r) {
    if (lane.IsNull(r)) {
      EXPECT_EQ(lane.bits[r], 0u) << r;
    }
    EXPECT_EQ(lane.Get(r), rel.Get(r, col)) << r;
    cells.push_back(lane.Get(r));
  }
  return cells;
}

// Key k and X = k / 2, both NULL when `null_key`.
Row LaneRow(std::int64_t k, bool null_key) {
  return {null_key ? Value() : Value(k), Value("c"),
          null_key ? Value() : Value(static_cast<double>(k) / 2)};
}

TEST(ColumnStoreLaneTest, BitmapAppearsWithTheFirstNull) {
  Relation rel(TestSchema());
  for (std::int64_t k = 0; k < 70; ++k) {
    rel.AppendRowUnchecked(LaneRow(k, false));
  }
  EXPECT_TRUE(rel.store().Lane(0).null_words.empty());
  rel.AppendRowUnchecked(LaneRow(70, true));
  ASSERT_EQ(rel.store().Lane(0).null_words.size(), 2u);
  EXPECT_TRUE(rel.store().Lane(0).IsNull(70));
  EXPECT_FALSE(rel.store().Lane(0).IsNull(69));

  // The bulk path lands the same cells as the row path, across a word
  // boundary and with NULLs on both sides of it.
  std::vector<Row> batch;
  for (std::int64_t k = 71; k < 200; ++k) {
    batch.push_back(LaneRow(k, k % 13 == 0));
  }
  Relation rows(TestSchema());
  for (std::int64_t k = 0; k < 71; ++k) {
    rows.AppendRowUnchecked(LaneRow(k, k == 70));
  }
  for (const Row& row : batch) rows.AppendRowUnchecked(row);
  ASSERT_TRUE(rel.AppendRows(std::span<Row>(batch)).ok());
  EXPECT_EQ(LaneCells(rel, 0), LaneCells(rows, 0));
  EXPECT_EQ(LaneCells(rel, 2), LaneCells(rows, 2));
  EXPECT_TRUE(rel.Get(78, 0).is_null());
  EXPECT_TRUE(rel.Get(78, 2).is_null());
  EXPECT_EQ(rel.Get(79, 0).AsInt64(), 79);
  EXPECT_DOUBLE_EQ(rel.Get(79, 2).AsDouble(), 39.5);
}

TEST(ColumnStoreLaneTest, AppendRowsFromCarriesNullsAndOverrides) {
  Relation src(TestSchema());
  for (std::int64_t k = 0; k < 150; ++k) {
    src.AppendRowUnchecked(LaneRow(k, k % 7 == 3));
  }
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < 150; i += 2) indices.push_back(i);
  indices.push_back(3);  // a NULL row, repeated

  // Without an override: cell-for-cell the source rows, on top of a
  // destination whose own rows have no NULL (the bitmap must appear at
  // the right shifted offsets).
  Relation dst(TestSchema());
  for (std::int64_t k = 0; k < 5; ++k) {
    dst.AppendRowUnchecked(LaneRow(1000 + k, false));
  }
  ASSERT_TRUE(dst.AppendRowsFrom(src, indices).ok());
  const std::vector<Value> cells = LaneCells(dst, 0);
  for (std::size_t k = 0; k < indices.size(); ++k) {
    EXPECT_EQ(cells[5 + k], src.Get(indices[k], 0)) << k;
  }
  EXPECT_TRUE(cells.back().is_null());

  // With an override on the key lane: to NULL, from NULL, and untouched.
  const Value null_value;
  const Value big(std::int64_t{-77});
  std::vector<const Value*> over(indices.size(), nullptr);
  over[0] = &null_value;  // row 0 (non-NULL) -> NULL
  over.back() = &big;     // row 3 (NULL) -> -77
  Relation overridden(TestSchema());
  ASSERT_TRUE(
      overridden.AppendRowsFrom(src, indices, ColumnOverride{0, over}).ok());
  Relation expected(TestSchema());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    Row row = src.row(indices[k]);
    if (over[k] != nullptr) row[0] = *over[k];
    expected.AppendRowUnchecked(std::move(row));
  }
  EXPECT_EQ(LaneCells(overridden, 0), LaneCells(expected, 0));
  EXPECT_EQ(LaneCells(overridden, 2), LaneCells(expected, 2));
  EXPECT_TRUE(overridden.Get(0, 0).is_null());
  EXPECT_EQ(overridden.Get(indices.size() - 1, 0).AsInt64(), -77);
}

TEST(ColumnStoreLaneTest, SetToAndFromNull) {
  Relation rel(TestSchema());
  for (std::int64_t k = 0; k < 3; ++k) {
    rel.AppendRowUnchecked(LaneRow(k, false));
  }
  ASSERT_TRUE(rel.Set(1, 0, Value()).ok());
  EXPECT_TRUE(rel.Get(1, 0).is_null());
  EXPECT_EQ(rel.store().Lane(0).null_words.size(), 1u);
  LaneCells(rel, 0);
  ASSERT_TRUE(rel.Set(1, 0, Value(std::int64_t{-5})).ok());
  EXPECT_EQ(rel.Get(1, 0).AsInt64(), -5);
  EXPECT_FALSE(rel.store().Lane(0).IsNull(1));
  // -0.0 keeps its sign bit through Set.
  ASSERT_TRUE(rel.Set(2, 2, Value(-0.0)).ok());
  EXPECT_EQ(rel.store().Lane(2).bits[2], std::bit_cast<std::uint64_t>(-0.0));
  // A wrong type is still a Status at the Relation layer.
  EXPECT_FALSE(rel.Set(0, 0, Value(1.5)).ok());
  EXPECT_EQ(rel.Get(0, 0).AsInt64(), 0);
}

TEST(ColumnStoreLaneTest, SwapRemoveMovesNullBits) {
  Relation rel(TestSchema());
  // Rows 0..129; NULL keys at 5 and 129 (the last row).
  for (std::int64_t k = 0; k < 130; ++k) {
    rel.AppendRowUnchecked(LaneRow(k, k == 5 || k == 129));
  }
  // Removing non-NULL row 10 pulls the NULL last row into its slot.
  rel.SwapRemoveRow(10);
  EXPECT_TRUE(rel.Get(10, 0).is_null());
  EXPECT_EQ(rel.NumRows(), 129u);
  LaneCells(rel, 0);
  // Removing the NULL row 5 pulls the (non-NULL) last row 128 in.
  rel.SwapRemoveRow(5);
  EXPECT_EQ(rel.Get(5, 0).AsInt64(), 128);
  LaneCells(rel, 0);
  // Removing the last row itself, down across a word boundary.
  while (rel.NumRows() > 60) {
    rel.SwapRemoveRow(rel.NumRows() - 1);
    LaneCells(rel, 0);
  }
  EXPECT_TRUE(rel.Get(10, 0).is_null());
  EXPECT_EQ(rel.store().Lane(0).null_words.size(), 1u);
}

TEST(ColumnStoreLaneTest, ClearRowsThenRefill) {
  Relation rel(TestSchema());
  for (std::int64_t k = 0; k < 100; ++k) {
    rel.AppendRowUnchecked(LaneRow(k, k % 3 == 0));
  }
  rel.ClearRows();
  EXPECT_EQ(rel.store().Lane(0).size(), 0u);
  EXPECT_TRUE(rel.store().Lane(0).null_words.empty());
  // Refilled without a NULL: no stale NULL bit resurfaces.
  for (std::int64_t k = 0; k < 100; ++k) {
    rel.AppendRowUnchecked(LaneRow(k, false));
  }
  for (const Value& v : LaneCells(rel, 0)) EXPECT_FALSE(v.is_null());
  EXPECT_TRUE(rel.store().Lane(0).null_words.empty());
  rel.AppendRowUnchecked(LaneRow(100, true));
  EXPECT_TRUE(rel.Get(100, 0).is_null());
  LaneCells(rel, 0);
}

TEST(ColumnStoreTest, ColumnReaderReadsBothLayouts) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value(), Value(2.0)});
  const ColumnReader key(rel.store(), 0);
  const ColumnReader cat(rel.store(), 1);
  EXPECT_FALSE(key.is_dict());
  EXPECT_TRUE(cat.is_dict());
  EXPECT_EQ(key[1].AsInt64(), 2);
  EXPECT_EQ(cat[0].AsString(), "red");
  EXPECT_TRUE(cat[1].is_null());
  // Key bytes serialize straight from the lane, identical to the Value's.
  std::vector<std::uint8_t> from_lane, from_value;
  EXPECT_EQ(key.SerializeKeyInto(1, from_lane),
            Value(std::int64_t{2}).SerializeKeyInto(from_value));
  EXPECT_EQ(cat.SerializeKeyInto(1, from_lane),
            Value().SerializeKeyInto(from_value));
}

TEST(ColumnStoreTest, MaterializedRowCopiesEveryColumn) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  const Row r = rel.row(0);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].AsInt64(), 1);
  EXPECT_EQ(r[1].AsString(), "red");
}

// The zero-copy index view must follow live mutations of the aliased code
// vector (the embed apply pass depends on it) while codes interned after
// Build resolve to kNoIndex.
TEST(ValueIndexViewTest, ViewFollowsSetCode) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("a"), Value(1.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value("b"), Value(2.0)});
  const CategoricalDomain domain =
      CategoricalDomain::FromValues({Value("a"), Value("b")}).value();
  const ValueIndexColumn view = ValueIndexColumn::Build(rel, 1, domain);
  EXPECT_EQ(view.index(0), 0);
  EXPECT_EQ(view.index(1), 1);
  rel.mutable_store().SetCode(0, 1, rel.store().CodeOf(1, Value("b")));
  EXPECT_EQ(view.index(0), 1);  // view reads the live codes
  // A value interned after Build is outside the remap table -> kNoIndex.
  const std::int32_t late = rel.mutable_store().InternValue(1, Value("a2"));
  rel.mutable_store().SetCode(1, 1, late);
  EXPECT_EQ(view.index(1), ValueIndexColumn::kNoIndex);
}

}  // namespace
}  // namespace catmark
