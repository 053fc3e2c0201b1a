#include <gtest/gtest.h>

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
    const std::size_t codes_before = dst.store().Codes(1).capacity();
    const std::size_t values_before = dst.store().PlainValues(0).capacity();
    ASSERT_TRUE(dst.AppendRowsFrom(src, indices).ok());
    code_growths += dst.store().Codes(1).capacity() != codes_before;
    value_growths += dst.store().PlainValues(0).capacity() != values_before;
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
  EXPECT_EQ(bulk.store().Codes(1), rows.store().Codes(1));
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
  EXPECT_TRUE(rel.store().PlainValues(0).empty());
  EXPECT_EQ(rel.store().Dict(1).size(), 2u);
  EXPECT_EQ(rel.store().DictLiveCounts(1), (std::vector<std::int64_t>{0, 0}));
  // A recurring value keeps its code; the recovered domain sees live rows
  // only.
  rel.AppendRowUnchecked({Value(std::int64_t{4}), Value("blue"), Value(4.0)});
  EXPECT_EQ(rel.store().Codes(1)[0], 1);
  EXPECT_EQ(rel.store().DictLiveCounts(1), (std::vector<std::int64_t>{0, 1}));
  EXPECT_EQ(CategoricalDomain::FromRelationColumn(rel, 1).value().size(), 1u);
}

TEST(ColumnStoreTest, PlainColumnsStoreValuesDirectly) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{9}), Value("a"), Value(2.5)});
  EXPECT_EQ(rel.store().PlainValues(0)[0].AsInt64(), 9);
  EXPECT_DOUBLE_EQ(rel.store().PlainValues(2)[0].AsDouble(), 2.5);
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
