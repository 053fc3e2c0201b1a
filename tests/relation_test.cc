#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "random/rng.h"
#include "relation/domain.h"
#include "relation/histogram.h"
#include "relation/ops.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "relation/value.h"

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
  EXPECT_TRUE(rel.AppendRow({Value(std::int64_t{1}), Value("red"),
                             Value(1.5)}).ok());
  EXPECT_TRUE(rel.AppendRow({Value(std::int64_t{2}), Value("blue"),
                             Value(2.5)}).ok());
  EXPECT_TRUE(rel.AppendRow({Value(std::int64_t{3}), Value("red"),
                             Value(3.5)}).ok());
  return rel;
}

// ------------------------------------------------------------------- Value

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "");
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value(std::int64_t{42}).AsInt64(), 42);
  EXPECT_DOUBLE_EQ(Value(2.25).AsDouble(), 2.25);
  EXPECT_EQ(Value("abc").AsString(), "abc");
}

TEST(ValueTest, MatchesType) {
  EXPECT_TRUE(Value(std::int64_t{1}).MatchesType(ColumnType::kInt64));
  EXPECT_FALSE(Value(std::int64_t{1}).MatchesType(ColumnType::kString));
  EXPECT_TRUE(Value("s").MatchesType(ColumnType::kString));
  EXPECT_TRUE(Value(0.5).MatchesType(ColumnType::kDouble));
}

TEST(ValueTest, ParseInt64) {
  EXPECT_EQ(Value::Parse("123", ColumnType::kInt64).value().AsInt64(), 123);
  EXPECT_EQ(Value::Parse("-9", ColumnType::kInt64).value().AsInt64(), -9);
  EXPECT_FALSE(Value::Parse("12x", ColumnType::kInt64).ok());
  EXPECT_TRUE(Value::Parse("", ColumnType::kInt64).value().is_null());
}

TEST(ValueTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(Value::Parse("2.5", ColumnType::kDouble).value().AsDouble(),
                   2.5);
  EXPECT_FALSE(Value::Parse("abc", ColumnType::kDouble).ok());
}

TEST(ValueTest, ParseNumberBitsRejectsEmptyText) {
  // strtod would read "" as 0.0; empty text is NULL one level up.
  std::uint64_t bits = 0;
  EXPECT_FALSE(ParseNumberBits("", ColumnType::kInt64, bits));
  EXPECT_FALSE(ParseNumberBits("", ColumnType::kDouble, bits));
}

TEST(ValueTest, ParseNumberBitsReadsDoublesLikeStrtod) {
  // One conversion for Value::Parse and the CSV lanes: a cell longer than
  // the stack buffer still parses, and an embedded NUL fails.
  const std::string long_cell = std::string(100, '0') + "1.5";
  std::uint64_t bits = 0;
  ASSERT_TRUE(ParseNumberBits(long_cell, ColumnType::kDouble, bits));
  EXPECT_EQ(std::bit_cast<double>(bits), 1.5);
  EXPECT_EQ(Value::Parse(long_cell, ColumnType::kDouble).value(), Value(1.5));
  EXPECT_FALSE(ParseNumberBits(std::string_view("1.5\0", 4),
                               ColumnType::kDouble, bits));
  EXPECT_EQ(Value::Parse("2.5x", ColumnType::kDouble).status().message(),
            "cannot parse DOUBLE from '2.5x'");
}

TEST(ValueTest, ParseString) {
  EXPECT_EQ(Value::Parse("hello", ColumnType::kString).value().AsString(),
            "hello");
}

TEST(ValueTest, ToStringRoundTripsThroughParse) {
  const Value v(std::int64_t{-77});
  EXPECT_EQ(Value::Parse(v.ToString(), ColumnType::kInt64).value(), v);
  const Value d(123.456);
  EXPECT_EQ(Value::Parse(d.ToString(), ColumnType::kDouble).value(), d);
}

TEST(ValueTest, CompareWithinTypes) {
  EXPECT_LT(Value(std::int64_t{1}), Value(std::int64_t{2}));
  EXPECT_LT(Value("abc"), Value("abd"));  // byte-wise / ASCII, per Section 2.1
  EXPECT_LT(Value("Z"), Value("a"));      // 'Z' (0x5A) < 'a' (0x61)
  EXPECT_LT(Value(1.0), Value(1.5));
  EXPECT_EQ(Value("x"), Value("x"));
}

TEST(ValueTest, CompareAcrossTypesIsStable) {
  EXPECT_LT(Value(), Value(std::int64_t{0}));
  EXPECT_LT(Value(std::int64_t{99}), Value(0.0));
  EXPECT_LT(Value(99.0), Value(""));
}

TEST(ValueTest, SerializeForHashDistinguishesTypes) {
  std::vector<std::uint8_t> a, b;
  Value(std::int64_t{7}).SerializeForHash(a);
  Value("7").SerializeForHash(b);
  EXPECT_NE(a, b);
}

TEST(ValueTest, SerializeForHashIsStable) {
  std::vector<std::uint8_t> a, b;
  Value("watermark").SerializeForHash(a);
  Value("watermark").SerializeForHash(b);
  EXPECT_EQ(a, b);
}

// ------------------------------------------------------------------ Schema

TEST(SchemaTest, CreateWithPrimaryKey) {
  const Schema s = TestSchema();
  EXPECT_EQ(s.num_columns(), 3u);
  EXPECT_EQ(s.primary_key_index(), 0);
  EXPECT_TRUE(s.has_primary_key());
  EXPECT_EQ(s.ColumnIndex("A"), 1);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
}

TEST(SchemaTest, CreateWithoutPrimaryKey) {
  const Schema s =
      Schema::Create({{"A", ColumnType::kString, true}}, "").value();
  EXPECT_FALSE(s.has_primary_key());
}

TEST(SchemaTest, RejectsEmpty) { EXPECT_FALSE(Schema::Create({}, "").ok()); }

TEST(SchemaTest, RejectsDuplicateNames) {
  EXPECT_FALSE(Schema::Create({{"A", ColumnType::kString, false},
                               {"A", ColumnType::kInt64, false}},
                              "")
                   .ok());
}

TEST(SchemaTest, RejectsUnknownPrimaryKey) {
  EXPECT_FALSE(
      Schema::Create({{"A", ColumnType::kString, false}}, "K").ok());
}

TEST(SchemaTest, RejectsEmptyColumnName) {
  EXPECT_FALSE(Schema::Create({{"", ColumnType::kString, false}}, "").ok());
}

TEST(SchemaTest, CategoricalColumns) {
  const auto cats = TestSchema().CategoricalColumns();
  ASSERT_EQ(cats.size(), 1u);
  EXPECT_EQ(cats[0], 1u);
}

TEST(SchemaTest, ColumnIndexOrError) {
  const Schema s = TestSchema();
  EXPECT_EQ(s.ColumnIndexOrError("X").value(), 2u);
  EXPECT_FALSE(s.ColumnIndexOrError("nope").ok());
}

TEST(SchemaTest, ToStringMentionsEverything) {
  const std::string str = TestSchema().ToString();
  EXPECT_NE(str.find("PRIMARY KEY"), std::string::npos);
  EXPECT_NE(str.find("CATEGORICAL"), std::string::npos);
  EXPECT_NE(str.find("INT64"), std::string::npos);
}

TEST(SchemaTest, Equality) {
  EXPECT_TRUE(TestSchema() == TestSchema());
  const Schema other =
      Schema::Create({{"K", ColumnType::kInt64, false}}, "K").value();
  EXPECT_FALSE(TestSchema() == other);
}

// ---------------------------------------------------------------- Relation

TEST(RelationTest, AppendValidatesArity) {
  Relation rel(TestSchema());
  EXPECT_FALSE(rel.AppendRow({Value(std::int64_t{1})}).ok());
}

TEST(RelationTest, AppendValidatesTypes) {
  Relation rel(TestSchema());
  EXPECT_FALSE(
      rel.AppendRow({Value("not-int"), Value("a"), Value(0.0)}).ok());
}

TEST(RelationTest, AppendAllowsNulls) {
  Relation rel(TestSchema());
  EXPECT_TRUE(rel.AppendRow({Value(), Value(), Value()}).ok());
}

TEST(RelationTest, GetSet) {
  Relation rel = TestRelation();
  EXPECT_EQ(rel.Get(1, 1).AsString(), "blue");
  EXPECT_TRUE(rel.Set(1, 1, Value("green")).ok());
  EXPECT_EQ(rel.Get(1, 1).AsString(), "green");
}

TEST(RelationTest, SetValidates) {
  Relation rel = TestRelation();
  EXPECT_FALSE(rel.Set(99, 0, Value(std::int64_t{1})).ok());
  EXPECT_FALSE(rel.Set(0, 99, Value(std::int64_t{1})).ok());
  EXPECT_FALSE(rel.Set(0, 0, Value("wrong-type")).ok());
}

TEST(RelationTest, SwapRemoveRow) {
  Relation rel = TestRelation();
  rel.SwapRemoveRow(0);
  EXPECT_EQ(rel.NumRows(), 2u);
  // The last row moved into slot 0.
  EXPECT_EQ(rel.Get(0, 0).AsInt64(), 3);
}

TEST(RelationTest, SameContentIgnoresOrder) {
  const Relation rel = TestRelation();
  Xoshiro256ss rng(1);
  const Relation shuffled = ShuffleRows(rel, rng);
  EXPECT_TRUE(rel.SameContent(shuffled));
}

TEST(RelationTest, SameContentDetectsDifferences) {
  const Relation rel = TestRelation();
  Relation other = rel;
  ASSERT_TRUE(other.Set(0, 1, Value("violet")).ok());
  EXPECT_FALSE(rel.SameContent(other));
}

TEST(RelationTest, SameContentIsMultisetAware) {
  // Two copies of row X vs one copy of X and one of Y must differ.
  Relation a(TestSchema()), b(TestSchema());
  const Row x = {Value(std::int64_t{1}), Value("r"), Value(0.0)};
  const Row y = {Value(std::int64_t{2}), Value("r"), Value(0.0)};
  a.AppendRowUnchecked(x);
  a.AppendRowUnchecked(x);
  b.AppendRowUnchecked(x);
  b.AppendRowUnchecked(y);
  EXPECT_FALSE(a.SameContent(b));
}

TEST(RelationTest, SameContentIgnoresDictionaryCodeAssignment) {
  // Equal content inserted in different orders assigns different dictionary
  // codes to the categorical column; the comparison must not see them.
  Relation a(TestSchema()), b(TestSchema());
  a.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(0.0)});
  a.AppendRowUnchecked({Value(std::int64_t{2}), Value("blue"), Value(0.0)});
  b.AppendRowUnchecked({Value(std::int64_t{2}), Value("blue"), Value(0.0)});
  b.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(0.0)});
  ASSERT_NE(a.store().CodeOf(1, Value("red")),
            b.store().CodeOf(1, Value("red")));
  EXPECT_TRUE(a.SameContent(b));
  EXPECT_TRUE(b.SameContent(a));
}

TEST(RelationTest, SameContentIgnoresDeadDictionaryEntries) {
  // One relation carries a dead dictionary entry ("green" was overwritten):
  // content is equal, dictionaries are not.
  Relation a(TestSchema()), b(TestSchema());
  a.AppendRowUnchecked({Value(std::int64_t{1}), Value("green"), Value(0.0)});
  ASSERT_TRUE(a.Set(0, 1, Value("red")).ok());
  b.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(0.0)});
  EXPECT_TRUE(a.SameContent(b));
}

TEST(RelationTest, SameContentMultisetWithSharedDictionary) {
  // Same dictionary contents, different multiplicities per code.
  Relation a(TestSchema()), b(TestSchema());
  a.AppendRowUnchecked({Value(std::int64_t{1}), Value("r"), Value(0.0)});
  a.AppendRowUnchecked({Value(std::int64_t{1}), Value("r"), Value(0.0)});
  a.AppendRowUnchecked({Value(std::int64_t{1}), Value("s"), Value(0.0)});
  b.AppendRowUnchecked({Value(std::int64_t{1}), Value("r"), Value(0.0)});
  b.AppendRowUnchecked({Value(std::int64_t{1}), Value("s"), Value(0.0)});
  b.AppendRowUnchecked({Value(std::int64_t{1}), Value("s"), Value(0.0)});
  EXPECT_FALSE(a.SameContent(b));
}

TEST(RelationTest, SameContentDistinguishesNullFromEmptyString) {
  Relation a(TestSchema()), b(TestSchema());
  a.AppendRowUnchecked({Value(std::int64_t{1}), Value(), Value(0.0)});
  b.AppendRowUnchecked({Value(std::int64_t{1}), Value(""), Value(0.0)});
  EXPECT_FALSE(a.SameContent(b));
}

TEST(RelationTest, SwapRemoveRowPreservesRemainingMultiset) {
  Relation rel(TestSchema());
  for (int i = 0; i < 6; ++i) {
    rel.AppendRowUnchecked({Value(static_cast<std::int64_t>(i)),
                            Value(i % 2 == 0 ? "even" : "odd"), Value(0.0)});
  }
  rel.SwapRemoveRow(2);  // removes (2, "even")
  rel.SwapRemoveRow(0);  // removes (0, "even")
  ASSERT_EQ(rel.NumRows(), 4u);

  Relation expected(TestSchema());
  for (const std::int64_t k : {1, 3, 4, 5}) {
    expected.AppendRowUnchecked(
        {Value(k), Value(k % 2 == 0 ? "even" : "odd"), Value(0.0)});
  }
  EXPECT_TRUE(rel.SameContent(expected));
  // And the categorical column's recovered domain followed the removals.
  const CategoricalDomain d =
      CategoricalDomain::FromRelationColumn(rel, 1).value();
  EXPECT_EQ(d.size(), 2u);
}

TEST(RelationTest, SwapRemoveLastHolderShrinksRecoveredDomain) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("only"), Value(0.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value("kept"), Value(0.0)});
  rel.SwapRemoveRow(0);
  const CategoricalDomain d =
      CategoricalDomain::FromRelationColumn(rel, 1).value();
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.value(0).AsString(), "kept");
}

// ------------------------------------------------------------------ Domain

TEST(DomainTest, FromValuesSortsAndIndexes) {
  const CategoricalDomain d =
      CategoricalDomain::FromValues({Value("b"), Value("a"), Value("c")})
          .value();
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.value(0).AsString(), "a");
  EXPECT_EQ(d.IndexOf(Value("c")).value(), 2u);
  EXPECT_FALSE(d.IndexOf(Value("zzz")).has_value());
  EXPECT_TRUE(d.Contains(Value("b")));
}

TEST(DomainTest, RejectsDuplicates) {
  EXPECT_FALSE(
      CategoricalDomain::FromValues({Value("a"), Value("a")}).ok());
}

TEST(DomainTest, RejectsEmptyAndNull) {
  EXPECT_FALSE(CategoricalDomain::FromValues({}).ok());
  EXPECT_FALSE(CategoricalDomain::FromValues({Value()}).ok());
}

TEST(DomainTest, FromRelationColumnDedups) {
  const Relation rel = TestRelation();
  const CategoricalDomain d =
      CategoricalDomain::FromRelationColumn(rel, 1).value();
  EXPECT_EQ(d.size(), 2u);  // red, blue
  EXPECT_EQ(d.value(0).AsString(), "blue");
  EXPECT_EQ(d.value(1).AsString(), "red");
}

TEST(DomainTest, FromRelationColumnSkipsNulls) {
  Relation rel(TestSchema());
  ASSERT_TRUE(
      rel.AppendRow({Value(std::int64_t{1}), Value(), Value(0.0)}).ok());
  ASSERT_TRUE(
      rel.AppendRow({Value(std::int64_t{2}), Value("x"), Value(0.0)}).ok());
  const CategoricalDomain d =
      CategoricalDomain::FromRelationColumn(rel, 1).value();
  EXPECT_EQ(d.size(), 1u);
}

TEST(DomainTest, FromRelationColumnChecksBounds) {
  EXPECT_FALSE(CategoricalDomain::FromRelationColumn(TestRelation(), 9).ok());
}

TEST(DomainTest, IntegerDomainSortsNumerically) {
  const CategoricalDomain d =
      CategoricalDomain::FromValues({Value(std::int64_t{10}),
                                     Value(std::int64_t{2}),
                                     Value(std::int64_t{30})})
          .value();
  EXPECT_EQ(d.value(0).AsInt64(), 2);
  EXPECT_EQ(d.value(2).AsInt64(), 30);
}

// --------------------------------------------------------------- Histogram

TEST(HistogramTest, CountsAndFrequencies) {
  const Relation rel = TestRelation();
  const CategoricalDomain d =
      CategoricalDomain::FromRelationColumn(rel, 1).value();
  const FrequencyHistogram h =
      FrequencyHistogram::Compute(rel, 1, d).value();
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.count(d.IndexOf(Value("red")).value()), 2u);
  EXPECT_NEAR(h.frequency(d.IndexOf(Value("red")).value()), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(h.out_of_domain(), 0u);
}

TEST(HistogramTest, OutOfDomainTally) {
  const Relation rel = TestRelation();
  const CategoricalDomain d =
      CategoricalDomain::FromValues({Value("red")}).value();
  const FrequencyHistogram h =
      FrequencyHistogram::Compute(rel, 1, d).value();
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.out_of_domain(), 1u);  // "blue"
}

TEST(HistogramTest, Distances) {
  const Relation rel = TestRelation();
  const CategoricalDomain d =
      CategoricalDomain::FromRelationColumn(rel, 1).value();
  const FrequencyHistogram a = FrequencyHistogram::Compute(rel, 1, d).value();
  Relation mod = rel;
  ASSERT_TRUE(mod.Set(0, 1, Value("blue")).ok());
  const FrequencyHistogram b = FrequencyHistogram::Compute(mod, 1, d).value();
  EXPECT_NEAR(a.L1Distance(b), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(a.LInfDistance(b), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(a.L1Distance(a), 0.0, 1e-12);
}

TEST(HistogramTest, FrequenciesVector) {
  const Relation rel = TestRelation();
  const CategoricalDomain d =
      CategoricalDomain::FromRelationColumn(rel, 1).value();
  const FrequencyHistogram h = FrequencyHistogram::Compute(rel, 1, d).value();
  const std::vector<double> f = h.Frequencies();
  ASSERT_EQ(f.size(), 2u);
  EXPECT_NEAR(f[0] + f[1], 1.0, 1e-12);
}

// --------------------------------------------------------------------- ops

TEST(OpsTest, ProjectKeepsColumnsAndPk) {
  const Relation rel = TestRelation();
  const Relation p = Project(rel, {"K", "A"}).value();
  EXPECT_EQ(p.schema().num_columns(), 2u);
  EXPECT_TRUE(p.schema().has_primary_key());
  EXPECT_EQ(p.NumRows(), 3u);
  EXPECT_EQ(p.Get(0, 1).AsString(), "red");
}

TEST(OpsTest, ProjectDropsPkWhenExcluded) {
  const Relation p = Project(TestRelation(), {"A"}).value();
  EXPECT_FALSE(p.schema().has_primary_key());
}

TEST(OpsTest, ProjectReorders) {
  const Relation p = Project(TestRelation(), {"A", "K"}).value();
  EXPECT_EQ(p.schema().column(0).name, "A");
  EXPECT_EQ(p.Get(0, 1).AsInt64(), 1);
}

TEST(OpsTest, ProjectUnknownColumnFails) {
  EXPECT_FALSE(Project(TestRelation(), {"nope"}).ok());
  EXPECT_FALSE(Project(TestRelation(), {}).ok());
}

TEST(OpsTest, SampleRowsFraction) {
  Relation rel(TestSchema());
  for (int i = 0; i < 100; ++i) {
    rel.AppendRowUnchecked(
        {Value(static_cast<std::int64_t>(i)), Value("v"), Value(0.0)});
  }
  Xoshiro256ss rng(2);
  const Relation s = SampleRows(rel, 0.25, rng).value();
  EXPECT_EQ(s.NumRows(), 25u);
  EXPECT_FALSE(SampleRows(rel, 1.5, rng).ok());
}

TEST(OpsTest, SampleAllAndNone) {
  const Relation rel = TestRelation();
  Xoshiro256ss rng(3);
  EXPECT_EQ(SampleRows(rel, 1.0, rng).value().NumRows(), 3u);
  EXPECT_EQ(SampleRows(rel, 0.0, rng).value().NumRows(), 0u);
}

TEST(OpsTest, SortByColumn) {
  const Relation rel = TestRelation();
  const Relation sorted = SortByColumn(rel, 1).value();
  EXPECT_EQ(sorted.Get(0, 1).AsString(), "blue");
  EXPECT_EQ(sorted.Get(2, 1).AsString(), "red");
  EXPECT_FALSE(SortByColumn(rel, 9).ok());
}

TEST(OpsTest, AppendAllMatchingSchemas) {
  Relation a = TestRelation();
  const Relation b = TestRelation();
  EXPECT_TRUE(AppendAll(a, b).ok());
  EXPECT_EQ(a.NumRows(), 6u);
}

TEST(OpsTest, AppendAllRejectsSchemaMismatch) {
  Relation a = TestRelation();
  Relation other(Schema::Create({{"Z", ColumnType::kInt64, false}}, "").value());
  EXPECT_FALSE(AppendAll(a, other).ok());
}

TEST(OpsTest, ShuffleRowsKeepsContent) {
  Relation rel(TestSchema());
  for (int i = 0; i < 50; ++i) {
    rel.AppendRowUnchecked(
        {Value(static_cast<std::int64_t>(i)), Value("v"), Value(0.0)});
  }
  Xoshiro256ss rng(4);
  const Relation shuffled = ShuffleRows(rel, rng);
  EXPECT_TRUE(rel.SameContent(shuffled));
  // And it genuinely changed the order somewhere.
  bool moved = false;
  for (std::size_t i = 0; i < 50; ++i) {
    if (!(shuffled.Get(i, 0) == rel.Get(i, 0))) moved = true;
  }
  EXPECT_TRUE(moved);
}

}  // namespace
}  // namespace catmark
