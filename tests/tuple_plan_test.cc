// The plan build: for every PRF backend and thread count, both key-column
// paths (plain rows, and live dictionary entries fanned out by code) must
// list exactly the fit tuples a one-value-at-a-time reference loop finds,
// in row order, and the list must not depend on the worker count.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/codec.h"
#include "core/tuple_plan.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "test_util.h"

namespace catmark {
namespace {

constexpr PrfKind kBackends[] = {PrfKind::kKeyedHash, PrfKind::kHmacSha256,
                                 PrfKind::kSipHash24};
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

// (K INT64 plain key, C STRING categorical) with repeated categorical keys,
// NULL keys in both columns, and a dead dictionary entry — the shapes the
// two plan-build paths must agree on.
Relation MixedKeyRelation(std::size_t n) {
  Schema schema = Schema::Create({{"K", ColumnType::kInt64, false},
                                  {"C", ColumnType::kString, true},
                                  {"A", ColumnType::kString, true}},
                                 "")
                      .value();
  Relation rel(schema);
  for (std::size_t i = 0; i < n; ++i) {
    // ~47 distinct categorical keys; every 13th row has a NULL plain key,
    // every 17th a NULL categorical key.
    Value k = (i % 13 == 0) ? Value()
                            : Value(static_cast<std::int64_t>(i * 977));
    Value c = (i % 17 == 0) ? Value()
                            : Value("cat-" + std::to_string((i * 31) % 47));
    Value a = Value("v" + std::to_string(i % 5));
    rel.AppendRowUnchecked({std::move(k), std::move(c), std::move(a)});
  }
  // Interned but referenced by no row: the cache must skip it.
  rel.mutable_store().InternValue(1, Value("dead-entry"));
  return rel;
}

// The plan's shard lists, concatenated: every fit tuple in row order.
std::vector<FitTuple> FitList(const TuplePlan& plan) {
  std::vector<FitTuple> all;
  for (const std::vector<FitTuple>& shard : plan.shards) {
    all.insert(all.end(), shard.begin(), shard.end());
  }
  return all;
}

void ExpectFitListsEqual(const std::vector<FitTuple>& a,
                         const std::vector<FitTuple>& b,
                         const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row, b[i].row) << label << " entry " << i;
    EXPECT_EQ(a[i].h1, b[i].h1) << label << " entry " << i;
    EXPECT_EQ(a[i].payload_index, b[i].payload_index)
        << label << " entry " << i;
  }
}

void ExpectPlansEqual(const TuplePlan& a, const TuplePlan& b,
                      const std::string& label) {
  ExpectFitListsEqual(FitList(a), FitList(b), label);
  EXPECT_EQ(a.messages_hashed, b.messages_hashed) << label;
}

TuplePlanOptions PlanOptions(PrfKind prf, std::size_t threads) {
  TuplePlanOptions options;
  options.payload_len = 64;
  options.with_payload_index = true;
  options.num_threads = threads;
  options.prf = prf;
  return options;
}

// Thread-count invariance of both paths (the shard lists differ by
// construction; their concatenation must not).
TEST(TuplePlanTest, PlanIsThreadCountInvariant) {
  const Relation rel = MixedKeyRelation(3000);
  const WatermarkKeySet keys = testutil::TestKeys();
  WatermarkParams params;
  params.e = 5;
  for (const PrfKind prf : kBackends) {
    for (const std::size_t key_col : {std::size_t{0}, std::size_t{1}}) {
      const TuplePlan reference =
          BuildTuplePlan(rel, key_col, keys, params, PlanOptions(prf, 1));
      for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        const TuplePlan plan = BuildTuplePlan(rel, key_col, keys, params,
                                              PlanOptions(prf, threads));
        ExpectPlansEqual(plan, reference,
                         std::string(PrfKindName(prf)) + " col=" +
                             std::to_string(key_col) + " threads=" +
                             std::to_string(threads));
      }
    }
  }
}

// Both plan paths must match a one-value-at-a-time reference loop through
// the same PRF: column 0 is a plain int64 key with NULLs, column 1 a
// dictionary-encoded string key with NULLs and a dead entry.
TEST(TuplePlanTest, BatchPathMatchesSingleShotReference) {
  const Relation rel = MixedKeyRelation(1500);
  const WatermarkKeySet keys = testutil::TestKeys();
  WatermarkParams params;
  params.e = 3;
  for (const PrfKind prf_kind : kBackends) {
    const std::unique_ptr<KeyedPrf> prf_k1 =
        CreateKeyedPrf(prf_kind, keys.k1, params.hash_algo);
    const std::unique_ptr<KeyedPrf> prf_k2 =
        CreateKeyedPrf(prf_kind, keys.k2, params.hash_algo);
    for (const std::size_t key_col : {std::size_t{0}, std::size_t{1}}) {
      const std::string label = std::string(PrfKindName(prf_kind)) +
                                " col=" + std::to_string(key_col);
      const TuplePlan plan = BuildTuplePlan(rel, key_col, keys, params,
                                            PlanOptions(prf_kind, 2));
      HashScratch scratch;
      std::vector<FitTuple> want;
      std::size_t hashed = 0;
      for (std::size_t j = 0; j < rel.NumRows(); ++j) {
        const Value& key = rel.Get(j, key_col);
        if (key.is_null()) continue;
        ++hashed;
        const std::uint64_t h1 = HashValue(*prf_k1, key, scratch);
        if (h1 % params.e != 0) continue;
        want.push_back({j, h1,
                        static_cast<std::uint32_t>(PayloadIndexFromHash(
                            HashValue(*prf_k2, key, scratch), 64,
                            params.bit_index_mode))});
      }
      EXPECT_GT(want.size(), 0u) << label;
      ExpectFitListsEqual(FitList(plan), want, label);
      // The plain path hashes every non-NULL row; the dict path each live
      // distinct entry once (47 categories, the dead entry skipped).
      EXPECT_EQ(plan.messages_hashed, key_col == 0 ? hashed : 47u) << label;
    }
  }
}

// Different backends must select different tuple subsets (the channels are
// genuinely distinct primitives, not renamings of one another).
TEST(TuplePlanTest, BackendsSelectDifferentTuples) {
  const Relation rel = MixedKeyRelation(3000);
  const WatermarkKeySet keys = testutil::TestKeys();
  WatermarkParams params;
  params.e = 5;
  const TuplePlan kh = BuildTuplePlan(rel, 0, keys, params,
                                     PlanOptions(PrfKind::kKeyedHash, 1));
  const TuplePlan sip = BuildTuplePlan(rel, 0, keys, params,
                                      PlanOptions(PrfKind::kSipHash24, 1));
  std::vector<std::size_t> kh_rows;
  std::vector<std::size_t> sip_rows;
  for (const FitTuple& f : FitList(kh)) kh_rows.push_back(f.row);
  for (const FitTuple& f : FitList(sip)) sip_rows.push_back(f.row);
  EXPECT_NE(kh_rows, sip_rows);
}

// One list per ShardBounds row shard, each ascending and inside its
// shard's rows, on both paths — including thread counts whose shards are
// uneven and shards too small to hold a fit tuple.
TEST(TuplePlanTest, ShardListsFollowRowShards) {
  const Relation rel = MixedKeyRelation(2000);
  const WatermarkKeySet keys = testutil::TestKeys();
  WatermarkParams params;
  params.e = 4;
  for (const std::size_t key_col : {std::size_t{0}, std::size_t{1}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      const TuplePlan plan =
          BuildTuplePlan(rel, key_col, keys, params,
                         PlanOptions(PrfKind::kSipHash24, threads));
      ASSERT_EQ(plan.shards.size(), threads);
      const std::vector<std::size_t> bounds =
          ShardBounds(rel.NumRows(), threads);
      for (std::size_t s = 0; s < threads; ++s) {
        const std::vector<FitTuple>& list = plan.shards[s];
        for (std::size_t i = 0; i < list.size(); ++i) {
          EXPECT_GE(list[i].row, bounds[s]) << "col=" << key_col;
          EXPECT_LT(list[i].row, bounds[s + 1]) << "col=" << key_col;
          if (i > 0) {
            EXPECT_LT(list[i - 1].row, list[i].row);
          }
        }
      }
    }
  }
}

// The map path asks for no k2 positions: the fit set is the same, and every
// payload_index stays 0.
TEST(TuplePlanTest, NoPayloadIndexWithoutK2) {
  const Relation rel = MixedKeyRelation(1500);
  const WatermarkKeySet keys = testutil::TestKeys();
  WatermarkParams params;
  params.e = 3;
  for (const std::size_t key_col : {std::size_t{0}, std::size_t{1}}) {
    TuplePlanOptions options = PlanOptions(PrfKind::kSipHash24, 2);
    const std::vector<FitTuple> with_k2 =
        FitList(BuildTuplePlan(rel, key_col, keys, params, options));
    options.with_payload_index = false;
    const std::vector<FitTuple> without =
        FitList(BuildTuplePlan(rel, key_col, keys, params, options));
    ASSERT_EQ(without.size(), with_k2.size()) << "col=" << key_col;
    for (std::size_t i = 0; i < without.size(); ++i) {
      EXPECT_EQ(without[i].row, with_k2[i].row);
      EXPECT_EQ(without[i].h1, with_k2[i].h1);
      EXPECT_EQ(without[i].payload_index, 0u);
    }
  }
}

}  // namespace
}  // namespace catmark
