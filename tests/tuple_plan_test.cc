// The plan build: for every PRF backend and thread count, both key-column
// paths (plain rows, and live dictionary entries fanned out by code) must
// be bit-identical to a one-value-at-a-time reference loop, and results
// must not depend on the worker count.

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

bool IsFit(const TuplePlan& plan, std::size_t j) {
  return (plan.fit_words[j / 64] >> (j % 64)) & 1;
}

void ExpectPlansEqual(const TuplePlan& a, const TuplePlan& b,
                      const std::string& label) {
  EXPECT_EQ(a.fit_words, b.fit_words) << label;
  EXPECT_EQ(a.h1, b.h1) << label;
  EXPECT_EQ(a.payload_index, b.payload_index) << label;
  EXPECT_EQ(a.fit_count, b.fit_count) << label;
}

TuplePlanOptions PlanOptions(PrfKind prf, std::size_t threads) {
  TuplePlanOptions options;
  options.payload_len = 64;
  options.with_payload_index = true;
  options.num_threads = threads;
  options.prf = prf;
  return options;
}

// Thread-count invariance of both paths (shard_fit differs by construction;
// the per-row fields must not).
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
      std::size_t fit_count = 0;
      std::size_t hashed = 0;
      for (std::size_t j = 0; j < rel.NumRows(); ++j) {
        const Value& key = rel.Get(j, key_col);
        if (key.is_null()) {
          EXPECT_FALSE(IsFit(plan, j)) << label << " row " << j;
          continue;
        }
        ++hashed;
        const std::uint64_t h1 = HashValue(*prf_k1, key, scratch);
        if (h1 % params.e != 0) {
          EXPECT_FALSE(IsFit(plan, j)) << label << " row " << j;
          continue;
        }
        ++fit_count;
        ASSERT_TRUE(IsFit(plan, j)) << label << " row " << j;
        EXPECT_EQ(plan.h1[j], h1) << label << " row " << j;
        EXPECT_EQ(plan.payload_index[j],
                  PayloadIndexFromHash(HashValue(*prf_k2, key, scratch), 64,
                                       params.bit_index_mode))
            << label << " row " << j;
      }
      EXPECT_EQ(plan.fit_count, fit_count) << label;
      EXPECT_GT(fit_count, 0u) << label;
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
  EXPECT_NE(kh.fit_words, sip.fit_words);
}

// shard_fit must count the fit rows of each ShardBounds shard exactly, on
// both paths (the sharded map-mode embed depends on it), including thread
// counts whose row shards do not fall on 64-row word boundaries.
TEST(TuplePlanTest, ShardFitSumsToFitCount) {
  const Relation rel = MixedKeyRelation(2000);
  const WatermarkKeySet keys = testutil::TestKeys();
  WatermarkParams params;
  params.e = 4;
  for (const std::size_t key_col : {std::size_t{0}, std::size_t{1}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      const TuplePlan plan =
          BuildTuplePlan(rel, key_col, keys, params,
                         PlanOptions(PrfKind::kSipHash24, threads));
      ASSERT_EQ(plan.shard_fit.size(), threads);
      const std::vector<std::size_t> bounds =
          ShardBounds(rel.NumRows(), threads);
      std::size_t sum = 0;
      for (std::size_t s = 0; s < threads; ++s) {
        std::size_t fit = 0;
        for (std::size_t j = bounds[s]; j < bounds[s + 1]; ++j) {
          fit += IsFit(plan, j);
        }
        EXPECT_EQ(plan.shard_fit[s], fit)
            << "col=" << key_col << " shard " << s;
        sum += fit;
      }
      EXPECT_EQ(sum, plan.fit_count);
    }
  }
}

}  // namespace
}  // namespace catmark
