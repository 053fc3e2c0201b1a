// Differential test of embedding against the paper-literal Figure 1 oracle
// (reference_scheme.h): Embedder::Embed must leave the same relation,
// report counters, domain, serialized embedding map and ledger as
// reference::ReferenceEmbed, over k2 and map positions, the category-drain
// guard, a pre-marked ledger, every key-column shape, thread counts and
// SIMD dispatch levels, plus random schemas and parameters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/embedder.h"
#include "crypto/siphash_simd.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "reference_scheme.h"
#include "test_util.h"

namespace catmark {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

// ForceSimdLevel clamps to the hardware, so a host without AVX-512 runs
// the first entry as AVX2 twice.
constexpr SimdLevel kSimdLevels[] = {SimdLevel::kAvx512, SimdLevel::kAvx2,
                                     SimdLevel::kScalar};

struct RandomSource {
  std::mt19937_64 rng;
  std::size_t Below(std::size_t n) { return rng() % n; }
  bool Chance(double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
  }
  template <typename T, std::size_t N>
  T Pick(const T (&options)[N]) {
    return options[Below(N)];
  }
};

/// Runs Embed on a copy of `base` (with a copy of `ledger`, when given) at
/// each thread count and the oracle on another copy, and compares them
/// field by field. Returns whether the oracle embedded (rather than failed).
bool CheckAgainstReference(const Relation& base, const WatermarkKeySet& keys,
                           const WatermarkParams& params,
                           const EmbedOptions& options, const BitVector& wm,
                           const EmbeddingLedger* ledger,
                           const std::string& where) {
  Relation want_rel = base;
  std::optional<EmbeddingLedger> want_ledger;
  if (ledger != nullptr) want_ledger = *ledger;
  const Result<reference::ReferenceEmbedding> want = reference::ReferenceEmbed(
      want_rel, reference::EmbedInputsOf(keys, params, options), wm,
      want_ledger.has_value() ? &*want_ledger : nullptr);
  for (const std::size_t threads : kThreadCounts) {
    WatermarkParams p = params;
    p.num_threads = threads;
    Relation got_rel = base;
    std::optional<EmbeddingLedger> got_ledger;
    if (ledger != nullptr) got_ledger = *ledger;
    const Result<EmbedReport> got = Embedder(keys, p).Embed(
        got_rel, options, wm, nullptr,
        got_ledger.has_value() ? &*got_ledger : nullptr);
    reference::ExpectEmbedMatchesReference(
        got, got_rel, got_ledger.has_value() ? &*got_ledger : nullptr, want,
        want_rel, want_ledger.has_value() ? &*want_ledger : nullptr,
        where + " threads " + std::to_string(threads));
  }
  return want.ok();
}

// ------------------------------------------------------------------- grid

enum class KeyShape { kInt64, kDict, kString, kNullHeavy };

const char* ShapeName(KeyShape shape) {
  switch (shape) {
    case KeyShape::kInt64:
      return "int64";
    case KeyShape::kDict:
      return "dict";
    case KeyShape::kString:
      return "string";
    case KeyShape::kNullHeavy:
      return "null-heavy";
  }
  return "?";
}

/// (K, A) with K of the given shape and A a STRING category: 80 rare
/// categories of one or three rows, so the drain guard has something to
/// veto at min_category_keep 1 and 3, then 40 whose popularity falls
/// steeply with the index.
Relation GridRelation(KeyShape shape, std::size_t n, std::uint64_t seed) {
  const bool string_key = shape == KeyShape::kDict || shape == KeyShape::kString;
  Relation rel(Schema::Create(
                   {{"K", string_key ? ColumnType::kString : ColumnType::kInt64,
                     shape == KeyShape::kDict},
                    {"A", ColumnType::kString, true}})
                   .value());
  RandomSource r{std::mt19937_64(seed)};
  for (std::size_t i = 0; i < n; ++i) {
    Value key;
    switch (shape) {
      case KeyShape::kInt64:
        key = Value(static_cast<std::int64_t>(i) * 7919 + 3);
        break;
      case KeyShape::kDict:  // repeat-heavy: ~n/4 distinct keys
        key = Value("dk-" + std::to_string(r.Below(n / 4)));
        break;
      case KeyShape::kString:
        key = Value("user-" + std::to_string(r.rng() % 900000));
        break;
      case KeyShape::kNullHeavy:
        if (i % 3 != 0) key = Value(static_cast<std::int64_t>(i) * 7919 + 3);
        break;
    }
    std::string a;
    if (i < 150) {
      a = "r" + std::to_string(i / 3);  // 50 categories of 3 rows
    } else if (i < 180) {
      a = "s" + std::to_string(i);  // 30 categories of 1 row
    } else {
      const double u =
          std::uniform_real_distribution<double>(0.0, 1.0)(r.rng);
      a = "v" + std::to_string(static_cast<int>(40.0 * std::pow(u, 3.0)));
    }
    rel.AppendRowUnchecked({std::move(key), Value(std::move(a))});
  }
  return rel;
}

constexpr std::size_t kGridRows = 1600;

// k2 and map positions x drain guard {off, 1, 3} x ledger {off, every 5th
// cell pre-marked} x key shape, each at threads {1, 2, 8}, against one
// oracle run per configuration. The SIMD level reaches only the plan build,
// which does not depend on the guard or the ledger, so every level runs on
// one guard/ledger setting per shape and mode and the rest run at the
// ambient level.
TEST(ReferenceEmbedTest, GridMatchesFigure1) {
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(91);
  const BitVector wm = MakeWatermark(8, 91);
  for (const KeyShape shape : {KeyShape::kInt64, KeyShape::kDict,
                               KeyShape::kString, KeyShape::kNullHeavy}) {
    const Relation base = GridRelation(shape, kGridRows, 17);
    EmbeddingLedger premarked;
    for (std::size_t j = 0; j < base.NumRows(); j += 5) premarked.Mark(j, 1);
    for (const bool map_mode : {false, true}) {
      for (const long keep : {0L, 1L, 3L}) {
        for (const bool with_ledger : {false, true}) {
          WatermarkParams params;
          params.e = 7;
          params.prf = PrfKind::kSipHash24;  // the backend with SIMD kernels
          params.min_category_keep = keep;
          EmbedOptions options;
          options.key_attr = "K";
          options.target_attr = "A";
          options.build_embedding_map = map_mode;
          const std::string where =
              std::string(ShapeName(shape)) + " map=" +
              std::to_string(map_mode) + " keep=" + std::to_string(keep) +
              " ledger=" + std::to_string(with_ledger);
          std::vector<std::optional<SimdLevel>> levels = {std::nullopt};
          if (keep == 1 && with_ledger) {
            levels.assign(std::begin(kSimdLevels), std::end(kSimdLevels));
          }
          for (const std::optional<SimdLevel> level : levels) {
            ForceSimdLevel(level);
            CheckAgainstReference(
                base, keys, params, options, wm,
                with_ledger ? &premarked : nullptr,
                where + " simd=" +
                    std::string(level.has_value() ? SimdLevelName(*level)
                                                  : "ambient"));
          }
          ForceSimdLevel(std::nullopt);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// The guard must actually veto in the grid above, or keep ∈ {1, 3} would
// test nothing.
TEST(ReferenceEmbedTest, GridGuardVetoes) {
  Relation rel = GridRelation(KeyShape::kInt64, kGridRows, 17);
  WatermarkParams params;
  params.e = 7;
  params.prf = PrfKind::kSipHash24;
  params.min_category_keep = 3;
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const Result<reference::ReferenceEmbedding> want = reference::ReferenceEmbed(
      rel, reference::EmbedInputsOf(WatermarkKeySet::FromSeed(91), params,
                                    options),
      MakeWatermark(8, 91));
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_GT(want.value().skipped_by_domain_guard, 0u);
  EXPECT_GT(want.value().altered_tuples, 0u);
  params.min_category_keep = 1;
  Relation again = GridRelation(KeyShape::kInt64, kGridRows, 17);
  const Result<reference::ReferenceEmbedding> keep1 = reference::ReferenceEmbed(
      again, reference::EmbedInputsOf(WatermarkKeySet::FromSeed(91), params,
                                      options),
      MakeWatermark(8, 91));
  ASSERT_TRUE(keep1.ok()) << keep1.status().ToString();
  EXPECT_GT(keep1.value().skipped_by_domain_guard, 0u);
  EXPECT_LT(keep1.value().skipped_by_domain_guard,
            want.value().skipped_by_domain_guard);
}

// ------------------------------------------------------------ edge cases

Relation StandardRelation(std::size_t n, std::uint64_t seed,
                          std::size_t domain = 100, double zipf = 1.0) {
  KeyedCategoricalConfig config;
  config.num_tuples = n;
  config.domain_size = domain;
  config.zipf_s = zipf;
  config.seed = seed;
  return GenerateKeyedCategorical(config);
}

EmbedOptions MapOptions(bool map = true) {
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.build_embedding_map = map;
  return options;
}

// Every tuple fit (e = 1), guard off, map positions.
WatermarkParams AllFitParams() {
  WatermarkParams params;
  params.e = 1;
  params.min_category_keep = 0;
  params.prf = PrfKind::kKeyedHash;
  return params;
}

TEST(ReferenceEmbedTest, FiveRowsAtEightThreads) {
  // n = 5: EffectiveThreadCount caps the plan at one row per shard.
  CheckAgainstReference(StandardRelation(5, 51), WatermarkKeySet::FromSeed(7),
                        AllFitParams(), MapOptions(), MakeWatermark(4, 51),
                        nullptr, "n=5");
}

TEST(ReferenceEmbedTest, EveryCellAlreadyInTheLedger) {
  // Every fit tuple is a ledger skip: nothing is written and the map stays
  // empty.
  const Relation base = StandardRelation(400, 52);
  EmbeddingLedger ledger;
  for (std::size_t j = 0; j < base.NumRows(); ++j) ledger.Mark(j, 1);
  CheckAgainstReference(base, WatermarkKeySet::FromSeed(7), AllFitParams(),
                        MapOptions(), MakeWatermark(4, 52), &ledger,
                        "all-skip");
  Relation rel = base;
  WatermarkParams params = AllFitParams();
  params.num_threads = 8;
  const EmbedReport report = Embedder(WatermarkKeySet::FromSeed(7), params)
                                 .Embed(rel, MapOptions(), MakeWatermark(4, 52),
                                        nullptr, &ledger)
                                 .value();
  EXPECT_EQ(report.embedding_map.size(), 0u);
  EXPECT_EQ(report.skipped_by_ledger, report.fit_tuples);
  EXPECT_EQ(report.altered_tuples, 0u);
  EXPECT_TRUE(rel.SameContent(base));
}

TEST(ReferenceEmbedTest, SparseFitTuples) {
  // e = 50 over 200 rows: a handful of fit tuples, most row shards empty.
  WatermarkParams params = AllFitParams();
  params.e = 50;
  CheckAgainstReference(StandardRelation(200, 53), WatermarkKeySet::FromSeed(7),
                        params, MapOptions(), MakeWatermark(4, 53), nullptr,
                        "e=50");
}

TEST(ReferenceEmbedTest, MapIndexWrapsAShortPayload) {
  // payload_length = 3 against 64 commits: the running map index wraps the
  // payload many times.
  WatermarkParams params = AllFitParams();
  params.payload_length = 3;
  CheckAgainstReference(StandardRelation(64, 54), WatermarkKeySet::FromSeed(7),
                        params, MapOptions(), MakeWatermark(3, 54), nullptr,
                        "payload=3");
}

TEST(ReferenceEmbedTest, DrainGuardOnASkewedSmallDomain) {
  // k2 positions with a guard that vetoes often: 6 skewed categories, half
  // the tuples fit, min_category_keep = 40.
  WatermarkParams params;
  params.e = 2;
  params.min_category_keep = 40;
  params.prf = PrfKind::kKeyedHash;
  CheckAgainstReference(StandardRelation(2000, 55, 6, 1.3),
                        WatermarkKeySet::FromSeed(7), params,
                        MapOptions(/*map=*/false), MakeWatermark(6, 55),
                        nullptr, "guard");
}

// ------------------------------------------------------- random schemas

enum class KeyKind { kPlainInt, kPlainString, kPlainDouble, kDictString,
                     kDictInt };

Value KeyValue(KeyKind kind, std::size_t id) {
  switch (kind) {
    case KeyKind::kPlainInt:
    case KeyKind::kDictInt:
      return Value(static_cast<std::int64_t>(id) * 7919 - 40000);
    case KeyKind::kPlainDouble:
      return Value(static_cast<double>(id) * 0.5 - 3.25);
    case KeyKind::kPlainString:
    case KeyKind::kDictString:
      return Value("key-" + std::to_string(id));
  }
  return Value();
}

Value TargetValue(bool int_target, std::size_t index) {
  return int_target ? Value(static_cast<std::int64_t>(index) * 3 - 7)
                    : Value("val-" + std::to_string(index));
}

// Random schemas (key kind, INT64 or STRING target, filler column, column
// order), NULL densities, e, PRF, hash, ECC, bit-index mode, payload
// length, guard, map mode, ledger and declared domains — including ones
// missing a present value, carrying a stranger, or of the wrong type.
TEST(ReferenceEmbedTest, RandomTrialsMatchFigure1) {
  constexpr std::size_t kTrials = 200;
  std::size_t embedded = 0;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    RandomSource r{std::mt19937_64(0xe1b0000 + trial)};
    const KeyKind key_kind =
        r.Pick({KeyKind::kPlainInt, KeyKind::kPlainString,
                KeyKind::kPlainDouble, KeyKind::kDictString,
                KeyKind::kDictInt});
    const bool key_dict =
        key_kind == KeyKind::kDictString || key_kind == KeyKind::kDictInt;
    const ColumnType key_type =
        key_kind == KeyKind::kPlainDouble
            ? ColumnType::kDouble
            : (key_kind == KeyKind::kPlainString ||
                       key_kind == KeyKind::kDictString
                   ? ColumnType::kString
                   : ColumnType::kInt64);
    const bool int_target = r.Chance(0.4);
    std::vector<Column> columns = {
        {"K", key_type, key_dict},
        {"A", int_target ? ColumnType::kInt64 : ColumnType::kString, true}};
    if (r.Chance(0.5)) columns.push_back({"X", ColumnType::kInt64, false});
    std::shuffle(columns.begin(), columns.end(), r.rng);
    Relation rel(Schema::Create(columns).value());

    const std::size_t domain_size = 2 + r.Below(30);
    const std::size_t n = r.Chance(0.1) ? 1 + r.Below(4) : 1 + r.Below(700);
    const std::size_t pool = r.Chance(0.5) ? n : 1 + r.Below(n / 3 + 1);
    const double key_nulls = r.Pick({0.0, 0.0, 0.1, 0.5});
    const double target_nulls = r.Pick({0.0, 0.0, 0.1, 0.5});
    for (std::size_t i = 0; i < n; ++i) {
      Row row(columns.size());
      for (std::size_t c = 0; c < columns.size(); ++c) {
        if (columns[c].name == "K") {
          if (!r.Chance(key_nulls)) {
            row[c] = KeyValue(key_kind, pool == n ? i : r.Below(pool));
          }
        } else if (columns[c].name == "A") {
          if (!r.Chance(target_nulls)) {
            row[c] = TargetValue(int_target, r.Below(domain_size));
          }
        } else {
          row[c] = Value(static_cast<std::int64_t>(r.rng() % 1000));
        }
      }
      rel.AppendRowUnchecked(std::move(row));
    }

    WatermarkParams params;
    params.e = 1 + r.Below(12);
    params.prf = r.Pick(
        {PrfKind::kKeyedHash, PrfKind::kHmacSha256, PrfKind::kSipHash24});
    params.hash_algo = r.Pick(
        {HashAlgorithm::kMd5, HashAlgorithm::kSha1, HashAlgorithm::kSha256});
    params.ecc = r.Pick({EccKind::kMajorityVoting, EccKind::kIdentity,
                         EccKind::kBlockRepetition, EccKind::kHamming74});
    params.bit_index_mode =
        r.Pick({BitIndexMode::kModulo, BitIndexMode::kMsbModL});
    params.min_category_keep = r.Pick({0L, 1L, 3L});
    const std::size_t wm_len = 1 + r.Below(20);
    switch (r.Below(4)) {
      case 0:
        params.payload_length = 0;
        break;
      case 1:  // below the mark: some ECCs refuse it
        params.payload_length = wm_len > 1 ? 1 + r.Below(wm_len - 1) : 1;
        break;
      default:
        params.payload_length = wm_len + r.Below(64);
        break;
    }

    EmbedOptions options;
    options.key_attr = "K";
    options.target_attr = "A";
    options.build_embedding_map = r.Chance(0.4);
    if (r.Chance(0.4)) {
      std::vector<Value> values;
      for (std::size_t t = 0; t < domain_size; ++t) {
        if (!r.Chance(0.15)) values.push_back(TargetValue(int_target, t));
      }
      if (r.Chance(0.3)) {
        values.push_back(TargetValue(int_target, 1000 + r.Below(5)));
      }
      if (r.Chance(0.1)) values.push_back(TargetValue(!int_target, 2000));
      if (!values.empty()) {
        options.domain = CategoricalDomain::FromValues(values).value();
      }
    }

    EmbeddingLedger ledger;
    const bool with_ledger = r.Chance(0.3);
    if (with_ledger) {
      const std::size_t target_col =
          static_cast<std::size_t>(rel.schema().ColumnIndex("A"));
      const std::size_t stride = 2 + r.Below(6);
      for (std::size_t j = 0; j < n; j += stride) ledger.Mark(j, target_col);
    }

    const BitVector wm = testutil::TestWatermark(wm_len, trial);
    const WatermarkKeySet keys = WatermarkKeySet::FromSeed(trial + 1);
    if (CheckAgainstReference(rel, keys, params, options, wm,
                              with_ledger ? &ledger : nullptr,
                              "trial " + std::to_string(trial))) {
      ++embedded;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Most draws must embed for real, not only exercise the error paths.
  EXPECT_GT(embedded, kTrials / 2);
}

}  // namespace
}  // namespace catmark
