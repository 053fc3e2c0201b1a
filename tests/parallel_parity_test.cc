// Serial-vs-parallel parity: the pipelined embed/detect hot path must
// produce bit-identical EmbedReport / DetectionResult / relation contents
// for every thread count. Detection merges per-thread integer tallies;
// embedding builds its fit list on parallel row shards and applies it in
// row order, so every output — relation bytes, report counters, serialized
// embedding map, ledger — must match the one-thread run exactly. The
// randomized suite below checks that over ~50 trials of random schemas,
// domains, parameters and thread counts; run under TSan with
// CATMARK_THREADS swept in CI to also check data-race freedom.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "attack/attacks.h"
#include "common/parallel.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "crypto/siphash_simd.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "reference_scheme.h"
#include "relation/csv.h"
#include "relation/domain.h"

namespace catmark {
namespace {

// ------------------------------------------------------------- ParallelFor

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    for (const std::size_t n : {0u, 1u, 7u, 100u}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelFor(n, threads,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t j = begin; j < end; ++j) ++hits[j];
                  });
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(hits[j].load(), 1) << "n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelForTest, ShardsAreContiguousAndOrdered) {
  const std::size_t n = 103;
  std::vector<std::pair<std::size_t, std::size_t>> shards(8, {0, 0});
  ParallelFor(n, 8, [&](std::size_t shard, std::size_t begin,
                        std::size_t end) { shards[shard] = {begin, end}; });
  std::size_t expected_begin = 0;
  for (const auto& [begin, end] : shards) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_LE(begin, end);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, n);
}

TEST(ParallelForTest, EffectiveThreadCountClamps) {
  EXPECT_EQ(EffectiveThreadCount(8, 3), 3u);
  EXPECT_EQ(EffectiveThreadCount(2, 100), 2u);
  EXPECT_GE(EffectiveThreadCount(0, 100), 1u);
}

TEST(ParallelForTest, ShardBoundsPartitionExactly) {
  for (const std::size_t threads : {1u, 2u, 3u, 7u, 8u}) {
    for (const std::size_t n : {0u, 1u, 7u, 8u, 103u}) {
      const std::vector<std::size_t> bounds = ShardBounds(n, threads);
      ASSERT_EQ(bounds.size(), threads + 1);
      EXPECT_EQ(bounds.front(), 0u);
      EXPECT_EQ(bounds.back(), n);
      for (std::size_t s = 0; s < threads; ++s) {
        EXPECT_LE(bounds[s], bounds[s + 1]);
        // Near-equal: no shard more than one item larger than another.
        EXPECT_LE(bounds[s + 1] - bounds[s], n / threads + 1);
      }
    }
  }
}

TEST(ParallelForTest, ShardBoundsMatchParallelForPartition) {
  const std::size_t n = 103;
  for (const std::size_t threads : {2u, 3u, 8u}) {
    const std::vector<std::size_t> bounds = ShardBounds(n, threads);
    std::vector<std::pair<std::size_t, std::size_t>> observed(threads);
    ParallelFor(n, threads,
                [&](std::size_t shard, std::size_t begin, std::size_t end) {
                  observed[shard] = {begin, end};
                });
    for (std::size_t s = 0; s < threads; ++s) {
      EXPECT_EQ(observed[s].first, bounds[s]) << "threads=" << threads;
      EXPECT_EQ(observed[s].second, bounds[s + 1]) << "threads=" << threads;
    }
  }
}

TEST(ParallelForTest, ExclusivePrefixSum) {
  std::vector<std::size_t> counts = {3, 0, 5, 1};
  EXPECT_EQ(ExclusivePrefixSum(counts), 9u);
  EXPECT_EQ(counts, (std::vector<std::size_t>{0, 3, 3, 8}));

  std::vector<std::size_t> empty;
  EXPECT_EQ(ExclusivePrefixSum(empty), 0u);

  std::vector<std::size_t> one = {7};
  EXPECT_EQ(ExclusivePrefixSum(one), 7u);
  EXPECT_EQ(one[0], 0u);
}

// ------------------------------------------------ CATMARK_THREADS parsing

TEST(ThreadCountEnvTest, MalformedInputsFallBackToHardware) {
  // One case per malformed shape: empty, words, digit/letter mixes, signs
  // (strtoul used to wrap "-4" into a huge positive count), whitespace,
  // hex/scientific notation, and zero.
  for (const char* bad : {"", "abc", "12abc", "abc12", "-4", "+8", " 8",
                          "8 ", "0x10", "1e3", "0", "00"}) {
    EXPECT_EQ(ResolveThreadCountEnv(bad, 4), 4u) << "input \"" << bad << "\"";
  }
  EXPECT_EQ(ResolveThreadCountEnv(nullptr, 4), 4u);
  // A zero hardware report (the standard allows it) still floors at 1.
  EXPECT_EQ(ResolveThreadCountEnv("junk", 0), 1u);
}

TEST(ThreadCountEnvTest, ValidInputsParseAndClamp) {
  EXPECT_EQ(ResolveThreadCountEnv("1", 4), 1u);
  EXPECT_EQ(ResolveThreadCountEnv("3", 4), 3u);
  // Modest oversubscription stays allowed — the sanitizer sweeps run 8
  // workers on small machines.
  EXPECT_EQ(ResolveThreadCountEnv("8", 1), 8u);
  // Oversized and overflowing values clamp to the hardware-derived ceiling
  // instead of spawning thousands of threads.
  EXPECT_EQ(ResolveThreadCountEnv("100000", 4), MaxEnvThreadCount(4));
  EXPECT_EQ(ResolveThreadCountEnv("99999999999999999999999999", 4),
            MaxEnvThreadCount(4));
}

TEST(ThreadCountEnvTest, MaxEnvThreadCountShape) {
  EXPECT_EQ(MaxEnvThreadCount(1), 8u);
  EXPECT_EQ(MaxEnvThreadCount(2), 8u);
  EXPECT_EQ(MaxEnvThreadCount(4), 16u);
  EXPECT_EQ(MaxEnvThreadCount(16), 64u);
  EXPECT_EQ(MaxEnvThreadCount(100), 256u);  // absolute cap
}

TEST(ThreadCountEnvTest, DefaultThreadCountSurvivesGarbageEnv) {
  const char* saved = std::getenv("CATMARK_THREADS");
  const std::string saved_copy = saved != nullptr ? saved : "";
  setenv("CATMARK_THREADS", "not-a-number", 1);
  EXPECT_GE(DefaultThreadCount(), 1u);
  setenv("CATMARK_THREADS", "-3", 1);
  EXPECT_GE(DefaultThreadCount(), 1u);
  setenv("CATMARK_THREADS", "2", 1);
  EXPECT_EQ(DefaultThreadCount(), 2u);
  if (saved != nullptr) {
    setenv("CATMARK_THREADS", saved_copy.c_str(), 1);
  } else {
    unsetenv("CATMARK_THREADS");
  }
}

// ------------------------------------------------------------------ parity

Relation StandardRelation(std::size_t n, std::uint64_t seed) {
  KeyedCategoricalConfig config;
  config.num_tuples = n;
  config.domain_size = 100;
  config.seed = seed;
  return GenerateKeyedCategorical(config);
}

EmbedOptions KA(bool map = false) {
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.build_embedding_map = map;
  return options;
}

void ExpectReportsEqual(const EmbedReport& a, const EmbedReport& b) {
  EXPECT_EQ(a.num_tuples, b.num_tuples);
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  EXPECT_EQ(a.messages_hashed, b.messages_hashed);
  EXPECT_EQ(a.fit_tuples, b.fit_tuples);
  EXPECT_EQ(a.altered_tuples, b.altered_tuples);
  EXPECT_EQ(a.unchanged_tuples, b.unchanged_tuples);
  EXPECT_EQ(a.skipped_by_quality, b.skipped_by_quality);
  EXPECT_EQ(a.skipped_by_ledger, b.skipped_by_ledger);
  EXPECT_EQ(a.skipped_by_domain_guard, b.skipped_by_domain_guard);
  EXPECT_EQ(a.payload_length, b.payload_length);
  EXPECT_EQ(a.positions_written, b.positions_written);
  EXPECT_DOUBLE_EQ(a.alteration_fraction, b.alteration_fraction);
  EXPECT_TRUE(a.domain == b.domain);
  EXPECT_EQ(a.embedding_map.Serialize(), b.embedding_map.Serialize());
}

void ExpectDetectionsEqual(const DetectionResult& a, const DetectionResult& b) {
  EXPECT_EQ(a.wm, b.wm);
  EXPECT_EQ(a.num_tuples, b.num_tuples);
  EXPECT_EQ(a.fit_tuples, b.fit_tuples);
  EXPECT_EQ(a.usable_votes, b.usable_votes);
  EXPECT_EQ(a.payload_length, b.payload_length);
  EXPECT_EQ(a.positions_present, b.positions_present);
  EXPECT_DOUBLE_EQ(a.payload_fill, b.payload_fill);
  ASSERT_EQ(a.bit_confidence.size(), b.bit_confidence.size());
  for (std::size_t i = 0; i < a.bit_confidence.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.bit_confidence[i], b.bit_confidence[i]);
  }
}

TEST(ParallelParityTest, EmbedIsBitIdenticalAcrossThreadCounts) {
  for (const bool map_mode : {false, true}) {
    Relation serial_rel = StandardRelation(5000, 41);
    WatermarkParams params;
    params.e = 25;
    params.num_threads = 1;
    const BitVector wm = MakeWatermark(10, 41);
    const EmbedReport serial =
        Embedder(WatermarkKeySet::FromSeed(41), params)
            .Embed(serial_rel, KA(map_mode), wm)
            .value();
    // The domain guard keeps every category alive, so the domain a
    // detector recovers from the marked data is the one the embed used.
    EXPECT_TRUE(CategoricalDomain::FromRelationColumn(serial_rel, 1).value() ==
                serial.domain);

    for (const std::size_t threads : {2u, 8u}) {
      Relation rel = StandardRelation(5000, 41);
      params.num_threads = threads;
      const EmbedReport report = Embedder(WatermarkKeySet::FromSeed(41), params)
                                     .Embed(rel, KA(map_mode), wm)
                                     .value();
      ExpectReportsEqual(serial, report);
      // Row-for-row identical, not just multiset-equal: the apply pass is
      // sequential regardless of plan threads.
      ASSERT_EQ(rel.NumRows(), serial_rel.NumRows());
      for (std::size_t j = 0; j < rel.NumRows(); ++j) {
        ASSERT_TRUE(rel.Get(j, 1) == serial_rel.Get(j, 1))
            << "row " << j << " threads=" << threads
            << " map_mode=" << map_mode;
      }
    }
  }
}

TEST(ParallelParityTest, DetectIsBitIdenticalAcrossThreadCounts) {
  Relation rel = StandardRelation(6000, 42);
  WatermarkParams params;
  params.e = 20;
  const BitVector wm = MakeWatermark(10, 42);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(42);
  const EmbedReport report = Embedder(keys, params).Embed(rel, KA(), wm).value();

  // An attacked suspect exercises the unfit / out-of-domain / missing-key
  // code paths, not just the clean tally.
  const Relation attacked =
      SubsetAdditionAttack(HorizontalPartitionAttack(rel, 0.7, 7).value(), 0.4,
                           8)
          .value();

  DetectOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.domain = report.domain;
  params.payload_length = report.payload_length;

  const std::vector<const Relation*> suspects = {&rel, &attacked};
  for (const Relation* suspect : suspects) {
    params.num_threads = 1;
    const DetectionResult serial =
        Detector(keys, params).Detect(*suspect, options, wm.size()).value();
    for (const std::size_t threads : {2u, 8u}) {
      params.num_threads = threads;
      const DetectionResult parallel =
          Detector(keys, params).Detect(*suspect, options, wm.size()).value();
      ExpectDetectionsEqual(serial, parallel);
    }
  }
}

TEST(ParallelParityTest, MapDetectionIsBitIdenticalAcrossThreadCounts) {
  Relation rel = StandardRelation(4000, 43);
  WatermarkParams params;
  params.e = 20;
  const BitVector wm = MakeWatermark(10, 43);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(43);
  const EmbedReport report =
      Embedder(keys, params).Embed(rel, KA(/*map=*/true), wm).value();

  DetectOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.domain = report.domain;
  options.embedding_map = &report.embedding_map;

  params.payload_length = report.payload_length;
  params.num_threads = 1;
  const DetectionResult serial =
      Detector(keys, params).Detect(rel, options, wm.size()).value();
  EXPECT_EQ(serial.wm, wm);
  for (const std::size_t threads : {2u, 8u}) {
    params.num_threads = threads;
    const DetectionResult parallel =
        Detector(keys, params).Detect(rel, options, wm.size()).value();
    ExpectDetectionsEqual(serial, parallel);
  }
}

TEST(ParallelParityTest, NullKeysParityAcrossThreadCounts) {
  Relation base = StandardRelation(3000, 44);
  for (std::size_t j = 0; j < 300; ++j) {
    ASSERT_TRUE(base.Set(j * 7 % base.NumRows(), 0, Value()).ok());
  }
  WatermarkParams params;
  params.e = 15;
  const BitVector wm = MakeWatermark(10, 44);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(44);

  params.num_threads = 1;
  Relation serial_rel = base;
  const EmbedReport serial =
      Embedder(keys, params).Embed(serial_rel, KA(), wm).value();
  for (const std::size_t threads : {2u, 8u}) {
    params.num_threads = threads;
    Relation rel = base;
    const EmbedReport report =
        Embedder(keys, params).Embed(rel, KA(), wm).value();
    ExpectReportsEqual(serial, report);
  }
}

// ------------------------------------ embed fast-path SIMD x thread grid

// A (K STRING, A STRING) relation: string keys take the serialized-arena
// hash path instead of the typed Hash64Int64Keys kernel.
Relation StringKeyRelation(std::size_t n, std::uint64_t seed) {
  Schema schema = Schema::Create({{"K", ColumnType::kString, false},
                                  {"A", ColumnType::kString, true}},
                                 "K")
                      .value();
  Relation rel(schema);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    // Variable-length keys so arena bounds are irregular across chunks.
    Value k("user-" + std::to_string(rng() % 900000));
    Value a("V" + std::to_string(rng() % 97));
    rel.AppendRowUnchecked({std::move(k), std::move(a)});
  }
  return rel;
}

// The embed pipeline (typed int64 key gather, arena fallback,
// DivisibilityMask64 fitness verdicts, fit-list apply) swept over SIMD
// dispatch level x thread count x key-column shape, in both k2-position and
// embedding-map modes with a pre-marked ledger. Every cell must be
// byte-identical — CSV snapshot, report counters, serialized embedding map,
// ledger — to the row-by-row Figure 1 oracle (reference::ReferenceEmbed).
// CI runs this under CATMARK_SIMD={avx512,avx2,off} and TSan/ASan as
// well; the in-process ForceSimdLevel sweep here covers levels the env
// clamp would hide.
TEST(EmbedFastPathGridTest, BitIdenticalAcrossSimdLevelsAndThreads) {
  struct Flavor {
    const char* name;
    Relation rel;
  };
  std::vector<Flavor> flavors;
  // int64 keys: the typed Hash64Int64Keys chunk path.
  flavors.push_back({"int64-key", StandardRelation(2600, 91)});
  // string keys: the serialized-arena Hash64Arena path.
  flavors.push_back({"string-key", StringKeyRelation(2600, 92)});
  // NULL-heavy int64 keys: dense-chunk gather with lazy NULL backfill.
  Relation null_heavy = StandardRelation(2600, 93);
  for (std::size_t j = 0; j < null_heavy.NumRows(); j += 4) {
    ASSERT_TRUE(null_heavy.Set(j, 0, Value()).ok());
  }
  flavors.push_back({"null-heavy", std::move(null_heavy)});

  // ForceSimdLevel clamps to the hardware, so on a host without AVX-512
  // the first entry runs AVX2 twice.
  constexpr SimdLevel kLevels[] = {SimdLevel::kAvx512, SimdLevel::kAvx2,
                                   SimdLevel::kScalar};
  constexpr std::size_t kLedgerStride = 5;
  constexpr std::size_t kTargetCol = 1;
  const BitVector wm = MakeWatermark(8, 91);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(91);

  for (const Flavor& flavor : flavors) {
    const auto premark = [&](EmbeddingLedger& ledger) {
      for (std::size_t j = 0; j < flavor.rel.NumRows(); j += kLedgerStride) {
        ledger.Mark(j, kTargetCol);
      }
    };
    for (const bool map_mode : {false, true}) {
      SCOPED_TRACE(std::string(flavor.name) +
                   " map=" + std::to_string(map_mode));
      WatermarkParams params;
      params.e = 7;
      // The backend with SIMD kernels — levels must be indistinguishable.
      params.prf = PrfKind::kSipHash24;
      params.min_category_keep = 0;

      // Reference: the Figure 1 oracle.
      Relation ref_rel = flavor.rel;
      EmbeddingLedger ref_ledger;
      premark(ref_ledger);
      const Result<reference::ReferenceEmbedding> ref =
          reference::ReferenceEmbed(
              ref_rel, reference::EmbedInputsOf(keys, params, KA(map_mode)),
              wm, &ref_ledger);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();

      for (const SimdLevel level : kLevels) {
        for (const std::size_t threads : {1u, 2u, 8u}) {
          SCOPED_TRACE("simd=" + std::string(SimdLevelName(level)) +
                       " threads=" + std::to_string(threads));
          // Clamped to what the hardware supports.
          ForceSimdLevel(level);
          params.num_threads = threads;
          Relation rel = flavor.rel;
          EmbeddingLedger ledger;
          premark(ledger);
          const Result<EmbedReport> report =
              Embedder(keys, params)
                  .Embed(rel, KA(map_mode), wm, nullptr, &ledger);
          reference::ExpectEmbedMatchesReference(report, rel, &ledger, ref,
                                                 ref_rel, &ref_ledger, "grid");
        }
      }
      ForceSimdLevel(std::nullopt);
    }
  }
  ForceSimdLevel(std::nullopt);
}

// -------------------------------------------- randomized property suite

// One randomized trial's configuration, drawn from the trial seed.
struct TrialConfig {
  bool item_scan = false;       // ItemScan schema vs minimal (K, A)
  std::string key_attr;
  std::string target_attr;
  std::size_t num_tuples = 0;
  std::size_t domain_size = 0;  // minimal schema only
  double zipf_s = 0.0;
  std::uint64_t e = 0;
  std::size_t wm_bits = 0;
  std::size_t payload_length = 0;  // 0 = derive (bandwidth N/e)
  long min_category_keep = 0;
  bool map_mode = false;
  std::size_t ledger_stride = 0;   // 0 = no ledger
  std::uint64_t seed = 0;
};

TrialConfig DrawTrialConfig(std::uint64_t trial_seed) {
  std::mt19937_64 rng(trial_seed);
  const auto draw = [&rng](std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(rng() % (hi - lo + 1));
  };
  TrialConfig c;
  c.seed = rng();
  c.item_scan = draw(0, 2) == 0;
  if (c.item_scan) {
    c.key_attr = "Visit_Nbr";
    c.target_attr = draw(0, 1) == 0 ? "Item_Nbr" : "Dept_Desc";
    c.num_tuples = draw(400, 2000);
    c.domain_size = draw(8, 120);  // num_items when targeting Item_Nbr
  } else {
    c.key_attr = "K";
    c.target_attr = "A";
    c.num_tuples = draw(300, 2500);
    c.domain_size = draw(2, 250);
  }
  c.zipf_s = static_cast<double>(draw(0, 12)) / 10.0;
  c.e = draw(1, 40);
  if (c.e > c.num_tuples) c.e = c.num_tuples;  // keep N/e >= 1
  c.wm_bits = draw(4, 24);
  // Explicit payloads must clear the ECC's minimum (|wm|); short ones force
  // heavy map-index wraparound.
  c.payload_length = draw(0, 1) == 0 ? 0 : draw(c.wm_bits, c.wm_bits + 56);
  const long keeps[] = {0, 0, 1, 3};
  c.min_category_keep = keeps[draw(0, 3)];
  c.map_mode = draw(0, 1) == 1;
  c.ledger_stride = draw(0, 2) == 0 ? draw(3, 17) : 0;
  return c;
}

Relation MakeTrialRelation(const TrialConfig& c) {
  if (c.item_scan) {
    SalesGenConfig gen;
    gen.num_tuples = c.num_tuples;
    gen.num_items = c.domain_size;
    gen.item_zipf_s = c.zipf_s;
    gen.seed = c.seed;
    return GenerateItemScan(gen);
  }
  KeyedCategoricalConfig gen;
  gen.num_tuples = c.num_tuples;
  gen.domain_size = c.domain_size;
  gen.zipf_s = c.zipf_s;
  gen.seed = c.seed;
  return GenerateKeyedCategorical(gen);
}

// ~50 seeded trials over random schemas, domain sizes, e/bandwidth
// parameters and thread counts {1, 2, 3, 8}: every thread count must
// reproduce the one-thread embedding byte-for-byte — relation CSV snapshot,
// every report counter, the serialized embedding map and the ledger.
TEST(RandomizedParityTest, EmbedIsBitIdenticalAcrossThreadCounts) {
  constexpr std::uint64_t kSuiteSeed = 0x5104'2004'0301ull;
  constexpr int kTrials = 50;

  for (int trial = 0; trial < kTrials; ++trial) {
    const TrialConfig c = DrawTrialConfig(kSuiteSeed + trial);
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                 std::to_string(c.num_tuples) + " e=" + std::to_string(c.e) +
                 " target=" + c.target_attr +
                 " map=" + std::to_string(c.map_mode) +
                 " keep=" + std::to_string(c.min_category_keep) +
                 " payload=" + std::to_string(c.payload_length) +
                 " ledger=" + std::to_string(c.ledger_stride));

    const Relation base = MakeTrialRelation(c);
    const BitVector wm = MakeWatermark(c.wm_bits, c.seed);
    const WatermarkKeySet keys = WatermarkKeySet::FromSeed(c.seed);

    WatermarkParams params;
    params.e = c.e;
    params.payload_length = c.payload_length;
    params.min_category_keep = c.min_category_keep;

    EmbedOptions options;
    options.key_attr = c.key_attr;
    options.target_attr = c.target_attr;
    options.build_embedding_map = c.map_mode;

    const std::size_t target_col = static_cast<std::size_t>(
        base.schema().ColumnIndex(c.target_attr));
    const auto premark = [&](EmbeddingLedger& ledger) {
      if (c.ledger_stride == 0) return;
      for (std::size_t j = 0; j < base.NumRows(); j += c.ledger_stride) {
        ledger.Mark(j, target_col);
      }
    };

    params.num_threads = 1;
    Relation serial_rel = base;
    EmbeddingLedger serial_ledger;
    premark(serial_ledger);
    const Result<EmbedReport> serial_result =
        Embedder(keys, params)
            .Embed(serial_rel, options, wm, nullptr,
                   c.ledger_stride != 0 ? &serial_ledger : nullptr);
    ASSERT_TRUE(serial_result.ok()) << serial_result.status().ToString();
    const EmbedReport& serial = serial_result.value();
    const std::string serial_csv = WriteCsvString(serial_rel);

    for (const std::size_t threads : {2u, 3u, 8u}) {
      params.num_threads = threads;
      Relation rel = base;
      EmbeddingLedger ledger;
      premark(ledger);
      const Result<EmbedReport> result =
          Embedder(keys, params)
              .Embed(rel, options, wm, nullptr,
                     c.ledger_stride != 0 ? &ledger : nullptr);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const EmbedReport& report = result.value();

      ExpectReportsEqual(serial, report);
      EXPECT_EQ(WriteCsvString(rel), serial_csv) << "threads=" << threads;
      EXPECT_EQ(ledger.size(), serial_ledger.size());
      for (std::size_t j = 0; j < base.NumRows(); ++j) {
        ASSERT_EQ(ledger.IsMarked(j, target_col),
                  serial_ledger.IsMarked(j, target_col))
            << "row " << j << " threads=" << threads;
      }

    }
  }
}

}  // namespace
}  // namespace catmark
