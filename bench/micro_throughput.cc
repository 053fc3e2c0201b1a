// Micro-benchmarks (google-benchmark): keyed hash, embedding and blind
// detection throughput as a function of N, plus the frequency-domain
// channel. These quantify the "massive data" practicality claim (Section
// 4.3) on commodity hardware. The SipHash kernel rows run once per SIMD
// dispatch level this host supports:
//   bench_micro_throughput --benchmark_filter=SipHash24

#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/bits.h"
#include "core/codec.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "core/freq_mark.h"
#include "crypto/keyed_hash.h"
#include "crypto/prf.h"
#include "crypto/siphash_simd.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"

namespace catmark {
namespace {

// One single-shot Hash64 over an 8-byte big-endian counter, per backend
// (and, for keyed-hash, per hash algorithm): args are (PrfKind, algorithm).
void BM_KeyedHash64(benchmark::State& state) {
  const auto kind = static_cast<PrfKind>(state.range(0));
  const auto algo = static_cast<HashAlgorithm>(state.range(1));
  const std::unique_ptr<KeyedPrf> prf =
      CreateKeyedPrf(kind, SecretKey::FromSeed(1), algo);
  std::string label(PrfKindName(kind));
  if (kind == PrfKind::kKeyedHash) {
    label += "/" + std::string(HashAlgorithmName(algo));
  }
  state.SetLabel(label);
  std::uint64_t v = 0;
  std::uint8_t be[8];
  for (auto _ : state) {
    StoreBigEndian64(v++, be);
    benchmark::DoNotOptimize(prf->Hash64(be, sizeof(be)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KeyedHash64)
    ->Args({static_cast<int>(PrfKind::kKeyedHash),
            static_cast<int>(HashAlgorithm::kMd5)})
    ->Args({static_cast<int>(PrfKind::kKeyedHash),
            static_cast<int>(HashAlgorithm::kSha1)})
    ->Args({static_cast<int>(PrfKind::kKeyedHash),
            static_cast<int>(HashAlgorithm::kSha256)})
    ->Args({static_cast<int>(PrfKind::kHmacSha256),
            static_cast<int>(HashAlgorithm::kSha256)})
    ->Args({static_cast<int>(PrfKind::kSipHash24),
            static_cast<int>(HashAlgorithm::kSha256)});

Relation BenchRelation(std::size_t n) {
  KeyedCategoricalConfig config;
  config.num_tuples = n;
  config.domain_size = 1000;
  config.seed = 7;
  return GenerateKeyedCategorical(config);
}

// Args are (N, map): map = 1 also builds the Figure 1(b) embedding map.
void BM_Embed(benchmark::State& state) {
  const Relation original = BenchRelation(static_cast<std::size_t>(state.range(0)));
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(2);
  const bool map = state.range(1) != 0;
  WatermarkParams params;
  params.e = 60;
  const Embedder embedder(keys, params);
  const BitVector wm = MakeWatermark(10, 2);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.build_embedding_map = map;
  for (auto _ : state) {
    Relation rel = original;
    benchmark::DoNotOptimize(embedder.Embed(rel, options, wm));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Embed)
    ->Args({1000, 0})
    ->Args({10000, 0})
    ->Args({100000, 0})
    ->Args({100000, 1});

void BM_Detect(benchmark::State& state) {
  Relation rel = BenchRelation(static_cast<std::size_t>(state.range(0)));
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(3);
  WatermarkParams params;
  params.e = 60;
  const BitVector wm = MakeWatermark(10, 3);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const EmbedReport report =
      Embedder(keys, params).Embed(rel, options, wm).value();
  WatermarkParams detect_params = params;
  detect_params.payload_length = report.payload_length;
  const Detector detector(keys, detect_params);
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.domain = report.domain;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.Detect(rel, detect_options, wm.size()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Detect)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_FreqEmbed(benchmark::State& state) {
  const Relation original =
      BenchRelation(static_cast<std::size_t>(state.range(0)));
  FreqMarkParams params;
  params.quantization_step = 0.02;
  const FrequencyMarker marker(SecretKey::FromSeed(4), params);
  const BitVector wm = MakeWatermark(8, 4);
  for (auto _ : state) {
    Relation rel = original;
    benchmark::DoNotOptimize(marker.Embed(rel, "A", wm));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FreqEmbed)->Arg(10000)->Arg(100000);

// The row-at-a-time fitness test H(v, k1) mod e == 0 on the default
// backend.
void BM_FitnessTest(benchmark::State& state) {
  const std::unique_ptr<KeyedPrf> k1 =
      CreateKeyedPrf(PrfKind::kKeyedHash, SecretKey::FromSeed(5));
  const std::uint64_t e = 60;
  HashScratch scratch;
  std::int64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashValue(*k1, Value(v++), scratch) % e == 0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FitnessTest);

// ------------------------------------------------ SipHash kernels per level

constexpr std::uint64_t kSipK0 = 0x0706050403020100ULL;
constexpr std::uint64_t kSipK1 = 0x0f0e0d0c0b0a0908ULL;

// Reports the per-message time as time_per_hash next to the rate.
void SetPerHash(benchmark::State& state, std::size_t count) {
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
  state.counters["time_per_hash"] =
      benchmark::Counter(static_cast<double>(count),
                         benchmark::Counter::kIsIterationInvariantRate |
                             benchmark::Counter::kInvert);
}

// The typed int64-key batch: 4096 keys is one FitScanner chunk's k1 call,
// 68 keys about one chunk's k2 call over its fit keys at e = 60.
void BM_SipHash24Int64Keys(benchmark::State& state, SimdLevel level) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(11);
  std::vector<std::int64_t> vals(count);
  for (auto& v : vals) v = static_cast<std::int64_t>(rng());
  std::vector<std::uint64_t> out(count);
  ForceSimdLevel(level);
  for (auto _ : state) {
    SipHash24Int64Keys(kSipK0, kSipK1, vals.data(), count,
                       std::span<std::uint64_t>(out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  ForceSimdLevel(std::nullopt);
  SetPerHash(state, count);
}

// The arena batch over 4096 messages: every message 12 bytes (the
// equal-length stride path) when range(0) is 0, else lengths drawn
// uniformly from 6..30 bytes (the length-bucketed path).
void BM_SipHash24Batch(benchmark::State& state, SimdLevel level) {
  constexpr std::size_t kCount = 4096;
  const bool mixed = state.range(0) != 0;
  std::mt19937_64 rng(12);
  std::vector<std::size_t> bounds = {0};
  for (std::size_t i = 0; i < kCount; ++i) {
    bounds.push_back(bounds.back() + (mixed ? 6 + rng() % 25 : 12));
  }
  std::vector<std::uint8_t> arena(bounds.back());
  for (auto& b : arena) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint64_t> out(kCount);
  ForceSimdLevel(level);
  for (auto _ : state) {
    SipHash24Batch(kSipK0, kSipK1, arena.data(),
                   std::span<const std::size_t>(bounds),
                   std::span<std::uint64_t>(out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  ForceSimdLevel(std::nullopt);
  state.SetLabel(mixed ? "mixed 6-30 B" : "equal 12 B");
  SetPerHash(state, kCount);
}

// One row per level from scalar up to the hardware's, named by level.
void RegisterKernelRows() {
  for (int l = 0; l <= static_cast<int>(HardwareSimdLevel()); ++l) {
    const auto level = static_cast<SimdLevel>(l);
    const std::string suffix = "/" + std::string(SimdLevelName(level));
    benchmark::RegisterBenchmark(
        ("BM_SipHash24Int64Keys" + suffix).c_str(), BM_SipHash24Int64Keys,
        level)
        ->Arg(4096)
        ->Arg(68);
    benchmark::RegisterBenchmark(("BM_SipHash24Batch" + suffix).c_str(),
                                 BM_SipHash24Batch, level)
        ->Arg(0)
        ->Arg(1);
  }
}

}  // namespace
}  // namespace catmark

int main(int argc, char** argv) {
  catmark::RegisterKernelRows();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
