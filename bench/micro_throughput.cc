// Micro-benchmarks (google-benchmark): keyed hash, embedding and blind
// detection throughput as a function of N, plus the frequency-domain
// channel. These quantify the "massive data" practicality claim (Section
// 4.3) on commodity hardware.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "common/bits.h"
#include "core/codec.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "core/freq_mark.h"
#include "crypto/keyed_hash.h"
#include "crypto/prf.h"
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

void BM_Embed(benchmark::State& state) {
  const Relation original = BenchRelation(static_cast<std::size_t>(state.range(0)));
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(2);
  WatermarkParams params;
  params.e = 60;
  const Embedder embedder(keys, params);
  const BitVector wm = MakeWatermark(10, 2);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  for (auto _ : state) {
    Relation rel = original;
    benchmark::DoNotOptimize(embedder.Embed(rel, options, wm));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Embed)->Arg(1000)->Arg(10000)->Arg(100000);

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
  const Detector detector(keys, params);
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.payload_length = report.payload_length;
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

}  // namespace
}  // namespace catmark

BENCHMARK_MAIN();
