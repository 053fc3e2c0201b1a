// Embed/detect pipeline throughput: serial (1 worker) versus parallel
// (auto worker count) on the standard keyed categorical relation, verifying
// on the fly that both configurations produce bit-identical results. This is
// the perf trajectory for the ROADMAP's "as fast as the hardware allows"
// goal; the acceptance bar is >= 4x detection throughput at N = 1M on
// 8 cores.
//
//   bench_throughput [--n N] [--passes K] [--domain D] ...
//
// Environment:
//   CATMARK_THREADS      parallel worker count (default: hardware threads)
//   CATMARK_PRF          keyed-PRF backend of the headline rows (--prf wins;
//                        the detect PRF-breakdown rows sweep every backend)
//   CATMARK_BENCH_JSON   when set, write the machine-readable report there
//                        (the BENCH_throughput.json emitted by scripts/)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "core/codec.h"
#include "core/detect_engine.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "crypto/siphash_simd.h"
#include "ecc/code.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "relation/catm_io.h"
#include "relation/csv.h"
#include "relation/domain.h"
#include "relation/value_index_column.h"
#include "service/service.h"
#include "service/session.h"

namespace catmark {
namespace {

/// The host's CPU model from /proc/cpuinfo, JSON-safe, or "unknown": the
/// report names its host so reports from different machines are not
/// compared as if they were one.
std::string HostCpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model;
    for (const char c : line.substr(colon + 1)) {
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        continue;
      }
      if (c == ' ' && (model.empty() || model.back() == ' ')) continue;
      model.push_back(c);
    }
    while (!model.empty() && model.back() == ' ') model.pop_back();
    return model.empty() ? "unknown" : model;
  }
  return "unknown";
}

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// `rel` as CSV with every field quoted (NULL as "") and CRLF record ends:
/// the fixture that times the reader's unescape path and quoted chunk
/// boundary scan.
std::string QuotedCrlfCsv(const Relation& rel) {
  std::string out;
  const auto field = [&out](std::size_t c, std::string_view text) {
    if (c > 0) out.push_back(',');
    out.push_back('"');
    for (const char ch : text) {
      if (ch == '"') out.push_back('"');
      out.push_back(ch);
    }
    out.push_back('"');
  };
  const Schema& schema = rel.schema();
  for (std::size_t c = 0; c < schema.num_columns(); ++c) {
    field(c, schema.column(c).name);
  }
  out += "\r\n";
  for (std::size_t r = 0; r < rel.NumRows(); ++r) {
    for (std::size_t c = 0; c < schema.num_columns(); ++c) {
      field(c, rel.Get(r, c).ToString());
    }
    out += "\r\n";
  }
  return out;
}

struct Measurement {
  double serial_tps = 0.0;    // tuples/second, best of `passes` runs
  double parallel_tps = 0.0;
  double speedup = 0.0;
};

// Faithful reconstruction of the seed-era one-row-at-a-time incremental
// insert path — the batch=1 baseline of the streaming grid. Everything the
// StreamSession amortizes is deliberately paid per row here, as the seed's
// per-row inserter did before the streaming service replaced it: two
// column-name lookups, a fresh heap-allocated HashScratch, single-shot
// (unbatched) PRF calls, and a per-row AppendRow through the full
// variant-dispatch intern path.
struct LegacyRowInserter {
  WatermarkParams params;
  CategoricalDomain domain;
  std::size_t payload_length = 0;
  PayloadBits wm_data;
  std::unique_ptr<KeyedPrf> prf_k1;
  std::unique_ptr<KeyedPrf> prf_k2;

  LegacyRowInserter(const WatermarkKeySet& keys, const WatermarkParams& p,
                    const EmbedReport& report, const BitVector& wm)
      : params(p), domain(report.domain),
        payload_length(report.payload_length),
        wm_data(PayloadBits::Create(p.ecc, wm, payload_length).value()) {
    params.prf = params.prf.value_or(report.prf);
    prf_k1 = CreateKeyedPrf(*params.prf, keys.k1, params.hash_algo);
    prf_k2 = CreateKeyedPrf(*params.prf, keys.k2, params.hash_algo);
  }

  bool Insert(Relation& rel, Row row) const {
    const std::size_t key_col =
        rel.schema().ColumnIndexOrError("K").value();
    const std::size_t target_col =
        rel.schema().ColumnIndexOrError("A").value();
    CATMARK_CHECK_EQ(row.size(), rel.schema().num_columns());
    bool fit = false;
    if (!row[key_col].is_null()) {
      HashScratch scratch;
      scratch.reserve(64);
      const std::uint64_t h1 = HashValue(*prf_k1, row[key_col], scratch);
      if (h1 % params.e == 0) {
        fit = true;
        const std::size_t idx =
            PayloadIndexFromHash(HashValue(*prf_k2, row[key_col], scratch),
                                 payload_length, params.bit_index_mode);
        const std::size_t t =
            SelectValueIndex(h1, domain.size(), wm_data.Get(idx));
        row[target_col] = domain.value(t);
      }
    }
    CATMARK_CHECK(rel.AppendRow(std::move(row)).ok());
    return fit;
  }
};

int Run(const ExperimentConfig& config) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = config.num_tuples;
  gen.domain_size = config.domain_size;
  gen.zipf_s = config.zipf_s;
  gen.seed = config.base_seed;
  const Relation original = GenerateKeyedCategorical(gen);
  const double n = static_cast<double>(original.NumRows());

  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(config.base_seed);
  const BitVector wm = MakeWatermark(config.wm_bits, config.base_seed);
  WatermarkParams serial_params;
  serial_params.e = 60;
  serial_params.num_threads = 1;
  // --prf / CATMARK_PRF steer the headline rows; the PRF-breakdown section
  // below always sweeps every registered backend regardless.
  if (config.prf.has_value()) serial_params.prf = config.prf;
  WatermarkParams parallel_params = serial_params;
  parallel_params.num_threads = DefaultThreadCount();

  EmbedOptions embed_options;
  embed_options.key_attr = "K";
  embed_options.target_attr = "A";

  Measurement embed;
  Relation marked = original;
  EmbedReport report;
  for (std::size_t pass = 0; pass < config.passes; ++pass) {
    {
      Relation rel = original;
      const auto start = Clock::now();
      Result<EmbedReport> r =
          Embedder(keys, serial_params).Embed(rel, embed_options, wm);
      const double secs = SecondsSince(start);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      report = std::move(r).value();
      marked = std::move(rel);
      if (n / secs > embed.serial_tps) embed.serial_tps = n / secs;
    }
    {
      Relation rel = original;
      const auto start = Clock::now();
      Result<EmbedReport> r =
          Embedder(keys, parallel_params).Embed(rel, embed_options, wm);
      const double secs = SecondsSince(start);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      CATMARK_CHECK_EQ(r.value().altered_tuples, report.altered_tuples)
          << "parallel embed diverged from serial";
      CATMARK_CHECK(rel.SameContent(marked))
          << "parallel embed produced different data";
      if (n / secs > embed.parallel_tps) embed.parallel_tps = n / secs;
    }
  }
  embed.speedup = embed.parallel_tps / embed.serial_tps;

  if (!config.dump_relation.empty()) {
    const Status saved = SaveRelation(marked, config.dump_relation);
    CATMARK_CHECK(saved.ok()) << saved.ToString();
    std::printf("dumped marked relation: %s\n",
                config.dump_relation.c_str());
  }

  // Figure 1(b) map-mode embed (guard off). The serialized maps are
  // compared so a thread-dependent map fails the bench, not just the unit
  // suite.
  WatermarkParams map_serial_params = serial_params;
  map_serial_params.min_category_keep = 0;
  WatermarkParams map_parallel_params = parallel_params;
  map_parallel_params.min_category_keep = 0;
  EmbedOptions map_options = embed_options;
  map_options.build_embedding_map = true;

  Measurement embed_map;
  for (std::size_t pass = 0; pass < config.passes; ++pass) {
    std::string serial_map;
    {
      Relation rel = original;
      const auto start = Clock::now();
      Result<EmbedReport> r =
          Embedder(keys, map_serial_params).Embed(rel, map_options, wm);
      const double secs = SecondsSince(start);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      serial_map = r.value().embedding_map.Serialize();
      if (n / secs > embed_map.serial_tps) embed_map.serial_tps = n / secs;
    }
    {
      Relation rel = original;
      const auto start = Clock::now();
      Result<EmbedReport> r =
          Embedder(keys, map_parallel_params).Embed(rel, map_options, wm);
      const double secs = SecondsSince(start);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      CATMARK_CHECK(r.value().embedding_map.Serialize() == serial_map)
          << "parallel map embed built a different embedding map";
      if (n / secs > embed_map.parallel_tps) {
        embed_map.parallel_tps = n / secs;
      }
    }
  }
  embed_map.speedup = embed_map.parallel_tps / embed_map.serial_tps;

  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.domain = report.domain;
  // Detection runs with the embed-time payload length pinned.
  WatermarkParams serial_detect = serial_params;
  serial_detect.payload_length = report.payload_length;
  WatermarkParams parallel_detect = parallel_params;
  parallel_detect.payload_length = report.payload_length;

  Measurement detect;
  DetectionResult serial_detection;
  for (std::size_t pass = 0; pass < config.passes; ++pass) {
    {
      const auto start = Clock::now();
      Result<DetectionResult> r = Detector(keys, serial_detect)
                                      .Detect(marked, detect_options,
                                              wm.size());
      const double secs = SecondsSince(start);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      serial_detection = std::move(r).value();
      if (n / secs > detect.serial_tps) detect.serial_tps = n / secs;
    }
    {
      const auto start = Clock::now();
      Result<DetectionResult> r = Detector(keys, parallel_detect)
                                      .Detect(marked, detect_options,
                                              wm.size());
      const double secs = SecondsSince(start);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      CATMARK_CHECK(r.value().wm == serial_detection.wm)
          << "parallel detect decoded a different mark";
      CATMARK_CHECK_EQ(r.value().usable_votes, serial_detection.usable_votes)
          << "parallel detect tallied different votes";
      if (n / secs > detect.parallel_tps) detect.parallel_tps = n / secs;
    }
  }
  detect.speedup = detect.parallel_tps / detect.serial_tps;

  // Detect PRF breakdown: one embed + timed detects per registered keyed-PRF
  // backend, so BENCH_throughput.json tracks exactly where the fitness-hash
  // dominated detect path stands per primitive. Each backend detects its own
  // embedding (a mark embedded under one PRF is invisible under another);
  // serial-vs-parallel bit-identity is checked inline like the main rows.
  constexpr PrfKind kPrfSweep[] = {PrfKind::kKeyedHash, PrfKind::kHmacSha256,
                                   PrfKind::kSipHash24};
  constexpr std::size_t kNumPrfs = std::size(kPrfSweep);
  static_assert(kPrfSweep[0] == PrfKind::kKeyedHash &&
                kPrfSweep[kNumPrfs - 1] == PrfKind::kSipHash24,
                "prf_fast_gain and the JSON field order index by position");
  Measurement prf_detect[kNumPrfs];
  for (std::size_t p = 0; p < kNumPrfs; ++p) {
    WatermarkParams prf_serial = serial_params;
    prf_serial.prf = kPrfSweep[p];
    WatermarkParams prf_parallel = parallel_params;
    prf_parallel.prf = kPrfSweep[p];

    Relation prf_marked = original;
    Result<EmbedReport> embed_r =
        Embedder(keys, prf_serial).Embed(prf_marked, embed_options, wm);
    CATMARK_CHECK(embed_r.ok()) << embed_r.status().ToString();

    DetectOptions prf_options = detect_options;
    prf_options.domain = embed_r.value().domain;
    prf_serial.payload_length = embed_r.value().payload_length;
    prf_parallel.payload_length = embed_r.value().payload_length;

    DetectionResult serial_r;
    for (std::size_t pass = 0; pass < config.passes; ++pass) {
      {
        const auto start = Clock::now();
        Result<DetectionResult> r =
            Detector(keys, prf_serial)
                .Detect(prf_marked, prf_options, wm.size());
        const double secs = SecondsSince(start);
        CATMARK_CHECK(r.ok()) << r.status().ToString();
        serial_r = std::move(r).value();
        if (n / secs > prf_detect[p].serial_tps) {
          prf_detect[p].serial_tps = n / secs;
        }
      }
      {
        const auto start = Clock::now();
        Result<DetectionResult> r =
            Detector(keys, prf_parallel)
                .Detect(prf_marked, prf_options, wm.size());
        const double secs = SecondsSince(start);
        CATMARK_CHECK(r.ok()) << r.status().ToString();
        CATMARK_CHECK(r.value().wm == serial_r.wm)
            << "parallel detect diverged under "
            << std::string(PrfKindName(kPrfSweep[p]));
        CATMARK_CHECK_EQ(r.value().usable_votes, serial_r.usable_votes)
            << "parallel detect tallied different votes under "
            << std::string(PrfKindName(kPrfSweep[p]));
        if (n / secs > prf_detect[p].parallel_tps) {
          prf_detect[p].parallel_tps = n / secs;
        }
      }
    }
    prf_detect[p].speedup =
        prf_detect[p].parallel_tps / prf_detect[p].serial_tps;
    if (serial_r.positions_present == serial_r.payload_length) {
      CATMARK_CHECK(serial_r.wm == wm)
          << "round trip failed under "
          << std::string(PrfKindName(kPrfSweep[p]));
    }
  }
  // Fast-backend gain over the compatibility default, single-thread — the
  // ROADMAP's detect acceptance number.
  const double prf_fast_gain =
      prf_detect[0].serial_tps > 0.0
          ? prf_detect[kNumPrfs - 1].serial_tps / prf_detect[0].serial_tps
          : 0.0;

  // Embed PRF breakdown — the embed-side mirror of the detect rows above:
  // one row pair per backend, so the plan/apply pipeline's headline (embed
  // under siphash24) shows in the artifact. Parallel runs are checked bit-identical to
  // serial inline, and the siphash24 embedding is additionally re-run under
  // forced-scalar SIMD dispatch and compared byte-for-byte — the SIMD lanes
  // are a throughput knob, never a result knob, on the embed side too.
  constexpr PrfKind kEmbedPrfSweep[] = {PrfKind::kKeyedHash,
                                        PrfKind::kSipHash24};
  constexpr std::size_t kNumEmbedPrfs = std::size(kEmbedPrfSweep);
  Measurement prf_embed[kNumEmbedPrfs];
  for (std::size_t p = 0; p < kNumEmbedPrfs; ++p) {
    WatermarkParams prf_serial = serial_params;
    prf_serial.prf = kEmbedPrfSweep[p];
    WatermarkParams prf_parallel = parallel_params;
    prf_parallel.prf = kEmbedPrfSweep[p];

    Relation serial_marked;
    EmbedReport serial_report;
    for (std::size_t pass = 0; pass < config.passes; ++pass) {
      {
        Relation rel = original;
        const auto start = Clock::now();
        Result<EmbedReport> r =
            Embedder(keys, prf_serial).Embed(rel, embed_options, wm);
        const double secs = SecondsSince(start);
        CATMARK_CHECK(r.ok()) << r.status().ToString();
        serial_report = std::move(r).value();
        serial_marked = std::move(rel);
        if (n / secs > prf_embed[p].serial_tps) {
          prf_embed[p].serial_tps = n / secs;
        }
      }
      {
        Relation rel = original;
        const auto start = Clock::now();
        Result<EmbedReport> r =
            Embedder(keys, prf_parallel).Embed(rel, embed_options, wm);
        const double secs = SecondsSince(start);
        CATMARK_CHECK(r.ok()) << r.status().ToString();
        CATMARK_CHECK_EQ(r.value().altered_tuples,
                         serial_report.altered_tuples)
            << "parallel embed diverged under "
            << std::string(PrfKindName(kEmbedPrfSweep[p]));
        CATMARK_CHECK(rel.SameContent(serial_marked))
            << "parallel embed produced different data under "
            << std::string(PrfKindName(kEmbedPrfSweep[p]));
        if (n / secs > prf_embed[p].parallel_tps) {
          prf_embed[p].parallel_tps = n / secs;
        }
      }
    }
    prf_embed[p].speedup =
        prf_embed[p].parallel_tps / prf_embed[p].serial_tps;
    if (kEmbedPrfSweep[p] == PrfKind::kSipHash24) {
      ForceSimdLevel(SimdLevel::kScalar);
      Relation rel = original;
      Result<EmbedReport> r =
          Embedder(keys, prf_serial).Embed(rel, embed_options, wm);
      ForceSimdLevel(std::nullopt);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      CATMARK_CHECK_EQ(r.value().altered_tuples, serial_report.altered_tuples)
          << "scalar-dispatch embed diverged from the ambient SIMD level";
      CATMARK_CHECK(rel.SameContent(serial_marked))
          << "scalar-dispatch embed produced different data than the "
             "ambient SIMD level";
    }
  }
  const double embed_prf_fast_gain =
      prf_embed[0].serial_tps > 0.0
          ? prf_embed[kNumEmbedPrfs - 1].serial_tps / prf_embed[0].serial_tps
          : 0.0;

  // SIMD dispatch + detect entry point rows (siphash24, single thread).
  // Two stories in one embedding:
  //   detect_simd_*   — the identical Detector::Detect timed at the ambient
  //                     dispatch level versus forced scalar, with the
  //                     verdicts checked bit-identical (the SIMD lanes are
  //                     a throughput knob, never a result knob);
  //   detect_oneshot_* / detect_plan_pass_* — Detector::Detect back-to-back
  //                     against DetectEngine::Create + Detect. Detector::
  //                     Detect *is* Create + Detect, so these time one code
  //                     path twice and detect_oneshot_gain reads about
  //                     1.0x; the rows stay so the per-PR artifact keeps
  //                     its keys.
  WatermarkParams simd_params = serial_params;
  simd_params.prf = PrfKind::kSipHash24;
  Relation simd_marked = original;
  Result<EmbedReport> simd_embed =
      Embedder(keys, simd_params).Embed(simd_marked, embed_options, wm);
  CATMARK_CHECK(simd_embed.ok()) << simd_embed.status().ToString();
  DetectOptions simd_options = detect_options;
  simd_options.domain = simd_embed.value().domain;
  simd_params.payload_length = simd_embed.value().payload_length;

  const std::string simd_level_name(SimdLevelName(ActiveSimdLevel()));
  double detect_simd_tps = 0.0;
  double detect_simd_scalar_tps = 0.0;
  double plan_pass_tps = 0.0;
  DetectionResult simd_ref;
  for (std::size_t pass = 0; pass < config.passes; ++pass) {
    {
      const auto start = Clock::now();
      Result<DetectionResult> r = Detector(keys, simd_params)
                                      .Detect(simd_marked, simd_options,
                                              wm.size());
      const double secs = SecondsSince(start);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      simd_ref = std::move(r).value();
      if (n / secs > detect_simd_tps) detect_simd_tps = n / secs;
    }
    {
      ForceSimdLevel(SimdLevel::kScalar);
      const auto start = Clock::now();
      Result<DetectionResult> r = Detector(keys, simd_params)
                                      .Detect(simd_marked, simd_options,
                                              wm.size());
      const double secs = SecondsSince(start);
      ForceSimdLevel(std::nullopt);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      CATMARK_CHECK(r.value().wm == simd_ref.wm)
          << "scalar dispatch decoded a different mark than "
          << simd_level_name;
      CATMARK_CHECK_EQ(r.value().usable_votes, simd_ref.usable_votes)
          << "scalar dispatch tallied different votes than "
          << simd_level_name;
      if (n / secs > detect_simd_scalar_tps) {
        detect_simd_scalar_tps = n / secs;
      }
    }
    {
      KeyCandidate candidate;
      candidate.keys = keys;
      candidate.params = simd_params;
      candidate.wm_len = wm.size();
      DetectEngineOptions engine_options;
      engine_options.key_attr = "K";
      engine_options.target_attr = "A";
      engine_options.domain = &*simd_options.domain;
      engine_options.num_threads = 1;
      const auto start = Clock::now();
      Result<DetectEngine> engine =
          DetectEngine::Create(simd_marked, engine_options);
      CATMARK_CHECK(engine.ok()) << engine.status().ToString();
      Result<DetectionResult> r = engine.value().Detect(candidate);
      const double secs = SecondsSince(start);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      CATMARK_CHECK(r.value().wm == simd_ref.wm)
          << "Create + Detect decoded a different mark than Detector";
      CATMARK_CHECK_EQ(r.value().usable_votes, simd_ref.usable_votes)
          << "Create + Detect tallied different votes than Detector";
      if (n / secs > plan_pass_tps) plan_pass_tps = n / secs;
    }
  }
  const double detect_simd_gain = detect_simd_scalar_tps > 0.0
                                      ? detect_simd_tps /
                                            detect_simd_scalar_tps
                                      : 0.0;
  const double oneshot_vs_plan_gain =
      plan_pass_tps > 0.0 ? detect_simd_tps / plan_pass_tps : 0.0;

  // Plan-build microstage: domain recovery + the domain-index view of the
  // target column. On the columnar store both are O(dictionary) — sub-
  // millisecond, and independent of the thread count — so it is reported
  // as an absolute best-of-passes time (a tuples/sec rate over a
  // microsecond-scale stage would be clock-granularity noise in the
  // per-PR artifact).
  double index_ms = std::numeric_limits<double>::infinity();
  const std::size_t target_col = static_cast<std::size_t>(
      marked.schema().ColumnIndex(embed_options.target_attr));
  for (std::size_t pass = 0; pass < config.passes; ++pass) {
    const auto start = Clock::now();
    const CategoricalDomain domain =
        CategoricalDomain::FromRelationColumn(marked, target_col).value();
    const ValueIndexColumn view =
        ValueIndexColumn::Build(marked, target_col, domain, 1);
    const double ms = SecondsSince(start) * 1e3;
    CATMARK_CHECK_EQ(view.size(), marked.NumRows());
    CATMARK_CHECK(domain == report.domain)
        << "recovered domain diverged from the embed report";
    if (ms < index_ms) index_ms = ms;
  }
  // Tiny smoke configurations may not cover every payload position; only a
  // fully-filled channel is required to round-trip exactly.
  if (serial_detection.positions_present == serial_detection.payload_length) {
    CATMARK_CHECK(serial_detection.wm == wm)
        << "round trip failed — bench results would be meaningless";
  }

  // Streaming grid: sustained inserts/s vs batch size {1, 64, 1024} x
  // sessions {1, 8}. The batch=1 row is the seed-era legacy path
  // (LegacyRowInserter above); the batched rows run the StreamSession /
  // WatermarkService pipeline. Pinned to the compatibility keyed-hash
  // backend regardless of --prf / CATMARK_PRF: the grid's story is
  // batching, not hash choice. The base relation is capped so the
  // per-pass relation copies stay outside-timer noise, not the bench.
  WatermarkParams stream_params;
  stream_params.e = 60;
  stream_params.num_threads = 1;
  stream_params.prf = PrfKind::kKeyedHash;
  KeyedCategoricalConfig stream_gen;
  stream_gen.num_tuples = std::min<std::size_t>(config.num_tuples, 100000);
  stream_gen.domain_size = config.domain_size;
  stream_gen.zipf_s = config.zipf_s;
  stream_gen.seed = config.base_seed + 7;
  Relation stream_marked = GenerateKeyedCategorical(stream_gen);
  Result<EmbedReport> stream_embed =
      Embedder(keys, stream_params).Embed(stream_marked, embed_options, wm);
  CATMARK_CHECK(stream_embed.ok()) << stream_embed.status().ToString();
  const EmbedReport stream_report = std::move(stream_embed).value();
  const SessionSpec stream_spec = SessionSpec::FromEmbedReport(
      keys, stream_params, embed_options, stream_report, wm);
  const LegacyRowInserter legacy(keys, stream_params, stream_report, wm);

  // Repeat-heavy integer key stream (a live feed re-inserting the same
  // customers all day): ~64:1 repeats from a bounded pool, small enough
  // that the session's verdict cache stays L2-resident — the scenario the
  // resident cache exists for. Rows are pre-generated and copied outside
  // every timed region.
  const std::size_t stream_n = std::max<std::size_t>(
      20000, std::min<std::size_t>(config.num_tuples, 100000));
  const std::size_t key_pool = std::max<std::size_t>(512, stream_n / 64);
  std::vector<Row> stream_rows;
  stream_rows.reserve(stream_n);
  {
    std::mt19937_64 rng(config.base_seed);
    const Value filler = stream_spec.domain.value(0);  // in-domain category
    for (std::size_t i = 0; i < stream_n; ++i) {
      stream_rows.push_back(
          {Value(static_cast<std::int64_t>(5000000 + rng() % key_pool)),
           filler});
    }
  }

  constexpr std::size_t kBatchSizes[] = {1, 64, 1024};
  constexpr std::size_t kNumBatchSizes = std::size(kBatchSizes);
  constexpr std::size_t kStreamSessions = 8;
  double stream_s1_tps[kNumBatchSizes] = {};
  double stream_s8_tps[kNumBatchSizes] = {};
  Relation legacy_grown;   // last batch=1 run — the equivalence reference
  Relation batched_grown;  // last batch=1024 single-session run

  for (std::size_t pass = 0; pass < config.passes; ++pass) {
    for (std::size_t b = 0; b < kNumBatchSizes; ++b) {
      const std::size_t batch = kBatchSizes[b];
      // sessions = 1.
      {
        Relation rel = stream_marked;
        std::vector<Row> rows = stream_rows;
        if (batch == 1) {
          const auto start = Clock::now();
          for (Row& row : rows) legacy.Insert(rel, std::move(row));
          const double secs = SecondsSince(start);
          if (stream_n / secs > stream_s1_tps[b]) {
            stream_s1_tps[b] = stream_n / secs;
          }
          legacy_grown = std::move(rel);
        } else {
          Result<StreamSession> session = StreamSession::Create(stream_spec);
          CATMARK_CHECK(session.ok()) << session.status().ToString();
          const auto start = Clock::now();
          for (std::size_t at = 0; at < rows.size();) {
            const std::size_t len = std::min(rows.size() - at, batch);
            Result<BatchReport> r = session->InsertBatch(
                rel, std::span<Row>(&rows[at], len));
            CATMARK_CHECK(r.ok()) << r.status().ToString();
            at += len;
          }
          const double secs = SecondsSince(start);
          if (stream_n / secs > stream_s1_tps[b]) {
            stream_s1_tps[b] = stream_n / secs;
          }
          if (batch == 1024) batched_grown = std::move(rel);
        }
      }
      // sessions = 8: the same stream fanned over distinct sessions.
      {
        WatermarkService service(ServiceOptions{DefaultThreadCount()});
        std::vector<std::size_t> ids;
        for (std::size_t s = 0; s < kStreamSessions; ++s) {
          Result<std::size_t> id = service.Open(stream_spec, stream_marked);
          CATMARK_CHECK(id.ok()) << id.status().ToString();
          ids.push_back(id.value());
        }
        std::vector<WatermarkService::SessionBatch> batches;
        for (std::size_t at = 0, i = 0; at < stream_rows.size(); ++i) {
          const std::size_t len =
              std::min(stream_rows.size() - at, batch);
          WatermarkService::SessionBatch sb;
          sb.session_id = ids[i % kStreamSessions];
          sb.rows.assign(stream_rows.begin() + at,
                         stream_rows.begin() + at + len);
          batches.push_back(std::move(sb));
          at += len;
        }
        const auto start = Clock::now();
        const std::vector<Result<BatchReport>> results =
            service.ExecuteBatches(
                std::span<WatermarkService::SessionBatch>(batches));
        const double secs = SecondsSince(start);
        for (const Result<BatchReport>& r : results) {
          CATMARK_CHECK(r.ok()) << r.status().ToString();
        }
        if (stream_n / secs > stream_s8_tps[b]) {
          stream_s8_tps[b] = stream_n / secs;
        }
      }
    }
  }
  // The batched pipeline must grow byte-identical data to the legacy path —
  // a fast but divergent service would be watermark-destroying, not a win.
  CATMARK_CHECK(batched_grown.SameContent(legacy_grown))
      << "batched stream inserts diverged from the one-at-a-time path";
  const double stream_batch_gain =
      stream_s1_tps[0] > 0.0 ? stream_s1_tps[kNumBatchSizes - 1] /
                                   stream_s1_tps[0]
                             : 0.0;

  // Steady-state streaming PRF rows: sessions opened ONCE per measurement
  // (verdict caches warmed by an untimed first pass), batch = 1024, per
  // keyed-PRF backend. The cold-session grid above deliberately re-opens
  // everything per pass, so its 8-session rows pay 8 cold verdict-cache
  // fills and the base relation's first-append page faults inside the
  // timer; on low-core hosts that bring-up cost can push cold s8 below
  // cold s1 — the documented waiver for those rows (measured in ISSUE 10:
  // the gap tracks key-pool hashing and base-relation size, not the
  // ExecuteBatches fan-out). These rows measure the sustained regime the
  // service actually runs in, and carry the s8 >= s1 CHECK the cold grid
  // cannot: with warm caches a multi-session fan-out must never run slower
  // than a single session on the same stream (0.8 factor absorbs scheduler
  // noise on small CI hosts). Below kStreamRatioCheckRows the timed region
  // is a few milliseconds per pass and the ratio is timing noise (a
  // `--n 2000 --passes 1` smoke run aborted on it about half the time), so
  // smaller runs print the ratio instead of checking it.
  constexpr std::size_t kStreamRatioCheckRows = 200000;
  constexpr PrfKind kStreamPrfSweep[] = {PrfKind::kKeyedHash,
                                         PrfKind::kSipHash24};
  constexpr std::size_t kNumStreamPrfs = std::size(kStreamPrfSweep);
  constexpr std::size_t kStreamPrfBatch = 1024;
  double stream_prf_s1_tps[kNumStreamPrfs] = {};
  double stream_prf_s8_tps[kNumStreamPrfs] = {};
  for (std::size_t p = 0; p < kNumStreamPrfs; ++p) {
    SessionSpec prf_spec = stream_spec;
    prf_spec.params.prf = kStreamPrfSweep[p];
    for (const std::size_t sessions :
         {std::size_t{1}, std::size_t{kStreamSessions}}) {
      WatermarkService service(ServiceOptions{DefaultThreadCount()});
      std::vector<std::size_t> ids;
      for (std::size_t s = 0; s < sessions; ++s) {
        Result<std::size_t> id = service.Open(prf_spec, stream_marked);
        CATMARK_CHECK(id.ok()) << id.status().ToString();
        ids.push_back(id.value());
      }
      const auto run_once = [&]() -> double {
        std::vector<WatermarkService::SessionBatch> batches;
        for (std::size_t at = 0, i = 0; at < stream_rows.size(); ++i) {
          const std::size_t len =
              std::min(stream_rows.size() - at, kStreamPrfBatch);
          WatermarkService::SessionBatch sb;
          sb.session_id = ids[i % sessions];
          sb.rows.assign(stream_rows.begin() + at,
                         stream_rows.begin() + at + len);
          batches.push_back(std::move(sb));
          at += len;
        }
        const auto start = Clock::now();
        const std::vector<Result<BatchReport>> results =
            service.ExecuteBatches(
                std::span<WatermarkService::SessionBatch>(batches));
        const double secs = SecondsSince(start);
        for (const Result<BatchReport>& r : results) {
          CATMARK_CHECK(r.ok()) << r.status().ToString();
        }
        return stream_n / secs;
      };
      run_once();  // warm-up: fills the verdict caches, untimed
      double best = 0.0;
      for (std::size_t pass = 0; pass < config.passes; ++pass) {
        best = std::max(best, run_once());
      }
      (sessions == 1 ? stream_prf_s1_tps : stream_prf_s8_tps)[p] = best;
    }
    if (config.num_tuples < kStreamRatioCheckRows) {
      std::printf("warm stream %s: %zu-session / 1-session throughput %.2f "
                  "(not checked below %zu rows)\n",
                  std::string(PrfKindName(kStreamPrfSweep[p])).c_str(),
                  kStreamSessions,
                  stream_prf_s8_tps[p] / stream_prf_s1_tps[p],
                  kStreamRatioCheckRows);
      continue;
    }
    CATMARK_CHECK(stream_prf_s8_tps[p] >= 0.8 * stream_prf_s1_tps[p])
        << "warm " << kStreamSessions << "-session stream under "
        << std::string(PrfKindName(kStreamPrfSweep[p]))
        << " ran slower than a single session at batch=" << kStreamPrfBatch
        << " (" << stream_prf_s8_tps[p] << " vs " << stream_prf_s1_tps[p]
        << " t/s)";
  }

  // Distinct-key streaming rows: every key is new, so no verdict cache can
  // help — the evidence for the per-backend cache policy. keyed-hash pays
  // its full PRF cost per key either way; siphash24 sessions, which never
  // build a cache, must stay far ahead. A fresh session and base copy per
  // pass (a warm session would already hold these keys), batch = 1024.
  std::vector<Row> distinct_rows;
  distinct_rows.reserve(stream_n);
  {
    const Value filler = stream_spec.domain.value(0);
    for (std::size_t i = 0; i < stream_n; ++i) {
      distinct_rows.push_back(
          {Value(static_cast<std::int64_t>(7000000 + i)), filler});
    }
  }
  double stream_prf_distinct_s1_tps[kNumStreamPrfs] = {};
  for (std::size_t p = 0; p < kNumStreamPrfs; ++p) {
    SessionSpec prf_spec = stream_spec;
    prf_spec.params.prf = kStreamPrfSweep[p];
    for (std::size_t pass = 0; pass < config.passes; ++pass) {
      Relation rel = stream_marked;
      std::vector<Row> rows = distinct_rows;
      Result<StreamSession> session = StreamSession::Create(prf_spec);
      CATMARK_CHECK(session.ok()) << session.status().ToString();
      const auto start = Clock::now();
      for (std::size_t at = 0; at < rows.size();) {
        const std::size_t len = std::min(rows.size() - at, kStreamPrfBatch);
        Result<BatchReport> r =
            session->InsertBatch(rel, std::span<Row>(&rows[at], len));
        CATMARK_CHECK(r.ok()) << r.status().ToString();
        at += len;
      }
      const double secs = SecondsSince(start);
      stream_prf_distinct_s1_tps[p] =
          std::max(stream_prf_distinct_s1_tps[p], stream_n / secs);
    }
  }

  // On-disk format rows: loading the marked relation and the full
  // load -> detect path, CSV versus .catm binary columnar. Pinned to the
  // siphash24 backend so fitness hashing does not mask the ingest story
  // (detect itself is identical between the rows — only the load differs).
  // Content and detection verdicts are checked identical across formats
  // inline, so a loader that is fast but wrong fails the bench.
  WatermarkParams format_params = parallel_params;
  format_params.prf = PrfKind::kSipHash24;
  Relation format_marked = original;
  Result<EmbedReport> format_embed =
      Embedder(keys, format_params).Embed(format_marked, embed_options, wm);
  CATMARK_CHECK(format_embed.ok()) << format_embed.status().ToString();
  DetectOptions format_options = detect_options;
  format_options.domain = format_embed.value().domain;
  format_params.payload_length = format_embed.value().payload_length;

  const char* tmpdir_env = std::getenv("TMPDIR");
  const std::string tmpdir =
      (tmpdir_env != nullptr && *tmpdir_env != '\0') ? tmpdir_env : "/tmp";
  const std::string csv_path = tmpdir + "/catmark_bench_rel.csv";
  const std::string catm_path = tmpdir + "/catmark_bench_rel.catm";
  const std::string quoted_csv_path = tmpdir + "/catmark_bench_rel_quoted.csv";
  {
    const Status s_csv = SaveRelation(format_marked, csv_path);
    CATMARK_CHECK(s_csv.ok()) << s_csv.ToString();
    std::ofstream quoted(quoted_csv_path, std::ios::binary);
    quoted << QuotedCrlfCsv(format_marked);
    CATMARK_CHECK(quoted.good()) << "cannot write " << quoted_csv_path;
    const Status s_catm = SaveRelation(format_marked, catm_path);
    CATMARK_CHECK(s_catm.ok()) << s_catm.ToString();
  }
  const std::size_t csv_bytes = FileBytes::Open(csv_path).value().view().size();
  const std::size_t catm_bytes =
      FileBytes::Open(catm_path).value().view().size();

  // .catm save: the sized, sharded encoder plus the write(2) loop. The file
  // must hold exactly the WriteCatmString image, so a fast writer that
  // writes the wrong bytes fails the bench.
  double save_catm_tps = 0.0;
  const std::string catm_image = WriteCatmString(format_marked);
  for (std::size_t pass = 0; pass < config.passes; ++pass) {
    const auto start = Clock::now();
    const Status saved = WriteCatmFile(format_marked, catm_path);
    const double secs = SecondsSince(start);
    CATMARK_CHECK(saved.ok()) << saved.ToString();
    CATMARK_CHECK(FileBytes::Open(catm_path).value().view() == catm_image)
        << ".catm file bytes differ from WriteCatmString";
    if (n / secs > save_catm_tps) save_catm_tps = n / secs;
  }

  double load_csv_tps = 0.0;
  double load_csv_parallel_tps = 0.0;
  double load_csv_quoted_tps = 0.0;
  double load_catm_tps = 0.0;
  double e2e_csv_tps = 0.0;
  double e2e_catm_tps = 0.0;
  DetectionResult format_detection;
  const Schema& format_schema = format_marked.schema();
  for (std::size_t pass = 0; pass < config.passes; ++pass) {
    {
      const auto start = Clock::now();
      Result<Relation> r = ReadCsvFile(csv_path, format_schema, 1);
      const double secs = SecondsSince(start);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      CATMARK_CHECK(r.value().SameContent(format_marked))
          << "CSV round trip lost data";
      if (n / secs > load_csv_tps) load_csv_tps = n / secs;
    }
    {
      const auto start = Clock::now();
      Result<Relation> r = ReadCsvFile(csv_path, format_schema);
      const double secs = SecondsSince(start);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      CATMARK_CHECK(r.value().SameContent(format_marked))
          << "parallel CSV round trip lost data";
      if (n / secs > load_csv_parallel_tps) load_csv_parallel_tps = n / secs;
    }
    {
      const auto start = Clock::now();
      Result<Relation> r = ReadCsvFile(quoted_csv_path, format_schema);
      const double secs = SecondsSince(start);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      CATMARK_CHECK(r.value().SameContent(format_marked))
          << "quoted CRLF CSV round trip lost data";
      if (n / secs > load_csv_quoted_tps) load_csv_quoted_tps = n / secs;
    }
    {
      const auto start = Clock::now();
      Result<Relation> r = ReadCatmFile(catm_path, format_schema);
      const double secs = SecondsSince(start);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      CATMARK_CHECK(r.value().SameContent(format_marked))
          << ".catm round trip lost data";
      if (n / secs > load_catm_tps) load_catm_tps = n / secs;
    }
    {
      const auto start = Clock::now();
      Result<Relation> r = LoadRelation(csv_path, format_schema);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      Result<DetectionResult> d = Detector(keys, format_params)
                                      .Detect(r.value(), format_options,
                                              wm.size());
      const double secs = SecondsSince(start);
      CATMARK_CHECK(d.ok()) << d.status().ToString();
      format_detection = std::move(d).value();
      if (n / secs > e2e_csv_tps) e2e_csv_tps = n / secs;
    }
    {
      const auto start = Clock::now();
      Result<Relation> r = LoadRelation(catm_path, format_schema);
      CATMARK_CHECK(r.ok()) << r.status().ToString();
      Result<DetectionResult> d = Detector(keys, format_params)
                                      .Detect(r.value(), format_options,
                                              wm.size());
      const double secs = SecondsSince(start);
      CATMARK_CHECK(d.ok()) << d.status().ToString();
      CATMARK_CHECK(d.value().wm == format_detection.wm)
          << ".catm detect decoded a different mark than CSV";
      CATMARK_CHECK_EQ(d.value().usable_votes, format_detection.usable_votes)
          << ".catm detect tallied different votes than CSV";
      if (n / secs > e2e_catm_tps) e2e_catm_tps = n / secs;
    }
  }
  const double e2e_format_gain =
      e2e_csv_tps > 0.0 ? e2e_catm_tps / e2e_csv_tps : 0.0;
  std::remove(csv_path.c_str());
  std::remove(quoted_csv_path.c_str());
  std::remove(catm_path.c_str());

  // Blind multi-key ownership sweep: "whose mark is this data carrying?"
  // over a large candidate key registry. The naive baseline re-runs a full
  // Detector::Detect per candidate, re-serializing every key and re-copying
  // the domain each time (what a pre-engine caller had to do, DetectWith-
  // Certificate-style); the engine row builds one RelationPlan and pushes
  // every candidate through the amortized per-key pass. The suspect uses a
  // repeat-heavy dictionary-encoded key column (a customer registry with
  // ~256 rows per customer) — the layout the dict-code gather exists for —
  // and the siphash24 backend, like the other headline perf rows. The first
  // kSweepNaiveKeys candidates are verified bit-identical between the two
  // paths inline, so a fast-but-divergent sweep fails the bench.
  const std::size_t sweep_n = std::min<std::size_t>(config.num_tuples, 300000);
  const std::size_t sweep_pool = std::max<std::size_t>(256, sweep_n / 256);
  constexpr std::size_t kSweepKeys = 1000;
  constexpr std::size_t kSweepNaiveKeys = 25;
  WatermarkParams sweep_params = serial_params;
  sweep_params.prf = PrfKind::kSipHash24;
  // Registry-style fixed payload (owner-side metadata), not the derived
  // N/e-long channel: a sweep decides 1000 claims against *recorded*
  // certificates, and an N-proportional vote vector per candidate would
  // charge the per-key pass for payload bookkeeping instead of hashing.
  sweep_params.payload_length = std::max<std::size_t>(config.wm_bits * 4, 64);
  Relation sweep_rel(Schema::Create({{"K", ColumnType::kString, true},
                                     {"A", ColumnType::kString, true}})
                         .value());
  {
    std::mt19937_64 rng(config.base_seed + 13);
    for (std::size_t i = 0; i < sweep_n; ++i) {
      const std::uint64_t h = rng();
      Row row;
      row.emplace_back("cust-" + std::to_string(h % sweep_pool));
      row.emplace_back("val-" +
                       std::to_string((h / sweep_pool) % config.domain_size));
      sweep_rel.AppendRowUnchecked(std::move(row));
    }
  }
  Result<EmbedReport> sweep_embed =
      Embedder(keys, sweep_params).Embed(sweep_rel, embed_options, wm);
  CATMARK_CHECK(sweep_embed.ok()) << sweep_embed.status().ToString();
  const EmbedReport sweep_report = std::move(sweep_embed).value();

  std::vector<KeyCandidate> sweep_candidates;
  sweep_candidates.reserve(kSweepKeys);
  for (std::size_t i = 0; i < kSweepKeys; ++i) {
    KeyCandidate c;
    c.keys = i == 0 ? keys
                    : WatermarkKeySet::FromSeed(config.base_seed * 1000 + i);
    c.params = sweep_params;
    c.params.payload_length = sweep_report.payload_length;
    c.wm_len = wm.size();
    sweep_candidates.push_back(std::move(c));
  }

  double sweep_naive_per_key_ms = std::numeric_limits<double>::infinity();
  double sweep_per_key_ms = std::numeric_limits<double>::infinity();
  double sweep_plan_ms = std::numeric_limits<double>::infinity();
  std::vector<DetectionResult> sweep_naive(kSweepNaiveKeys);
  for (std::size_t pass = 0; pass < config.passes; ++pass) {
    {
      const auto start = Clock::now();
      for (std::size_t i = 0; i < kSweepNaiveKeys; ++i) {
        DetectOptions naive_options;
        naive_options.key_attr = "K";
        naive_options.target_attr = "A";
        naive_options.domain = sweep_report.domain;  // per-call copy
        Result<DetectionResult> r =
            Detector(sweep_candidates[i].keys, sweep_params)
                .Detect(sweep_rel, naive_options, wm.size());
        CATMARK_CHECK(r.ok()) << r.status().ToString();
        sweep_naive[i] = std::move(r).value();
      }
      const double ms = SecondsSince(start) * 1e3 / kSweepNaiveKeys;
      if (ms < sweep_naive_per_key_ms) sweep_naive_per_key_ms = ms;
    }
    {
      DetectEngineOptions engine_options;
      engine_options.key_attr = "K";
      engine_options.target_attr = "A";
      engine_options.domain = &sweep_report.domain;
      engine_options.num_threads = serial_params.num_threads;
      const auto plan_start = Clock::now();
      Result<DetectEngine> engine =
          DetectEngine::Create(sweep_rel, engine_options);
      const double plan_ms = SecondsSince(plan_start) * 1e3;
      CATMARK_CHECK(engine.ok()) << engine.status().ToString();
      if (plan_ms < sweep_plan_ms) sweep_plan_ms = plan_ms;

      const auto start = Clock::now();
      const std::vector<Result<DetectionResult>> results =
          engine.value().DetectMany(
              std::span<const KeyCandidate>(sweep_candidates));
      const double ms = SecondsSince(start) * 1e3 / kSweepKeys;
      for (std::size_t i = 0; i < kSweepNaiveKeys; ++i) {
        CATMARK_CHECK(results[i].ok()) << results[i].status().ToString();
        CATMARK_CHECK(results[i].value().wm == sweep_naive[i].wm)
            << "sweep decoded a different mark than repeated detect (key "
            << i << ")";
        CATMARK_CHECK_EQ(results[i].value().usable_votes,
                         sweep_naive[i].usable_votes)
            << "sweep tallied different votes than repeated detect (key "
            << i << ")";
        CATMARK_CHECK_EQ(results[i].value().fit_tuples,
                         sweep_naive[i].fit_tuples)
            << "sweep found different fit tuples than repeated detect (key "
            << i << ")";
      }
      if (ms < sweep_per_key_ms) sweep_per_key_ms = ms;
    }
  }
  const double sweep_keys_per_sec =
      sweep_per_key_ms > 0.0 ? 1e3 / sweep_per_key_ms : 0.0;

  // The same sweep with every certificate claiming the derived N/e-long
  // payload instead of the registry-style short one — the claim a real
  // certificate carries (perfbench's sweep_catm derives 50,000 slots). The
  // per-key pass must cost its ~fit messages whatever length is claimed,
  // so this row sits next to sweep_per_key_ms instead of hiding the
  // payload bookkeeping. The fixture is marked at the short payload, so
  // these claims decode noise; the row measures cost, and the first
  // kSweepNaiveKeys candidates are checked bit-identical against repeated
  // Detector::Detect like the row above.
  const std::size_t sparse_payload =
      DerivePayloadLength(sweep_n, sweep_params.e, wm.size());
  std::vector<KeyCandidate> sparse_candidates = sweep_candidates;
  for (KeyCandidate& c : sparse_candidates) {
    c.params.payload_length = sparse_payload;
  }
  std::vector<DetectionResult> sparse_naive(kSweepNaiveKeys);
  for (std::size_t i = 0; i < kSweepNaiveKeys; ++i) {
    DetectOptions naive_options;
    naive_options.key_attr = "K";
    naive_options.target_attr = "A";
    naive_options.domain = sweep_report.domain;
    Result<DetectionResult> r =
        Detector(sparse_candidates[i].keys, sparse_candidates[i].params)
            .Detect(sweep_rel, naive_options, wm.size());
    CATMARK_CHECK(r.ok()) << r.status().ToString();
    sparse_naive[i] = std::move(r).value();
  }
  double sweep_sparse_per_key_ms = std::numeric_limits<double>::infinity();
  {
    DetectEngineOptions engine_options;
    engine_options.key_attr = "K";
    engine_options.target_attr = "A";
    engine_options.domain = &sweep_report.domain;
    engine_options.num_threads = serial_params.num_threads;
    Result<DetectEngine> engine =
        DetectEngine::Create(sweep_rel, engine_options);
    CATMARK_CHECK(engine.ok()) << engine.status().ToString();
    for (std::size_t pass = 0; pass < config.passes; ++pass) {
      const auto start = Clock::now();
      const std::vector<Result<DetectionResult>> results =
          engine.value().DetectMany(
              std::span<const KeyCandidate>(sparse_candidates));
      const double ms = SecondsSince(start) * 1e3 / kSweepKeys;
      for (std::size_t i = 0; i < kSweepNaiveKeys; ++i) {
        CATMARK_CHECK(results[i].ok()) << results[i].status().ToString();
        const DetectionResult& got = results[i].value();
        CATMARK_CHECK(got.wm == sparse_naive[i].wm)
            << "sparse sweep decoded a different mark than repeated detect "
               "(key "
            << i << ")";
        CATMARK_CHECK_EQ(got.usable_votes, sparse_naive[i].usable_votes)
            << "sparse sweep tallied different votes than repeated detect "
               "(key "
            << i << ")";
        CATMARK_CHECK_EQ(got.fit_tuples, sparse_naive[i].fit_tuples)
            << "sparse sweep found different fit tuples than repeated "
               "detect (key "
            << i << ")";
        CATMARK_CHECK_EQ(got.positions_present,
                         sparse_naive[i].positions_present)
            << "sparse sweep filled different slots than repeated detect "
               "(key "
            << i << ")";
      }
      if (ms < sweep_sparse_per_key_ms) sweep_sparse_per_key_ms = ms;
    }
  }
  const double sweep_sparse_keys_per_sec =
      sweep_sparse_per_key_ms > 0.0 ? 1e3 / sweep_sparse_per_key_ms : 0.0;
  const double sweep_gain = sweep_per_key_ms > 0.0
                                ? sweep_naive_per_key_ms / sweep_per_key_ms
                                : 0.0;

  PrintTableTitle("embed/detect pipeline throughput (tuples/sec, best of "
                  "passes)");
  PrintTableHeader({"stage", "serial", "parallel", "speedup", "threads"});
  PrintTableRow({"embed", FormatDouble(embed.serial_tps, 0),
                 FormatDouble(embed.parallel_tps, 0),
                 FormatDouble(embed.speedup, 2),
                 std::to_string(parallel_params.num_threads)});
  PrintTableRow({"embed(map)", FormatDouble(embed_map.serial_tps, 0),
                 FormatDouble(embed_map.parallel_tps, 0),
                 FormatDouble(embed_map.speedup, 2),
                 std::to_string(parallel_params.num_threads)});
  PrintTableRow({"detect", FormatDouble(detect.serial_tps, 0),
                 FormatDouble(detect.parallel_tps, 0),
                 FormatDouble(detect.speedup, 2),
                 std::to_string(parallel_params.num_threads)});
  for (std::size_t p = 0; p < kNumPrfs; ++p) {
    PrintTableRow({"detect[" + std::string(PrfKindName(kPrfSweep[p])) + "]",
                   FormatDouble(prf_detect[p].serial_tps, 0),
                   FormatDouble(prf_detect[p].parallel_tps, 0),
                   FormatDouble(prf_detect[p].speedup, 2),
                   std::to_string(parallel_params.num_threads)});
  }
  PrintTableRow({"detect prf gain", FormatDouble(prf_fast_gain, 2) + "x",
                 "(siphash24 / keyed-hash, serial)", "-", "1"});
  for (std::size_t p = 0; p < kNumEmbedPrfs; ++p) {
    PrintTableRow(
        {"embed[" + std::string(PrfKindName(kEmbedPrfSweep[p])) + "]",
         FormatDouble(prf_embed[p].serial_tps, 0),
         FormatDouble(prf_embed[p].parallel_tps, 0),
         FormatDouble(prf_embed[p].speedup, 2),
         std::to_string(parallel_params.num_threads)});
  }
  PrintTableRow({"embed prf gain", FormatDouble(embed_prf_fast_gain, 2) + "x",
                 "(siphash24 / keyed-hash, serial)", "-", "1"});
  PrintTableRow(
      {"plan/index (ms)", FormatDouble(index_ms, 3), "-", "-", "1"});

  PrintTableTitle("detect SIMD dispatch + detect entry points (siphash24, "
                  "single thread, tuples/sec)");
  PrintTableHeader({"stage", "tuples/sec", "", "", ""});
  PrintTableRow({"detect_simd_" + simd_level_name,
                 FormatDouble(detect_simd_tps, 0), "", "", ""});
  PrintTableRow({"detect_simd_off", FormatDouble(detect_simd_scalar_tps, 0),
                 "", "", ""});
  PrintTableRow({"detect_simd_gain", FormatDouble(detect_simd_gain, 2) + "x",
                 "(" + simd_level_name + " / scalar)", "", ""});
  PrintTableRow({"Detector::Detect", FormatDouble(detect_simd_tps, 0),
                 "", "", ""});
  PrintTableRow({"engine pass", FormatDouble(plan_pass_tps, 0),
                 "(Create + Detect)", "", ""});
  PrintTableRow({"detector / engine",
                 FormatDouble(oneshot_vs_plan_gain, 2) + "x",
                 "(one path timed twice)", "", ""});

  PrintTableTitle("on-disk format: load and load->detect throughput "
                  "(tuples/sec, best of passes; siphash24 PRF)");
  PrintTableHeader({"stage", "csv", "catm", "gain", "bytes"});
  PrintTableRow({"load(serial csv)", FormatDouble(load_csv_tps, 0), "-", "-",
                 std::to_string(csv_bytes)});
  PrintTableRow({"load(quoted crlf csv)", FormatDouble(load_csv_quoted_tps, 0),
                 "-", "-", "-"});
  PrintTableRow({"load", FormatDouble(load_csv_parallel_tps, 0),
                 FormatDouble(load_catm_tps, 0),
                 FormatDouble(load_csv_parallel_tps > 0.0
                                  ? load_catm_tps / load_csv_parallel_tps
                                  : 0.0,
                              2),
                 std::to_string(catm_bytes)});
  PrintTableRow({"load->detect", FormatDouble(e2e_csv_tps, 0),
                 FormatDouble(e2e_catm_tps, 0),
                 FormatDouble(e2e_format_gain, 2), "-"});
  PrintTableRow({"save", "-", FormatDouble(save_catm_tps, 0), "-", "-"});

  PrintTableTitle("streaming service sustained inserts/sec (best of passes; "
                  "batch=1 is the legacy row-at-a-time path)");
  PrintTableHeader({"batch", "1 session", "8 sessions", "", ""});
  for (std::size_t b = 0; b < kNumBatchSizes; ++b) {
    PrintTableRow({std::to_string(kBatchSizes[b]),
                   FormatDouble(stream_s1_tps[b], 0),
                   FormatDouble(stream_s8_tps[b], 0), "", ""});
  }
  PrintTableRow({"batch gain", FormatDouble(stream_batch_gain, 2) + "x",
                 "(batch=1024 / batch=1, 1 session)", "", ""});

  PrintTableTitle("streaming steady state (batch=1024, inserts/sec per PRF "
                  "backend; warm sessions, distinct keys on fresh ones)");
  PrintTableHeader({"backend", "1 session", "8 sessions",
                    "distinct keys", ""});
  for (std::size_t p = 0; p < kNumStreamPrfs; ++p) {
    PrintTableRow({std::string(PrfKindName(kStreamPrfSweep[p])),
                   FormatDouble(stream_prf_s1_tps[p], 0),
                   FormatDouble(stream_prf_s8_tps[p], 0),
                   FormatDouble(stream_prf_distinct_s1_tps[p], 0), ""});
  }

  PrintTableTitle("blind multi-key ownership sweep (dict keys, siphash24; "
                  "naive = repeated Detector::Detect)");
  PrintTableHeader({"metric", "value", "", "", ""});
  PrintTableRow({"sweep keys", std::to_string(kSweepKeys), "", "", ""});
  PrintTableRow({"suspect tuples", std::to_string(sweep_n), "", "", ""});
  PrintTableRow({"naive per-key (ms)",
                 FormatDouble(sweep_naive_per_key_ms, 3), "", "", ""});
  PrintTableRow({"sweep per-key (ms)", FormatDouble(sweep_per_key_ms, 4),
                 "", "", ""});
  PrintTableRow({"plan build (ms)", FormatDouble(sweep_plan_ms, 3),
                 "", "", ""});
  PrintTableRow({"sweep keys/sec", FormatDouble(sweep_keys_per_sec, 0),
                 "", "", ""});
  PrintTableRow({"sweep gain", FormatDouble(sweep_gain, 2) + "x",
                 "(naive per-key / sweep per-key)", "", ""});
  PrintTableRow({"sparse payload (slots)", std::to_string(sparse_payload),
                 "(derived N/e claim)", "", ""});
  PrintTableRow({"sparse per-key (ms)",
                 FormatDouble(sweep_sparse_per_key_ms, 4), "", "", ""});
  PrintTableRow({"sparse keys/sec", FormatDouble(sweep_sparse_keys_per_sec, 0),
                 "", "", ""});

  if (const char* json_path = std::getenv("CATMARK_BENCH_JSON")) {
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "bench_throughput: cannot write %s\n", json_path);
      return 1;
    }
    char buf[16384];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"bench\": \"bench_throughput\",\n"
        "  \"n\": %zu,\n"
        "  \"domain\": %zu,\n"
        "  \"passes\": %zu,\n"
        "  \"threads\": %zu,\n"
        "  \"host_cpu_model\": \"%s\",\n"
        "  \"host_cores\": %u,\n"
        "  \"embed_serial_tps\": %.0f,\n"
        "  \"embed_parallel_tps\": %.0f,\n"
        "  \"embed_speedup\": %.3f,\n"
        "  \"embed_map_serial_tps\": %.0f,\n"
        "  \"embed_map_parallel_tps\": %.0f,\n"
        "  \"embed_map_speedup\": %.3f,\n"
        "  \"detect_serial_tps\": %.0f,\n"
        "  \"detect_parallel_tps\": %.0f,\n"
        "  \"detect_speedup\": %.3f,\n"
        "  \"detect_prf_keyed_hash_serial_tps\": %.0f,\n"
        "  \"detect_prf_keyed_hash_parallel_tps\": %.0f,\n"
        "  \"detect_prf_hmac_sha256_serial_tps\": %.0f,\n"
        "  \"detect_prf_hmac_sha256_parallel_tps\": %.0f,\n"
        "  \"detect_prf_siphash24_serial_tps\": %.0f,\n"
        "  \"detect_prf_siphash24_parallel_tps\": %.0f,\n"
        "  \"detect_prf_fast_gain\": %.3f,\n"
        "  \"embed_prf_keyed_hash_serial_tps\": %.0f,\n"
        "  \"embed_prf_keyed_hash_parallel_tps\": %.0f,\n"
        "  \"embed_prf_siphash24_serial_tps\": %.0f,\n"
        "  \"embed_prf_siphash24_parallel_tps\": %.0f,\n"
        "  \"embed_prf_fast_gain\": %.3f,\n"
        "  \"simd_level\": \"%s\",\n"
        "  \"detect_simd_serial_tps\": %.0f,\n"
        "  \"detect_simd_scalar_serial_tps\": %.0f,\n"
        "  \"detect_simd_gain\": %.3f,\n"
        "  \"detect_oneshot_serial_tps\": %.0f,\n"
        "  \"detect_plan_pass_serial_tps\": %.0f,\n"
        "  \"detect_oneshot_gain\": %.3f,\n"
        "  \"index_build_ms\": %.4f,\n"
        "  \"load_csv_tps\": %.0f,\n"
        "  \"load_csv_parallel_tps\": %.0f,\n"
        "  \"load_csv_quoted_tps\": %.0f,\n"
        "  \"load_catm_tps\": %.0f,\n"
        "  \"e2e_csv_tps\": %.0f,\n"
        "  \"e2e_catm_tps\": %.0f,\n"
        "  \"e2e_format_gain\": %.3f,\n"
        "  \"save_catm_tps\": %.0f,\n"
        "  \"csv_bytes\": %zu,\n"
        "  \"catm_bytes\": %zu,\n"
        "  \"stream_n\": %zu,\n"
        "  \"stream_s1_b1_tps\": %.0f,\n"
        "  \"stream_s1_b64_tps\": %.0f,\n"
        "  \"stream_s1_b1024_tps\": %.0f,\n"
        "  \"stream_s8_b1_tps\": %.0f,\n"
        "  \"stream_s8_b64_tps\": %.0f,\n"
        "  \"stream_s8_b1024_tps\": %.0f,\n"
        "  \"stream_batch_gain\": %.3f,\n"
        "  \"stream_prf_keyed_hash_s1_tps\": %.0f,\n"
        "  \"stream_prf_keyed_hash_s8_tps\": %.0f,\n"
        "  \"stream_prf_siphash24_s1_tps\": %.0f,\n"
        "  \"stream_prf_siphash24_s8_tps\": %.0f,\n"
        "  \"stream_prf_keyed_hash_distinct_s1_tps\": %.0f,\n"
        "  \"stream_prf_siphash24_distinct_s1_tps\": %.0f,\n"
        "  \"sweep_keys\": %zu,\n"
        "  \"sweep_n\": %zu,\n"
        "  \"sweep_naive_per_key_ms\": %.4f,\n"
        "  \"sweep_per_key_ms\": %.5f,\n"
        "  \"sweep_plan_ms\": %.4f,\n"
        "  \"sweep_keys_per_sec\": %.0f,\n"
        "  \"sweep_gain\": %.2f,\n"
        "  \"sweep_sparse_per_key_ms\": %.5f,\n"
        "  \"sweep_sparse_keys_per_sec\": %.0f\n"
        "}\n",
        config.num_tuples, config.domain_size, config.passes,
        parallel_params.num_threads, HostCpuModel().c_str(),
        std::thread::hardware_concurrency(), embed.serial_tps,
        embed.parallel_tps,
        embed.speedup, embed_map.serial_tps,
        embed_map.parallel_tps, embed_map.speedup, detect.serial_tps,
        detect.parallel_tps, detect.speedup, prf_detect[0].serial_tps,
        prf_detect[0].parallel_tps, prf_detect[1].serial_tps,
        prf_detect[1].parallel_tps, prf_detect[2].serial_tps,
        prf_detect[2].parallel_tps, prf_fast_gain,
        prf_embed[0].serial_tps, prf_embed[0].parallel_tps,
        prf_embed[1].serial_tps, prf_embed[1].parallel_tps,
        embed_prf_fast_gain, simd_level_name.c_str(),
        detect_simd_tps, detect_simd_scalar_tps, detect_simd_gain,
        detect_simd_tps, plan_pass_tps, oneshot_vs_plan_gain, index_ms,
        load_csv_tps,
        load_csv_parallel_tps, load_csv_quoted_tps, load_catm_tps,
        e2e_csv_tps, e2e_catm_tps,
        e2e_format_gain, save_catm_tps, csv_bytes, catm_bytes, stream_n,
        stream_s1_tps[0], stream_s1_tps[1], stream_s1_tps[2],
        stream_s8_tps[0], stream_s8_tps[1], stream_s8_tps[2],
        stream_batch_gain,
        stream_prf_s1_tps[0], stream_prf_s8_tps[0],
        stream_prf_s1_tps[1], stream_prf_s8_tps[1],
        stream_prf_distinct_s1_tps[0], stream_prf_distinct_s1_tps[1],
        kSweepKeys, sweep_n, sweep_naive_per_key_ms,
        sweep_per_key_ms, sweep_plan_ms, sweep_keys_per_sec, sweep_gain,
        sweep_sparse_per_key_ms, sweep_sparse_keys_per_sec);
    out << buf;
    std::printf("json report: %s\n", json_path);
  }
  return 0;
}

}  // namespace
}  // namespace catmark

int main(int argc, char** argv) {
  const catmark::ExperimentConfig config =
      catmark::ExperimentConfig::FromArgs(argc, argv);
  return catmark::Run(config);
}
