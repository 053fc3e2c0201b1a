// Differential test of blind detection against the paper-literal Figure 2
// oracle (reference_scheme.h): Detector::Detect on plain and dict key
// columns, DetectEngine::DetectMany, and the embedding-map path, over
// random schemas, NULL densities, ECC kinds, bit-index modes, PRF backends
// and thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/detect_engine.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "reference_scheme.h"
#include "test_util.h"

namespace catmark {
namespace {

constexpr std::size_t kTrials = 500;
constexpr std::size_t kThreadCounts[] = {1, 2, 4};

enum class KeyKind { kPlainInt, kPlainString, kPlainDouble, kDictString,
                     kDictInt };
enum class TargetKind { kDictString, kPlainString, kDictInt, kPlainInt };

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

Value TargetValue(TargetKind kind, std::size_t index) {
  switch (kind) {
    case TargetKind::kDictInt:
    case TargetKind::kPlainInt:
      return Value(static_cast<std::int64_t>(index) * 3 - 7);
    case TargetKind::kDictString:
    case TargetKind::kPlainString:
      return Value("val-" + std::to_string(index));
  }
  return Value();
}

/// Random (K, A, optional filler X) relation in a random column order.
Relation RandomRelation(RandomSource& r, KeyKind key_kind,
                        TargetKind target_kind, std::size_t domain_size) {
  const bool key_dict =
      key_kind == KeyKind::kDictString || key_kind == KeyKind::kDictInt;
  const ColumnType key_type =
      key_kind == KeyKind::kPlainDouble
          ? ColumnType::kDouble
          : (key_kind == KeyKind::kPlainString ||
                     key_kind == KeyKind::kDictString
                 ? ColumnType::kString
                 : ColumnType::kInt64);
  const bool target_dict = target_kind == TargetKind::kDictString ||
                           target_kind == TargetKind::kDictInt;
  const ColumnType target_type = target_kind == TargetKind::kDictInt ||
                                         target_kind == TargetKind::kPlainInt
                                     ? ColumnType::kInt64
                                     : ColumnType::kString;
  std::vector<Column> columns = {{"K", key_type, key_dict},
                                 {"A", target_type, target_dict}};
  const bool filler = r.Chance(0.5);
  if (filler) columns.push_back({"X", ColumnType::kInt64, false});
  std::shuffle(columns.begin(), columns.end(), r.rng);
  Relation rel(Schema::Create(columns).value());

  const std::size_t n = r.Chance(0.1) ? 1 + r.Below(4) : 1 + r.Below(600);
  // Unique keys, or a repeat-heavy pool (the dict-code gather's shape).
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
          row[c] = TargetValue(target_kind, r.Below(domain_size));
        }
      } else {
        row[c] = Value(static_cast<std::int64_t>(r.rng() % 1000));
      }
    }
    rel.AppendRowUnchecked(std::move(row));
  }
  return rel;
}

WatermarkParams RandomParams(RandomSource& r) {
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
  return params;
}

/// A payload length a claimant might bring: 0 (derive from the suspect),
/// below the mark length, around the N/e channel, or arbitrary.
std::size_t RandomPayloadLength(RandomSource& r, std::size_t wm_len,
                                std::size_t n, std::uint64_t e) {
  switch (r.Below(5)) {
    case 0:
      return 0;
    case 1:
      return wm_len > 1 ? 1 + r.Below(wm_len - 1) : 1;
    case 2:
      return std::max<std::size_t>(wm_len, n / e);
    case 3:
      return 1 + r.Below(64);
    default:
      return 1 + r.Below(4000);
  }
}

TEST(ReferenceDetectTest, PipelineMatchesFigure2) {
  std::size_t compared = 0;
  std::size_t decoded_true_mark = 0;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    RandomSource r{std::mt19937_64(0x5eed0000 + trial)};
    const KeyKind key_kind =
        r.Pick({KeyKind::kPlainInt, KeyKind::kPlainString,
                KeyKind::kPlainDouble, KeyKind::kDictString,
                KeyKind::kDictInt});
    const TargetKind target_kind =
        r.Pick({TargetKind::kDictString, TargetKind::kPlainString,
                TargetKind::kDictInt, TargetKind::kPlainInt});
    const std::size_t domain_size = 2 + r.Below(30);
    Relation rel = RandomRelation(r, key_kind, target_kind, domain_size);
    const std::string where_trial = "trial " + std::to_string(trial);

    // Mark the relation with the owner's keys when the draw allows it, so
    // the true candidate votes on a real mark (a failed embed — e.g. too
    // little bandwidth — leaves it unmarked, which is fine to detect too).
    WatermarkParams owner = RandomParams(r);
    const std::size_t wm_len = 1 + r.Below(20);
    const BitVector wm = testutil::TestWatermark(wm_len, trial);
    const WatermarkKeySet owner_keys = WatermarkKeySet::FromSeed(trial + 1);
    owner.payload_length =
        RandomPayloadLength(r, wm_len, rel.NumRows(), owner.e);
    EmbedOptions embed_options;
    embed_options.key_attr = "K";
    embed_options.target_attr = "A";
    embed_options.build_embedding_map = r.Chance(0.3);
    const Result<EmbedReport> report =
        Embedder(owner_keys, owner).Embed(rel, embed_options, wm);
    const EmbeddingMap* map =
        report.ok() && embed_options.build_embedding_map
            ? &report.value().embedding_map
            : nullptr;
    if (report.ok()) owner.payload_length = report.value().payload_length;

    // The detect-time domain: recovered from the suspect, or declared —
    // sometimes missing a value and carrying a stranger, so some targets
    // fall outside it.
    const Result<CategoricalDomain> recovered =
        CategoricalDomain::FromRelationColumn(
            rel, rel.schema().ColumnIndex("A"));
    if (!recovered.ok() || recovered.value().size() < 2) continue;
    std::optional<CategoricalDomain> declared;
    if (r.Chance(0.5)) {
      std::vector<Value> values = recovered.value().values();
      if (r.Chance(0.5) && values.size() > 2) {
        values.erase(values.begin() + r.Below(values.size()));
        values.push_back(TargetValue(target_kind, 1000 + r.Below(5)));
      }
      declared = CategoricalDomain::FromValues(values).value();
    }
    const CategoricalDomain& domain =
        declared.has_value() ? *declared : recovered.value();

    // The true owner, a stranger with the owner's parameters, and a
    // stranger claiming parameters of its own.
    std::vector<KeyCandidate> candidates(3);
    candidates[0] = {owner_keys, owner, wm_len};
    candidates[1] = {WatermarkKeySet::FromSeed(9000 + trial), owner, wm_len};
    candidates[2].keys = WatermarkKeySet::FromSeed(19000 + trial);
    candidates[2].params = RandomParams(r);
    candidates[2].wm_len = 1 + r.Below(20);
    candidates[2].params.payload_length = RandomPayloadLength(
        r, candidates[2].wm_len, rel.NumRows(), candidates[2].params.e);

    std::vector<Result<reference::ReferenceDetection>> expected;
    for (const KeyCandidate& c : candidates) {
      expected.push_back(reference::ReferenceDetect(
          rel, reference::DetectInputsOf(c, domain)));
    }
    if (report.ok() && expected[0].ok() && expected[0].value().wm == wm) {
      ++decoded_true_mark;
    }

    for (const std::size_t threads : kThreadCounts) {
      const std::string where =
          where_trial + " threads " + std::to_string(threads);
      // Detector::Detect, one candidate at a time, with the candidate's
      // params (payload length included).
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        WatermarkParams params = candidates[i].params;
        params.num_threads = threads;
        DetectOptions options;
        options.key_attr = "K";
        options.target_attr = "A";
        options.domain = declared;
        const Detector detector(candidates[i].keys, params);
        reference::ExpectDetectMatchesReference(
            detector.Detect(rel, options, candidates[i].wm_len), expected[i],
            where + " Detector::Detect candidate " + std::to_string(i));
        ++compared;
      }

      // DetectEngine::DetectMany over the whole candidate block.
      DetectEngineOptions engine_options;
      engine_options.key_attr = "K";
      engine_options.target_attr = "A";
      engine_options.domain = declared.has_value() ? &*declared : nullptr;
      engine_options.num_threads = threads;
      const Result<DetectEngine> engine =
          DetectEngine::Create(rel, engine_options);
      ASSERT_TRUE(engine.ok()) << where << ": " << engine.status().ToString();
      const std::vector<Result<DetectionResult>> many =
          engine.value().DetectMany(std::span<const KeyCandidate>(candidates));
      ASSERT_EQ(many.size(), candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        reference::ExpectDetectMatchesReference(
            many[i], expected[i],
            where + " DetectMany candidate " + std::to_string(i));
        ++compared;
      }

      // Figure 2(b): positions from the owner's embedding map.
      if (map != nullptr) {
        WatermarkParams params = owner;
        params.num_threads = threads;
        DetectOptions options;
        options.key_attr = "K";
        options.target_attr = "A";
        options.domain = declared;
        options.embedding_map = map;
        KeyCandidate map_candidate = candidates[0];
        map_candidate.embedding_map = map;
        reference::ExpectDetectMatchesReference(
            Detector(owner_keys, params).Detect(rel, options, wm_len),
            reference::ReferenceDetect(
                rel, reference::DetectInputsOf(map_candidate, domain)),
            where + " embedding map");
        ++compared;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(compared, kTrials * 3 * 5);
  // The oracle must see real marks, not only noise: the draws that give
  // the owner enough bandwidth decode the owner's mark exactly.
  EXPECT_GT(decoded_true_mark, kTrials / 20);
}

}  // namespace
}  // namespace catmark
