// Bijective attribute re-mapping (Section 4.5): Mallory renames every
// category through a secret bijection (and plans to sell a "reverse mapper"
// on the side). The owner inverts the mapping by frequency-rank matching
// and recovers the watermark.

#include <cstdio>

#include "core/catmark.h"
#include "exp/harness.h"
#include "relation/histogram.h"

using namespace catmark;

int main() {
  KeyedCategoricalConfig gen;
  gen.num_tuples = 40000;
  gen.domain_size = 50;
  gen.zipf_s = 1.1;  // skewed occurrence frequencies (airport/product codes)
  gen.seed = 11;
  Relation rel = GenerateKeyedCategorical(gen);

  const WatermarkKeySet keys = WatermarkKeySet::FromPassphrase("remapper");
  WatermarkParams params;
  params.e = 40;
  const BitVector wm = MakeWatermark(10, 11);

  const CategoricalDomain domain =
      CategoricalDomain::FromRelationColumn(rel, 1).value();
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.domain = domain;
  const EmbedReport report =
      Embedder(keys, params).Embed(rel, options, wm).value();
  std::printf("embedded 10-bit mark into %zu tuples (e=%llu)\n",
              report.altered_tuples,
              static_cast<unsigned long long>(params.e));

  // Owner-side metadata: the published frequency table (nA doubles).
  const std::vector<double> published =
      FrequencyHistogram::Compute(rel, 1, domain).value().Frequencies();

  // --- Mallory remaps ------------------------------------------------------
  const RemapAttackResult attack = BijectiveRemapAttack(rel, "A", 13).value();
  std::printf("\nMallory remapped all %zu category labels, e.g. %s -> %s\n",
              domain.size(), domain.value(0).ToString().c_str(),
              attack.ground_truth.forward.at(domain.value(0).ToString())
                  .c_str());

  WatermarkParams detect_params = params;
  detect_params.payload_length = report.payload_length;
  const Detector detector(keys, detect_params);
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.domain = report.domain;

  // Without recovery the decoder cannot even place the values.
  const DetectionResult blind =
      detector.Detect(attack.relation, detect_options, wm.size()).value();
  std::printf("\nwithout recovery: %zu usable votes -> match %zu/%zu\n",
              blind.usable_votes,
              MatchWatermark(wm, blind.wm).matched_bits, wm.size());

  // --- Section 4.5 recovery ------------------------------------------------
  const RemapRecovery recovery =
      RecoverBijectiveMapping(attack.relation, "A", domain, published)
          .value();
  std::printf(
      "recovered mapping by frequency-rank matching "
      "(mean frequency error %.4f)\n",
      recovery.mean_frequency_error);

  const Relation restored =
      ApplyRecoveredMapping(attack.relation, "A", recovery, domain).value();
  const DetectionResult after =
      detector.Detect(restored, detect_options, wm.size()).value();
  const MatchStats stats = MatchWatermark(wm, after.wm);
  std::printf("with recovery   : %zu usable votes -> match %zu/%zu "
              "(false-claim probability %.2e)\n",
              after.usable_votes, stats.matched_bits, stats.total_bits,
              stats.false_match_probability);
  return stats.match_fraction >= 0.9 ? 0 : 1;
}
