// Ablation — frequency-domain channel (Section 4.2) and bijective remapping
// recovery (Section 4.5): the two "extreme attack" defenses.

#include <cstdio>

#include "attack/attacks.h"
#include "core/freq_mark.h"
#include "core/remap_recovery.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "relation/histogram.h"
#include "relation/ops.h"

namespace catmark {
namespace {

void FreqChannel(const ExperimentConfig& config) {
  PrintTableTitle(
      "Frequency-domain mark: survival under extreme vertical partition + "
      "data loss");
  PrintTableHeader({"data loss (%)", "mark match (%)"});

  KeyedCategoricalConfig gen;
  gen.num_tuples = std::max<std::size_t>(config.num_tuples, 20000);
  gen.domain_size = 60;
  gen.seed = config.base_seed;
  const Relation original = GenerateKeyedCategorical(gen);

  FreqMarkParams params;
  params.quantization_step = 0.02;

  for (const double loss : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    double match_sum = 0.0;
    for (std::size_t pass = 0; pass < config.passes; ++pass) {
      const FrequencyMarker marker(SecretKey::FromSeed(4000 + pass), params);
      const BitVector wm = MakeWatermark(8, 4000 + pass);
      Relation marked = original;
      if (!marker.Embed(marked, "A", wm).ok()) continue;
      // Extreme A5: Mallory keeps only attribute A, then drops tuples.
      Relation kept = VerticalPartitionAttack(marked, {"A"}).value();
      if (loss > 0.0) {
        kept = HorizontalPartitionAttack(kept, 1.0 - loss, 5000 + pass)
                   .value();
      }
      const FreqDetectReport detect =
          marker.Detect(kept, "A", wm.size()).value();
      match_sum += MatchWatermark(wm, detect.wm).match_fraction;
    }
    PrintTableRow({FormatDouble(loss * 100.0, 0),
                   FormatDouble(100.0 * match_sum /
                                static_cast<double>(config.passes))});
  }
  std::printf(
      "\nExpected: near-100%% match even though Mallory kept a single\n"
      "column and no key; degradation appears only when sampling noise\n"
      "approaches the quantization step q/2.\n");
}

void RemapRecoveryCase(const ExperimentConfig& config) {
  PrintTableTitle(
      "Bijective remapping (A6): detection before vs after Section 4.5 "
      "frequency-rank recovery");
  PrintTableHeader({"pass-avg", "no recovery (%)", "with recovery (%)"});

  KeyedCategoricalConfig gen;
  gen.num_tuples = std::max<std::size_t>(config.num_tuples, 20000);
  gen.domain_size = 40;
  gen.zipf_s = 1.1;
  gen.seed = config.base_seed;
  const Relation original = GenerateKeyedCategorical(gen);
  const CategoricalDomain domain =
      CategoricalDomain::FromRelationColumn(original, 1).value();

  WatermarkParams params;
  params.e = 30;
  double without_sum = 0.0, with_sum = 0.0;
  for (std::size_t pass = 0; pass < config.passes; ++pass) {
    const WatermarkKeySet keys = WatermarkKeySet::FromSeed(6000 + pass);
    const BitVector wm = MakeWatermark(config.wm_bits, 6000 + pass);
    Relation marked = original;
    EmbedOptions options;
    options.key_attr = "K";
    options.target_attr = "A";
    options.domain = domain;
    const EmbedReport report =
        Embedder(keys, params).Embed(marked, options, wm).value();
    const std::vector<double> published =
        FrequencyHistogram::Compute(marked, 1, domain).value().Frequencies();

    const RemapAttackResult attack =
        BijectiveRemapAttack(marked, "A", 7000 + pass).value();

    WatermarkParams detect_params = params;
    detect_params.payload_length = report.payload_length;
    const Detector detector(keys, detect_params);
    DetectOptions detect_options;
    detect_options.key_attr = "K";
    detect_options.target_attr = "A";
    detect_options.domain = report.domain;

    const DetectionResult blind =
        detector.Detect(attack.relation, detect_options, wm.size()).value();
    without_sum += MatchWatermark(wm, blind.wm).match_fraction;

    const RemapRecovery recovery =
        RecoverBijectiveMapping(attack.relation, "A", domain, published)
            .value();
    const Relation restored =
        ApplyRecoveredMapping(attack.relation, "A", recovery, domain).value();
    const DetectionResult recovered =
        detector.Detect(restored, detect_options, wm.size()).value();
    with_sum += MatchWatermark(wm, recovered.wm).match_fraction;
  }
  PrintTableRow(
      {std::to_string(config.passes) + " passes",
       FormatDouble(100.0 * without_sum / static_cast<double>(config.passes)),
       FormatDouble(100.0 * with_sum / static_cast<double>(config.passes))});
  std::printf(
      "\nExpected: chance-level (~50%%) before recovery — every remapped\n"
      "value decodes as out-of-domain — and near-100%% after frequency-rank\n"
      "recovery on this skewed (Zipf 1.1) attribute.\n");
}

void Run(const ExperimentConfig& config) {
  FreqChannel(config);
  RemapRecoveryCase(config);
}

}  // namespace
}  // namespace catmark

int main(int argc, char** argv) {
  catmark::Run(catmark::ExperimentConfig::FromArgs(argc, argv));
  return 0;
}
