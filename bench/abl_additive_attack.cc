// Ablation — additive watermark attack (Section 6 future work): Mallory
// re-marks the owner's data with his own keys. Measures (a) how much of the
// owner's mark each additional adversarial pass destroys and (b) the key
// commitment asymmetry that settles the ownership dispute.

#include <cstdio>

#include "core/additive_attack.h"
#include "core/decision.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"

namespace catmark {
namespace {

void Run(const ExperimentConfig& config) {
  PrintTableTitle(
      "Ablation: additive watermark attack — owner's mark vs stacked "
      "adversarial marks (e=30)");
  std::printf("N=%zu  |wm|=%zu  passes=%zu\n", config.num_tuples,
              config.wm_bits, config.passes);
  PrintTableHeader({"adversarial passes", "owner mark match (%)",
                    "owner still owns (%)", "data altered by Mallory (%N)"});

  KeyedCategoricalConfig gen;
  gen.num_tuples = config.num_tuples;
  gen.domain_size = config.domain_size;
  gen.seed = config.base_seed;
  const Relation original = GenerateKeyedCategorical(gen);
  WatermarkParams params;
  params.e = 30;

  for (const int stacked : {0, 1, 2, 4, 8}) {
    double match_sum = 0.0, owned_sum = 0.0, altered_sum = 0.0;
    for (std::size_t pass = 0; pass < config.passes; ++pass) {
      const WatermarkKeySet keys = WatermarkKeySet::FromSeed(9000 + pass);
      const BitVector wm = MakeWatermark(config.wm_bits, 9000 + pass);
      Relation marked = original;
      EmbedOptions options;
      options.key_attr = "K";
      options.target_attr = "A";
      const EmbedReport report =
          Embedder(keys, params).Embed(marked, options, wm).value();

      Relation attacked = marked;
      for (int s = 0; s < stacked; ++s) {
        AdditiveAttackResult r =
            AdditiveWatermarkAttack(attacked, "K", "A", params,
                                    config.wm_bits,
                                    9100 + pass * 16 + static_cast<std::uint64_t>(s))
                .value();
        attacked = std::move(r.relation);
        altered_sum += r.mallory_report.alteration_fraction * 100.0;
      }

      WatermarkParams detect_params = params;
      detect_params.payload_length = report.payload_length;
      const Detector detector(keys, detect_params);
      DetectOptions detect_options;
      detect_options.key_attr = "K";
      detect_options.target_attr = "A";
      detect_options.domain = report.domain;
      const DetectionResult detection =
          detector.Detect(attacked, detect_options, config.wm_bits).value();
      const MatchStats stats = MatchWatermark(wm, detection.wm);
      match_sum += stats.match_fraction * 100.0;
      owned_sum += DecideOwnership(wm, detection.wm, 1e-3).owned ? 100.0 : 0.0;
    }
    const double n = static_cast<double>(config.passes);
    PrintTableRow({std::to_string(stacked), FormatDouble(match_sum / n),
                   FormatDouble(owned_sum / n),
                   FormatDouble(altered_sum / n)});
  }
  std::printf(
      "\nExpected: each adversarial pass alters only ~1/e of the tuples, so\n"
      "the owner's ECC-protected mark survives several stacked marks — the\n"
      "attack cannot *remove* a mark, it can only add competing claims,\n"
      "which key commitment then arbitrates (tests/additive_attack_test).\n");
}

}  // namespace
}  // namespace catmark

int main(int argc, char** argv) {
  catmark::Run(catmark::ExperimentConfig::FromArgs(argc, argv));
  return 0;
}
