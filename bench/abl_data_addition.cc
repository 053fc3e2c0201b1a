// Ablation — data-addition embedding (Section 4.6): resilience gain from
// injecting padd*N fit tuples on top of the alteration-based mark, and the
// pure-injection variant ("no actual alterations").

#include <cstdio>

#include "attack/attacks.h"
#include "core/channel.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "core/injection.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"

namespace catmark {
namespace {

struct CaseResult {
  double match_pct;
  double data_altered_pct;
  double data_added_pct;
};

CaseResult RunCase(bool alter, double padd, double loss,
                   const ExperimentConfig& config) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = config.num_tuples;
  gen.domain_size = config.domain_size;
  gen.seed = config.base_seed;
  const Relation original = GenerateKeyedCategorical(gen);

  WatermarkParams params;
  params.e = 60;

  // Owner-side metadata: the attribute's domain (passing it at detection
  // keeps value indices stable when heavy data loss removes categories).
  const CategoricalDomain domain =
      CategoricalDomain::FromRelationColumn(original, 1).value();

  double match_sum = 0.0, altered_sum = 0.0, added_sum = 0.0;
  for (std::size_t pass = 0; pass < config.passes; ++pass) {
    const WatermarkKeySet keys = WatermarkKeySet::FromSeed(8000 + pass);
    const BitVector wm = MakeWatermark(config.wm_bits, 8000 + pass);
    Relation marked = original;
    EmbedOptions options;
    options.key_attr = "K";
    options.target_attr = "A";
    options.domain = domain;

    std::size_t payload_length =
        DerivePayloadLength(original.NumRows(), params.e, wm.size());
    if (alter) {
      const EmbedReport report =
          Embedder(keys, params).Embed(marked, options, wm).value();
      payload_length = report.payload_length;
      altered_sum += report.alteration_fraction * 100.0;
    }
    if (padd > 0.0) {
      WatermarkParams inj_params = params;
      inj_params.payload_length = payload_length;
      const FitTupleInjector injector(keys, inj_params);
      InjectionConfig inj;
      inj.padd = padd;
      inj.seed = 8100 + pass;
      const InjectionReport report =
          injector.Inject(marked, options, wm, inj).value();
      added_sum += 100.0 * static_cast<double>(report.tuples_added) /
                   static_cast<double>(original.NumRows());
    }

    const Relation kept =
        HorizontalPartitionAttack(marked, 1.0 - loss, 8200 + pass).value();
    WatermarkParams detect_params = params;
    detect_params.payload_length = payload_length;
    const Detector detector(keys, detect_params);
    DetectOptions detect_options;
    detect_options.key_attr = "K";
    detect_options.target_attr = "A";
    detect_options.domain = domain;
    const DetectionResult detection =
        detector.Detect(kept, detect_options, wm.size()).value();
    match_sum += MatchWatermark(wm, detection.wm).match_fraction;
  }
  const double n = static_cast<double>(config.passes);
  return {100.0 * match_sum / n, altered_sum / n, added_sum / n};
}

void Run(const ExperimentConfig& config) {
  PrintTableTitle(
      "Ablation: data-addition embedding (Section 4.6) under 70% data loss");
  std::printf("N=%zu  |wm|=%zu  passes=%zu  e=60\n", config.num_tuples,
              config.wm_bits, config.passes);
  PrintTableHeader({"variant", "match (%)", "altered (% N)", "added (% N)"});

  const struct {
    const char* label;
    bool alter;
    double padd;
  } cases[] = {
      {"alteration only", true, 0.0},
      {"alteration + padd=5%", true, 0.05},
      {"alteration + padd=10%", true, 0.10},
      {"injection only padd=5%", false, 0.05},
      {"injection only padd=10%", false, 0.10},
  };
  for (const auto& c : cases) {
    const CaseResult r = RunCase(c.alter, c.padd, 0.7, config);
    PrintTableRow({c.label, FormatDouble(r.match_pct),
                   FormatDouble(r.data_altered_pct),
                   FormatDouble(r.data_added_pct)});
  }
  std::printf(
      "\nExpected: injection adds mark-carrying votes at zero alteration\n"
      "cost ('the watermark is effectively enforced with an additional\n"
      "padd*N bits'), lifting match rates under heavy data loss; pure\n"
      "injection alone already testifies while leaving every original\n"
      "tuple untouched.\n");
}

}  // namespace
}  // namespace catmark

int main(int argc, char** argv) {
  catmark::Run(catmark::ExperimentConfig::FromArgs(argc, argv));
  return 0;
}
