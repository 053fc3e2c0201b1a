// Sales-data rights protection: the paper's motivating scenario (Section 1)
// end to end. A data collector watermarks an ItemScan-style sales relation
// under explicit quality constraints, sells it (CSV), and later proves
// ownership over a copy that was re-sorted, partially altered and cut down.

#include <cstdio>
#include <memory>

#include "core/catmark.h"
#include "exp/harness.h"

using namespace catmark;

int main() {
  // --- The collector's data ------------------------------------------------
  SalesGenConfig gen;
  gen.num_tuples = 50000;
  gen.num_items = 800;
  gen.item_zipf_s = 1.0;
  gen.seed = 2004;
  Relation sales = GenerateItemScan(gen);
  std::printf("ItemScan sample: %zu tuples\n  %s\n", sales.NumRows(),
              sales.schema().ToString().c_str());

  // --- Embedding under data-quality constraints (Section 4.1) -------------
  const WatermarkKeySet keys =
      WatermarkKeySet::FromPassphrase("collector-vault-2004");
  WatermarkParams params;
  params.e = 60;
  const BitVector wm = MakeWatermark(10, 42);

  QualityAssessor assessor;
  // At most 2% of tuples may change...
  assessor.AddPlugin(std::make_unique<MaxAlterationsPlugin>(0.02));
  // ...the Item_Nbr frequency histogram may drift at most 5% in L1...
  assessor.AddPlugin(std::make_unique<HistogramDriftPlugin>("Item_Nbr", 0.05));
  // ...and no product may disappear from the catalogue entirely.
  assessor.AddPlugin(std::make_unique<MinCategoryCountPlugin>("Item_Nbr", 1));
  if (Status s = assessor.Begin(sales); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  EmbedOptions options;
  options.key_attr = "Visit_Nbr";
  options.target_attr = "Item_Nbr";
  const Embedder embedder(keys, params);
  Result<EmbedReport> embed = embedder.Embed(sales, options, wm, &assessor);
  if (!embed.ok()) {
    std::fprintf(stderr, "embed failed: %s\n",
                 embed.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\nembedded: %zu fit tuples, %zu altered, %zu vetoed by quality "
      "plugins, alteration %.3f%% of data\n",
      embed->fit_tuples, embed->altered_tuples, embed->skipped_by_quality,
      100.0 * embed->alteration_fraction);

  // --- Ship it -------------------------------------------------------------
  const std::string csv = WriteCsvString(sales);
  std::printf("shipped %.1f MB of CSV to the buyer\n",
              static_cast<double>(csv.size()) / 1e6);

  // --- The buyer leaks a massaged copy --------------------------------------
  Result<Relation> leaked = ReadCsvString(csv, sales.schema());
  Relation suspect = ResortAttack(leaked.value(), 1);
  suspect = SubsetAlterationAttack(suspect, "Item_Nbr", 0.10, 2).value();
  suspect = HorizontalPartitionAttack(suspect, 0.5, 3).value();
  std::printf(
      "\nleaked copy: re-sorted, 10%% of Item_Nbr values altered, only 50%% "
      "of tuples kept (%zu remain)\n",
      suspect.NumRows());

  // --- Court day: blind detection ------------------------------------------
  WatermarkParams detect_params = params;
  detect_params.payload_length = embed->payload_length;
  const Detector detector(keys, detect_params);
  DetectOptions detect_options;
  detect_options.key_attr = "Visit_Nbr";
  detect_options.target_attr = "Item_Nbr";
  detect_options.domain = embed->domain;
  Result<DetectionResult> detection =
      detector.Detect(suspect, detect_options, wm.size());
  if (!detection.ok()) {
    std::fprintf(stderr, "detect failed: %s\n",
                 detection.status().ToString().c_str());
    return 1;
  }
  const MatchStats stats = MatchWatermark(wm, detection->wm);
  std::printf(
      "\ndetection: %zu/%zu bits match (mark alteration %.1f%%)\n"
      "probability of such a match arising by chance: %.2e\n",
      stats.matched_bits, stats.total_bits, 100.0 * stats.mark_alteration,
      stats.false_match_probability);

  // Section 4.4's analysis, applied to this exact attack, for the judge.
  RandomAttackModel model;
  model.attacked_tuples = suspect.NumRows() / 10;
  model.e = params.e;
  model.flip_probability = 0.5;
  std::printf(
      "analysis: an attacker altering 10%% of the data flips >= 5 payload "
      "bits with probability %.3f\n",
      AttackSuccessProbability(model, 5));

  return stats.match_fraction >= 0.8 ? 0 : 1;
}
