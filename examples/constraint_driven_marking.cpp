// Constraint-driven marking: express the data's "intended purpose" in the
// declarative constraint language (the SQL-subset the paper's conclusions
// propose), compile it to usability-metric plugins, and watermark under it.
// Shows vetoes happening live and the preserved query answers afterwards.

#include <cstdio>

#include "core/catmark.h"
#include "exp/harness.h"

using namespace catmark;

int main() {
  SalesGenConfig gen;
  gen.num_tuples = 30000;
  gen.num_items = 400;
  gen.seed = 33;
  Relation sales = GenerateItemScan(gen);

  // The buyer's declared uses of the data, as constraints.
  const char* constraints = R"(
    -- alteration budget: at most 1.5% of tuples may change
    MAX ALTERATIONS 1.5%;
    -- the product-mix histogram powers a demand model
    MAX DRIFT ON Item_Nbr 0.03;
    -- no product may vanish from the catalogue
    MIN COUNT ON Item_Nbr 1;
    -- grocery volume is audited monthly
    PRESERVE COUNT WHERE Dept_Desc = 'GROCERY' TOLERANCE 2%;
    -- the dairy share of store 7 feeds a shelf-space rule
    PRESERVE CONFIDENCE OF Dept_Desc = 'DAIRY' GIVEN Store_Nbr = 7
        TOLERANCE 5%;
  )";

  QualityAssessor assessor;
  Result<std::size_t> compiled =
      CompileConstraints(constraints, sales.schema(), assessor);
  if (!compiled.ok()) {
    std::fprintf(stderr, "constraint error: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  std::printf("compiled %zu constraints\n", *compiled);
  if (Status s = assessor.Begin(sales); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // Baseline query answers (what the constraints protect).
  const EqPredicate grocery{"Dept_Desc", Value("GROCERY")};
  const std::size_t grocery_before = CountWhere(sales, grocery).value();

  const WatermarkKeySet keys = WatermarkKeySet::FromPassphrase("constrained");
  WatermarkParams params;
  params.e = 40;
  const BitVector wm = MakeWatermark(10, 33);
  EmbedOptions options;
  options.key_attr = "Visit_Nbr";
  options.target_attr = "Item_Nbr";

  const Embedder embedder(keys, params);
  Result<EmbedReport> report =
      embedder.Embed(sales, options, wm, &assessor);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "embedded: %zu fit, %zu altered, %zu vetoed by constraints "
      "(%.3f%% of data altered)\n",
      report->fit_tuples, report->altered_tuples, report->skipped_by_quality,
      100.0 * report->alteration_fraction);

  const std::size_t grocery_after = CountWhere(sales, grocery).value();
  std::printf("COUNT WHERE Dept_Desc='GROCERY': %zu -> %zu (drift %.2f%%)\n",
              grocery_before, grocery_after,
              100.0 *
                  std::abs(static_cast<double>(grocery_after) -
                           static_cast<double>(grocery_before)) /
                  static_cast<double>(grocery_before));

  // And the mark still detects.
  WatermarkParams detect_params = params;
  detect_params.payload_length = report->payload_length;
  const Detector detector(keys, detect_params);
  DetectOptions detect_options;
  detect_options.key_attr = "Visit_Nbr";
  detect_options.target_attr = "Item_Nbr";
  detect_options.domain = report->domain;
  const DetectionResult detection =
      detector.Detect(sales, detect_options, wm.size()).value();
  const OwnershipDecision decision = DecideOwnership(wm, detection.wm);
  std::printf("detection: %zu/%zu bits, ownership %s (p=%.2e)\n",
              decision.matched_bits, wm.size(),
              decision.owned ? "SUPPORTED" : "NOT SUPPORTED",
              decision.p_value);
  return decision.owned ? 0 : 1;
}
