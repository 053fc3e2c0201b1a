// Incremental updates (Section 4.3): a live sales feed keeps inserting
// tuples after the initial embedding; each insert is evaluated on the fly
// for fitness and watermarked accordingly, so detection keeps working on
// the growing relation without ever re-running a full pass.

#include <cstdio>

#include "core/catmark.h"
#include "exp/harness.h"
#include "random/rng.h"

using namespace catmark;

int main() {
  // Day 0: embed into the initial data.
  KeyedCategoricalConfig gen;
  gen.num_tuples = 20000;
  gen.domain_size = 200;
  gen.seed = 44;
  Relation feed = GenerateKeyedCategorical(gen);

  const WatermarkKeySet keys = WatermarkKeySet::FromPassphrase("live-feed");
  WatermarkParams params;
  params.e = 50;
  const BitVector wm = MakeWatermark(10, 44);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const EmbedReport report =
      Embedder(keys, params).Embed(feed, options, wm).value();
  std::printf("day 0: embedded into %zu tuples (%zu fit)\n", feed.NumRows(),
              report.fit_tuples);

  // Days 1..7: 5000 new transactions arrive each day. The session pins the
  // embed-time PRF backend from the report.
  StreamSession session =
      StreamSession::Create(
          SessionSpec::FromEmbedReport(keys, params, options, report, wm))
          .value();
  Xoshiro256ss rng(4444);
  const CategoricalDomain& domain = session.domain();
  std::size_t fit_inserts = 0;
  for (int day = 1; day <= 7; ++day) {
    for (int i = 0; i < 5000; ++i) {
      const std::int64_t key =
          static_cast<std::int64_t>(rng.NextBounded(1ULL << 40)) + (1LL << 41);
      Row row = {Value(key),
                 Value(domain.value(rng.NextBounded(domain.size())))};
      if (session.Insert(feed, std::move(row)).value()) ++fit_inserts;
    }
  }
  std::printf("days 1-7: +35000 tuples, %zu watermarked on the fly\n",
              fit_inserts);

  // Detection on the grown feed — and on a future leak of ONLY the new data.
  WatermarkParams detect_params = params;
  detect_params.payload_length = report.payload_length;
  const Detector detector(keys, detect_params);
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.domain = report.domain;

  const DetectionResult full =
      detector.Detect(feed, detect_options, wm.size()).value();
  std::printf("full feed  : %zu/%zu bits match\n",
              MatchWatermark(wm, full.wm).matched_bits, wm.size());

  // Suppose only the week's increment leaks (rows 20000..55000).
  Relation leak(feed.schema());
  for (std::size_t i = 20000; i < feed.NumRows(); ++i) {
    leak.AppendRowUnchecked(feed.row(i));
  }
  const DetectionResult on_leak =
      detector.Detect(leak, detect_options, wm.size()).value();
  const OwnershipDecision decision = DecideOwnership(wm, on_leak.wm);
  std::printf("leaked week: %zu/%zu bits match — ownership %s\n",
              decision.matched_bits, wm.size(),
              decision.owned ? "SUPPORTED" : "NOT SUPPORTED");
  return decision.owned ? 0 : 1;
}
