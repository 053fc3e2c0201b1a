// Quickstart: watermark a categorical attribute and detect the mark blindly.
//
//   $ ./quickstart
//
// Walks the minimal owner workflow: build a relation, embed a 10-bit mark
// keyed by two secret keys, then recover it from the (re-sorted) data alone.

#include <cstdio>

#include "core/catmark.h"

using namespace catmark;

int main() {
  // 1. Some data: (K INTEGER PRIMARY KEY, A STRING CATEGORICAL) — think
  //    flight legs keyed by booking id, A = departure city.
  KeyedCategoricalConfig gen;
  gen.num_tuples = 10000;
  gen.domain_size = 300;
  gen.seed = 1;
  Relation rel = GenerateKeyedCategorical(gen);
  std::printf("data: %zu tuples, schema: %s\n", rel.NumRows(),
              rel.schema().ToString().c_str());

  // 2. The owner's secrets and the mark to embed.
  const WatermarkKeySet keys = WatermarkKeySet::FromPassphrase("my-secret");
  const BitVector wm = BitVector::FromString("1011001110").value();
  WatermarkParams params;
  params.e = 50;  // mark roughly one tuple in 50

  // 3. Embed.
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const Embedder embedder(keys, params);
  Result<EmbedReport> embed = embedder.Embed(rel, options, wm);
  if (!embed.ok()) {
    std::fprintf(stderr, "embed failed: %s\n",
                 embed.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "embedded %zu-bit mark: %zu fit tuples, %zu altered (%.2f%% of data), "
      "payload %zu bits\n",
      wm.size(), embed->fit_tuples, embed->altered_tuples,
      100.0 * embed->alteration_fraction, embed->payload_length);

  // 4. Someone re-sorts and redistributes the data...
  const Relation redistributed = ResortAttack(rel, 99);

  // 5. ...and the owner detects blindly: only keys + e + payload length,
  //    no original data.
  WatermarkParams detect_params = params;
  detect_params.payload_length = embed->payload_length;
  const Detector detector(keys, detect_params);
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  Result<DetectionResult> detection =
      detector.Detect(redistributed, detect_options, wm.size());
  if (!detection.ok()) {
    std::fprintf(stderr, "detect failed: %s\n",
                 detection.status().ToString().c_str());
    return 1;
  }

  const MatchStats stats = MatchWatermark(wm, detection->wm);
  std::printf("embedded : %s\n", wm.ToString().c_str());
  std::printf("detected : %s\n", detection->wm.ToString().c_str());
  std::printf("match    : %zu/%zu bits, false-claim probability %.2e\n",
              stats.matched_bits, stats.total_bits,
              stats.false_match_probability);
  return stats.matched_bits == stats.total_bits ? 0 : 1;
}
