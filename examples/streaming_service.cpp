// Streaming watermark service: one embedded relation fanned out into
// per-region shards, each grown concurrently through its own StreamSession
// while every insert keeps carrying the owner's mark. Shows the
// SessionSpec lifecycle (embed report -> spec -> sessions), batch inserts
// through WatermarkService::ExecuteBatches, and dispute-time detection on
// a shard that has more than doubled since embedding.

#include <cstdio>
#include <random>
#include <span>
#include <vector>

#include "core/catmark.h"
#include "exp/harness.h"

using namespace catmark;

int main() {
  // Day zero: Alice marks her catalogue before licensing it out.
  KeyedCategoricalConfig gen;
  gen.num_tuples = 40000;
  gen.domain_size = 120;
  gen.seed = 7;
  Relation catalogue = GenerateKeyedCategorical(gen);

  const WatermarkKeySet keys =
      WatermarkKeySet::FromPassphrase("alice's licensing key");
  WatermarkParams params;
  params.e = 50;
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const BitVector wm = MakeWatermark(24, /*seed=*/3);

  Result<EmbedReport> report =
      Embedder(keys, params).Embed(catalogue, options, wm);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("embedded %zu-bit mark: %zu fit, %zu altered\n", wm.size(),
              report->fit_tuples, report->altered_tuples);

  // The spec pins everything inserts must agree on with the embedding —
  // keys, e, PRF backend, payload length, domain — so a session opened
  // months later in another process cannot drift from the detector.
  const SessionSpec spec =
      SessionSpec::FromEmbedReport(keys, params, options, *report, wm);

  // Three regional shards, each its own session + relation inside one
  // multiplexing service. ServiceOptions{0} = auto thread count.
  WatermarkService service(ServiceOptions{});
  std::vector<std::size_t> shards;
  for (int region = 0; region < 3; ++region) {
    Result<std::size_t> id = service.Open(spec, catalogue);
    if (!id.ok()) {
      std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
      return 1;
    }
    shards.push_back(*id);
  }

  // A day of feed traffic: batches for every region, submitted together.
  // Batches for distinct sessions run in parallel; batches for the same
  // session keep their submission order.
  // New rows carry categories from the catalogue's own domain (the spec
  // pins it). An out-of-domain category would still be appended — but it
  // would also enlarge a blindly re-derived domain at dispute time, which
  // is why detection below reuses the embed report's domain instead.
  std::mt19937_64 rng(11);
  std::vector<WatermarkService::SessionBatch> day;
  for (std::size_t b = 0; b < 60; ++b) {
    WatermarkService::SessionBatch batch;
    batch.session_id = shards[b % shards.size()];
    for (std::size_t i = 0; i < 1024; ++i) {
      batch.rows.push_back(
          {Value(static_cast<std::int64_t>(7000000 + rng() % 200000)),
           spec.domain.value(rng() % spec.domain.size())});
    }
    day.push_back(std::move(batch));
  }
  const std::vector<Result<BatchReport>> results = service.ExecuteBatches(
      std::span<WatermarkService::SessionBatch>(day));
  std::size_t inserted = 0, fit = 0;
  for (const Result<BatchReport>& r : results) {
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    inserted += r->rows;
    fit += r->fit_rows;
  }
  std::printf("streamed %zu inserts across %zu shards (%zu carried a bit)\n",
              inserted, shards.size(), fit);

  // Dispute time: one shard leaks. Close it out and run detection — the
  // inserts were marked on the fly, so the grown shard still answers.
  Result<Relation> leaked = service.Close(shards[1]);
  if (!leaked.ok()) {
    std::fprintf(stderr, "%s\n", leaked.status().ToString().c_str());
    return 1;
  }

  DetectOptions detect;
  detect.key_attr = "K";
  detect.target_attr = "A";
  detect.domain = report->domain;  // pinned, like a certificate records it
  params.payload_length = report->payload_length;  // likewise
  Result<DetectionResult> detection =
      Detector(keys, params).Detect(*leaked, detect, wm.size());
  if (!detection.ok()) {
    std::fprintf(stderr, "%s\n", detection.status().ToString().c_str());
    return 1;
  }
  const OwnershipDecision decision =
      DecideOwnership(wm, detection->wm, /*significance=*/1e-3);
  std::printf("leaked shard: %zu tuples (was %zu at embed time)\n",
              leaked->NumRows(), gen.num_tuples);
  std::printf("matched %zu/%zu bits, p-value %.3e -> ownership %s\n",
              decision.matched_bits, wm.size(), decision.p_value,
              decision.owned ? "SUPPORTED" : "NOT SUPPORTED");
  return decision.owned ? 0 : 1;
}
