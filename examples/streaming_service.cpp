// Streaming watermark service: one embedded relation fanned out into
// per-region shards, each grown through its own StreamSession while every
// insert keeps carrying the owner's mark. Shows the SessionSpec lifecycle
// (embed report -> spec -> sessions), batch inserts through
// StreamSession::InsertBatch, and dispute-time detection on a shard that
// has grown by half since embedding.

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

  // Three regional shards, each its own copy of the catalogue with its own
  // session. Every session is built from the same spec, so all three mark
  // exactly as the embedding did.
  struct Shard {
    Relation relation;
    StreamSession session;
  };
  std::vector<Shard> shards;
  for (int region = 0; region < 3; ++region) {
    Result<StreamSession> session = StreamSession::Create(spec);
    if (!session.ok()) {
      std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
      return 1;
    }
    shards.push_back({catalogue, std::move(session).value()});
  }

  // A day of feed traffic: batches for every region, in turn.
  // New rows carry categories from the catalogue's own domain (the spec
  // pins it). An out-of-domain category would still be appended — but it
  // would also enlarge a blindly re-derived domain at dispute time, which
  // is why detection below reuses the embed report's domain instead.
  std::mt19937_64 rng(11);
  std::size_t inserted = 0, fit = 0;
  for (std::size_t b = 0; b < 60; ++b) {
    Shard& shard = shards[b % shards.size()];
    std::vector<Row> batch;
    for (std::size_t i = 0; i < 1024; ++i) {
      batch.push_back(
          {Value(static_cast<std::int64_t>(7000000 + rng() % 200000)),
           spec.domain.value(rng() % spec.domain.size())});
    }
    Result<BatchReport> r =
        shard.session.InsertBatch(shard.relation, std::span<Row>(batch));
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    inserted += r->rows;
    fit += r->fit_rows;
  }
  std::printf("streamed %zu inserts across %zu shards (%zu carried a bit)\n",
              inserted, shards.size(), fit);

  // Dispute time: one shard leaks. Run detection on it — the inserts were
  // marked on the fly, so the grown shard still answers.
  const Relation& leaked = shards[1].relation;

  DetectOptions detect;
  detect.key_attr = "K";
  detect.target_attr = "A";
  detect.domain = report->domain;  // pinned, like a certificate records it
  params.payload_length = report->payload_length;  // likewise
  Result<DetectionResult> detection =
      Detector(keys, params).Detect(leaked, detect, wm.size());
  if (!detection.ok()) {
    std::fprintf(stderr, "%s\n", detection.status().ToString().c_str());
    return 1;
  }
  const OwnershipDecision decision =
      DecideOwnership(wm, detection->wm, /*significance=*/1e-3);
  std::printf("leaked shard: %zu tuples (was %zu at embed time)\n",
              leaked.NumRows(), gen.num_tuples);
  std::printf("matched %zu/%zu bits, p-value %.3e -> ownership %s\n",
              decision.matched_bits, wm.size(), decision.p_value,
              decision.owned ? "SUPPORTED" : "NOT SUPPORTED");
  return decision.owned ? 0 : 1;
}
