// Ownership dispute resolution: Mallory additively re-marks the owner's
// published data (the Section 6 "additive watermark attack") and both
// parties walk into court detecting their own marks. The watermark
// certificate — published/timestamped at embedding time with a SHA-256 key
// commitment — plus the "mark in the adversary's original" test settles it.

#include <cstdio>

#include "core/catmark.h"
#include "exp/harness.h"
#include "relation/histogram.h"

using namespace catmark;

int main() {
  // --- Day 0: the owner marks and publishes --------------------------------
  KeyedCategoricalConfig gen;
  gen.num_tuples = 15000;
  gen.domain_size = 120;
  gen.seed = 77;
  Relation original = GenerateKeyedCategorical(gen);  // owner-private

  const WatermarkKeySet owner_keys =
      WatermarkKeySet::FromPassphrase("owner-vault");
  WatermarkParams params;
  params.e = 30;
  const BitVector owner_wm = MakeWatermark(12, 77);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";

  Relation published = original;
  const EmbedReport report =
      Embedder(owner_keys, params).Embed(published, options, owner_wm).value();

  // The certificate is deposited with a notary/timestamping service NOW.
  const CategoricalDomain domain = report.domain;
  const auto freqs =
      FrequencyHistogram::Compute(published, 1, domain).value().Frequencies();
  const WatermarkCertificate certificate = WatermarkCertificate::Create(
      owner_keys, params, options, report, owner_wm, freqs,
      "sales feed 2004-03");
  std::printf("owner deposits certificate (key commitment %s...)\n",
              certificate.key_commitment_hex.substr(0, 16).c_str());

  // --- Mallory additively re-marks and claims ownership --------------------
  const AdditiveAttackResult attack =
      AdditiveWatermarkAttack(published, "K", "A", params, 12, 666).value();
  std::printf(
      "\nMallory re-marked the data with his own keys (%zu tuples altered) "
      "and registered his own mark\n",
      attack.mallory_report.altered_tuples);

  // --- Court day ------------------------------------------------------------
  const auto detect = [&](const Relation& data, const WatermarkKeySet& keys,
                          const BitVector& wm, std::size_t payload) {
    WatermarkParams detect_params = params;
    detect_params.payload_length = payload;
    Detector detector(keys, detect_params);
    DetectOptions d;
    d.key_attr = "K";
    d.target_attr = "A";
    return DecideOwnership(wm, detector.Detect(data, d, wm.size())->wm);
  };

  // 1. Both parties detect their marks in the disputed copy.
  const OwnershipDecision owner_claim = detect(
      attack.relation, owner_keys, owner_wm, certificate.params.payload_length);
  const OwnershipDecision mallory_claim =
      detect(attack.relation, attack.mallory_keys, attack.mallory_wm,
             attack.mallory_report.payload_length);
  std::printf("\nin the disputed copy: owner mark %s (p=%.1e), "
              "Mallory mark %s (p=%.1e)\n",
              owner_claim.owned ? "detected" : "absent", owner_claim.p_value,
              mallory_claim.owned ? "detected" : "absent",
              mallory_claim.p_value);

  // 2. The certificate's key commitment proves which keys existed at the
  //    deposit timestamp.
  std::printf("\nkey commitment check: owner keys %s, Mallory keys %s\n",
              certificate.VerifyKeys(owner_keys) ? "MATCH" : "no match",
              certificate.VerifyKeys(attack.mallory_keys) ? "MATCH"
                                                          : "no match");

  // 3. The decisive asymmetry: the owner's mark lives in the data Mallory
  //    calls his original; Mallory's mark is absent from the owner's true
  //    original (which only the owner can produce).
  const OwnershipDecision owner_in_mallorys_original = detect(
      published, owner_keys, owner_wm, certificate.params.payload_length);
  const OwnershipDecision mallory_in_owners_original =
      detect(original, attack.mallory_keys, attack.mallory_wm,
             attack.mallory_report.payload_length);
  std::printf(
      "asymmetry test: owner's mark in Mallory's 'original': %s; "
      "Mallory's mark in owner's original: %s\n",
      owner_in_mallorys_original.owned ? "DETECTED" : "absent",
      mallory_in_owners_original.owned ? "detected" : "ABSENT");

  const bool verdict_for_owner =
      owner_claim.owned && certificate.VerifyKeys(owner_keys) &&
      owner_in_mallorys_original.owned && !mallory_in_owners_original.owned;
  std::printf("\nverdict: data belongs to the %s\n",
              verdict_for_owner ? "OWNER" : "(unresolved)");
  return verdict_for_owner ? 0 : 1;
}
