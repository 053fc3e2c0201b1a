#ifndef CATMARK_CORE_CERTIFICATE_H_
#define CATMARK_CORE_CERTIFICATE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/bitvec.h"
#include "common/result.h"
#include "core/decision.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "core/keys.h"
#include "core/params.h"
#include "relation/domain.h"

namespace catmark {

/// The owner-side watermark certificate: every piece of metadata detection
/// and dispute resolution need, in one serializable record.
///
///  * Detection inputs: e / ECC / hash / keyed-PRF backend / payload length
///    / wm length, the attribute pair, and the categorical domain. The PRF
///    id pins the primitive disputes re-verify with; certificates from
///    before the PRF subsystem lack the field and mean the legacy keyed
///    hash.
///  * Remap recovery input (Section 4.5): the published frequency table.
///  * Dispute resolution (additive attacks, Section 6): a SHA-256
///    *commitment* to the secret keys. Publishing or timestamping the
///    certificate at embedding time proves key possession *before* any
///    adversarial re-marking, without revealing the keys; at court time
///    VerifyKeys shows the produced keys match the committed ones.
struct WatermarkCertificate {
  std::string description;
  std::string key_attr;
  std::string target_attr;
  /// The embed-time parameters, params.payload_length pinned to the
  /// report's resolved |wm_data| (the `payload_length=` line).
  WatermarkParams params;
  BitVector wm;
  CategoricalDomain domain;
  /// Normalized target-value frequencies, each in [0, 1] (Deserialize
  /// rejects others); optional (empty = not recorded).
  std::vector<double> frequencies;
  std::string key_commitment_hex;    ///< SHA-256(k1 || k2)

  /// Assembles a certificate from an embedding run. `frequencies` may be
  /// empty if remap recovery support is not wanted.
  static WatermarkCertificate Create(const WatermarkKeySet& keys,
                                     const WatermarkParams& params,
                                     const EmbedOptions& options,
                                     const EmbedReport& report,
                                     const BitVector& wm,
                                     std::vector<double> frequencies = {},
                                     std::string description = "");

  /// True iff `keys` hash to the stored commitment.
  bool VerifyKeys(const WatermarkKeySet& keys) const;

  /// Line-oriented `key=value` text form (domain values are type-tagged and
  /// hex-encoded so any byte content round-trips).
  std::string Serialize() const;
  static Result<WatermarkCertificate> Deserialize(std::string_view text);

  friend bool operator==(const WatermarkCertificate& a,
                         const WatermarkCertificate& b);
};

/// SHA-256(k1 || k2) in hex — the commitment published at embed time.
std::string ComputeKeyCommitment(const WatermarkKeySet& keys);

/// Certificate-driven detection: verifies the keys against the commitment,
/// then runs blind detection with every parameter taken from the
/// certificate and returns the ownership decision against its mark. This is
/// the one-call workflow a detection service wants.
struct CertifiedDetection {
  DetectionResult detection;
  OwnershipDecision decision;
};
Result<CertifiedDetection> DetectWithCertificate(
    const Relation& suspect, const WatermarkCertificate& certificate,
    const WatermarkKeySet& keys, double alpha = 1e-3);

}  // namespace catmark

#endif  // CATMARK_CORE_CERTIFICATE_H_
