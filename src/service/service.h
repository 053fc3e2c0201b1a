#ifndef CATMARK_SERVICE_SERVICE_H_
#define CATMARK_SERVICE_SERVICE_H_

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/certificate.h"
#include "core/decision.h"
#include "core/detector.h"
#include "core/keys.h"
#include "relation/relation.h"

namespace catmark {

/// One entry of a blind multi-key ownership sweep: a claimed certificate
/// (detection parameters + expected mark + key commitment) and the keys
/// the claimant produced for it. `id` labels the candidate in the report
/// (registry row, certificate filename, claimant name — opaque here).
struct OwnershipCandidate {
  std::string id;
  WatermarkCertificate certificate;
  WatermarkKeySet keys;
};

/// One ranked sweep outcome. Unlike DetectWithCertificate, a failed key
/// commitment does *not* veto detection — in a blind "whose mark is this?"
/// sweep most candidates are wrong by construction, and a strong detection
/// under uncommitted keys is itself evidence (of a forged certificate) the
/// operator must see, not an error.
struct SweepMatch {
  std::string id;
  bool commitment_verified = false;
  DetectionResult detection;
  OwnershipDecision decision;
};

/// Result of WatermarkService::SweepOwnership.
struct SweepReport {
  /// Every candidate whose detection ran, most confident first: owners
  /// before non-owners, then ascending p-value, then descending matched
  /// bits, then id (a total, deterministic order).
  std::vector<SweepMatch> ranked;
  /// Candidates whose detection could not run (bad attributes, empty
  /// domain, unresolvable PRF, ...), with the reason.
  std::vector<std::pair<std::string, Status>> failed;
  std::size_t plans_built = 0;      ///< distinct RelationPlans (attr groups)
  std::size_t messages_hashed = 0;  ///< prepared messages hashed, summed
  double wall_seconds = 0.0;      ///< whole sweep, plan builds included
};

struct ServiceOptions {
  /// Worker threads for SweepOwnership's detect passes and decisions (0 =
  /// auto: CATMARK_THREADS when set, otherwise the hardware thread count).
  std::size_t num_threads = 0;
};

/// The dispute-time service: a blind multi-key ownership sweep over a
/// suspect relation. Streaming inserts run through a StreamSession
/// (service/session.h), one per relation the caller grows.
class WatermarkService {
 public:
  explicit WatermarkService(ServiceOptions options = {});

  /// Blind multi-key ownership sweep over a suspect relation: "whose mark
  /// is this data carrying?". Candidates are grouped by (key attribute,
  /// target attribute, domain) so each group shares one DetectEngine
  /// RelationPlan, then every candidate runs through the amortized
  /// per-key pass (DetectEngine::DetectMany, parallel keys × shards over
  /// the service's thread budget) and is decided against its certificate's
  /// mark at significance `alpha`. Fails only when `candidates` is empty;
  /// per-candidate problems land in SweepReport::failed.
  Result<SweepReport> SweepOwnership(const Relation& suspect,
                                     std::span<const OwnershipCandidate> candidates,
                                     double alpha = 1e-3) const;

 private:
  ServiceOptions options_;
};

}  // namespace catmark

#endif  // CATMARK_SERVICE_SERVICE_H_
