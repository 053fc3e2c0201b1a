#ifndef CATMARK_CORE_INJECTION_H_
#define CATMARK_CORE_INJECTION_H_

#include <cstdint>
#include <string>

#include "common/bitvec.h"
#include "common/result.h"
#include "core/embedder.h"
#include "core/keys.h"
#include "core/params.h"
#include "relation/relation.h"

namespace catmark {

/// Data-addition embedding (Section 4.6): instead of (or in addition to)
/// altering existing tuples, artificially inject watermark-carrying tuples
/// that (a) satisfy the fitness criteria and (b) conform to the overall
/// data distribution for stealthiness.
struct InjectionConfig {
  /// padd: upper bound on the fraction of tuples added (relative to N).
  double padd = 0.05;

  /// Candidate generation gives up after padd*N*e*attempt_factor draws
  /// (fitness hits one candidate in e on average).
  std::size_t attempt_factor = 50;

  std::uint64_t seed = 7;
};

struct InjectionReport {
  std::size_t tuples_added = 0;
  std::size_t candidates_tried = 0;
  std::size_t payload_length = 0;
};

/// Injects fit tuples carrying bits of `wm` into `rel`. Non-key attributes
/// are cloned from random existing tuples (stealth: empirical distribution);
/// the key attribute gets fresh random values that pass the fitness test —
/// "because e effectively reduces the fitness criteria testing space ... one
/// in every e [candidates] should conform" (Section 4.6). The target
/// attribute is then set exactly as in the alteration embedder. Fitness
/// runs through the shared FitScanner, one candidate key per call.
class FitTupleInjector {
 public:
  FitTupleInjector(WatermarkKeySet keys, WatermarkParams params);

  /// Fails, before any tuple is added, on the channel checks
  /// (core/channel.h, checks 1-9, with N the base relation's size), on
  /// padd outside [0, 1] (InvalidArgument), and on an empty relation or a
  /// DOUBLE key attribute (FailedPrecondition).
  Result<InjectionReport> Inject(Relation& rel, const EmbedOptions& options,
                                 const BitVector& wm,
                                 const InjectionConfig& config) const;

 private:
  WatermarkKeySet keys_;
  WatermarkParams params_;
};

}  // namespace catmark

#endif  // CATMARK_CORE_INJECTION_H_
