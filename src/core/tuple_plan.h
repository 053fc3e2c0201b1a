#ifndef CATMARK_CORE_TUPLE_PLAN_H_
#define CATMARK_CORE_TUPLE_PLAN_H_

#include <cstdint>
#include <vector>

#include "core/keys.h"
#include "core/params.h"
#include "crypto/prf.h"
#include "relation/relation.h"

namespace catmark {

/// One fit tuple of the embed plan: row j passed the Section 3.2.1 fitness
/// test H(T_j(K), k1) mod e == 0 (NULL keys are never fit).
///   - h1: the fitness hash itself — it also drives value selection, so it
///     is computed once, not once per use.
///   - payload_index: the k2-derived wm_data position, populated only when
///     the k2 position path is in use (the Figure 1(b) embedding-map path
///     assigns indices sequentially at apply time).
struct FitTuple {
  std::size_t row = 0;
  std::uint64_t h1 = 0;
  std::uint32_t payload_index = 0;
};

/// The embed plan: the ~N/e fit tuples of the relation as a sparse list,
/// built in one thread-parallel pass over the key column.
///
/// Every hash goes through the FitScanner (core/fit_scan.h) under the
/// configured KeyedPrf backend (TuplePlanOptions::prf). A dictionary-encoded
/// key column scans each live distinct dictionary entry once and fans the
/// verdicts out through the code vector; a plain column scans its rows.
/// Either way the rows are split into contiguous shards and each shard
/// appends its fit tuples to its own list, so `shards` holds every fit
/// tuple in ascending row order when read list by list.
struct TuplePlan {
  std::vector<std::vector<FitTuple>> shards;

  /// Messages the build pushed through the k1 PRF: live distinct dictionary
  /// entries on the cached path, non-NULL key rows otherwise. Feeds
  /// EmbedReport::messages_hashed, the same accounting the detect engine
  /// reports.
  std::size_t messages_hashed = 0;
};

/// Knobs of the plan build, separated from WatermarkParams because the PRF
/// choice arrives *resolved*: BuildTuplePlan cannot fail, so its callers
/// (which can) resolve WatermarkParams::prf / CATMARK_PRF first.
struct TuplePlanOptions {
  /// Payload (|wm_data|) length; only consulted when `with_payload_index`
  /// is set, and must then be >= 1 and fit in 32 bits.
  std::size_t payload_len = 0;
  /// Populate FitTuple::payload_index (the k2 position path). The Figure
  /// 1(b) embedding-map path leaves it off.
  bool with_payload_index = false;
  /// Worker threads (0 = auto).
  std::size_t num_threads = 0;
  /// Keyed-PRF backend for every hash in the plan.
  PrfKind prf = PrfKind::kKeyedHash;
};

TuplePlan BuildTuplePlan(const Relation& rel, std::size_t key_col,
                         const WatermarkKeySet& keys,
                         const WatermarkParams& params,
                         const TuplePlanOptions& options);

}  // namespace catmark

#endif  // CATMARK_CORE_TUPLE_PLAN_H_
