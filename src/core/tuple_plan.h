#ifndef CATMARK_CORE_TUPLE_PLAN_H_
#define CATMARK_CORE_TUPLE_PLAN_H_

#include <cstdint>
#include <vector>

#include "core/channel.h"
#include "relation/relation.h"

namespace catmark {

/// One fit tuple of the embed plan: row j passed the Section 3.2.1 fitness
/// test H(T_j(K), k1) mod e == 0 (NULL keys are never fit).
///   - h1: the fitness hash itself — it also drives value selection, so it
///     is computed once, not once per use.
///   - payload_index: Channel::Slot of its k2 hash; 0 on a channel without
///     k2 (the Figure 1(b) embedding-map path assigns indices sequentially
///     at apply time).
struct FitTuple {
  std::size_t row = 0;
  std::uint64_t h1 = 0;
  std::uint32_t payload_index = 0;
};

/// The embed plan: the ~N/e fit tuples of the relation as a sparse list,
/// built in one thread-parallel pass over the key column.
///
/// Every hash goes through the resolved channel's FitScanner
/// (core/channel.h). A dictionary-encoded key column scans each live
/// distinct dictionary entry once and fans the verdicts out through the
/// code vector; a plain column scans its rows.
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

/// Builds the plan over `channel`'s PRFs, e and slots on up to
/// `num_threads` workers (0 = auto). Cannot fail: the channel is resolved.
TuplePlan BuildTuplePlan(const Relation& rel, std::size_t key_col,
                         const Channel& channel, std::size_t num_threads);

}  // namespace catmark

#endif  // CATMARK_CORE_TUPLE_PLAN_H_
