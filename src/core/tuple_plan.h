#ifndef CATMARK_CORE_TUPLE_PLAN_H_
#define CATMARK_CORE_TUPLE_PLAN_H_

#include <cstdint>
#include <vector>

#include "core/keys.h"
#include "core/params.h"
#include "crypto/prf.h"
#include "relation/relation.h"

namespace catmark {

/// Per-tuple precompute of the embed hot path, built in
/// one thread-parallel pass over the key column (structure-of-arrays so the
/// later per-row loops stream through flat memory):
///
///   - fit_words: the Section 3.2.1 fitness verdict H(T_j(K), k1) mod e == 0
///     as a packed bitset, bit (j % 64) of fit_words[j / 64]; NULL keys are
///     unfit. Apply passes walk fit rows by set-bit scanning (ForEachFitRow
///     in core/fit_scan.h): one word test skips 64 unfit rows.
///   - h1[j]: the fitness hash itself (valid iff row j is fit) — it also
///     drives value selection, so it is computed once, not once per use.
///   - payload_index[j]: the k2-derived wm_data position (valid iff row j is
///     fit; only populated when the k2 position path is in use — the Figure
///     1(b) embedding-map path assigns indices sequentially at apply time).
///
/// Every hash goes through the FitScanner (core/fit_scan.h) under the
/// configured KeyedPrf backend (TuplePlanOptions::prf). A dictionary-encoded
/// key column scans each live distinct dictionary entry once and fans the
/// verdicts out through the code vector; a plain column scans its rows.
/// Both row passes shard on 64-row boundaries, so no two workers write the
/// same fit_words word.
struct TuplePlan {
  std::vector<std::uint64_t> fit_words;  // (size() + 63) / 64 words
  std::vector<std::uint64_t> h1;
  std::vector<std::uint32_t> payload_index;
  std::size_t fit_count = 0;

  /// Messages the build pushed through the k1 PRF: live distinct dictionary
  /// entries on the cached path, non-NULL key rows otherwise. Feeds
  /// EmbedReport::messages_hashed, the same accounting the detect engine
  /// reports.
  std::size_t messages_hashed = 0;

  /// Per-shard fit counts over the ShardBounds(size(), shard_fit.size())
  /// row partition — the sharded embed apply pass prefix-sums these to
  /// assign each committing tuple its global map index without a serial
  /// counting pass (valid whenever no ledger filters fit tuples further).
  std::vector<std::size_t> shard_fit;

  std::size_t size() const { return h1.size(); }
};

/// Knobs of the plan build, separated from WatermarkParams because the PRF
/// choice arrives *resolved*: BuildTuplePlan cannot fail, so its callers
/// (which can) resolve WatermarkParams::prf / CATMARK_PRF first.
struct TuplePlanOptions {
  /// Payload (|wm_data|) length; only consulted when `with_payload_index`
  /// is set, and must then be >= 1 and fit in 32 bits.
  std::size_t payload_len = 0;
  /// Populate payload_index[] (the k2 position path). The Figure 1(b)
  /// embedding-map path leaves it off.
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
