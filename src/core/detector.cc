#include "core/detector.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/parallel.h"
#include "core/codec.h"
#include "core/detect_engine.h"
#include "core/embedder.h"
#include "core/fit_scan.h"
#include "core/tuple_plan.h"
#include "ecc/code.h"
#include "random/stats.h"
#include "relation/value_index_column.h"

namespace catmark {

MatchStats MatchWatermark(const BitVector& expected, const BitVector& decoded) {
  MatchStats stats;
  stats.length_mismatch = expected.size() != decoded.size();
  stats.total_bits = std::max(expected.size(), decoded.size());
  const std::size_t common = std::min(expected.size(), decoded.size());
  if (stats.length_mismatch) {
    // Size-tolerant: bits present on only one side count as mismatches, so a
    // detector run with the wrong payload length degrades the score instead
    // of crashing the process.
    for (std::size_t i = 0; i < common; ++i) {
      if (expected.Get(i) == decoded.Get(i)) ++stats.matched_bits;
    }
  } else {
    stats.matched_bits = common - expected.HammingDistance(decoded);
  }
  if (stats.total_bits > 0) {
    stats.match_fraction = static_cast<double>(stats.matched_bits) /
                           static_cast<double>(stats.total_bits);
    stats.mark_alteration = 1.0 - stats.match_fraction;
    stats.false_match_probability =
        BinomialTailAtLeast(stats.total_bits, stats.matched_bits, 0.5);
  }
  return stats;
}

namespace {

/// Sorts hits by slot: LSD radix over the bytes the largest slot spans (two
/// passes for a 50,000-slot payload, at most eight), ping-ponging through
/// `buffer`.
void SortBySlot(std::vector<SlotVote>& hits, std::vector<SlotVote>& buffer) {
  const std::size_t n = hits.size();
  std::size_t max_slot = 0;
  for (const SlotVote& hit : hits) max_slot = std::max(max_slot, hit.slot);
  buffer.resize(n);
  SlotVote* src = hits.data();
  SlotVote* dst = buffer.data();
  for (unsigned shift = 0; shift < 64 && (max_slot >> shift) != 0;
       shift += 8) {
    std::size_t start[256] = {};
    for (std::size_t i = 0; i < n; ++i) ++start[(src[i].slot >> shift) & 0xff];
    std::size_t offset = 0;
    for (std::size_t& bucket : start) {
      const std::size_t count = bucket;
      bucket = offset;
      offset += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[start[(src[i].slot >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != hits.data()) std::copy(src, src + n, hits.data());
}

}  // namespace

std::vector<SlotVote>& MergeSlotRuns(std::span<std::vector<SlotVote>> parts,
                                     std::vector<SlotVote>& sort_buffer) {
  std::vector<SlotVote>& runs = parts[0];
  for (std::size_t w = 1; w < parts.size(); ++w) {
    runs.insert(runs.end(), parts[w].begin(), parts[w].end());
  }
  SortBySlot(runs, sort_buffer);
  std::size_t out = 0;
  for (std::size_t i = 0; i < runs.size();) {
    SlotVote run = runs[i];
    for (++i; i < runs.size() && runs[i].slot == run.slot; ++i) {
      run.vote += runs[i].vote;
    }
    if (run.vote != 0) runs[out++] = run;  // a tie is an erasure
  }
  runs.resize(out);
  return runs;
}

Status FinishVoteTally(std::span<const SlotVote> runs, std::size_t payload_len,
                       std::size_t wm_len, EccKind ecc_kind,
                       DetectionResult& result) {
  result.positions_present = static_cast<std::size_t>(
      std::count_if(runs.begin(), runs.end(),
                    [](const SlotVote& run) { return run.vote != 0; }));
  result.payload_fill = payload_len == 0
                            ? 0.0
                            : static_cast<double>(result.positions_present) /
                                  static_cast<double>(payload_len);
  const std::unique_ptr<ErrorCorrectingCode> ecc = CreateEcc(ecc_kind);
  CATMARK_ASSIGN_OR_RETURN(DecodedMark decoded,
                           ecc->Decode(runs, payload_len, wm_len));
  result.wm = std::move(decoded.wm);
  result.bit_confidence = std::move(decoded.confidence);
  return Status::OK();
}

Detector::Detector(WatermarkKeySet keys, WatermarkParams params)
    : keys_(std::move(keys)), params_(params) {
  CATMARK_CHECK(keys_.valid()) << "invalid watermark key set (k1 == k2?)";
  CATMARK_CHECK_GE(params_.e, 1u);
}

Result<DetectionResult> Detector::Detect(const Relation& rel,
                                         const DetectOptions& options,
                                         std::size_t wm_len) const {
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  if (wm_len == 0) {
    return Status::InvalidArgument("watermark length must be > 0");
  }

  const bool use_map = options.embedding_map != nullptr;
  if (!use_map) {
    // The k2 position path runs on the key-agnostic engine's one-shot
    // entry point: with exactly one candidate there is no plan to
    // amortize, so DetectOneShot fuses serialize -> hash -> tally on plain
    // key columns instead of materializing the whole-relation arena it
    // would immediately re-read (the PR 8 one-shot tax), and delegates to
    // the plan + pass pair on dict key columns where the plan is O(dict).
    // Either way the result is bit-identical to a sweep's per-candidate
    // pass — detect_engine_test pins it.
    DetectEngineOptions engine_options;
    engine_options.key_attr = options.key_attr;
    engine_options.target_attr = options.target_attr;
    engine_options.domain_view = options.domain_view != nullptr
                                     ? options.domain_view
                                     : (options.domain.has_value()
                                            ? &*options.domain
                                            : nullptr);
    engine_options.target_index = options.target_index;
    engine_options.payload_length = options.payload_length;
    engine_options.num_threads = params_.num_threads;
    const KeyCandidate candidate{keys_, params_, wm_len};
    CATMARK_ASSIGN_OR_RETURN(
        DetectionResult result,
        DetectEngine::DetectOneShot(rel, engine_options, candidate));
    result.wall_seconds = elapsed();
    return result;
  }

  CATMARK_ASSIGN_OR_RETURN(
      const std::size_t key_col,
      rel.schema().ColumnIndexOrError(options.key_attr));
  CATMARK_ASSIGN_OR_RETURN(
      const std::size_t target_col,
      rel.schema().ColumnIndexOrError(options.target_attr));
  if (rel.empty()) {
    return Status::FailedPrecondition("cannot detect in an empty relation");
  }

  // Resolve the domain without copying it: a caller-shared view, the
  // caller-owned optional, or one recovered from the suspect data.
  CategoricalDomain recovered_domain;
  const CategoricalDomain* domain_ptr;
  if (options.domain_view != nullptr) {
    domain_ptr = options.domain_view;
  } else if (options.domain.has_value()) {
    domain_ptr = &*options.domain;
  } else {
    CATMARK_ASSIGN_OR_RETURN(
        recovered_domain,
        CategoricalDomain::FromRelationColumn(rel, target_col));
    domain_ptr = &recovered_domain;
  }
  const CategoricalDomain& domain = *domain_ptr;
  if (domain.size() < 2) {
    return Status::FailedPrecondition("domain has fewer than 2 values");
  }

  DetectionResult result;
  result.num_tuples = rel.NumRows();
  std::size_t payload_len;
  if (options.payload_length != 0) {
    payload_len = options.payload_length;
  } else if (params_.payload_length != 0) {
    payload_len = params_.payload_length;
  } else {
    if (rel.NumRows() / params_.e == 0) {
      return Status::FailedPrecondition(
          "cannot derive the payload length: e exceeds the suspect relation "
          "size (N/e == 0); pass the owner-side payload_length instead");
    }
    payload_len = DerivePayloadLength(rel.NumRows(), params_.e, wm_len);
  }
  result.payload_length = payload_len;

  // Embedding-map (Figure 2(b)) detection: the per-row fitness precompute
  // still runs through the shared tuple plan, but positions come from the
  // map, not k2 — inherently per-embedding state, so this path stays off
  // the key-agnostic engine.
  const std::size_t threads =
      EffectiveThreadCount(params_.num_threads, rel.NumRows());
  TuplePlanOptions plan_options;
  plan_options.payload_len = payload_len;
  plan_options.with_payload_index = false;
  plan_options.num_threads = threads;
  CATMARK_ASSIGN_OR_RETURN(plan_options.prf, ResolvePrfKind(params_.prf));
  result.prf = plan_options.prf;
  const TuplePlan plan =
      BuildTuplePlan(rel, key_col, keys_, params_, plan_options);
  result.fit_tuples = plan.fit_count;
  result.messages_hashed = plan.messages_hashed;

  // Domain-index view of the target column: a sweep-provided cache skips
  // IndexOf entirely. On a dictionary-encoded column the view is zero-copy
  // (O(dict) remap, no row pass), so build it unconditionally; on a plain
  // column indices are resolved lazily below — only the ~N/e fit tuples
  // ever need one.
  const ValueIndexColumn* cached_index = options.target_index;
  if (cached_index != nullptr && cached_index->size() != rel.NumRows()) {
    return Status::InvalidArgument(
        "DetectOptions::target_index has a different row count than the "
        "suspect relation");
  }
  ValueIndexColumn local_index;
  if (cached_index == nullptr && rel.store().IsDictColumn(target_col)) {
    local_index = ValueIndexColumn::Build(rel, target_col, domain, threads);
    cached_index = &local_index;
  }

  // Map-based detection resolves every fit tuple's key in one batch pass up
  // front: one reused scratch buffer, heterogeneous string_view probes — no
  // per-tuple key allocation inside the tally loop.
  const std::vector<std::uint64_t> map_index =
      options.embedding_map->LookupColumn(rel, key_col, &plan.fit_words);

  // Per-position vote tallies: multiple fit tuples can map to the same
  // wm_data position; they all embedded the same bit, so majority-per-
  // position cleans up attack damage before the ECC even runs. Each shard
  // appends (slot, vote) hits; the shard buffers are then concatenated and
  // folded into per-slot runs — integer addition commutes, so the merged
  // tally (and with it the whole DetectionResult) is bit-identical for
  // every thread count.
  std::vector<std::vector<SlotVote>> shard_hits(threads);
  std::vector<std::size_t> shard_usable(threads, 0);
  ParallelFor(rel.NumRows(), threads, [&](std::size_t shard, std::size_t begin,
                                          std::size_t end) {
    std::vector<SlotVote>& hits = shard_hits[shard];
    std::size_t usable = 0;
    ForEachFitRow(plan.fit_words.data(), begin, end, [&](std::size_t j) {
      const std::uint64_t found = map_index[j];
      if (found == EmbeddingMap::kNotFound) {
        return;  // e.g. tuple added by Mallory
      }
      const std::size_t idx = static_cast<std::size_t>(found) % payload_len;
      // Determine t such that T_j(A) = a_t, then read the embedded bit
      // t & 1; NULL and out-of-domain values (A6 remap, noise) are unusable.
      std::int32_t t;
      if (cached_index != nullptr) {
        t = cached_index->index(j);
      } else {
        const Value& attr_value = rel.Get(j, target_col);
        if (attr_value.is_null()) return;
        const auto domain_index = domain.IndexOf(attr_value);
        t = domain_index.has_value() ? static_cast<std::int32_t>(*domain_index)
                                     : ValueIndexColumn::kNoIndex;
      }
      if (t < 0) return;
      ++usable;
      hits.push_back(
          {idx,
           ExtractBitFromValueIndex(static_cast<std::size_t>(t)) ? 1 : -1});
    });
    shard_usable[shard] = usable;
  });
  for (const std::size_t usable : shard_usable) result.usable_votes += usable;

  std::vector<SlotVote> sort_buffer;
  const Status finish =
      FinishVoteTally(MergeSlotRuns(shard_hits, sort_buffer), payload_len,
                      wm_len, params_.ecc, result);
  if (!finish.ok()) return finish;
  result.rows_scanned = rel.NumRows();
  result.wall_seconds = elapsed();
  return result;
}

}  // namespace catmark
