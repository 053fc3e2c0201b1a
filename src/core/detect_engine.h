#ifndef CATMARK_CORE_DETECT_ENGINE_H_
#define CATMARK_CORE_DETECT_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/channel.h"
#include "core/detector.h"
#include "core/embedding_map.h"
#include "core/keys.h"
#include "core/params.h"
#include "relation/relation.h"
#include "relation/value_index_column.h"

namespace catmark {

/// One candidate of a multi-key detection sweep: the keys to test plus the
/// scheme parameters that candidate claims were used at embed time (e, PRF
/// backend, ECC, payload length — in a registry dispute each certificate
/// brings its own) and the claimed mark length.
struct KeyCandidate {
  WatermarkKeySet keys;
  WatermarkParams params;
  std::size_t wm_len = 0;

  /// The position source. Null: Figure 2, a fit message's slot is
  /// H(key, k2) mod the payload length. Set: Figure 2(b), the slot is the
  /// index the owner's map recorded for the key, mod the payload length;
  /// no k2 is hashed, and a fit message whose key the map does not hold
  /// counts in fit_tuples but casts no vote. The pointee must outlive the
  /// detect call.
  const EmbeddingMap* embedding_map = nullptr;
};

/// Inputs of the key-independent half of detection: the attributes, the
/// domain and the worker count. Everything per-key — the keys, e, the PRF,
/// the payload length and the embedding map — rides on the KeyCandidate.
struct DetectEngineOptions {
  std::string key_attr;
  std::string target_attr;

  /// Domain the embedder used, borrowed: the pointee must outlive the
  /// engine. When null the domain is recovered from the suspect data and
  /// owned by the engine.
  const CategoricalDomain* domain = nullptr;

  /// Worker threads (0 = auto). DetectMany splits them keys × shards.
  std::size_t num_threads = 0;
};

/// The key-agnostic detect engine: builds the per-relation half of blind
/// detection once (the *RelationPlan*) and runs the per-key half (the
/// *PerKeyPass*) against it for any number of candidate keys. It is the
/// one detect loop: Detector::Detect is Create + Detect with one candidate.
///
/// RelationPlan — everything the fitness/position hashes consume that does
/// not depend on the key, built once at Create:
///   - on either key layout, one domain-index view of the target column
///     (ValueIndexColumn) against the resolved domain: the zero-copy view
///     of a dictionary target, or an index materialized once per plan on a
///     plain target. No pass resolves a target cell any other way;
///   - on a plain key column, nothing is copied: the plan is the key column
///     itself, split into row shards, plus its non-NULL key count (one
///     message per non-NULL key row);
///   - on a dictionary-encoded key column, one prepared *message* per live
///     distinct dictionary entry (the dict-code gather): the canonical key
///     serialization in per-shard arenas, except on an INT64 dictionary,
///     whose values stay a typed lane that hashes through
///     FitScanner::ScanInt64; plus key-independent per-message vote
///     aggregates from the target column's domain-index view: vote[i] = Σ
///     over that message's rows of ±1 (the embedded bit t & 1, 0 when
///     NULL/out-of-domain), plus usable/row counts. Integer addition
///     commutes, so folding rows into their message *before* knowing which
///     messages are fit is bit-identical to the row-at-a-time tally.
///
/// PerKeyPass — the only work repeated per candidate: one FitScanner pass
/// per plan shard (ScanKeyColumn over a plain column's rows, ScanPrepared
/// or ScanInt64 over the prepared messages: batched k1, the vectorized
/// H mod e == 0 fitness test, batched k2 position hashes for the ~1/e fit
/// messages) appending one (idx, vote) hit per voting fit message to a
/// reused per-worker buffer, then the sparse fold and decode of
/// FinishVoteTally. A candidate with an embedding map skips the k2 batch
/// and looks each fit message's key bytes up in the map instead; the
/// position source is chosen once per pass, not per message. On a
/// repeat-heavy dictionary key column this is O(distinct keys) per
/// candidate instead of O(N) — the entire row dimension was folded into
/// the plan — and nothing in it is O(payload length): a candidate costs its
/// ~fit messages + |wm| whatever payload length it claims.
///
/// The engine borrows its inputs, as ValueIndexColumn does: the relation
/// and options.domain must outlive it, and the relation must not change
/// while it lives. A domain recovered from the data is owned by the
/// engine. Every result is bit-identical at every thread count and under
/// every PRF backend; reference_detect_test checks it against the
/// paper-literal Figure 2 oracle.
class DetectEngine {
 public:
  /// Builds the RelationPlan. Fails on the column-half channel checks
  /// (core/channel.h, checks 6-9) and on an empty relation
  /// (FailedPrecondition). A plain (non-categorical) target is fine.
  static Result<DetectEngine> Create(const Relation& rel,
                                     const DetectEngineOptions& options);

  DetectEngine(DetectEngine&&) = default;
  DetectEngine& operator=(DetectEngine&&) = default;

  /// One candidate through the PerKeyPass. The plan is amortized, not
  /// rebuilt: messages_hashed counts its messages while rows_scanned stays
  /// the relation's row count; wall_seconds covers just this pass.
  Result<DetectionResult> Detect(const KeyCandidate& candidate) const;

  /// Runs every candidate through the PerKeyPass, amortizing the plan
  /// across the block and splitting the worker budget keys × shards:
  /// candidates fan out over ParallelFor, and any leftover workers
  /// parallelize each pass's plan shards. results[i] corresponds to
  /// candidates[i]; a candidate failing a scheme-half channel check
  /// (core/channel.h, checks 1-5, with N the suspect's size) fails that
  /// entry only.
  std::vector<Result<DetectionResult>> DetectMany(
      std::span<const KeyCandidate> candidates) const;

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_messages() const { return num_messages_; }
  bool dict_keys() const { return dict_keys_; }

 private:
  struct Scratch;

  DetectEngine() = default;

  Result<DetectionResult> RunPass(const KeyCandidate& candidate,
                                  std::size_t num_threads,
                                  Scratch& scratch) const;
  // Tallies one plan shard; `slots` is the candidate's position source.
  template <typename Slots>
  void TallyShard(std::size_t shard, FitScanner& scan, const Slots& slots,
                  std::vector<SlotVote>& hits, std::size_t& usable_votes,
                  std::size_t& fit_tuples) const;

  // Key and target columns and the resolved domain: the caller's, or one
  // recovered from the data and owned here.
  ChannelColumns columns_;
  const Relation* rel_ = nullptr;
  std::size_t num_rows_ = 0;
  std::size_t num_messages_ = 0;
  std::size_t num_threads_ = 0;
  bool dict_keys_ = false;

  // The target column's domain index per row, against columns_.domain():
  // zero-copy on a dictionary target, materialized on a plain one.
  ValueIndexColumn target_index_;

  // Plain key column: row shard s covers [row_bounds_[s],
  // row_bounds_[s + 1]).
  std::vector<std::size_t> row_bounds_;

  // Dictionary key column: prepared messages per build shard, in one of
  // two layouts:
  //   - typed: on an INT64 dictionary, int64_keys_[s] holds the shard's
  //     live dict values, which hash as int64 lanes (no arena, no bounds);
  //     a map candidate serializes just its fit messages' 9 key bytes;
  //   - arena: serialized messages back to back in arena_[s], with
  //     bounds_[s] holding a leading 0 plus one end-offset per message (so
  //     any chunk hashes via a bounds subspan).
  // int64_keys_ is non-empty iff the plan uses the typed layout; msg_base_
  // has one entry per shard in either.
  std::vector<std::vector<std::int64_t>> int64_keys_;
  std::vector<std::vector<std::uint8_t>> arena_;
  std::vector<std::vector<std::size_t>> bounds_;
  std::vector<std::size_t> msg_base_;  ///< first global message id per shard

  // Per-message aggregates, global message order (shards concatenated).
  std::vector<std::int32_t> vote_;
  std::vector<std::uint32_t> usable_;
  std::vector<std::uint32_t> rows_;
};

}  // namespace catmark

#endif  // CATMARK_CORE_DETECT_ENGINE_H_
