#ifndef CATMARK_CORE_EMBEDDER_H_
#define CATMARK_CORE_EMBEDDER_H_

#include <optional>
#include <string>

#include "common/bitvec.h"
#include "common/result.h"
#include "core/embedding_map.h"
#include "core/keys.h"
#include "core/ledger.h"
#include "core/params.h"
#include "quality/assessor.h"
#include "relation/domain.h"
#include "relation/relation.h"

namespace catmark {

/// What to embed where. `key_attr` plays the role of the primary key K
/// (Section 3.3 deliberately re-uses the machinery with *any* attribute as
/// the key placeholder); `target_attr` is the categorical attribute A whose
/// values are re-selected to carry mark bits.
struct EmbedOptions {
  std::string key_attr;
  std::string target_attr;

  /// Explicit value domain of the target attribute. When unset it is
  /// recovered from the data (sorted distinct values). Embedder and
  /// detector must agree on the domain.
  std::optional<CategoricalDomain> domain;

  /// Build the Figure 1(b) embedding map instead of the k2 hash for bit
  /// positions.
  bool build_embedding_map = false;
};

/// Everything the embedding pass did — including the parameters the
/// detector must be given (payload_length, domain).
struct EmbedReport {
  std::size_t num_tuples = 0;         ///< N at embed time
  std::size_t fit_tuples = 0;         ///< tuples satisfying the fitness test
  std::size_t altered_tuples = 0;     ///< cells actually changed
  std::size_t unchanged_tuples = 0;   ///< fit, but value already correct
  std::size_t skipped_by_quality = 0; ///< vetoed by the QualityAssessor
  std::size_t skipped_by_ledger = 0;  ///< cell already carries another mark
  std::size_t skipped_by_domain_guard = 0;  ///< would have drained a category
  std::size_t payload_length = 0;     ///< |wm_data| — detector input
  std::size_t positions_written = 0;  ///< distinct wm_data positions hit
  double alteration_fraction = 0.0;   ///< altered_tuples / N

  /// Work accounting, mirroring DetectionResult: rows the plan build
  /// scanned (== N), messages it pushed through the k1 PRF (live distinct
  /// dictionary entries on the cached path, non-NULL key rows otherwise),
  /// and end-to-end wall time of the Embed call.
  std::size_t rows_scanned = 0;
  std::size_t messages_hashed = 0;
  double wall_seconds = 0.0;

  /// Keyed-PRF backend the embedding actually ran with (WatermarkParams::
  /// prf resolved against CATMARK_PRF) — detector input, recorded in the
  /// certificate so disputes re-verify with the right primitive.
  PrfKind prf = PrfKind::kKeyedHash;
  CategoricalDomain domain;           ///< domain used — detector input
  EmbeddingMap embedding_map;         ///< populated iff build_embedding_map
};

/// wm_embed (Figure 1): blind watermark embedding over the association
/// between a key attribute and a categorical attribute.
class Embedder {
 public:
  Embedder(WatermarkKeySet keys, WatermarkParams params);

  /// Embeds `wm` into `rel` in place.
  ///
  /// Two stages. The plan build (see TuplePlan) batches the fitness hashes
  /// through the SIMD PRF kernels on parallel row shards and keeps only the
  /// ~N/e fit tuples. The apply loop then walks that list in row order,
  /// exactly as Figure 1 does: bit position (k2 hash or running map index),
  /// value selection, ledger, category-draining guard, quality assessor and
  /// the dictionary-code write. The relation, report, map and ledger are
  /// therefore identical at any thread count and SIMD level. An
  /// embedding-map entry is recorded only for committed tuples (altered or
  /// unchanged-hit) — never for tuples skipped by the ledger, the domain
  /// guard or a quality veto.
  ///
  /// Fails, before any cell is written, on the channel checks
  /// (core/channel.h, checks 1-9) and on two embed-only ones, both
  /// FailedPrecondition: N / e == 0 even with a pinned payload length
  /// (fewer than one tuple is expected to be fit, so "success" would embed
  /// nothing; checked first), and a target attribute that is not
  /// categorical (checked after the column half).
  ///
  /// `assessor` (optional) enforces data-quality constraints; the caller
  /// must have called assessor->Begin(rel) beforehand (so one assessor can
  /// span multiple passes). `ledger` (optional) makes multi-attribute
  /// passes interference-free (Section 3.3).
  Result<EmbedReport> Embed(Relation& rel, const EmbedOptions& options,
                            const BitVector& wm,
                            QualityAssessor* assessor = nullptr,
                            EmbeddingLedger* ledger = nullptr) const;

 private:
  WatermarkKeySet keys_;
  WatermarkParams params_;
};

}  // namespace catmark

#endif  // CATMARK_CORE_EMBEDDER_H_
