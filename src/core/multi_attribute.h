#ifndef CATMARK_CORE_MULTI_ATTRIBUTE_H_
#define CATMARK_CORE_MULTI_ATTRIBUTE_H_

#include <string>
#include <vector>

#include "common/bitvec.h"
#include "common/result.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "core/keys.h"
#include "core/params.h"
#include "quality/assessor.h"
#include "relation/relation.h"

namespace catmark {

/// One marking pass: `key_attr` plays K, `target_attr` is modulated.
struct AttributePair {
  std::string key_attr;
  std::string target_attr;
};

/// Builds the pair closure of Section 3.3: primary-key-anchored passes
/// first (mark(K, A), mark(K, B), ...), then one pass per unordered
/// categorical pair, directed so that the attribute modified is the one
/// carrying fewer prior modifications ("by modifying A (assumed un-modified
/// yet ...) we effectively spread the watermark throughout the entire
/// data"). Attributes with single-value domains are excluded as targets.
Result<std::vector<AttributePair>> PlanPairClosure(const Relation& rel);

/// Per-pass outcome of a multi-attribute embedding.
struct PassReport {
  AttributePair pair;
  EmbedReport report;
};

struct MultiEmbedReport {
  std::vector<PassReport> passes;
  std::size_t total_altered = 0;
  std::size_t total_skipped_by_ledger = 0;
};

/// Per-pass detection outcome ("more rights witnesses to testify").
struct PairDetection {
  AttributePair pair;
  DetectionResult detection;
};

/// Multiple attribute embeddings (Section 3.3): applies the base scheme once
/// per attribute pair, sharing one interference ledger, which both defeats
/// A5 vertical partitioning (any surviving pair still carries the mark) and
/// breaks the primary-key dependency of the base algorithm.
class MultiAttributeEmbedder {
 public:
  MultiAttributeEmbedder(WatermarkKeySet keys, WatermarkParams params);

  /// Runs every pass in order over `rel`. If `assessor` is given, the caller
  /// must have called assessor->Begin(rel).
  Result<MultiEmbedReport> EmbedAll(Relation& rel,
                                    const std::vector<AttributePair>& pairs,
                                    const BitVector& wm,
                                    QualityAssessor* assessor = nullptr) const;

  /// Detects through every pair whose two attributes survive in `rel`
  /// (pairs with missing attributes are silently skipped — that is the A5
  /// scenario). `payload_length` is the embed-time |wm_data| (same for all
  /// passes: it depends only on N and e); it replaces the constructor
  /// params' payload_length for these detections, 0 deriving it from `rel`.
  Result<std::vector<PairDetection>> DetectAll(
      const Relation& rel, const std::vector<AttributePair>& pairs,
      std::size_t wm_len, std::size_t payload_length) const;

  /// Combines the per-pair decoded marks by positionwise majority — the
  /// aggregate testimony of all witnesses.
  static BitVector CombineDetections(
      const std::vector<PairDetection>& detections, std::size_t wm_len);

 private:
  WatermarkKeySet keys_;
  WatermarkParams params_;
};

}  // namespace catmark

#endif  // CATMARK_CORE_MULTI_ATTRIBUTE_H_
