#include "core/multi_attribute.h"

#include <map>

#include "relation/domain.h"

namespace catmark {

Result<std::vector<AttributePair>> PlanPairClosure(const Relation& rel) {
  const Schema& schema = rel.schema();

  // Categorical attributes usable as embedding targets (domain size >= 2).
  std::vector<std::string> targets;
  for (std::size_t c : schema.CategoricalColumns()) {
    Result<CategoricalDomain> domain =
        CategoricalDomain::FromRelationColumn(rel, c);
    if (domain.ok() && domain.value().size() >= 2) {
      targets.push_back(schema.column(c).name);
    }
  }
  if (targets.empty()) {
    return Status::FailedPrecondition(
        "no categorical attribute with >= 2 values to watermark");
  }

  std::vector<AttributePair> pairs;
  std::map<std::string, int> modifications;

  // Primary-key-anchored passes.
  if (schema.has_primary_key()) {
    const std::string pk =
        schema.column(static_cast<std::size_t>(schema.primary_key_index()))
            .name;
    for (const std::string& t : targets) {
      if (t == pk) continue;
      pairs.push_back({pk, t});
      ++modifications[t];
    }
  }

  // Cross-categorical passes: one per unordered pair, directed at the
  // less-modified attribute.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    for (std::size_t j = i + 1; j < targets.size(); ++j) {
      const std::string& x = targets[i];
      const std::string& y = targets[j];
      if (modifications[y] <= modifications[x]) {
        pairs.push_back({x, y});
        ++modifications[y];
      } else {
        pairs.push_back({y, x});
        ++modifications[x];
      }
    }
  }
  return pairs;
}

MultiAttributeEmbedder::MultiAttributeEmbedder(WatermarkKeySet keys,
                                               WatermarkParams params)
    : keys_(std::move(keys)), params_(params) {}

Result<MultiEmbedReport> MultiAttributeEmbedder::EmbedAll(
    Relation& rel, const std::vector<AttributePair>& pairs,
    const BitVector& wm, QualityAssessor* assessor) const {
  if (pairs.empty()) {
    return Status::InvalidArgument("no attribute pairs to embed");
  }
  const Embedder embedder(keys_, params_);
  EmbeddingLedger ledger;
  MultiEmbedReport out;
  for (const AttributePair& pair : pairs) {
    EmbedOptions options;
    options.key_attr = pair.key_attr;
    options.target_attr = pair.target_attr;
    CATMARK_ASSIGN_OR_RETURN(
        EmbedReport report,
        embedder.Embed(rel, options, wm, assessor, &ledger));
    out.total_altered += report.altered_tuples;
    out.total_skipped_by_ledger += report.skipped_by_ledger;
    out.passes.push_back({pair, std::move(report)});
  }
  return out;
}

Result<std::vector<PairDetection>> MultiAttributeEmbedder::DetectAll(
    const Relation& rel, const std::vector<AttributePair>& pairs,
    std::size_t wm_len, std::size_t payload_length) const {
  const Detector detector(keys_, params_);

  // The pair closure reuses each target attribute under several key
  // attributes; recover its domain once and share it across those passes.
  std::map<std::string, CategoricalDomain> domains;

  std::vector<PairDetection> out;
  for (const AttributePair& pair : pairs) {
    if (rel.schema().ColumnIndex(pair.key_attr) < 0 ||
        rel.schema().ColumnIndex(pair.target_attr) < 0) {
      continue;  // attribute lost to vertical partitioning
    }
    auto it = domains.find(pair.target_attr);
    if (it == domains.end()) {
      const std::size_t target_col = static_cast<std::size_t>(
          rel.schema().ColumnIndex(pair.target_attr));
      Result<CategoricalDomain> domain =
          CategoricalDomain::FromRelationColumn(rel, target_col);
      if (!domain.ok()) continue;  // e.g. all-NULL column after attack
      it = domains.emplace(pair.target_attr, std::move(domain).value()).first;
    }
    DetectOptions options;
    options.key_attr = pair.key_attr;
    options.target_attr = pair.target_attr;
    options.payload_length = payload_length;
    options.domain = it->second;
    Result<DetectionResult> detection = detector.Detect(rel, options, wm_len);
    if (!detection.ok()) continue;  // e.g. degenerate domain after attack
    out.push_back({pair, std::move(detection).value()});
  }
  return out;
}

BitVector MultiAttributeEmbedder::CombineDetections(
    const std::vector<PairDetection>& detections, std::size_t wm_len) {
  std::vector<long> votes(wm_len, 0);
  for (const PairDetection& d : detections) {
    // Weight each witness by the number of payload positions it actually
    // saw: a pass keyed by a low-cardinality categorical attribute only
    // covers a handful of positions (the Section 3.3 note about categorical
    // key placeholders) and must not outvote a fully-covered PK-keyed pass.
    const long weight =
        static_cast<long>(d.detection.positions_present) + 1;
    for (std::size_t i = 0; i < wm_len && i < d.detection.wm.size(); ++i) {
      votes[i] += d.detection.wm.Get(i) ? weight : -weight;
    }
  }
  BitVector wm(wm_len);
  for (std::size_t i = 0; i < wm_len; ++i) wm.Set(i, votes[i] > 0 ? 1 : 0);
  return wm;
}

}  // namespace catmark
