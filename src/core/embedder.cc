#include "core/embedder.h"

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/codec.h"
#include "core/tuple_plan.h"
#include "ecc/code.h"
#include "relation/column_store.h"
#include "relation/value_index_column.h"

namespace catmark {

std::size_t DerivePayloadLength(std::size_t num_tuples, std::uint64_t e,
                                std::size_t wm_len) {
  const std::size_t bandwidth = num_tuples / static_cast<std::size_t>(e);
  return bandwidth > wm_len ? bandwidth : wm_len;
}

Embedder::Embedder(WatermarkKeySet keys, WatermarkParams params)
    : keys_(std::move(keys)), params_(params) {}

Result<EmbedReport> Embedder::Embed(Relation& rel,
                                    const EmbedOptions& options,
                                    const BitVector& wm,
                                    QualityAssessor* assessor,
                                    EmbeddingLedger* ledger) const {
  const auto wall_start = std::chrono::steady_clock::now();
  if (!keys_.valid()) {
    return Status::InvalidArgument("invalid watermark key set (k1 == k2?)");
  }
  if (params_.e == 0) {
    return Status::InvalidArgument("encoding parameter e must be >= 1");
  }
  if (wm.empty()) {
    return Status::InvalidArgument("watermark must be non-empty");
  }
  CATMARK_ASSIGN_OR_RETURN(
      const std::size_t key_col,
      rel.schema().ColumnIndexOrError(options.key_attr));
  CATMARK_ASSIGN_OR_RETURN(
      const std::size_t target_col,
      rel.schema().ColumnIndexOrError(options.target_attr));
  if (key_col == target_col) {
    return Status::InvalidArgument(
        "key and target attribute must differ (the channel is their "
        "association)");
  }
  if (!rel.schema().column(target_col).categorical) {
    return Status::FailedPrecondition(
        "target attribute '" + options.target_attr +
        "' is not categorical; this scheme embeds into categorical channels");
  }

  EmbedReport report;
  report.num_tuples = rel.NumRows();
  if (rel.empty()) {
    return Status::FailedPrecondition("cannot watermark an empty relation");
  }
  if (rel.NumRows() / params_.e == 0) {
    return Status::FailedPrecondition(
        "encoding parameter e exceeds the relation size (N/e == 0): fewer "
        "than one tuple is expected to be fit, so the channel has no "
        "bandwidth");
  }

  if (options.domain.has_value()) {
    report.domain = *options.domain;
  } else {
    CATMARK_ASSIGN_OR_RETURN(
        report.domain,
        CategoricalDomain::FromRelationColumn(rel, target_col));
  }
  const std::size_t domain_size = report.domain.size();
  if (domain_size < 2) {
    return Status::FailedPrecondition(
        "target attribute domain has fewer than 2 values — zero channel "
        "capacity (Section 3.3 note)");
  }

  // A domain value the target column cannot hold makes the domain invalid:
  // refuse it here, before any cell is written.
  const ColumnType target_type = rel.schema().column(target_col).type;
  for (const Value& v : report.domain.values()) {
    if (!v.MatchesType(target_type)) {
      return Status::InvalidArgument(
          "domain value '" + v.ToString() + "' does not match the type of "
          "target attribute '" + options.target_attr + "'");
    }
  }

  const std::size_t payload_len =
      params_.payload_length != 0
          ? params_.payload_length
          : DerivePayloadLength(rel.NumRows(), params_.e, wm.size());
  report.payload_length = payload_len;

  const std::unique_ptr<ErrorCorrectingCode> ecc = CreateEcc(params_.ecc);
  CATMARK_ASSIGN_OR_RETURN(const BitVector wm_data,
                           ecc->Encode(wm, payload_len));

  // Parallel precompute: the fit tuples with their fitness hashes and (on
  // the k2 path) payload indices in one pass, plus the domain-index view of
  // the target column so IndexOf runs once per dictionary entry instead of
  // up to twice per fit tuple. The keyed-PRF backend resolves here
  // (explicit params choice, else CATMARK_PRF, else the legacy keyed hash)
  // so a typo'd backend name surfaces as InvalidArgument instead of
  // embedding an undetectable mark.
  const std::size_t threads =
      EffectiveThreadCount(params_.num_threads, rel.NumRows());
  const bool map_mode = options.build_embedding_map;
  TuplePlanOptions plan_options;
  plan_options.payload_len = payload_len;
  plan_options.with_payload_index = !map_mode;
  plan_options.num_threads = threads;
  CATMARK_ASSIGN_OR_RETURN(plan_options.prf, ResolvePrfKind(params_.prf));
  report.prf = plan_options.prf;
  const TuplePlan plan =
      BuildTuplePlan(rel, key_col, keys_, params_, plan_options);
  report.rows_scanned = rel.NumRows();
  report.messages_hashed = plan.messages_hashed;

  // Categorical targets are dictionary columns, so alterations are code
  // writes: intern every domain value up front — before the index view is
  // built, so its remap table covers the codes — and map domain index t to
  // its code.
  ColumnStore& store = rel.mutable_store();
  std::vector<std::int32_t> code_of_t(domain_size);
  for (std::size_t t = 0; t < domain_size; ++t) {
    code_of_t[t] = store.InternValue(target_col, report.domain.value(t));
  }

  const ValueIndexColumn target_index =
      ValueIndexColumn::Build(rel, target_col, report.domain, threads);

  // Occurrence counts per domain value, for the category-draining guard.
  const long keep = params_.min_category_keep;
  std::vector<long> category_count;
  if (keep > 0) category_count = target_index.CountPerCategory(domain_size);

  // wm_embed (Figure 1), one fit tuple at a time in row order: the running
  // map index and the guard's counts make each decision depend on every
  // earlier one. An embedding-map entry is recorded only once the tuple's
  // alteration (or unchanged hit) is committed — skipped tuples must not
  // occupy map slots, or the map-based detector would vote on positions
  // that were never written.
  std::vector<std::uint8_t> position_seen(payload_len, 0);
  std::size_t next_map_index = 0;
  for (const std::vector<FitTuple>& shard : plan.shards) {
    for (const FitTuple& fit : shard) {
      const std::size_t j = fit.row;
      ++report.fit_tuples;
      if (ledger != nullptr && ledger->IsMarked(j, target_col)) {
        ++report.skipped_by_ledger;
        continue;
      }

      // wm_data bit position: keyed hash (Fig. 1a) or running map (Fig. 1b).
      const std::size_t idx =
          map_mode ? next_map_index % payload_len : fit.payload_index;
      const std::size_t t =
          SelectValueIndex(fit.h1, domain_size, wm_data.Get(idx));
      const std::int32_t old_t = target_index.index(j);

      if (old_t >= 0 && static_cast<std::size_t>(old_t) == t) {
        ++report.unchanged_tuples;
      } else {
        if (keep > 0 && old_t >= 0 && category_count[old_t] <= keep) {
          ++report.skipped_by_domain_guard;
          continue;
        }
        if (assessor != nullptr) {
          const Status s = assessor->ProposeAlteration(
              rel, j, target_col, report.domain.value(t));
          if (!s.ok()) {
            if (!s.IsConstraintViolation()) return s;  // real failure
            ++report.skipped_by_quality;
            continue;
          }
        } else {
          store.SetCode(j, target_col, code_of_t[t]);
        }
        if (keep > 0) {
          if (old_t >= 0) --category_count[old_t];
          ++category_count[t];
        }
        ++report.altered_tuples;
      }

      if (!position_seen[idx]) {
        position_seen[idx] = 1;
        ++report.positions_written;
      }
      if (map_mode) {
        report.embedding_map.Insert(rel.Get(j, key_col), idx);
        ++next_map_index;
      }
      if (ledger != nullptr) ledger->Mark(j, target_col);
    }
  }

  report.alteration_fraction =
      static_cast<double>(report.altered_tuples) /
      static_cast<double>(report.num_tuples);
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return report;
}

}  // namespace catmark
