#include "core/embedder.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/channel.h"
#include "core/codec.h"
#include "core/tuple_plan.h"
#include "ecc/code.h"
#include "relation/column_store.h"
#include "relation/value_index_column.h"

namespace catmark {

Embedder::Embedder(WatermarkKeySet keys, WatermarkParams params)
    : keys_(std::move(keys)), params_(params) {}

Result<EmbedReport> Embedder::Embed(Relation& rel,
                                    const EmbedOptions& options,
                                    const BitVector& wm,
                                    QualityAssessor* assessor,
                                    EmbeddingLedger* ledger) const {
  const auto wall_start = std::chrono::steady_clock::now();
  // The embed-only checks bracket the channel's: N/e >= 1 even when the
  // payload length is pinned (a channel with no expected fit tuple would
  // "succeed" with nothing embedded), and a categorical target. All fail
  // before any cell is written.
  if (rel.NumRows() < params_.e) {
    return Status::FailedPrecondition(
        "encoding parameter e exceeds the relation size (N/e == 0): fewer "
        "than one tuple is expected to be fit, so the channel has no "
        "bandwidth");
  }
  CATMARK_ASSIGN_OR_RETURN(
      const ChannelColumns columns,
      ChannelColumns::Resolve(
          rel, options.key_attr, options.target_attr,
          options.domain.has_value() ? &*options.domain : nullptr));
  const std::size_t key_col = columns.key_col();
  const std::size_t target_col = columns.target_col();
  if (!rel.schema().column(target_col).categorical) {
    return Status::FailedPrecondition(
        "target attribute '" + options.target_attr +
        "' is not categorical; this scheme embeds into categorical channels");
  }
  const bool map_mode = options.build_embedding_map;
  CATMARK_ASSIGN_OR_RETURN(
      const Channel channel,
      Channel::Create(keys_, params_, rel.NumRows(), wm.size(), !map_mode));

  EmbedReport report;
  report.num_tuples = rel.NumRows();
  report.domain = columns.domain();
  report.prf = channel.prf();
  const std::size_t domain_size = report.domain.size();
  const std::size_t payload_len = channel.payload_length();
  report.payload_length = payload_len;
  CATMARK_ASSIGN_OR_RETURN(const PayloadBits wm_data,
                           PayloadBits::Create(params_.ecc, wm, payload_len));

  // Parallel precompute: the fit tuples with their fitness hashes and (on
  // the k2 path) slots in one pass, plus the domain-index view of the
  // target column so IndexOf runs once per dictionary entry instead of up
  // to twice per fit tuple.
  const std::size_t threads =
      EffectiveThreadCount(params_.num_threads, rel.NumRows());
  const TuplePlan plan =
      BuildTuplePlan(rel, key_col, channel, params_.num_threads);
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
  // that were never written. positions_written counts the distinct
  // positions among the committed ones, sorted once at the end, so nothing
  // is sized by the payload length. Positions lie below kMaxPayloadLength,
  // so they fit 32 bits.
  std::vector<std::uint32_t> committed;
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

      committed.push_back(static_cast<std::uint32_t>(idx));
      if (map_mode) {
        report.embedding_map.Insert(rel.Get(j, key_col), idx);
        ++next_map_index;
      }
      if (ledger != nullptr) ledger->Mark(j, target_col);
    }
  }

  std::sort(committed.begin(), committed.end());
  report.positions_written = static_cast<std::size_t>(
      std::unique(committed.begin(), committed.end()) - committed.begin());
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
