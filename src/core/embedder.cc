#include "core/embedder.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "core/codec.h"
#include "core/fit_scan.h"
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

namespace {

// Inputs shared by every apply-pass flavour. The serial pass is the
// reference semantics; both sharded passes are proven bit-identical to it
// by the randomized parity suite.
struct ApplyInputs {
  Relation* rel = nullptr;
  const WatermarkParams* params = nullptr;
  const EmbedOptions* options = nullptr;
  const TuplePlan* plan = nullptr;
  const BitVector* wm_data = nullptr;
  std::size_t payload_len = 0;
  std::size_t domain_size = 0;
  std::size_t key_col = 0;
  std::size_t target_col = 0;
  const ValueIndexColumn* target_index = nullptr;
  const std::vector<std::int32_t>* code_of_t = nullptr;  // iff write_codes
  bool write_codes = false;
  std::vector<long>* category_count = nullptr;  // iff guard enabled
  QualityAssessor* assessor = nullptr;
  EmbeddingLedger* ledger = nullptr;
};

// Per-row verdict of the sharded classify phase.
enum RowVerdict : std::uint8_t {
  kUnfit = 0,
  kLedgerSkip,
  kUnchanged,  // fit, value already selects the right bit — commit, no write
  kAlter,      // fit, needs the code write (may still be guard-skipped)
  kGuardSkip,  // alteration vetoed by the category-draining guard
};

// Distinct wm_data positions hit across all shards (the serial pass's
// position_seen counter, reassembled from per-shard bitmaps by OR — set
// union commutes, so the count is thread-count independent).
std::size_t CountDistinctPositions(
    const std::vector<std::vector<std::uint8_t>>& shard_seen,
    std::size_t payload_len) {
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < payload_len; ++i) {
    for (const std::vector<std::uint8_t>& seen : shard_seen) {
      if (seen[i]) {
        ++distinct;
        break;
      }
    }
  }
  return distinct;
}

// The reference apply pass: preserves the Figure 1(b) map insertion order
// and the draining guard's running counts. An embedding-map entry is
// recorded only once the tuple's alteration (or unchanged hit) is committed
// — skipped tuples must not occupy map slots, or the map-based detector
// would vote on positions that were never written.
Status SerialApply(const ApplyInputs& in, EmbedReport& report) {
  Relation& rel = *in.rel;
  const WatermarkParams& params = *in.params;
  const bool map_mode = in.options->build_embedding_map;
  const TuplePlan& plan = *in.plan;
  const ValueIndexColumn& target_index = *in.target_index;

  std::vector<std::uint8_t> position_seen(in.payload_len, 0);
  std::size_t next_map_index = 0;

  for (std::size_t j = 0; j < rel.NumRows(); ++j) {
    if (!FitBit(plan.fit_words.data(), j)) continue;

    if (in.ledger != nullptr && in.ledger->IsMarked(j, in.target_col)) {
      ++report.skipped_by_ledger;
      continue;
    }

    // wm_data bit position: keyed hash (Fig. 1a) or running map (Fig. 1b).
    const std::size_t idx = map_mode ? next_map_index % in.payload_len
                                     : plan.payload_index[j];

    const int bit = in.wm_data->Get(idx);
    const std::size_t t = SelectValueIndex(plan.h1[j], in.domain_size, bit);
    const std::int32_t old_t = target_index.index(j);

    const auto commit = [&] {
      if (!position_seen[idx]) {
        position_seen[idx] = 1;
        ++report.positions_written;
      }
      if (map_mode) {
        report.embedding_map.Insert(rel.Get(j, in.key_col), idx);
        ++next_map_index;
      }
      if (in.ledger != nullptr) in.ledger->Mark(j, in.target_col);
    };

    if (old_t >= 0 && static_cast<std::size_t>(old_t) == t) {
      ++report.unchanged_tuples;
      commit();
      continue;
    }

    if (params.min_category_keep > 0 && old_t >= 0 &&
        (*in.category_count)[old_t] <= params.min_category_keep) {
      ++report.skipped_by_domain_guard;
      continue;
    }

    const Value& new_value = report.domain.value(t);
    if (in.assessor != nullptr) {
      const Status s =
          in.assessor->ProposeAlteration(rel, j, in.target_col, new_value);
      if (!s.ok()) {
        if (!s.IsConstraintViolation()) return s;  // real failure
        ++report.skipped_by_quality;
        continue;
      }
    } else if (in.write_codes) {
      rel.mutable_store().SetCode(j, in.target_col, (*in.code_of_t)[t]);
    } else {
      CATMARK_RETURN_IF_ERROR(rel.Set(j, in.target_col, new_value));
    }
    if (params.min_category_keep > 0) {
      if (old_t >= 0) --(*in.category_count)[old_t];
      ++(*in.category_count)[t];
    }
    ++report.altered_tuples;
    commit();
  }
  return Status::OK();
}

// Report counters and side effects one shard accumulates during the
// parallel apply phase, merged serially (in shard order) afterwards.
struct ShardTally {
  std::size_t unchanged = 0;
  std::size_t altered = 0;
  std::size_t ledger_skips = 0;
  std::vector<std::size_t> marks;  // committed rows, ascending
  EmbeddingMap::Segment segment;   // map path only
};

// Sharded apply for the k2 position path (no embedding map): the bit
// position of every fit tuple is already in the plan, so per-tuple
// decisions are stateless and the pass runs fused — one set-bit scan over
// the plan's fitness bitset per shard, classifying and applying in the same
// touch (raw code writes to disjoint row slots via the bulk writer,
// everything else shard-local and merged in shard order below).
//
// The category-draining guard breaks the fusion: whether tuple j's
// alteration drains a category depends on every earlier alteration's net
// count effect. With the guard on, the pass splits into the classic three
// phases — parallel classify into per-row verdicts, a serial O(fit) guard
// scan (pure array arithmetic — the keyed hashing all happened in the plan
// build), parallel apply — with every phase iterating fit rows via the
// bitset.
void ShardedHashApply(const ApplyInputs& in, std::size_t threads,
                      EmbedReport& report) {
  Relation& rel = *in.rel;
  const WatermarkParams& params = *in.params;
  const TuplePlan& plan = *in.plan;
  const ValueIndexColumn& target_index = *in.target_index;
  const std::size_t n = rel.NumRows();
  const std::uint64_t* fit_words = plan.fit_words.data();

  BulkCodeWriter writer(rel.mutable_store(), in.target_col, threads);
  std::vector<std::vector<std::uint8_t>> shard_seen(
      threads, std::vector<std::uint8_t>(in.payload_len, 0));
  std::vector<ShardTally> tally(threads);

  if (params.min_category_keep == 0) {
    // Fused classify/apply: fitness bitset AND ledger skip AND value
    // comparison resolve in one pass, no verdict materialization at all.
    ParallelFor(n, threads,
                [&](std::size_t shard, std::size_t begin, std::size_t end) {
                  ShardTally& t = tally[shard];
                  std::vector<std::uint8_t>& seen = shard_seen[shard];
                  ForEachFitRow(fit_words, begin, end, [&](std::size_t j) {
                    if (in.ledger != nullptr &&
                        in.ledger->IsMarked(j, in.target_col)) {
                      ++t.ledger_skips;
                      return;
                    }
                    const std::size_t idx = plan.payload_index[j];
                    const int bit = in.wm_data->Get(idx);
                    const std::size_t tv =
                        SelectValueIndex(plan.h1[j], in.domain_size, bit);
                    const std::int32_t old_t = target_index.index(j);
                    if (old_t >= 0 && static_cast<std::size_t>(old_t) == tv) {
                      ++t.unchanged;
                    } else {
                      writer.Write(shard, j, (*in.code_of_t)[tv]);
                      ++t.altered;
                    }
                    seen[idx] = 1;
                    if (in.ledger != nullptr) t.marks.push_back(j);
                  });
                });
  } else {
    std::vector<std::uint8_t> verdict(n, kUnfit);
    std::vector<std::uint32_t> tsel(n, 0);

    // Phase 1: classify. Reads the plan, the domain-index view and (const)
    // ledger; writes only per-row slots.
    ParallelFor(n, threads,
                [&](std::size_t, std::size_t begin, std::size_t end) {
                  ForEachFitRow(fit_words, begin, end, [&](std::size_t j) {
                    if (in.ledger != nullptr &&
                        in.ledger->IsMarked(j, in.target_col)) {
                      verdict[j] = kLedgerSkip;
                      return;
                    }
                    const std::size_t idx = plan.payload_index[j];
                    const int bit = in.wm_data->Get(idx);
                    const std::size_t t =
                        SelectValueIndex(plan.h1[j], in.domain_size, bit);
                    tsel[j] = static_cast<std::uint32_t>(t);
                    const std::int32_t old_t = target_index.index(j);
                    verdict[j] =
                        (old_t >= 0 && static_cast<std::size_t>(old_t) == t)
                            ? kUnchanged
                            : kAlter;
                  });
                });

    // Guard resolution, inherently ordered (see above).
    std::vector<long>& category_count = *in.category_count;
    ForEachFitRow(fit_words, 0, n, [&](std::size_t j) {
      if (verdict[j] != kAlter) return;
      const std::int32_t old_t = target_index.index(j);
      if (old_t >= 0 && category_count[old_t] <= params.min_category_keep) {
        verdict[j] = kGuardSkip;
        ++report.skipped_by_domain_guard;
        return;
      }
      if (old_t >= 0) --category_count[old_t];
      ++category_count[tsel[j]];
    });

    // Phase 2: apply.
    ParallelFor(n, threads,
                [&](std::size_t shard, std::size_t begin, std::size_t end) {
                  ShardTally& t = tally[shard];
                  std::vector<std::uint8_t>& seen = shard_seen[shard];
                  ForEachFitRow(fit_words, begin, end, [&](std::size_t j) {
                    switch (verdict[j]) {
                      case kUnchanged:
                        ++t.unchanged;
                        break;
                      case kAlter:
                        writer.Write(shard, j, (*in.code_of_t)[tsel[j]]);
                        ++t.altered;
                        break;
                      case kLedgerSkip:
                        ++t.ledger_skips;
                        return;
                      default:
                        return;
                    }
                    seen[plan.payload_index[j]] = 1;
                    if (in.ledger != nullptr) t.marks.push_back(j);
                  });
                });
  }
  writer.Finish();

  for (const ShardTally& t : tally) {
    report.unchanged_tuples += t.unchanged;
    report.altered_tuples += t.altered;
    report.skipped_by_ledger += t.ledger_skips;
    if (in.ledger != nullptr) in.ledger->MarkRows(t.marks, in.target_col);
  }
  report.positions_written =
      CountDistinctPositions(shard_seen, in.payload_len);
  report.apply_shards = threads;
}

// Two-phase sharded apply for the Figure 1(b) embedding-map path. Without
// the draining guard or a quality assessor, *every* fit, non-ledger-marked
// tuple commits, so the running map index the serial pass hands out is an
// exact prefix-sum over per-shard commit counts: shard s starts at the
// total commits of shards 0..s-1 and counts up. Phase 2 then selects
// values, applies code writes and serializes per-shard map segments fully
// in parallel; the segments splice in shard order, reproducing the serial
// insertion sequence byte-for-byte.
void ShardedMapApply(const ApplyInputs& in, std::size_t threads,
                     EmbedReport& report) {
  Relation& rel = *in.rel;
  const TuplePlan& plan = *in.plan;
  const ValueIndexColumn& target_index = *in.target_index;
  const std::size_t n = rel.NumRows();

  const std::uint64_t* fit_words = plan.fit_words.data();

  // Per-shard commit counts. With no ledger these are the plan's per-shard
  // fit counts (same (n, threads) partition); with a ledger, one cheap
  // counting pass filters out already-marked cells.
  std::vector<std::size_t> base;
  if (in.ledger == nullptr) {
    CATMARK_CHECK_EQ(plan.shard_fit.size(), threads);
    base = plan.shard_fit;
  } else {
    base.assign(threads, 0);
    ParallelFor(n, threads,
                [&](std::size_t shard, std::size_t begin, std::size_t end) {
                  std::size_t commits = 0;
                  ForEachFitRow(fit_words, begin, end, [&](std::size_t j) {
                    if (!in.ledger->IsMarked(j, in.target_col)) ++commits;
                  });
                  base[shard] = commits;
                });
  }
  const std::vector<std::size_t> shard_commits = base;
  ExclusivePrefixSum(base);  // base[s] = first global map index of shard s

  // The map key is the serialized key value, which on a dict-encoded key
  // column is the same bytes for every row sharing a dict code — serialize
  // each live dictionary entry once up front and splice by code, instead of
  // re-serializing (and re-allocating) per committing tuple.
  const ColumnReader key_probe(rel.store(), in.key_col);
  std::vector<std::string> key_of_code;
  if (key_probe.is_dict()) {
    const std::vector<Value>& dict = key_probe.dict();
    key_of_code.resize(dict.size());
    std::vector<std::uint8_t> scratch;
    scratch.reserve(64);
    for (std::size_t c = 0; c < dict.size(); ++c) {
      key_of_code[c] = std::string(dict[c].SerializeKeyInto(scratch));
    }
  }

  BulkCodeWriter writer(rel.mutable_store(), in.target_col, threads);
  std::vector<std::vector<std::uint8_t>> shard_seen(
      threads, std::vector<std::uint8_t>(in.payload_len, 0));
  std::vector<ShardTally> tally(threads);

  ParallelFor(
      n, threads, [&](std::size_t shard, std::size_t begin, std::size_t end) {
        ShardTally& t = tally[shard];
        t.segment.reserve(shard_commits[shard]);
        std::vector<std::uint8_t>& seen = shard_seen[shard];
        const ColumnReader key_reader(rel.store(), in.key_col);
        const std::int32_t* key_codes =
            key_reader.is_dict() ? key_reader.codes().data() : nullptr;
        std::vector<std::uint8_t> scratch;
        scratch.reserve(64);
        std::size_t map_index = base[shard];
        ForEachFitRow(fit_words, begin, end, [&](std::size_t j) {
          if (in.ledger != nullptr && in.ledger->IsMarked(j, in.target_col)) {
            ++t.ledger_skips;
            return;
          }
          // Global map indices wrap around the payload exactly like the
          // serial pass's next_map_index % payload_len — including across
          // shard boundaries, where base[shard] may land mid-cycle.
          const std::size_t idx = map_index % in.payload_len;
          const int bit = in.wm_data->Get(idx);
          const std::size_t tval =
              SelectValueIndex(plan.h1[j], in.domain_size, bit);
          const std::int32_t old_t = target_index.index(j);
          if (old_t >= 0 && static_cast<std::size_t>(old_t) == tval) {
            ++t.unchanged;
          } else {
            writer.Write(shard, j, (*in.code_of_t)[tval]);
            ++t.altered;
          }
          seen[idx] = 1;
          if (key_codes != nullptr) {
            // Fit rows have non-NULL keys, so the dict code is valid.
            t.segment.emplace_back(key_of_code[key_codes[j]], idx);
          } else {
            t.segment.emplace_back(
                std::string(key_reader.SerializeKeyInto(j, scratch)), idx);
          }
          if (in.ledger != nullptr) t.marks.push_back(j);
          ++map_index;
        });
      });
  writer.Finish();

  for (ShardTally& t : tally) {
    report.unchanged_tuples += t.unchanged;
    report.altered_tuples += t.altered;
    report.skipped_by_ledger += t.ledger_skips;
    report.embedding_map.AppendSegment(std::move(t.segment));
    if (in.ledger != nullptr) in.ledger->MarkRows(t.marks, in.target_col);
  }
  report.positions_written =
      CountDistinctPositions(shard_seen, in.payload_len);
  report.apply_shards = threads;
}

}  // namespace

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

  const std::size_t payload_len =
      params_.payload_length != 0
          ? params_.payload_length
          : DerivePayloadLength(rel.NumRows(), params_.e, wm.size());
  report.payload_length = payload_len;

  const std::unique_ptr<ErrorCorrectingCode> ecc = CreateEcc(params_.ecc);
  CATMARK_ASSIGN_OR_RETURN(const BitVector wm_data,
                           ecc->Encode(wm, payload_len));

  // Parallel precompute: fitness hashes and (on the k2 path) payload
  // indices in one pass, plus the domain-index view of the target column so
  // IndexOf runs once per dictionary entry instead of up to twice per fit
  // tuple. The keyed-PRF backend resolves here (explicit params choice,
  // else CATMARK_PRF, else the legacy keyed hash) so a typo'd backend name
  // surfaces as InvalidArgument instead of embedding an undetectable mark.
  const std::size_t threads =
      EffectiveThreadCount(params_.num_threads, rel.NumRows());
  TuplePlanOptions plan_options;
  plan_options.payload_len = payload_len;
  plan_options.with_payload_index = !options.build_embedding_map;
  plan_options.num_threads = threads;
  CATMARK_ASSIGN_OR_RETURN(plan_options.prf, ResolvePrfKind(params_.prf));
  report.prf = plan_options.prf;
  const TuplePlan plan =
      BuildTuplePlan(rel, key_col, keys_, params_, plan_options);
  report.rows_scanned = plan.size();
  report.messages_hashed = plan.messages_hashed;

  // Dictionary-encoded targets apply alterations as raw code writes: intern
  // every domain value up front — before the index view is built, so its
  // remap table covers the codes — and map domain index t to its code. When
  // a caller-supplied domain carries values that do not match the column
  // type, fall back to the validating Set path so the type error surfaces
  // exactly as it used to.
  std::vector<std::int32_t> code_of_t;
  bool write_codes = rel.store().IsDictColumn(target_col);
  if (write_codes) {
    const ColumnType target_type = rel.schema().column(target_col).type;
    for (std::size_t t = 0; t < domain_size && write_codes; ++t) {
      write_codes = report.domain.value(t).MatchesType(target_type);
    }
  }
  if (write_codes) {
    code_of_t.resize(domain_size);
    for (std::size_t t = 0; t < domain_size; ++t) {
      code_of_t[t] =
          rel.mutable_store().InternValue(target_col, report.domain.value(t));
    }
  }

  const ValueIndexColumn target_index =
      ValueIndexColumn::Build(rel, target_col, report.domain, threads);

  // Occurrence counts per domain value, for the category-draining guard.
  std::vector<long> category_count;
  if (params_.min_category_keep > 0) {
    category_count = target_index.CountPerCategory(domain_size);
  }

  report.fit_tuples = plan.fit_count;

  ApplyInputs inputs;
  inputs.rel = &rel;
  inputs.params = &params_;
  inputs.options = &options;
  inputs.plan = &plan;
  inputs.wm_data = &wm_data;
  inputs.payload_len = payload_len;
  inputs.domain_size = domain_size;
  inputs.key_col = key_col;
  inputs.target_col = target_col;
  inputs.target_index = &target_index;
  inputs.code_of_t = &code_of_t;
  inputs.write_codes = write_codes;
  inputs.category_count = &category_count;
  inputs.assessor = assessor;
  inputs.ledger = ledger;

  // Sharded apply needs raw code writes and stateless per-tuple decisions:
  // a quality assessor interleaves relation mutation with its verdicts, and
  // the map + draining-guard combination makes each tuple's bit position
  // depend on every earlier guard outcome. Those run the reference serial
  // pass (apply_shards stays 1). At threads == 1 the sharded passes run
  // inline on the calling thread — the fused bitset pipeline is the
  // single-thread fast path too, not just the parallel one.
  const bool serial_only =
      options.force_serial_apply || assessor != nullptr || !write_codes ||
      (options.build_embedding_map && params_.min_category_keep > 0);
  if (serial_only) {
    CATMARK_RETURN_IF_ERROR(SerialApply(inputs, report));
  } else if (options.build_embedding_map) {
    ShardedMapApply(inputs, threads, report);
  } else {
    ShardedHashApply(inputs, threads, report);
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
