#include "service/session.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <string>
#include <utility>

#include "core/codec.h"
#include "ecc/code.h"

namespace catmark {

SessionSpec SessionSpec::FromEmbedReport(WatermarkKeySet keys,
                                         WatermarkParams params,
                                         const EmbedOptions& options,
                                         const EmbedReport& report,
                                         BitVector wm) {
  SessionSpec spec;
  spec.keys = std::move(keys);
  spec.params = params;
  // Pin the PRF backend the original embedding ran with: inserts hashed
  // under a CATMARK_PRF re-resolved in some later process would be
  // invisible to dispute-time detection (which follows the certificate).
  spec.params.prf = params.prf.value_or(report.prf);
  spec.key_attr = options.key_attr;
  spec.target_attr = options.target_attr;
  spec.domain = report.domain;
  spec.payload_length = report.payload_length;
  spec.wm = std::move(wm);
  return spec;
}

Result<SessionSpec> SessionSpec::FromCertificate(
    const WatermarkCertificate& certificate, const WatermarkKeySet& keys) {
  if (!certificate.VerifyKeys(keys)) {
    return Status::FailedPrecondition(
        "supplied keys do not match the certificate's key commitment");
  }
  SessionSpec spec;
  spec.keys = keys;
  spec.params = certificate.params;
  spec.params.prf = certificate.params.prf.value_or(PrfKind::kKeyedHash);
  spec.key_attr = certificate.key_attr;
  spec.target_attr = certificate.target_attr;
  spec.domain = certificate.domain;
  spec.payload_length = certificate.payload_length;
  spec.wm = certificate.wm;
  return spec;
}

Status SessionSpec::Validate() const {
  if (!keys.valid()) {
    return Status::InvalidArgument(
        "invalid key set (keys must be non-empty and distinct)");
  }
  if (key_attr.empty()) return Status::InvalidArgument("key_attr not set");
  if (target_attr.empty()) {
    return Status::InvalidArgument("target_attr not set");
  }
  if (domain.size() < 2) {
    return Status::InvalidArgument(
        "domain must hold at least 2 values to carry a bit");
  }
  if (params.e == 0) return Status::InvalidArgument("e must be >= 1");
  if (!params.prf.has_value()) {
    return Status::InvalidArgument(
        "params.prf not pinned — build the spec via FromEmbedReport / "
        "FromCertificate so inserts hash under the embed-time backend");
  }
  if (wm.empty()) return Status::InvalidArgument("watermark is empty");
  if (payload_length < wm.size()) {
    return Status::InvalidArgument(
        "payload_length is shorter than the watermark");
  }
  return Status::OK();
}

StreamSession::StreamSession(SessionSpec spec) : spec_(std::move(spec)) {
  prf_k1_ = CreateKeyedPrf(*spec_.params.prf, spec_.keys.k1,
                           spec_.params.hash_algo);
  prf_k2_ = CreateKeyedPrf(*spec_.params.prf, spec_.keys.k2,
                           spec_.params.hash_algo);
  cache_verdicts_ = CachesVerdicts(*spec_.params.prf);
  scratch_.reserve(64);
}

Result<StreamSession> StreamSession::Create(SessionSpec spec) {
  CATMARK_RETURN_IF_ERROR(spec.Validate());
  StreamSession session(std::move(spec));
  const auto ecc = CreateEcc(session.spec_.params.ecc);
  CATMARK_ASSIGN_OR_RETURN(
      session.wm_data_,
      ecc->Encode(session.spec_.wm, session.spec_.payload_length));
  return session;
}

Status StreamSession::BindColumns(const Relation& rel) {
  // Memoized on the schema's identity; the bound and name re-checks make a
  // stale pointer (a new relation allocated where an old one lived)
  // harmless, even when the new schema has fewer columns.
  if (bound_schema_ == &rel.schema() &&
      key_col_ < rel.schema().num_columns() &&
      target_col_ < rel.schema().num_columns() &&
      rel.schema().column(key_col_).name == spec_.key_attr &&
      rel.schema().column(target_col_).name == spec_.target_attr) {
    return Status::OK();
  }
  CATMARK_ASSIGN_OR_RETURN(key_col_,
                           rel.schema().ColumnIndexOrError(spec_.key_attr));
  CATMARK_ASSIGN_OR_RETURN(
      target_col_, rel.schema().ColumnIndexOrError(spec_.target_attr));
  bound_schema_ = &rel.schema();
  return Status::OK();
}

Result<BatchReport> StreamSession::InsertRange(Relation& rel,
                                               const Relation& src,
                                               std::size_t begin,
                                               std::size_t count) {
  CATMARK_RETURN_IF_ERROR(BindColumns(rel));
  if (!(src.schema() == rel.schema())) {
    return Status::InvalidArgument(
        "source schema does not match the relation's");
  }
  if (begin > src.NumRows() || count > src.NumRows() - begin) {
    return Status::OutOfRange("insert range [" + std::to_string(begin) +
                              ", +" + std::to_string(count) +
                              ") past the source's " +
                              std::to_string(src.NumRows()) + " rows");
  }

  BatchReport report;
  report.rows = count;
  const ColumnReader keys(src.store(), key_col_);
  const ColumnReader targets(src.store(), target_col_);
  marked_.assign(count, nullptr);
  const auto mark = [&](std::size_t offset, std::uint64_t h1,
                        std::uint32_t payload_index) {
    ++report.fit_rows;
    const std::size_t t = SelectValueIndex(h1, spec_.domain.size(),
                                           wm_data_.Get(payload_index));
    const Value& marked = spec_.domain.value(t);
    // Cells already carrying the marked value keep their source value.
    if (!(targets[begin + offset] == marked)) {
      marked_[offset] = &marked;
      ++report.altered_rows;
    }
  };
  const auto position = [&](std::uint64_t h2) {
    return static_cast<std::uint32_t>(PayloadIndexFromHash(
        h2, spec_.payload_length, spec_.params.bit_index_mode));
  };
  FitScanner scan(*prf_k1_, prf_k2_.get(), spec_.params.e, fit_scratch_);
  if (!cache_verdicts_) {
    report.hashed_keys = ScanKeyColumn(
        scan, src.store(), key_col_, begin, begin + count,
        [&](std::size_t i, std::uint64_t h1, std::uint64_t h2) {
          mark(i, h1, position(h2));
        });
  } else {
    // A caching session hashes only the keys its cache cannot answer. Each
    // miss gets its (unfit) cache slot at once, so a key repeated later in
    // the range is hashed once; every hit, repeats included, reads its
    // slot after the scan has filled it. Map nodes never move, and marking
    // is order-independent (marked_ is indexed by row).
    misses_.clear();
    hits_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      if (keys.IsNull(begin + i)) continue;  // NULL keys are unfit
      const std::string_view bytes =
          keys.SerializeKeyInto(begin + i, scratch_);
      if (const auto it = cache_.find(bytes); it != cache_.end()) {
        hits_.emplace_back(i, &it->second);
        continue;
      }
      // Past the cap a miss is hashed per occurrence and not memoized.
      Verdict* slot =
          cache_.size() < kVerdictCacheCapacity
              ? &cache_.emplace(std::string(bytes), Verdict{}).first->second
              : nullptr;
      misses_.emplace_back(i, slot);
    }
    Value key;
    report.hashed_keys = scan.Scan(
        misses_.size(),
        [&](std::size_t m) {
          key = keys[begin + misses_[m].first];
          return &key;
        },
        [&](std::size_t m, std::uint64_t h1, std::uint64_t h2) {
          const Verdict v{h1, position(h2), true};
          if (misses_[m].second != nullptr) *misses_[m].second = v;
          mark(misses_[m].first, v.h1, v.payload_index);
        });
    for (const auto& [row, v] : hits_) {
      if (v->fit) mark(row, v->h1, v->payload_index);
    }
  }
  range_.resize(count);
  std::iota(range_.begin(), range_.end(), begin);
  CATMARK_RETURN_IF_ERROR(rel.AppendRowsFrom(
      src, range_,
      ColumnOverride{target_col_, std::span<const Value* const>(marked_)}));
  total_rows_ += report.rows;
  total_fit_ += report.fit_rows;
  return report;
}

Result<BatchReport> StreamSession::InsertBatch(Relation& rel,
                                               std::span<Row> rows) {
  // Batches are atomic: AppendRows validates the whole batch against rel's
  // schema before staging any row, so an arity or type error anywhere
  // leaves the relation unchanged.
  const Schema& schema = rel.schema();
  if (staged_.schema() == schema) {
    staged_.ClearRows();
  } else {
    staged_ = Relation(schema);
  }
  CATMARK_RETURN_IF_ERROR(staged_.AppendRows(rows));
  return InsertRange(rel, staged_, 0, rows.size());
}

Result<bool> StreamSession::Insert(Relation& rel, Row row) {
  std::array<Row, 1> rows = {std::move(row)};
  CATMARK_ASSIGN_OR_RETURN(const BatchReport report,
                           InsertBatch(rel, std::span<Row>(rows)));
  return report.fit_rows > 0;
}

StreamSession::Verdict StreamSession::VerdictFor(const Value& key_value) {
  const std::string_view key = key_value.SerializeKeyInto(scratch_);
  if (cache_verdicts_) {
    if (const auto it = cache_.find(key); it != cache_.end()) {
      return it->second;
    }
  }
  Verdict v;
  FitScanner scan(*prf_k1_, prf_k2_.get(), spec_.params.e, fit_scratch_);
  scan.Scan(
      1, [&](std::size_t /*i*/) { return &key_value; },
      [&](std::size_t /*i*/, std::uint64_t h1, std::uint64_t h2) {
        v = {h1,
             static_cast<std::uint32_t>(PayloadIndexFromHash(
                 h2, spec_.payload_length, spec_.params.bit_index_mode)),
             true};
      });
  if (cache_verdicts_ && cache_.size() < kVerdictCacheCapacity) {
    cache_.emplace(std::string(key), v);
  }
  return v;
}

Result<bool> StreamSession::Refresh(Relation& rel, std::size_t row_index) {
  CATMARK_RETURN_IF_ERROR(BindColumns(rel));
  if (row_index >= rel.NumRows()) return Status::OutOfRange("row index");
  const Value& key_value = rel.Get(row_index, key_col_);
  if (key_value.is_null()) return false;
  const Verdict v = VerdictFor(key_value);
  if (!v.fit) return false;
  const std::size_t t = SelectValueIndex(v.h1, spec_.domain.size(),
                                         wm_data_.Get(v.payload_index));
  const Value& marked = spec_.domain.value(t);
  // Skip the store write when the cell already carries the marked value —
  // the common case when refreshing an already-watermarked relation.
  if (!(rel.Get(row_index, target_col_) == marked)) {
    CATMARK_RETURN_IF_ERROR(rel.Set(row_index, target_col_, marked));
  }
  return true;
}

}  // namespace catmark
