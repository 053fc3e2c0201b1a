#include "service/session.h"

#include <array>
#include <numeric>
#include <string>
#include <utility>

#include "core/codec.h"

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
  spec.params.payload_length = report.payload_length;
  spec.key_attr = options.key_attr;
  spec.target_attr = options.target_attr;
  spec.domain = report.domain;
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
  if (params.payload_length < wm.size() ||
      params.payload_length > kMaxPayloadLength) {
    return Status::InvalidArgument(
        "payload_length must lie in [|wm|, " +
        std::to_string(kMaxPayloadLength) + "]");
  }
  return Status::OK();
}

StreamSession::StreamSession(SessionSpec spec, PayloadBits wm_data)
    : spec_(std::move(spec)), wm_data_(std::move(wm_data)) {
  prf_k1_ = CreateKeyedPrf(*spec_.params.prf, spec_.keys.k1,
                           spec_.params.hash_algo);
  prf_k2_ = CreateKeyedPrf(*spec_.params.prf, spec_.keys.k2,
                           spec_.params.hash_algo);
}

Result<StreamSession> StreamSession::Create(SessionSpec spec) {
  CATMARK_RETURN_IF_ERROR(spec.Validate());
  CATMARK_ASSIGN_OR_RETURN(
      PayloadBits wm_data,
      PayloadBits::Create(spec.params.ecc, spec.wm,
                          spec.params.payload_length));
  return StreamSession(std::move(spec), std::move(wm_data));
}

const Value& StreamSession::MarkedValue(std::uint64_t h1,
                                        std::uint64_t h2) const {
  const std::size_t payload_index = PayloadIndexFromHash(
      h2, spec_.params.payload_length, spec_.params.bit_index_mode);
  return spec_.domain.value(SelectValueIndex(h1, spec_.domain.size(),
                                             wm_data_.Get(payload_index)));
}

Result<BatchReport> StreamSession::InsertRange(Relation& rel,
                                               const Relation& src,
                                               std::size_t begin,
                                               std::size_t count) {
  CATMARK_ASSIGN_OR_RETURN(const std::size_t key_col,
                           rel.schema().ColumnIndexOrError(spec_.key_attr));
  CATMARK_ASSIGN_OR_RETURN(
      const std::size_t target_col,
      rel.schema().ColumnIndexOrError(spec_.target_attr));
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
  const ColumnReader targets(src.store(), target_col);
  marked_.assign(count, nullptr);
  FitScanner scan(*prf_k1_, prf_k2_.get(), spec_.params.e, fit_scratch_);
  report.hashed_keys = ScanKeyColumn(
      scan, src.store(), key_col, begin, begin + count,
      [&](std::size_t i, std::uint64_t h1, std::uint64_t h2) {
        ++report.fit_rows;
        const Value& marked = MarkedValue(h1, h2);
        // Cells already carrying the marked value keep their source value.
        if (!(targets[begin + i] == marked)) {
          marked_[i] = &marked;
          ++report.altered_rows;
        }
      });
  range_.resize(count);
  std::iota(range_.begin(), range_.end(), begin);
  CATMARK_RETURN_IF_ERROR(rel.AppendRowsFrom(
      src, range_,
      ColumnOverride{target_col, std::span<const Value* const>(marked_)}));
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

Result<bool> StreamSession::Refresh(Relation& rel, std::size_t row_index) {
  CATMARK_ASSIGN_OR_RETURN(const std::size_t key_col,
                           rel.schema().ColumnIndexOrError(spec_.key_attr));
  CATMARK_ASSIGN_OR_RETURN(
      const std::size_t target_col,
      rel.schema().ColumnIndexOrError(spec_.target_attr));
  if (row_index >= rel.NumRows()) return Status::OutOfRange("row index");
  const Value key = rel.Get(row_index, key_col);
  const Value* marked = nullptr;
  FitScanner scan(*prf_k1_, prf_k2_.get(), spec_.params.e, fit_scratch_);
  scan.Scan(
      1, [&](std::size_t /*i*/) { return &key; },
      [&](std::size_t /*i*/, std::uint64_t h1, std::uint64_t h2) {
        marked = &MarkedValue(h1, h2);
      });
  if (marked == nullptr) return false;  // unfit, NULL keys included
  // Skip the store write when the cell already carries the marked value —
  // the common case when refreshing an already-watermarked relation.
  if (!(rel.Get(row_index, target_col) == *marked)) {
    CATMARK_RETURN_IF_ERROR(rel.Set(row_index, target_col, *marked));
  }
  return true;
}

}  // namespace catmark
