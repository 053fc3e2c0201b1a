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

StreamSession::StreamSession(SessionSpec spec, Channel channel,
                             PayloadBits wm_data)
    : spec_(std::move(spec)),
      channel_(std::move(channel)),
      wm_data_(std::move(wm_data)) {}

Result<StreamSession> StreamSession::Create(SessionSpec spec) {
  if (!spec.params.prf.has_value() || spec.params.payload_length == 0) {
    return Status::InvalidArgument(
        "the session's PRF backend and payload length must be pinned: "
        "build the spec via FromEmbedReport / FromCertificate so inserts "
        "hash under the embed-time backend into the embed-time payload");
  }
  CATMARK_ASSIGN_OR_RETURN(
      Channel channel,
      Channel::Create(spec.keys, spec.params, /*num_tuples=*/0,
                      spec.wm.size()));
  CATMARK_ASSIGN_OR_RETURN(
      PayloadBits wm_data,
      PayloadBits::Create(spec.params.ecc, spec.wm,
                          channel.payload_length()));
  return StreamSession(std::move(spec), std::move(channel),
                       std::move(wm_data));
}

const Value& StreamSession::MarkedValue(std::uint64_t h1,
                                        std::uint64_t h2) const {
  return spec_.domain.value(SelectValueIndex(h1, spec_.domain.size(),
                                             wm_data_.Get(channel_.Slot(h2))));
}

Result<BatchReport> StreamSession::InsertRange(Relation& rel,
                                               const Relation& src,
                                               std::size_t begin,
                                               std::size_t count) {
  CATMARK_ASSIGN_OR_RETURN(
      const ChannelColumns columns,
      ChannelColumns::Resolve(rel, spec_.key_attr, spec_.target_attr,
                              &spec_.domain));
  const std::size_t key_col = columns.key_col();
  const std::size_t target_col = columns.target_col();
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
  FitScanner scan = channel_.Scanner(fit_scratch_);
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
  CATMARK_ASSIGN_OR_RETURN(
      const ChannelColumns columns,
      ChannelColumns::Resolve(rel, spec_.key_attr, spec_.target_attr,
                              &spec_.domain));
  const std::size_t key_col = columns.key_col();
  const std::size_t target_col = columns.target_col();
  if (row_index >= rel.NumRows()) return Status::OutOfRange("row index");
  const Value key = rel.Get(row_index, key_col);
  const Value* marked = nullptr;
  FitScanner scan = channel_.Scanner(fit_scratch_);
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
