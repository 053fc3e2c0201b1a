#include "service/session.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <string>
#include <utility>

#include "common/bits.h"
#include "common/check.h"
#include "core/codec.h"
#include "crypto/siphash_simd.h"
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

void StreamSession::CollectFit(const std::uint64_t* h1, std::size_t n,
                               const std::int64_t* i64,
                               std::span<const std::string_view> views,
                               const std::size_t* ids) {
  // Vectorized fitness: pack h1 % e == 0 into a bitset and walk only the
  // set bits — the same DivisibilityMask64 kernel the plan build and the
  // detect engine use, so streaming verdicts are pinned to the same
  // arithmetic.
  const DivisibilityCheck fit_by_e(spec_.params.e);
  fit_mask_.assign((n + 63) / 64, 0);
  DivisibilityMask64(fit_by_e, h1, n, fit_mask_.data());
  fit_idx_.clear();
  for (std::size_t w = 0; w < fit_mask_.size(); ++w) {
    std::uint64_t word = fit_mask_[w];
    while (word != 0) {
      fit_idx_.push_back((w << 6) +
                         static_cast<std::size_t>(std::countr_zero(word)));
      word &= word - 1;
    }
  }
  if (fit_idx_.empty()) return;

  // The fitness rate is 1/e, so the k2 position hash runs on a small
  // minority of keys — one batched call over the fit subset.
  h2_.resize(fit_idx_.size());
  if (i64 != nullptr) {
    fit_i64_.clear();
    for (const std::size_t i : fit_idx_) fit_i64_.push_back(i64[i]);
    prf_k2_->Hash64Int64Keys(fit_i64_.data(), fit_i64_.size(),
                             std::span<std::uint64_t>(h2_));
  } else {
    fit_views_.clear();
    for (const std::size_t i : fit_idx_) fit_views_.push_back(views[i]);
    prf_k2_->Hash64Column(fit_views_, std::span<std::uint64_t>(h2_));
  }
  for (std::size_t f = 0; f < fit_idx_.size(); ++f) {
    const std::size_t i = fit_idx_[f];
    fit_rows_.push_back(FitRow{
        static_cast<std::uint32_t>(ids == nullptr ? i : ids[i]),
        static_cast<std::uint32_t>(PayloadIndexFromHash(
            h2_[f], spec_.payload_length, spec_.params.bit_index_mode)),
        h1[i]});
  }
}

std::size_t StreamSession::ResolveChunk(const ColumnReader& keys,
                                        std::size_t at, std::size_t len) {
  fit_rows_.clear();
  if (!cache_verdicts_ && !keys.is_dict()) {
    // The dominant streaming shape: a NULL-free int64 key column. Gather
    // the raw keys straight off the column storage into the typed kernel;
    // the first NULL or non-int64 key falls back to KeyHashBatch below.
    const Value* values = keys.values().data() + at;
    i64_.resize(len);
    std::size_t j = 0;
    for (; j < len; ++j) {
      const std::int64_t* v = values[j].TryInt64();
      if (v == nullptr) break;
      i64_[j] = *v;
    }
    if (j == len) {
      h1_.resize(len);
      prf_k1_->Hash64Int64Keys(i64_.data(), len,
                               std::span<std::uint64_t>(h1_));
      CollectFit(h1_.data(), len, i64_.data(), {}, nullptr);
      return len;
    }
  }

  // General path: serialize the keys to hash into one arena. A caching
  // session answers keys seen before from its cache and queues only the
  // misses. Each miss is cached at once as an unresolved placeholder, so a
  // key repeated inside the chunk is hashed once; its repeats read the
  // verdict after the hash.
  batch_.Clear();
  misses_.clear();
  repeats_.clear();
  for (std::size_t j = 0; j < len; ++j) {
    const Value& key = keys[at + j];
    if (key.is_null()) continue;  // NULL keys are unfit
    if (!cache_verdicts_) {
      batch_.Add(key, j);
      continue;
    }
    const std::string_view bytes = key.SerializeKeyInto(scratch_);
    if (const auto it = cache_.find(bytes); it != cache_.end()) {
      const Verdict& v = it->second;
      if (v.unresolved) {
        repeats_.emplace_back(static_cast<std::uint32_t>(j), &v);
      } else if (v.fit) {
        fit_rows_.push_back(FitRow{static_cast<std::uint32_t>(j),
                                   v.payload_index, v.h1});
      }
      continue;
    }
    // Past the cap a miss is hashed per occurrence and not memoized.
    Verdict* placeholder =
        cache_.size() < kVerdictCacheCapacity
            ? &cache_.emplace(std::string(bytes), Verdict{0, 0, false, true})
                   .first->second
            : nullptr;
    misses_.push_back(placeholder);
    batch_.AddSerialized(
        std::span<const std::uint8_t>(scratch_.data(), scratch_.size()), j);
  }
  const std::size_t n = batch_.size();
  if (n == 0) return 0;
  batch_.Hash(*prf_k1_);
  const std::size_t first_new = fit_rows_.size();
  CollectFit(batch_.h1.data(), n,
             batch_.int64_lane() ? batch_.i64.data() : nullptr, batch_.views,
             batch_.ids.data());
  if (cache_verdicts_) {
    // Resolve the placeholders in key order; fit_mask_ says which keys own
    // the FitRows appended above.
    std::size_t f = first_new;
    for (std::size_t i = 0; i < n; ++i) {
      const bool fit = (fit_mask_[i >> 6] >> (i & 63)) & 1;
      if (misses_[i] != nullptr) {
        *misses_[i] = fit ? Verdict{fit_rows_[f].h1,
                                    fit_rows_[f].payload_index, true, false}
                          : Verdict{};
      }
      f += fit;
    }
    for (const auto& [offset, v] : repeats_) {
      if (v->fit) fit_rows_.push_back(FitRow{offset, v->payload_index, v->h1});
    }
  }
  return n;
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
  for (std::size_t done = 0; done < count; done += kKeyHashBatch) {
    const std::size_t len = std::min(kKeyHashBatch, count - done);
    report.hashed_keys += ResolveChunk(keys, begin + done, len);
    report.fit_rows += fit_rows_.size();
    for (const FitRow& fit : fit_rows_) {
      const std::size_t t = SelectValueIndex(
          fit.h1, spec_.domain.size(), wm_data_.Get(fit.payload_index));
      const Value& marked = spec_.domain.value(t);
      // Cells already carrying the marked value keep their source value.
      if (!(targets[begin + done + fit.offset] == marked)) {
        marked_[done + fit.offset] = &marked;
        ++report.altered_rows;
      }
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
  // Validate the whole batch before touching anything: batches are atomic,
  // so an arity or type error anywhere leaves the relation unchanged.
  const Schema& schema = rel.schema();
  for (const Row& row : rows) {
    if (row.size() != schema.num_columns()) {
      return Status::InvalidArgument("row arity mismatch");
    }
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (!row[c].is_null() && !row[c].MatchesType(schema.column(c).type)) {
        return Status::InvalidArgument("value for column '" +
                                       schema.column(c).name +
                                       "' has wrong type");
      }
    }
  }
  if (staged_.schema() == schema) {
    staged_.ClearRows();
  } else {
    staged_ = Relation(schema);
  }
  staged_.AppendRowsUnchecked(rows);
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
  const std::uint64_t h1 = prf_k1_->Hash64(key);
  if (h1 % spec_.params.e == 0) {
    v.fit = true;
    v.h1 = h1;
    v.payload_index = static_cast<std::uint32_t>(
        PayloadIndexFromHash(prf_k2_->Hash64(key), spec_.payload_length,
                             spec_.params.bit_index_mode));
  }
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

namespace {

StreamSession MakeSessionOrDie(SessionSpec spec) {
  Result<StreamSession> session = StreamSession::Create(std::move(spec));
  CATMARK_CHECK(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

}  // namespace

IncrementalWatermarker::IncrementalWatermarker(WatermarkKeySet keys,
                                               WatermarkParams params,
                                               const EmbedOptions& options,
                                               const EmbedReport& report,
                                               BitVector wm)
    : session_(MakeSessionOrDie(SessionSpec::FromEmbedReport(
          std::move(keys), params, options, report, std::move(wm)))) {}

IncrementalWatermarker::IncrementalWatermarker(SessionSpec spec)
    : session_(MakeSessionOrDie(std::move(spec))) {}

}  // namespace catmark
