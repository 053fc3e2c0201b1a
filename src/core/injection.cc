#include "core/injection.h"

#include <cmath>
#include <unordered_set>

#include "core/codec.h"
#include "core/fit_scan.h"
#include "ecc/code.h"
#include "random/rng.h"

namespace catmark {

FitTupleInjector::FitTupleInjector(WatermarkKeySet keys,
                                   WatermarkParams params)
    : keys_(std::move(keys)), params_(params) {}

Result<InjectionReport> FitTupleInjector::Inject(
    Relation& rel, const EmbedOptions& options, const BitVector& wm,
    const InjectionConfig& config) const {
  if (!keys_.valid()) {
    return Status::InvalidArgument("invalid watermark key set (k1 == k2?)");
  }
  if (params_.e == 0) {
    return Status::InvalidArgument("encoding parameter e must be >= 1");
  }
  if (wm.empty()) return Status::InvalidArgument("empty watermark");
  if (config.padd < 0.0 || config.padd > 1.0) {
    return Status::InvalidArgument("padd must be in [0,1]");
  }
  if (rel.empty()) return Status::FailedPrecondition("empty relation");
  CATMARK_ASSIGN_OR_RETURN(
      const std::size_t key_col,
      rel.schema().ColumnIndexOrError(options.key_attr));
  CATMARK_ASSIGN_OR_RETURN(
      const std::size_t target_col,
      rel.schema().ColumnIndexOrError(options.target_attr));
  const ColumnType key_type = rel.schema().column(key_col).type;
  if (key_type == ColumnType::kDouble) {
    return Status::FailedPrecondition(
        "injection needs an INT64 or STRING key attribute");
  }

  CategoricalDomain domain;
  if (options.domain.has_value()) {
    domain = *options.domain;
  } else {
    CATMARK_ASSIGN_OR_RETURN(
        domain, CategoricalDomain::FromRelationColumn(rel, target_col));
  }
  if (domain.size() < 2) {
    return Status::FailedPrecondition("domain has fewer than 2 values");
  }

  const std::size_t base_n = rel.NumRows();
  const std::size_t to_add = static_cast<std::size_t>(
      std::llround(config.padd * static_cast<double>(base_n)));

  InjectionReport report;
  report.payload_length =
      params_.payload_length != 0
          ? params_.payload_length
          : DerivePayloadLength(base_n, params_.e, wm.size());

  const std::unique_ptr<ErrorCorrectingCode> ecc = CreateEcc(params_.ecc);
  CATMARK_ASSIGN_OR_RETURN(const BitVector wm_data,
                           ecc->Encode(wm, report.payload_length));

  // The injected tuples must be fit under the same PRF backend the victim
  // detection run will use.
  CATMARK_ASSIGN_OR_RETURN(const PrfKind prf, ResolvePrfKind(params_.prf));
  const std::unique_ptr<KeyedPrf> prf_k1 =
      CreateKeyedPrf(prf, keys_.k1, params_.hash_algo);
  const std::unique_ptr<KeyedPrf> prf_k2 =
      CreateKeyedPrf(prf, keys_.k2, params_.hash_algo);
  FitScratch fit_scratch;
  FitScanner scan(*prf_k1, prf_k2.get(), params_.e, fit_scratch);
  Xoshiro256ss rng(config.seed);

  // Existing key values — injected keys must stay unique.
  std::unordered_set<std::string> used_keys;
  for (std::size_t i = 0; i < base_n; ++i) {
    used_keys.insert(rel.Get(i, key_col).ToString());
  }

  const std::size_t max_attempts =
      to_add * static_cast<std::size_t>(params_.e) * config.attempt_factor +
      1;
  while (report.tuples_added < to_add &&
         report.candidates_tried < max_attempts) {
    ++report.candidates_tried;
    // Massively produce random key values and test for fitness.
    Value key_value;
    if (key_type == ColumnType::kInt64) {
      key_value =
          Value(static_cast<std::int64_t>(rng.NextBounded(1ULL << 62)));
    } else {
      key_value = Value("K" + std::to_string(rng.Next()));
    }
    bool fit = false;
    std::uint64_t h1 = 0;
    std::uint64_t h2 = 0;
    scan.Scan(
        1, [&](std::size_t /*i*/) { return &key_value; },
        [&](std::size_t /*i*/, std::uint64_t fit_h1, std::uint64_t fit_h2) {
          fit = true;
          h1 = fit_h1;
          h2 = fit_h2;
        });
    if (!fit) continue;
    if (!used_keys.insert(key_value.ToString()).second) continue;

    // Clone a random tuple so every other attribute conforms to the overall
    // distribution, then stamp key + watermarked target value.
    Row row = rel.row(rng.NextBounded(base_n));
    row[key_col] = key_value;
    const std::size_t idx = PayloadIndexFromHash(h2, report.payload_length,
                                                 params_.bit_index_mode);
    const std::size_t t =
        SelectValueIndex(h1, domain.size(), wm_data.Get(idx));
    row[target_col] = domain.value(t);
    rel.AppendRowUnchecked(std::move(row));
    ++report.tuples_added;
  }
  return report;
}

}  // namespace catmark
