#include "core/injection.h"

#include <cmath>
#include <unordered_set>

#include "core/channel.h"
#include "core/codec.h"
#include "ecc/code.h"
#include "random/rng.h"

namespace catmark {

FitTupleInjector::FitTupleInjector(WatermarkKeySet keys,
                                   WatermarkParams params)
    : keys_(std::move(keys)), params_(params) {}

Result<InjectionReport> FitTupleInjector::Inject(
    Relation& rel, const EmbedOptions& options, const BitVector& wm,
    const InjectionConfig& config) const {
  if (config.padd < 0.0 || config.padd > 1.0) {
    return Status::InvalidArgument("padd must be in [0,1]");
  }
  if (rel.empty()) return Status::FailedPrecondition("empty relation");
  const std::size_t base_n = rel.NumRows();
  // The injected tuples must be fit under the channel the victim detection
  // run will resolve.
  CATMARK_ASSIGN_OR_RETURN(const Channel channel,
                           Channel::Create(keys_, params_, base_n, wm.size()));
  CATMARK_ASSIGN_OR_RETURN(
      const ChannelColumns columns,
      ChannelColumns::Resolve(
          rel, options.key_attr, options.target_attr,
          options.domain.has_value() ? &*options.domain : nullptr));
  const std::size_t key_col = columns.key_col();
  const std::size_t target_col = columns.target_col();
  const CategoricalDomain& domain = columns.domain();
  const ColumnType key_type = rel.schema().column(key_col).type;
  if (key_type == ColumnType::kDouble) {
    return Status::FailedPrecondition(
        "injection needs an INT64 or STRING key attribute");
  }

  InjectionReport report;
  report.payload_length = channel.payload_length();
  CATMARK_ASSIGN_OR_RETURN(
      const PayloadBits wm_data,
      PayloadBits::Create(params_.ecc, wm, report.payload_length));
  const std::size_t to_add = static_cast<std::size_t>(
      std::llround(config.padd * static_cast<double>(base_n)));

  FitScratch fit_scratch;
  FitScanner scan = channel.Scanner(fit_scratch);
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
    const std::size_t t =
        SelectValueIndex(h1, domain.size(), wm_data.Get(channel.Slot(h2)));
    row[target_col] = domain.value(t);
    rel.AppendRowUnchecked(std::move(row));
    ++report.tuples_added;
  }
  return report;
}

}  // namespace catmark
