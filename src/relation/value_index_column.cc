#include "relation/value_index_column.h"

#include <limits>
#include <string_view>
#include <unordered_map>

#include "common/check.h"
#include "common/parallel.h"

namespace catmark {

ValueIndexColumn ValueIndexColumn::Build(const Relation& rel, std::size_t col,
                                         const CategoricalDomain& domain,
                                         std::size_t num_threads) {
  CATMARK_CHECK_LT(col, rel.schema().num_columns());
  CATMARK_CHECK_LE(domain.size(),
                   static_cast<std::size_t>(
                       std::numeric_limits<std::int32_t>::max()));
  ValueIndexColumn out;

  if (rel.store().IsDictColumn(col)) {
    // Zero-copy: remap each dictionary entry once, alias the code vector.
    const std::vector<Value>& dict = rel.store().Dict(col);
    out.remap_.assign(dict.size(), kNoIndex);
    for (std::size_t code = 0; code < dict.size(); ++code) {
      const auto t = domain.IndexOf(dict[code]);
      if (t.has_value()) out.remap_[code] = static_cast<std::int32_t>(*t);
    }
    out.codes_ = &rel.store().Codes(col);
    out.live_ = &rel.store().DictLiveCounts(col);
    return out;
  }

  // Materialized fallback: a STRING cell is read in place and found with
  // one hash probe of the domain's strings; a lane cell is binary-searched.
  std::unordered_map<std::string_view, std::int32_t> string_index;
  for (std::size_t t = 0; t < domain.size(); ++t) {
    const Value& v = domain.values()[t];
    if (v.is_string()) {
      string_index.emplace(v.AsString(), static_cast<std::int32_t>(t));
    }
  }
  const auto lookup = [&](const Value& v) -> std::int32_t {
    if (v.is_null()) return kNoIndex;
    if (v.is_string()) {
      const auto it = string_index.find(v.AsString());
      return it == string_index.end() ? kNoIndex : it->second;
    }
    const auto t = domain.IndexOf(v);
    return t.has_value() ? static_cast<std::int32_t>(*t) : kNoIndex;
  };
  const std::vector<Value>* cells = rel.store().IsLaneColumn(col)
                                        ? nullptr
                                        : &rel.store().StringValues(col);
  out.index_.resize(rel.NumRows());
  ParallelFor(rel.NumRows(), EffectiveThreadCount(num_threads, rel.NumRows()),
              [&](std::size_t /*shard*/, std::size_t begin, std::size_t end) {
                for (std::size_t j = begin; j < end; ++j) {
                  out.index_[j] = cells != nullptr ? lookup((*cells)[j])
                                                   : lookup(rel.Get(j, col));
                }
              });
  return out;
}

std::vector<long> ValueIndexColumn::CountPerCategory(
    std::size_t domain_size) const {
  std::vector<long> counts(domain_size, 0);
  if (codes_ != nullptr) {
    for (std::size_t code = 0; code < remap_.size(); ++code) {
      const std::int32_t t = remap_[code];
      if (t >= 0 && static_cast<std::size_t>(t) < domain_size) {
        counts[static_cast<std::size_t>(t)] +=
            static_cast<long>((*live_)[code]);
      }
    }
    return counts;
  }
  for (const std::int32_t t : index_) {
    if (t >= 0 && static_cast<std::size_t>(t) < domain_size) ++counts[t];
  }
  return counts;
}

}  // namespace catmark
