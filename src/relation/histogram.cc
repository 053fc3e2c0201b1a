#include "relation/histogram.h"

#include <cmath>

#include "common/check.h"
#include "relation/value_index_column.h"

namespace catmark {

Result<FrequencyHistogram> FrequencyHistogram::Compute(
    const Relation& rel, std::size_t col, const CategoricalDomain& domain) {
  if (col >= rel.schema().num_columns()) {
    return Status::OutOfRange("column index out of range");
  }
  if (domain.empty()) {
    return Status::InvalidArgument("empty categorical domain");
  }
  // One per-category count for both column layouts: O(dict) on a
  // dictionary column, one row pass otherwise (serial, as callers may
  // already run inside a worker).
  const std::vector<long> counts =
      ValueIndexColumn::Build(rel, col, domain, /*num_threads=*/1)
          .CountPerCategory(domain.size());
  FrequencyHistogram h;
  h.domain_ = domain;
  h.counts_.assign(counts.begin(), counts.end());
  for (const std::size_t c : h.counts_) h.total_ += c;
  h.out_of_domain_ = rel.NumRows() - h.total_;
  return h;
}

std::size_t FrequencyHistogram::count(std::size_t t) const {
  CATMARK_CHECK_LT(t, counts_.size());
  return counts_[t];
}

double FrequencyHistogram::frequency(std::size_t t) const {
  CATMARK_CHECK_LT(t, counts_.size());
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[t]) / static_cast<double>(total_);
}

std::vector<double> FrequencyHistogram::Frequencies() const {
  std::vector<double> out(counts_.size());
  for (std::size_t t = 0; t < counts_.size(); ++t) out[t] = frequency(t);
  return out;
}

double FrequencyHistogram::L1Distance(const FrequencyHistogram& other) const {
  CATMARK_CHECK_EQ(counts_.size(), other.counts_.size());
  double d = 0.0;
  for (std::size_t t = 0; t < counts_.size(); ++t) {
    d += std::abs(frequency(t) - other.frequency(t));
  }
  return d;
}

double FrequencyHistogram::LInfDistance(
    const FrequencyHistogram& other) const {
  CATMARK_CHECK_EQ(counts_.size(), other.counts_.size());
  double d = 0.0;
  for (std::size_t t = 0; t < counts_.size(); ++t) {
    d = std::max(d, std::abs(frequency(t) - other.frequency(t)));
  }
  return d;
}

}  // namespace catmark
