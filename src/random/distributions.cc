#include "random/distributions.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace catmark {

ZipfDistribution::ZipfDistribution(std::size_t n, double s) : s_(s) {
  CATMARK_CHECK_GE(n, 1u);
  CATMARK_CHECK_GE(s, 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfDistribution::Sample(Xoshiro256ss& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfDistribution::Pmf(std::size_t k) const {
  CATMARK_CHECK_LT(k, cdf_.size());
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

DiscreteDistribution::DiscreteDistribution(
    const std::vector<double>& weights) {
  CATMARK_CHECK(!weights.empty());
  const std::size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    CATMARK_CHECK_GE(w, 0.0);
    total += w;
  }
  CATMARK_CHECK_GT(total, 0.0) << "all weights zero";

  normalized_.resize(n);
  for (std::size_t i = 0; i < n; ++i) normalized_[i] = weights[i] / total;

  // Walker's alias method setup.
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  std::vector<std::uint32_t> small, large;
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = normalized_[i] * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(
        static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;
}

std::size_t DiscreteDistribution::Sample(Xoshiro256ss& rng) const {
  const std::size_t cell = rng.NextBounded(prob_.size());
  return rng.NextDouble() < prob_[cell] ? cell : alias_[cell];
}

double SampleStandardNormal(Xoshiro256ss& rng) {
  // Marsaglia polar method (one of the pair is discarded for simplicity).
  while (true) {
    const double u = 2.0 * rng.NextDouble() - 1.0;
    const double v = 2.0 * rng.NextDouble() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

std::vector<std::size_t> SampleWithoutReplacement(std::size_t n, std::size_t k,
                                                  Xoshiro256ss& rng) {
  CATMARK_CHECK_LE(k, n);
  // Floyd's algorithm yields a uniform k-subset; final shuffle uniformizes
  // the order as well. The chosen set is an n-bit bitmap: every index
  // chosen before step j is below j, so j itself is never already set.
  std::vector<std::uint64_t> chosen((n + 63) / 64, 0);
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    std::size_t t = rng.NextBounded(j + 1);
    if ((chosen[t / 64] >> (t % 64)) & 1) t = j;
    chosen[t / 64] |= std::uint64_t{1} << (t % 64);
    out.push_back(t);
  }
  Shuffle(out, rng);
  return out;
}

}  // namespace catmark
