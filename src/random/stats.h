#ifndef CATMARK_RANDOM_STATS_H_
#define CATMARK_RANDOM_STATS_H_

#include <cstdint>
#include <vector>

namespace catmark {

/// Standard normal CDF Φ(x).
double NormalCdf(double x);

/// Standard normal quantile Φ⁻¹(p), p in (0,1). Acklam's rational
/// approximation refined by one Newton step; |error| < 1e-9.
double NormalQuantile(double p);

/// log(n choose k) via lgamma (thread-safe); exact enough for tail sums up
/// to n ~ 1e6.
double LogBinomialCoefficient(std::uint64_t n, std::uint64_t k);

/// Exact upper tail P[X >= r] for X ~ Binomial(n, p), summed in log space.
double BinomialTailAtLeast(std::uint64_t n, std::uint64_t r, double p);

/// Normal (CLT) approximation to P[X >= r], X ~ Binomial(n, p) — the
/// approximation the paper applies in Section 4.4 (equation 2).
double BinomialTailNormalApprox(std::uint64_t n, std::uint64_t r, double p);

/// Sample mean and (population) standard deviation.
struct MeanStd {
  double mean = 0.0;
  double stddev = 0.0;
};
MeanStd ComputeMeanStd(const std::vector<double>& xs);

}  // namespace catmark

#endif  // CATMARK_RANDOM_STATS_H_
