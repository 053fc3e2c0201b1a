#include "random/stats.h"

#include <math.h>  // lgamma_r

#include <cmath>

#include "common/check.h"

namespace catmark {

namespace {

// std::lgamma also stores the sign of Γ(x) in the global `signgam`, a data
// race once ownership decisions run on several threads (a sweep decides its
// candidates in parallel). lgamma_r returns the same value and writes the
// sign to a local instead.
double LogGamma(double x) {
#if defined(__GLIBC__)
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

}  // namespace

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double NormalQuantile(double p) {
  CATMARK_CHECK(p > 0.0 && p < 1.0);
  // Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  double x;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Newton refinement step.
  const double e = NormalCdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  return x - u / (1.0 + x * u / 2.0);
}

double LogBinomialCoefficient(std::uint64_t n, std::uint64_t k) {
  CATMARK_CHECK_LE(k, n);
  return LogGamma(static_cast<double>(n) + 1.0) -
         LogGamma(static_cast<double>(k) + 1.0) -
         LogGamma(static_cast<double>(n - k) + 1.0);
}

double BinomialTailAtLeast(std::uint64_t n, std::uint64_t r, double p) {
  CATMARK_CHECK(p >= 0.0 && p <= 1.0);
  if (r == 0) return 1.0;
  if (r > n) return 0.0;
  if (p == 0.0) return 0.0;
  if (p == 1.0) return 1.0;
  const double logp = std::log(p);
  const double log1mp = std::log1p(-p);
  double sum = 0.0;
  for (std::uint64_t i = r; i <= n; ++i) {
    const double logterm = LogBinomialCoefficient(n, i) +
                           static_cast<double>(i) * logp +
                           static_cast<double>(n - i) * log1mp;
    sum += std::exp(logterm);
  }
  return sum > 1.0 ? 1.0 : sum;
}

double BinomialTailNormalApprox(std::uint64_t n, std::uint64_t r, double p) {
  CATMARK_CHECK(p > 0.0 && p < 1.0);
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(static_cast<double>(n) * p * (1.0 - p));
  if (sd == 0.0) return static_cast<double>(r) <= mean ? 1.0 : 0.0;
  // f(ΣXi) = (ΣXi − n·p) / sqrt(n·p·(1−p)) ~ N(0,1)  (paper eq. 2);
  // P[ΣXi >= r] = 1 − Φ(f(r)).
  const double z = (static_cast<double>(r) - mean) / sd;
  return 1.0 - NormalCdf(z);
}

MeanStd ComputeMeanStd(const std::vector<double>& xs) {
  MeanStd out;
  if (xs.empty()) return out;
  double sum = 0.0;
  for (double x : xs) sum += x;
  out.mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (x - out.mean) * (x - out.mean);
  out.stddev = std::sqrt(ss / static_cast<double>(xs.size()));
  return out;
}

}  // namespace catmark
