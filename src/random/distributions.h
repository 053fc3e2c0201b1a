#ifndef CATMARK_RANDOM_DISTRIBUTIONS_H_
#define CATMARK_RANDOM_DISTRIBUTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "random/rng.h"

namespace catmark {

/// Zipf(s) distribution over {0, ..., n-1}: P(k) ∝ 1/(k+1)^s.
/// Models the skewed popularity of product codes / departure cities that the
/// paper's frequency-domain arguments rely on ("often unlikely [uniform],
/// imagine airport or product codes", Section 4.2). Sampling is O(log n) via
/// binary search over the precomputed CDF.
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double s);

  std::size_t n() const { return cdf_.size(); }
  double s() const { return s_; }

  /// Draws one sample in [0, n).
  std::size_t Sample(Xoshiro256ss& rng) const;

  /// Probability mass of rank k.
  double Pmf(std::size_t k) const;

 private:
  double s_;
  std::vector<double> cdf_;  // cdf_[k] = P(X <= k)
};

/// Arbitrary discrete distribution given (unnormalized) non-negative
/// weights; O(1) sampling via Walker's alias method. Used to draw values
/// that "conform to the overall data distribution" for stealthy tuple
/// injection (Section 4.6) and for the A2 subset-addition attack.
class DiscreteDistribution {
 public:
  explicit DiscreteDistribution(const std::vector<double>& weights);

  std::size_t n() const { return prob_.size(); }
  std::size_t Sample(Xoshiro256ss& rng) const;

  /// Normalized probability of outcome k.
  double Probability(std::size_t k) const { return normalized_[k]; }

 private:
  std::vector<double> prob_;        // alias-method cell probability
  std::vector<std::uint32_t> alias_;
  std::vector<double> normalized_;
};

/// Standard normal variate via Marsaglia polar method.
double SampleStandardNormal(Xoshiro256ss& rng);

/// In-place Fisher–Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>& v, Xoshiro256ss& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = rng.NextBounded(i);
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

/// Uniform sample of `k` distinct indices out of [0, n) (k <= n), in
/// selection order. Floyd's algorithm over an n-bit bitmap + shuffle:
/// O(k) time after an O(n / 64) clear.
std::vector<std::size_t> SampleWithoutReplacement(std::size_t n, std::size_t k,
                                                  Xoshiro256ss& rng);

}  // namespace catmark

#endif  // CATMARK_RANDOM_DISTRIBUTIONS_H_
