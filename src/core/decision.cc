#include "core/decision.h"

#include <cmath>

#include "common/check.h"
#include "random/stats.h"

namespace catmark {

std::size_t RequiredMatchThreshold(std::size_t wm_len, double alpha) {
  CATMARK_CHECK(alpha > 0.0 && alpha < 1.0);
  // P[Binomial(len, 1/2) >= m] grows monotonically as m decreases, so the
  // acceptable match counts form a suffix {m*, ..., len}. Walk m downwards,
  // accumulating the tail one pmf term at a time (terms are added smallest
  // first, which also keeps the sum accurate); at a sweep's alpha the walk
  // stops after a few terms.
  const double log_half = std::log(0.5);
  long double tail = 0.0L;
  std::size_t threshold = wm_len + 1;  // unreachable bar: mark too short
  for (std::size_t m = wm_len;; --m) {
    tail += std::exp(LogBinomialCoefficient(wm_len, m) +
                     static_cast<double>(wm_len) * log_half);
    if (static_cast<double>(tail) > alpha) break;
    threshold = m;
    if (m == 0) break;
  }
  return threshold;
}

OwnershipDecision DecideOwnership(const BitVector& expected,
                                  const BitVector& decoded, double alpha) {
  const MatchStats stats = MatchWatermark(expected, decoded);
  OwnershipDecision decision;
  decision.matched_bits = stats.matched_bits;
  decision.p_value = stats.false_match_probability;
  decision.significance = alpha;
  decision.threshold = RequiredMatchThreshold(expected.size(), alpha);
  decision.owned = stats.matched_bits >= decision.threshold;
  return decision;
}

}  // namespace catmark
