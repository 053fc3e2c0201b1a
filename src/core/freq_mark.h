#ifndef CATMARK_CORE_FREQ_MARK_H_
#define CATMARK_CORE_FREQ_MARK_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "common/result.h"
#include "crypto/keyed_hash.h"
#include "crypto/prf.h"
#include "quality/assessor.h"
#include "relation/domain.h"
#include "relation/relation.h"

namespace catmark {

/// Parameters of the frequency-domain channel (Section 4.2).
struct FreqMarkParams {
  /// Quantization step q of normalized frequency mass per watermark-bit
  /// group. Robustness radius is q/2 of group mass; embedding cost grows
  /// with q (up to ~q/2 of the tuples per group move category).
  double quantization_step = 0.01;

  /// Embedding never drains a category below min(current count, this)
  /// occurrences: emptied categories would disappear from a blindly
  /// re-derived domain (scrambling the keyed grouping) and be a conspicuous
  /// quality change. 0 disables the floor.
  long min_category_keep = 8;

  HashAlgorithm hash_algo = HashAlgorithm::kSha256;
};

struct FreqEmbedReport {
  std::size_t tuples_moved = 0;    ///< categorical items whose value changed
  std::size_t num_groups = 0;      ///< |wm|
  std::vector<double> group_mass;  ///< post-embedding mass per group
  double min_cell_margin = 0.0;    ///< smallest distance to a cell edge (robustness)
};

struct FreqDetectReport {
  BitVector wm;
  std::vector<double> group_mass;
  double min_cell_margin = 0.0;
};

/// Frequency-domain watermark: survives the extreme vertical-partitioning
/// attack in which Mallory keeps a *single* categorical attribute and no
/// key (Section 4.2). The paper proposes applying its numeric-set marking
/// technique [10] to the occurrence-frequency transform [f_A(a_i)]; we
/// realize it as a quantization-index scheme, because the paper does not
/// restate [10]'s encoding and quantization reads back blindly from the
/// histogram alone:
///
///  * categories are secretly grouped by H(label, key) mod |wm|;
///  * group j's total *normalized* frequency mass is quantized with step q;
///  * bit j is the parity of the quantization cell; embedding re-centres the
///    mass inside the nearest cell of correct parity by moving a minimal
///    number of tuples between categories.
///
/// Minimizing absolute change in the frequency domain minimizes the number
/// of categorical items altered — the observation Section 4.2 calls
/// "surprising and fortunate". Normalized mass makes detection invariant
/// under A1 subset selection and A4 re-sorting; no primary key is used.
class FrequencyMarker {
 public:
  FrequencyMarker(SecretKey key, FreqMarkParams params);

  /// Embeds `wm` into the frequency histogram of `attr`. If `assessor` is
  /// given the caller must have called assessor->Begin(rel); vetoed moves
  /// are skipped (weakening, not aborting, the mark).
  Result<FreqEmbedReport> Embed(
      Relation& rel, const std::string& attr, const BitVector& wm,
      const std::optional<CategoricalDomain>& domain = std::nullopt,
      QualityAssessor* assessor = nullptr) const;

  /// Blind detection: recomputes group masses and reads cell parities.
  Result<FreqDetectReport> Detect(
      const Relation& rel, const std::string& attr, std::size_t wm_len,
      const std::optional<CategoricalDomain>& domain = std::nullopt) const;

  /// Group index of a domain value under salt `salt` (exposed for
  /// tests/diagnostics).
  std::size_t GroupOf(const Value& v, std::size_t num_groups,
                      std::uint8_t salt = 0) const;

  /// Smallest salt (0..63) whose keyed-hash grouping leaves no watermark-bit
  /// group without categories, or an error when none exists. Embedder and
  /// detector derive the same salt from the same domain, keeping detection
  /// blind.
  Result<std::uint8_t> FindGroupingSalt(const CategoricalDomain& domain,
                                        std::size_t num_groups) const;

 private:
  // The keyed-hash PRF over the key at params_.hash_algo. Embed and Detect
  // build it once and group every domain value through it.
  std::unique_ptr<KeyedPrf> Prf() const;

  SecretKey key_;
  FreqMarkParams params_;
};

}  // namespace catmark

#endif  // CATMARK_CORE_FREQ_MARK_H_
