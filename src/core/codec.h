#ifndef CATMARK_CORE_CODEC_H_
#define CATMARK_CORE_CODEC_H_

#include <cstdint>

#include "core/params.h"
#include "crypto/keyed_hash.h"
#include "crypto/prf.h"
#include "relation/value.h"

namespace catmark {

/// The tuple "fitness" criterion (Section 3.2.1): a tuple T is fit for
/// encoding iff H(T(K), k1) mod e == 0. Wraps a KeyedHasher so the Value
/// serialization is done in one place.
class FitnessSelector {
 public:
  FitnessSelector(const SecretKey& k1, std::uint64_t e,
                  HashAlgorithm algo = HashAlgorithm::kSha256);

  /// H(key_value, k1).
  std::uint64_t KeyHash(const Value& key_value) const;

  /// H(key_value, k1), serializing into the caller's reusable buffer — the
  /// allocation-free variant the per-thread pipeline loops use.
  std::uint64_t KeyHash(const Value& key_value, HashScratch& scratch) const;

  /// H(key_value, k1) mod e == 0.
  bool IsFit(const Value& key_value) const {
    return KeyHash(key_value) % e_ == 0;
  }

  std::uint64_t e() const { return e_; }

 private:
  KeyedHasher hasher_;
  std::uint64_t e_;
};

/// Keyed hash of an arbitrary Value (used with k2 for bit positions and by
/// the frequency-domain channel for category grouping).
std::uint64_t HashValue(const KeyedHasher& hasher, const Value& v);

/// As above, but serializes into `scratch` (cleared first) so tight loops
/// reuse one buffer per thread instead of allocating per call.
std::uint64_t HashValue(const KeyedHasher& hasher, const Value& v,
                        HashScratch& scratch);

/// PRF-backend variant: the same canonical Value serialization fed through
/// a KeyedPrf, so a "keyed-hash" PRF produces bit-identical results to the
/// KeyedHasher overloads above. The row-at-a-time channels (additive-attack
/// injection) use this; the bulk pipelines batch through the FitScanner
/// (core/fit_scan.h) instead.
std::uint64_t HashValue(const KeyedPrf& prf, const Value& v,
                        HashScratch& scratch);

/// Maps a 64-bit hash to a wm_data index in [0, L).
std::size_t PayloadIndexFromHash(std::uint64_t h, std::size_t payload_len,
                                 BitIndexMode mode);

/// Selects the new attribute value index t in [0, nA) (Section 3.2.1):
/// a keyed-hash-derived base index with its least significant bit forced to
/// `bit`. When forcing the LSB would leave the domain (t == nA), t is pulled
/// back by 2, which preserves the LSB. Requires nA >= 2.
std::size_t SelectValueIndex(std::uint64_t h1, std::size_t domain_size,
                             int bit);

/// Reads the embedded bit back: t & 1 (Section 3.2.2).
inline int ExtractBitFromValueIndex(std::size_t t) {
  return static_cast<int>(t & 1u);
}

}  // namespace catmark

#endif  // CATMARK_CORE_CODEC_H_
