#ifndef CATMARK_CRYPTO_HMAC_H_
#define CATMARK_CRYPTO_HMAC_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "crypto/hash.h"

namespace catmark {

/// HMAC (RFC 2104) over any of the library's hash functions. The paper's
/// H(V,k) = hash(k;V;k) construction predates widespread HMAC adoption;
/// HMAC-SHA256 is offered as the modern, provably-PRF keyed alternative
/// (the "hmac-sha256" PRF backend, crypto/prf.h; embedder and detector must
/// agree on it).
class Hmac {
 public:
  Hmac(HashAlgorithm algo, const std::vector<std::uint8_t>& key);

  /// HMAC(key, data) full digest.
  Digest Compute(const std::uint8_t* data, std::size_t len) const;
  Digest Compute(std::string_view data) const;

  /// First 8 digest bytes, big-endian (matches Digest::ToUint64).
  std::uint64_t Compute64(std::string_view data) const;

 private:
  HashAlgorithm algo_;
  std::vector<std::uint8_t> ipad_key_;
  std::vector<std::uint8_t> opad_key_;
};

}  // namespace catmark

#endif  // CATMARK_CRYPTO_HMAC_H_
