#ifndef CATMARK_CRYPTO_KEYED_HASH_H_
#define CATMARK_CRYPTO_KEYED_HASH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace catmark {

/// Secret watermarking key material. The paper's algorithms use two distinct
/// keys k1 (tuple fitness + value selection) and k2 (wm_data bit selection).
class SecretKey {
 public:
  SecretKey() = default;

  /// Key = SHA-256(passphrase); the usual way humans provision keys.
  static SecretKey FromPassphrase(std::string_view passphrase);

  /// Key from raw bytes (at least 1 byte).
  static SecretKey FromBytes(std::vector<std::uint8_t> bytes);

  /// Deterministic 32-byte key expanded from a 64-bit seed; used by the
  /// experiment harness to generate the paper's "15 passes, each seeded with
  /// a different key".
  static SecretKey FromSeed(std::uint64_t seed);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  bool empty() const { return bytes_.empty(); }
  std::string ToHex() const;

  friend bool operator==(const SecretKey& a, const SecretKey& b) {
    return a.bytes_ == b.bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Reusable input-serialization buffer for hot keyed-hash loops. Hashing a
/// relational value requires serializing it to bytes first; the embed/detect
/// pipelines keep one HashScratch per worker thread so that serialization
/// reuses one grown-once buffer instead of allocating per call.
using HashScratch = std::vector<std::uint8_t>;

}  // namespace catmark

#endif  // CATMARK_CRYPTO_KEYED_HASH_H_
