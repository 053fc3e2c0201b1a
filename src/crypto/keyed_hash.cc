#include "crypto/keyed_hash.h"

#include "common/check.h"
#include "common/hex.h"
#include "crypto/sha256.h"

namespace catmark {

SecretKey SecretKey::FromPassphrase(std::string_view passphrase) {
  Sha256 sha;
  const Digest d = sha.Hash(passphrase);
  return FromBytes(
      std::vector<std::uint8_t>(d.bytes.begin(), d.bytes.begin() + 32));
}

SecretKey SecretKey::FromBytes(std::vector<std::uint8_t> bytes) {
  CATMARK_CHECK(!bytes.empty()) << "SecretKey needs at least one byte";
  SecretKey k;
  k.bytes_ = std::move(bytes);
  return k;
}

SecretKey SecretKey::FromSeed(std::uint64_t seed) {
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(seed >> (8 * (7 - i)));
  }
  Sha256 sha;
  const Digest d = sha.Hash(buf, 8);
  return FromBytes(
      std::vector<std::uint8_t>(d.bytes.begin(), d.bytes.begin() + 32));
}

std::string SecretKey::ToHex() const { return HexEncode(bytes_); }

}  // namespace catmark
