#ifndef CATMARK_CRYPTO_PRF_H_
#define CATMARK_CRYPTO_PRF_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/result.h"
#include "crypto/hash.h"
#include "crypto/keyed_hash.h"

namespace catmark {

/// The registered keyed-PRF backends of the watermarking channel. The paper
/// only requires a keyed one-way hash for tuple fitness / value / position
/// selection (Section 2.2) — the concrete primitive is an implementation
/// choice, so it is a first-class parameter:
///
///   - kKeyedHash ("keyed-hash"): the paper-literal H(k;V;k) sandwich over
///     the configured crypto hash (SHA-256 by default) — the compatibility
///     default every deployed watermark and certificate was embedded with.
///   - kHmacSha256 ("hmac-sha256"): RFC 2104 HMAC-SHA256, the provably-PRF
///     modern construction (RFC 4231 vectors pin it).
///   - kSipHash24 ("siphash24"): SipHash-2-4, a short-input PRF roughly an
///     order of magnitude cheaper than a SHA-256 sandwich — the throughput
///     backend for large-scale detection sweeps.
///
/// Embedder and detector must agree on the backend: a mark embedded under
/// one PRF is invisible under another (certificates record the id for
/// exactly this reason; a certificate without the field predates the
/// subsystem and means kKeyedHash).
enum class PrfKind { kKeyedHash, kHmacSha256, kSipHash24 };

/// Registered name of a backend ("keyed-hash", "hmac-sha256", "siphash24").
std::string_view PrfKindName(PrfKind kind);

/// Comma-separated list of every registered backend name, for error
/// messages and --help text.
std::string RegisteredPrfNameList();

/// Name -> backend. Unknown names are InvalidArgument and the message lists
/// the registered backends (this is the validation behind --prf,
/// CATMARK_PRF and certificate deserialization).
Result<PrfKind> PrfKindFromName(std::string_view name);

/// Resolves a CATMARK_PRF-style environment value: nullptr/empty means
/// "not configured" and yields `fallback`; anything else must be a
/// registered backend name or the result is InvalidArgument (a silently
/// ignored typo here would detect with the wrong primitive and read as a
/// destroyed watermark).
Result<PrfKind> ResolvePrfKindEnv(const char* text, PrfKind fallback);

/// Resolves WatermarkParams::prf: an explicit choice wins; nullopt consults
/// the CATMARK_PRF environment variable and defaults to kKeyedHash.
Result<PrfKind> ResolvePrfKind(const std::optional<PrfKind>& choice);

/// A keyed pseudo-random function with 64-bit output — the primitive behind
/// tuple fitness, value selection and bit-position selection. Implementations
/// are immutable after construction and safe to share across threads; the
/// key schedule is set up once in the constructor, so batch callers pay it
/// neither per call nor per row.
class KeyedPrf {
 public:
  virtual ~KeyedPrf() = default;

  /// Registered backend name (matches PrfKindName(kind())).
  virtual std::string_view Name() const = 0;
  virtual PrfKind kind() const = 0;

  /// PRF_k(data), truncated to 64 bits.
  virtual std::uint64_t Hash64(const std::uint8_t* data,
                               std::size_t len) const = 0;
  std::uint64_t Hash64(std::string_view data) const {
    return Hash64(reinterpret_cast<const std::uint8_t*>(data.data()),
                  data.size());
  }

  /// Arena batch form: out[i] = Hash64 of arena bytes [bounds[i],
  /// bounds[i + 1]), so `bounds.size()` must be `out.size() + 1`. One
  /// virtual dispatch per batch instead of per message, over the (arena,
  /// offsets) layout batch producers already hold — any subrange of a
  /// prepared message block hashes via a bounds subspan. The base
  /// implementation is the reference every override must stay bit-identical
  /// to; siphash24 routes it through 16-lane AVX-512 or 8-lane AVX2 kernels
  /// (see crypto/siphash_simd.h), several messages per call with no pointer
  /// chasing, and through the scalar loop on a host without AVX2.
  virtual void Hash64Arena(const std::uint8_t* arena,
                           std::span<const std::size_t> bounds,
                           std::span<std::uint64_t> out) const;

  /// Typed batch form for the dominant plain-key shape: out[i] = Hash64 of
  /// Value(vals[i])'s canonical serialization (tag 0x01 + big-endian
  /// payload, 9 bytes). The base implementation materializes each record
  /// and calls Hash64; siphash24 overrides it with kernels that assemble
  /// both SipHash input blocks of the record straight from the int64s, in
  /// vector or general registers — no serialization buffer exists at all.
  /// Bit-identical to SerializeForHash + Hash64 for every backend.
  virtual void Hash64Int64Keys(const std::int64_t* vals, std::size_t count,
                               std::span<std::uint64_t> out) const;
};

/// Builds a backend instance over `key`. `algo` is only consulted by
/// kKeyedHash (the sandwich runs over MD5/SHA-1/SHA-256 per
/// WatermarkParams::hash_algo); the other backends fix their primitive.
/// kKeyedHash CHECK-fails on an empty key.
std::unique_ptr<KeyedPrf> CreateKeyedPrf(
    PrfKind kind, const SecretKey& key,
    HashAlgorithm algo = HashAlgorithm::kSha256);

}  // namespace catmark

#endif  // CATMARK_CRYPTO_PRF_H_
