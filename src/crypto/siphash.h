#ifndef CATMARK_CRYPTO_SIPHASH_H_
#define CATMARK_CRYPTO_SIPHASH_H_

#include <cstdint>
#include <cstddef>

namespace catmark {

/// SipHash-2-4 (Aumasson & Bernstein, 2012): a fast keyed PRF with a
/// 128-bit key and 64-bit output, designed exactly for the "short-input
/// authentication" shape of the watermarking fitness test. This is the raw
/// primitive pinned by the reference test vectors; the KeyedPrf registry
/// wraps it behind key derivation from a SecretKey.
std::uint64_t SipHash24(std::uint64_t k0, std::uint64_t k1,
                        const std::uint8_t* data, std::size_t len);

/// As above with the key given as 16 bytes, split little-endian into
/// (k0, k1) — the layout of the published reference vectors.
std::uint64_t SipHash24(const std::uint8_t key[16], const std::uint8_t* data,
                        std::size_t len);

/// SipHash24 of an int64 key's canonical 9-byte record (tag 0x01 +
/// big-endian v) without the bytes: the record is exactly two input blocks,
/// 0x01 | bswap(v) << 8 and 9 << 56 | bswap(v) >> 56 — the assembly the
/// AVX2 and AVX-512 kernels do in vector registers. The scalar step of
/// SipHash24Int64Keys.
std::uint64_t SipHash24Int64(std::uint64_t k0, std::uint64_t k1,
                             std::int64_t v);

}  // namespace catmark

#endif  // CATMARK_CRYPTO_SIPHASH_H_
