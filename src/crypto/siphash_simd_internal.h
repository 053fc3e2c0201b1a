#ifndef CATMARK_CRYPTO_SIPHASH_SIMD_INTERNAL_H_
#define CATMARK_CRYPTO_SIPHASH_SIMD_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

// Shared between the AVX2 and AVX-512 translation units (the only files
// compiled with wider codegen, so everything common lives here, not in
// siphash_simd.cc). Nothing in this header is part of the public API.

namespace catmark::siphash_internal {

/// A multi-lane equal-length kernel: out[l] = SipHash24(k0, k1, ptrs[l],
/// len) for every lane. The lane count is fixed per kernel (8 for AVX2,
/// 16 for AVX-512) and every lane must point at `len` readable bytes.
using LaneKernel = void (*)(std::uint64_t k0, std::uint64_t k1,
                            const std::uint8_t* const* ptrs, std::size_t len,
                            std::uint64_t* out);

/// True when the translation unit holding the AVX2 kernels was compiled
/// with AVX2 codegen enabled (dispatch still checks the CPU at runtime).
bool Avx2KernelsCompiled();

/// True when the translation unit holding the AVX-512 kernels was compiled
/// with AVX-512 F/BW/DQ/VL codegen enabled (dispatch still checks the CPU).
bool Avx512KernelsCompiled();

#if defined(__x86_64__) || defined(_M_X64)

/// 8 messages per call: two 4-lane AVX2 state sets advanced in lockstep.
/// Only callable when Avx2KernelsCompiled() and the CPU supports AVX2.
void SipHash24x8Avx2(std::uint64_t k0, std::uint64_t k1,
                     const std::uint8_t* const* ptrs, std::size_t len,
                     std::uint64_t* out);

/// Canonical int64-key messages, 8 per iteration (count must be a multiple
/// of 8): both input blocks of each 9-byte record assembled in vector
/// registers from two contiguous loads of `vals` (vector byteswap +
/// shifts), then the same round sequence as SipHash24x8Avx2. The group
/// loop lives inside so the key schedule and shuffle controls stay in
/// registers across groups. Same callability condition.
void SipHash24Int64BatchAvx2(std::uint64_t k0, std::uint64_t k1,
                             const std::int64_t* vals, std::size_t count,
                             std::uint64_t* out);

/// Exactly 64 hashes -> one divisibility-mask word (bit i covers h[i]):
/// the DivisibilityCheck test with the mod-2^64 multiply decomposed into
/// vpmuludq cross-products and the unsigned compare done sign-biased.
/// Same callability condition.
std::uint64_t DivisibilityMaskWordAvx2(std::uint64_t odd_inv,
                                       std::uint64_t odd_limit,
                                       std::uint64_t pow2_mask,
                                       const std::uint64_t* h);

/// 16 messages per call: two 8-lane AVX-512 state sets advanced in
/// lockstep. Only callable when Avx512KernelsCompiled() and the CPU supports
/// AVX-512 F/BW/DQ/VL.
void SipHash24x16Avx512(std::uint64_t k0, std::uint64_t k1,
                        const std::uint8_t* const* ptrs, std::size_t len,
                        std::uint64_t* out);

/// Canonical int64-key messages, 16 per iteration (count must be a
/// multiple of 16): the block assembly of SipHash24Int64BatchAvx2 at twice
/// the width. Same callability condition as SipHash24x16Avx512.
void SipHash24Int64BatchAvx512(std::uint64_t k0, std::uint64_t k1,
                               const std::int64_t* vals, std::size_t count,
                               std::uint64_t* out);

/// Exactly 64 hashes -> one divisibility-mask word, as
/// DivisibilityMaskWordAvx2 but with the 64-bit vector multiply and the
/// unsigned mask compare AVX-512 has. Same callability condition.
std::uint64_t DivisibilityMaskWordAvx512(std::uint64_t odd_inv,
                                         std::uint64_t odd_limit,
                                         std::uint64_t pow2_mask,
                                         const std::uint64_t* h);

/// Little-endian unaligned 8-byte load (x86 only, hence the plain memcpy).
inline std::uint64_t LoadLe64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// The scalar final-block assembly, shared verbatim by every lane: the
/// 0..7 tail bytes at `tail` (== data + 8 * (len / 8)) plus len mod 256 in
/// the top byte. Must stay bit-identical to the switch in siphash.cc.
inline std::uint64_t SipTailBlock(const std::uint8_t* tail, std::size_t len) {
  std::uint64_t b = static_cast<std::uint64_t>(len & 0xff) << 56;
  switch (len % 8) {
    case 7: b |= static_cast<std::uint64_t>(tail[6]) << 48; [[fallthrough]];
    case 6: b |= static_cast<std::uint64_t>(tail[5]) << 40; [[fallthrough]];
    case 5: b |= static_cast<std::uint64_t>(tail[4]) << 32; [[fallthrough]];
    case 4: b |= static_cast<std::uint64_t>(tail[3]) << 24; [[fallthrough]];
    case 3: b |= static_cast<std::uint64_t>(tail[2]) << 16; [[fallthrough]];
    case 2: b |= static_cast<std::uint64_t>(tail[1]) << 8; [[fallthrough]];
    case 1: b |= static_cast<std::uint64_t>(tail[0]); break;
    case 0: break;
  }
  return b;
}

// One SipRound over a vector of independent 64-bit lanes. The callers
// define VAdd/VXor/VRotl/VRotl32 for their vector width; the statement
// order mirrors SipRound in siphash.cc exactly, so each lane is
// bit-identical to the scalar reference by construction.
#define CATMARK_SIP_VROUND(v0, v1, v2, v3) \
  do {                                     \
    v0 = VAdd(v0, v1);                     \
    v1 = VRotl(v1, 13);                    \
    v1 = VXor(v1, v0);                     \
    v0 = VRotl32(v0);                      \
    v2 = VAdd(v2, v3);                     \
    v3 = VRotl(v3, 16);                    \
    v3 = VXor(v3, v2);                     \
    v0 = VAdd(v0, v3);                     \
    v3 = VRotl(v3, 21);                    \
    v3 = VXor(v3, v0);                     \
    v2 = VAdd(v2, v1);                     \
    v1 = VRotl(v1, 17);                    \
    v1 = VXor(v1, v2);                     \
    v2 = VRotl32(v2);                      \
  } while (0)

#endif  // x86_64

}  // namespace catmark::siphash_internal

#endif  // CATMARK_CRYPTO_SIPHASH_SIMD_INTERNAL_H_
