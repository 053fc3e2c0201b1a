// The only translation unit compiled with AVX-512 codegen (see
// crypto/CMakeLists): nothing here runs unless the runtime dispatch in
// siphash_simd.cc saw both Avx512KernelsCompiled() and the F/BW/DQ/VL
// CPUID bits. The gain over AVX2 is vprolq: each SipRound rotate by 13, 17
// and 21 is one instruction here instead of shift + shift + or.

#include "crypto/siphash_simd_internal.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512DQ__) && defined(__AVX512VL__)
#define CATMARK_SIPHASH_AVX512 1
#include <immintrin.h>
#endif

namespace catmark::siphash_internal {

bool Avx512KernelsCompiled() {
#if defined(CATMARK_SIPHASH_AVX512)
  return true;
#else
  return false;
#endif
}

#if defined(CATMARK_SIPHASH_AVX512)

namespace {

// The unmasked forms of the rotate, shuffle and shift intrinsics pass
// _mm512_undefined_epi32() as their merge source, which GCC 12 flags as
// -Wmaybe-uninitialized; the zero-masking forms with an all-ones mask are
// the same instructions without it.
constexpr __mmask8 kAll8 = 0xff;

inline __m512i VAdd(__m512i a, __m512i b) { return _mm512_add_epi64(a, b); }
inline __m512i VXor(__m512i a, __m512i b) { return _mm512_xor_si512(a, b); }
// vprolq takes its count as an immediate, which an inline function's
// parameter is not at -O0; CATMARK_SIP_VROUND always passes a literal.
#define VRotl(x, b) _mm512_maskz_rol_epi64(kAll8, (x), (b))
// rotl64 by 32 == swap the 32-bit halves of each lane: a shuffle-port
// micro-op, so it does not queue behind the vprolq rotates.
inline __m512i VRotl32(__m512i x) {
  return _mm512_maskz_shuffle_epi32(0xffff, x, _MM_PERM_CDAB);
}

inline __m512i Splat(std::uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

/// One 8-lane SipHash state.
struct State {
  __m512i v0, v1, v2, v3;
};

inline State InitState(std::uint64_t k0, std::uint64_t k1) {
  return {Splat(0x736f6d6570736575ULL ^ k0), Splat(0x646f72616e646f6dULL ^ k1),
          Splat(0x6c7967656e657261ULL ^ k0), Splat(0x7465646279746573ULL ^ k1)};
}

// Two state sets advanced in lockstep, so sixteen dependency chains
// interleave: one input block into each (v3 ^= m, two rounds, v0 ^= m).
inline void Absorb(State& a, State& b, __m512i ma, __m512i mb) {
  a.v3 = VXor(a.v3, ma);
  b.v3 = VXor(b.v3, mb);
  CATMARK_SIP_VROUND(a.v0, a.v1, a.v2, a.v3);
  CATMARK_SIP_VROUND(b.v0, b.v1, b.v2, b.v3);
  CATMARK_SIP_VROUND(a.v0, a.v1, a.v2, a.v3);
  CATMARK_SIP_VROUND(b.v0, b.v1, b.v2, b.v3);
  a.v0 = VXor(a.v0, ma);
  b.v0 = VXor(b.v0, mb);
}

// Finalization of both sets; lanes of `a` land in out[0..7], of `b` in
// out[8..15].
inline void Finish(State& a, State& b, std::uint64_t* out) {
  const __m512i ff = Splat(0xff);
  a.v2 = VXor(a.v2, ff);
  b.v2 = VXor(b.v2, ff);
  for (int r = 0; r < 4; ++r) {
    CATMARK_SIP_VROUND(a.v0, a.v1, a.v2, a.v3);
    CATMARK_SIP_VROUND(b.v0, b.v1, b.v2, b.v3);
  }
  _mm512_storeu_si512(out, VXor(VXor(a.v0, a.v1), VXor(a.v2, a.v3)));
  _mm512_storeu_si512(out + 8, VXor(VXor(b.v0, b.v1), VXor(b.v2, b.v3)));
}

// Eight lanes from scalar loads. vpgatherqq measured no faster here, and it
// is slow under the GDS microcode mitigation.
inline __m512i Gather8(const std::uint8_t* const* p, std::size_t off) {
  return _mm512_set_epi64(static_cast<long long>(LoadLe64(p[7] + off)),
                          static_cast<long long>(LoadLe64(p[6] + off)),
                          static_cast<long long>(LoadLe64(p[5] + off)),
                          static_cast<long long>(LoadLe64(p[4] + off)),
                          static_cast<long long>(LoadLe64(p[3] + off)),
                          static_cast<long long>(LoadLe64(p[2] + off)),
                          static_cast<long long>(LoadLe64(p[1] + off)),
                          static_cast<long long>(LoadLe64(p[0] + off)));
}

inline __m512i Tail8(const std::uint8_t* const* p, std::size_t tail_at,
                     std::size_t len) {
  return _mm512_set_epi64(
      static_cast<long long>(SipTailBlock(p[7] + tail_at, len)),
      static_cast<long long>(SipTailBlock(p[6] + tail_at, len)),
      static_cast<long long>(SipTailBlock(p[5] + tail_at, len)),
      static_cast<long long>(SipTailBlock(p[4] + tail_at, len)),
      static_cast<long long>(SipTailBlock(p[3] + tail_at, len)),
      static_cast<long long>(SipTailBlock(p[2] + tail_at, len)),
      static_cast<long long>(SipTailBlock(p[1] + tail_at, len)),
      static_cast<long long>(SipTailBlock(p[0] + tail_at, len)));
}

}  // namespace

void SipHash24x16Avx512(std::uint64_t k0, std::uint64_t k1,
                        const std::uint8_t* const* ptrs, std::size_t len,
                        std::uint64_t* out) {
  State a = InitState(k0, k1);
  State b = a;
  const std::size_t tail_at = len - (len % 8);
  for (std::size_t off = 0; off != tail_at; off += 8) {
    Absorb(a, b, Gather8(ptrs, off), Gather8(ptrs + 8, off));
  }
  Absorb(a, b, Tail8(ptrs, tail_at, len), Tail8(ptrs + 8, tail_at, len));
  Finish(a, b, out);
}

void SipHash24Int64BatchAvx512(std::uint64_t k0, std::uint64_t k1,
                               const std::int64_t* vals, std::size_t count,
                               std::uint64_t* out) {
  // Per-qword byteswap: vpshufb works within each 128-bit quarter, so the
  // control repeats bytes {7..0, 15..8} in every quarter.
  const __m512i kBswap64 =
      _mm512_set_epi64(0x08090a0b0c0d0e0fLL, 0x0001020304050607LL,
                       0x08090a0b0c0d0e0fLL, 0x0001020304050607LL,
                       0x08090a0b0c0d0e0fLL, 0x0001020304050607LL,
                       0x08090a0b0c0d0e0fLL, 0x0001020304050607LL);
  const __m512i kTag = Splat(1);         // serialization tag 0x01
  const __m512i kLen = Splat(9ULL << 56);  // len mod 256
  const State init = InitState(k0, k1);

  for (std::size_t i = 0; i < count; i += 16) {
    // The 9-byte record [0x01][BE payload] read as two little-endian
    // SipHash blocks: block0 = 0x01 | bswap(v) << 8,
    // tail = 9 << 56 | bswap(v) >> 56.
    const __m512i sa =
        _mm512_shuffle_epi8(_mm512_loadu_si512(vals + i), kBswap64);
    const __m512i sb =
        _mm512_shuffle_epi8(_mm512_loadu_si512(vals + i + 8), kBswap64);
    State a = init;
    State b = init;
    Absorb(a, b, _mm512_or_si512(_mm512_maskz_slli_epi64(kAll8, sa, 8), kTag),
           _mm512_or_si512(_mm512_maskz_slli_epi64(kAll8, sb, 8), kTag));
    Absorb(a, b,
           _mm512_or_si512(_mm512_maskz_srli_epi64(kAll8, sa, 56), kLen),
           _mm512_or_si512(_mm512_maskz_srli_epi64(kAll8, sb, 56), kLen));
    Finish(a, b, out + i);
  }
}

std::uint64_t DivisibilityMaskWordAvx512(std::uint64_t odd_inv,
                                         std::uint64_t odd_limit,
                                         std::uint64_t pow2_mask,
                                         const std::uint64_t* h) {
  // AVX-512DQ has the full mod-2^64 multiply and AVX-512F the unsigned
  // compare, straight into a mask register: no cross-product split, no
  // sign bias.
  const __m512i inv = Splat(odd_inv);
  const __m512i limit = Splat(odd_limit);
  const __m512i vmask = Splat(pow2_mask);
  std::uint64_t word = 0;
  for (int g = 0; g < 8; ++g) {
    const __m512i a = _mm512_loadu_si512(h + 8 * g);
    const __mmask8 even = _mm512_testn_epi64_mask(a, vmask);
    const __mmask8 fit =
        _mm512_mask_cmple_epu64_mask(even, _mm512_mullo_epi64(a, inv), limit);
    word |= static_cast<std::uint64_t>(fit) << (8 * g);
  }
  return word;
}

#undef VRotl

#elif defined(__x86_64__) || defined(_M_X64)

// Built without AVX-512 codegen (the compiler lacks the flags):
// Avx512KernelsCompiled() returns false above, so dispatch never lands here.
void SipHash24x16Avx512(std::uint64_t, std::uint64_t,
                        const std::uint8_t* const*, std::size_t,
                        std::uint64_t*) {}
void SipHash24Int64BatchAvx512(std::uint64_t, std::uint64_t,
                               const std::int64_t*, std::size_t,
                               std::uint64_t*) {}
std::uint64_t DivisibilityMaskWordAvx512(std::uint64_t, std::uint64_t,
                                         std::uint64_t, const std::uint64_t*) {
  return 0;
}

#endif  // CATMARK_SIPHASH_AVX512

}  // namespace catmark::siphash_internal
