#include "crypto/siphash_simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>

#include "common/check.h"
#include "crypto/siphash.h"
#include "crypto/siphash_simd_internal.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#endif

namespace catmark {

namespace {

using siphash_internal::LaneKernel;

#if defined(__x86_64__) || defined(_M_X64)

SimdLevel DetectHardwareLevel() {
#if defined(__GNUC__) || defined(__clang__)
  if (siphash_internal::Avx512KernelsCompiled() &&
      __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    return SimdLevel::kAvx512;
  }
  if (siphash_internal::Avx2KernelsCompiled() &&
      __builtin_cpu_supports("avx2")) {
    return SimdLevel::kAvx2;
  }
#endif
  return SimdLevel::kSse2;  // baseline on x86-64
}

#else

SimdLevel DetectHardwareLevel() { return SimdLevel::kScalar; }

#endif

SimdLevel EnvSimdLevel() {
  const SimdLevel hw = HardwareSimdLevel();
  const char* text = std::getenv("CATMARK_SIMD");
  if (text == nullptr || *text == '\0') return hw;
  const std::optional<SimdLevel> parsed = SimdLevelFromName(text);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "catmark: ignoring unknown CATMARK_SIMD value '%s' "
                 "(expected avx512, avx2, sse2 or off)\n",
                 text);
    return hw;
  }
  return *parsed < hw ? *parsed : hw;
}

// ForceSimdLevel state: -1 = no override. Relaxed atomics suffice — the
// override only ever changes which (bit-identical) kernel runs.
std::atomic<int> g_forced_level{-1};

// Messages longer than this skip the length buckets and hash scalar; the
// watermarking channel's serialized keys are tens of bytes, so in practice
// everything vectorizes. Bounds the per-call bucket table at
// (kMaxBucketedLen + 1) * kMaxLanes u32 slots of stack.
constexpr std::size_t kMaxBucketedLen = 256;
constexpr std::size_t kMaxLanes = 16;

struct LaneGroup {
  LaneKernel kernel = nullptr;  // nullptr = none
  std::size_t lanes = 1;
};

/// The active level's lane kernel and the next narrower one. A batch runs
/// whole wide groups, then narrow groups, then scalar: at AVX-512 a tail
/// of 8..15 messages still hashes 8 lanes wide, not 8..15 scalar calls
/// (a batch of 8 hashes over twice as fast through the AVX2 kernel).
struct Dispatch {
  LaneGroup wide;
  LaneGroup narrow;
};

Dispatch CurrentDispatch() {
#if defined(__x86_64__) || defined(_M_X64)
  const LaneGroup avx512{siphash_internal::SipHash24x16Avx512, 16};
  const LaneGroup avx2{siphash_internal::SipHash24x8Avx2, 8};
  const LaneGroup sse2{siphash_internal::SipHash24x4Sse2, 4};
  switch (ActiveSimdLevel()) {
    case SimdLevel::kAvx512:
      return {avx512, avx2};
    case SimdLevel::kAvx2:
      return {avx2, sse2};
    case SimdLevel::kSse2:
      return {sse2, {}};
    case SimdLevel::kScalar:
      break;
  }
#endif
  return {};
}

/// The shared mixed-length driver: messages are bucketed by length, each
/// bucket flushing through the wide kernel whenever it fills; a partial
/// bucket flushes what it can through the narrow kernel, and every other
/// leftover (the rest of a partial bucket, overlong messages) hashes
/// scalar. ptr_at(i) / len_at(i) describe message i; results land in out[i]
/// regardless of the order buckets flush in, so the output is identical to
/// the scalar loop.
template <typename PtrAt, typename LenAt>
void BucketedBatch(const Dispatch& d, std::uint64_t k0, std::uint64_t k1,
                   std::size_t count, std::uint64_t* out, PtrAt ptr_at,
                   LenAt len_at) {
  std::uint32_t pending[kMaxBucketedLen + 1][kMaxLanes];
  std::uint8_t fill[kMaxBucketedLen + 1] = {};
  const std::uint8_t* lane_ptrs[kMaxLanes];
  std::uint64_t lane_out[kMaxLanes];
  // Hashes pending[len][first .. first + g.lanes) through g's kernel.
  const auto flush = [&](const LaneGroup& g, std::size_t len,
                         std::size_t first) {
    for (std::size_t l = 0; l < g.lanes; ++l) {
      lane_ptrs[l] = ptr_at(pending[len][first + l]);
    }
    g.kernel(k0, k1, lane_ptrs, len, lane_out);
    for (std::size_t l = 0; l < g.lanes; ++l) {
      out[pending[len][first + l]] = lane_out[l];
    }
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = len_at(i);
    if (len > kMaxBucketedLen) {
      out[i] = SipHash24(k0, k1, ptr_at(i), len);
      continue;
    }
    pending[len][fill[len]++] = static_cast<std::uint32_t>(i);
    if (fill[len] == d.wide.lanes) {
      flush(d.wide, len, 0);
      fill[len] = 0;
    }
  }
  for (std::size_t len = 0; len <= kMaxBucketedLen; ++len) {
    std::size_t j = 0;
    if (d.narrow.kernel != nullptr) {
      for (; j + d.narrow.lanes <= fill[len]; j += d.narrow.lanes) {
        flush(d.narrow, len, j);
      }
    }
    for (; j < fill[len]; ++j) {
      const std::uint32_t i = pending[len][j];
      out[i] = SipHash24(k0, k1, ptr_at(i), len);
    }
  }
}

void FixedBatch(const Dispatch& d, std::uint64_t k0, std::uint64_t k1,
                const std::uint8_t* base, std::size_t len,
                std::span<std::uint64_t> out) {
  const std::size_t count = out.size();
  const std::uint8_t* lane_ptrs[kMaxLanes];
  std::size_t i = 0;
  for (const LaneGroup& g : {d.wide, d.narrow}) {
    if (g.kernel == nullptr) continue;
    for (; i + g.lanes <= count; i += g.lanes) {
      for (std::size_t l = 0; l < g.lanes; ++l) {
        lane_ptrs[l] = base + (i + l) * len;
      }
      g.kernel(k0, k1, lane_ptrs, len, out.data() + i);
    }
  }
  for (; i < count; ++i) {
    out[i] = SipHash24(k0, k1, base + i * len, len);
  }
}

}  // namespace

std::string_view SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "off";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::optional<SimdLevel> SimdLevelFromName(std::string_view name) {
  if (name == "off" || name == "scalar") return SimdLevel::kScalar;
  if (name == "sse2") return SimdLevel::kSse2;
  if (name == "avx2") return SimdLevel::kAvx2;
  if (name == "avx512") return SimdLevel::kAvx512;
  return std::nullopt;
}

SimdLevel HardwareSimdLevel() {
  static const SimdLevel level = DetectHardwareLevel();
  return level;
}

SimdLevel ActiveSimdLevel() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdLevel>(forced);
  static const SimdLevel level = EnvSimdLevel();
  return level;
}

void ForceSimdLevel(std::optional<SimdLevel> level) {
  if (!level.has_value()) {
    g_forced_level.store(-1, std::memory_order_relaxed);
    return;
  }
  const SimdLevel hw = HardwareSimdLevel();
  const SimdLevel clamped = *level < hw ? *level : hw;
  g_forced_level.store(static_cast<int>(clamped), std::memory_order_relaxed);
}

void SipHash24Batch(std::uint64_t k0, std::uint64_t k1,
                    const std::uint8_t* arena,
                    std::span<const std::size_t> bounds,
                    std::span<std::uint64_t> out) {
  CATMARK_CHECK_EQ(bounds.size(), out.size() + 1);
  const std::size_t count = out.size();
  const Dispatch d = CurrentDispatch();
  const std::size_t min_lanes =
      d.narrow.kernel != nullptr ? d.narrow.lanes : d.wide.lanes;
  if (d.wide.kernel == nullptr || count < min_lanes) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = SipHash24(k0, k1, arena + bounds[i], bounds[i + 1] - bounds[i]);
    }
    return;
  }
  // Equal-length batches — the dominant shape: fixed-width serialized keys
  // produce messages of one size, back to back in the arena — skip the
  // bucket table entirely and stream lane groups at a constant stride.
  const std::size_t len0 = bounds[1] - bounds[0];
  bool uniform = true;
  for (std::size_t i = 1; i < count; ++i) {
    if (bounds[i + 1] - bounds[i] != len0) {
      uniform = false;
      break;
    }
  }
  if (uniform) {
    FixedBatch(d, k0, k1, arena + bounds[0], len0, out);
    return;
  }
  BucketedBatch(
      d, k0, k1, count, out.data(),
      [&](std::size_t i) { return arena + bounds[i]; },
      [&](std::size_t i) { return bounds[i + 1] - bounds[i]; });
}

void SipHash24Int64Keys(std::uint64_t k0, std::uint64_t k1,
                        const std::int64_t* vals, std::size_t count,
                        std::span<std::uint64_t> out) {
  CATMARK_CHECK_EQ(count, out.size());
  std::size_t i = 0;
#if defined(__x86_64__) || defined(_M_X64)
  // Each level takes the whole groups of its width; what is left cascades
  // to the next narrower kernel, so a tail is never wider than 3 scalars.
  const SimdLevel level = ActiveSimdLevel();
  if (level >= SimdLevel::kAvx512) {
    const std::size_t n16 = count & ~std::size_t{15};
    siphash_internal::SipHash24Int64BatchAvx512(k0, k1, vals, n16,
                                                out.data());
    i = n16;
  }
  if (level >= SimdLevel::kAvx2) {
    const std::size_t n8 = (count - i) & ~std::size_t{7};
    siphash_internal::SipHash24Int64BatchAvx2(k0, k1, vals + i, n8,
                                              out.data() + i);
    i += n8;
  }
  if (level >= SimdLevel::kSse2) {
    const std::size_t n4 = (count - i) & ~std::size_t{3};
    siphash_internal::SipHash24Int64BatchSse2(k0, k1, vals + i, n4,
                                              out.data() + i);
    i += n4;
  }
#endif
  // Scalar tail (and the whole batch at the off level): materialize the
  // canonical record and run the reference — the bit-identity anchor the
  // vector paths are pinned against.
  std::uint8_t buf[9];
  buf[0] = 1;
  for (; i < count; ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(vals[i]);
    for (int b = 0; b < 8; ++b) {
      buf[1 + b] = static_cast<std::uint8_t>(v >> (8 * (7 - b)));
    }
    out[i] = SipHash24(k0, k1, buf, sizeof(buf));
  }
}

void DivisibilityMask64(const DivisibilityCheck& check, const std::uint64_t* h,
                        std::size_t count, std::uint64_t* words) {
  std::size_t i = 0;
  std::uint64_t* w = words;
#if defined(__x86_64__) || defined(_M_X64)
  // SSE2 has no 64-bit vector compare, so it runs the scalar loop.
  const SimdLevel level = ActiveSimdLevel();
  if (level >= SimdLevel::kAvx2) {
    const auto word_kernel = level >= SimdLevel::kAvx512
                                 ? siphash_internal::DivisibilityMaskWordAvx512
                                 : siphash_internal::DivisibilityMaskWordAvx2;
    for (; i + 64 <= count; i += 64) {
      *w++ = word_kernel(check.odd_inv(), check.odd_limit(),
                         check.pow2_mask(), h + i);
    }
  }
#endif
  std::uint64_t word = 0;
  int bit = 0;
  for (; i < count; ++i) {
    word |= static_cast<std::uint64_t>(check(h[i])) << bit;
    if (++bit == 64) {
      *w++ = word;
      word = 0;
      bit = 0;
    }
  }
  if (bit != 0) *w = word;
}

#if defined(__x86_64__) || defined(_M_X64)

namespace siphash_internal {

namespace {

inline __m128i VAdd(__m128i a, __m128i b) { return _mm_add_epi64(a, b); }
inline __m128i VXor(__m128i a, __m128i b) { return _mm_xor_si128(a, b); }
inline __m128i VRotl(__m128i x, int b) {
  return _mm_or_si128(_mm_slli_epi64(x, b), _mm_srli_epi64(x, 64 - b));
}
// rotl64 by 32 == swap the 32-bit halves of each 64-bit lane.
inline __m128i VRotl32(__m128i x) {
  return _mm_shuffle_epi32(x, _MM_SHUFFLE(2, 3, 0, 1));
}

}  // namespace

void SipHash24x4Sse2(std::uint64_t k0, std::uint64_t k1,
                     const std::uint8_t* const* ptrs, std::size_t len,
                     std::uint64_t* out) {
  const __m128i i0 =
      _mm_set1_epi64x(static_cast<long long>(0x736f6d6570736575ULL ^ k0));
  const __m128i i1 =
      _mm_set1_epi64x(static_cast<long long>(0x646f72616e646f6dULL ^ k1));
  const __m128i i2 =
      _mm_set1_epi64x(static_cast<long long>(0x6c7967656e657261ULL ^ k0));
  const __m128i i3 =
      _mm_set1_epi64x(static_cast<long long>(0x7465646279746573ULL ^ k1));
  // Two 2-lane state sets: lanes {0,1} in a*, lanes {2,3} in b*. Both
  // advance in lockstep so the four dependency chains interleave.
  __m128i a0 = i0, a1 = i1, a2 = i2, a3 = i3;
  __m128i b0 = i0, b1 = i1, b2 = i2, b3 = i3;
  const std::uint8_t* p0 = ptrs[0];
  const std::uint8_t* p1 = ptrs[1];
  const std::uint8_t* p2 = ptrs[2];
  const std::uint8_t* p3 = ptrs[3];

  const std::size_t tail_at = len - (len % 8);
  for (std::size_t off = 0; off != tail_at; off += 8) {
    const __m128i ma =
        _mm_set_epi64x(static_cast<long long>(LoadLe64(p1 + off)),
                       static_cast<long long>(LoadLe64(p0 + off)));
    const __m128i mb =
        _mm_set_epi64x(static_cast<long long>(LoadLe64(p3 + off)),
                       static_cast<long long>(LoadLe64(p2 + off)));
    a3 = VXor(a3, ma);
    b3 = VXor(b3, mb);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    a0 = VXor(a0, ma);
    b0 = VXor(b0, mb);
  }

  const __m128i fa =
      _mm_set_epi64x(static_cast<long long>(SipTailBlock(p1 + tail_at, len)),
                     static_cast<long long>(SipTailBlock(p0 + tail_at, len)));
  const __m128i fb =
      _mm_set_epi64x(static_cast<long long>(SipTailBlock(p3 + tail_at, len)),
                     static_cast<long long>(SipTailBlock(p2 + tail_at, len)));
  a3 = VXor(a3, fa);
  b3 = VXor(b3, fb);
  CATMARK_SIP_VROUND(a0, a1, a2, a3);
  CATMARK_SIP_VROUND(b0, b1, b2, b3);
  CATMARK_SIP_VROUND(a0, a1, a2, a3);
  CATMARK_SIP_VROUND(b0, b1, b2, b3);
  a0 = VXor(a0, fa);
  b0 = VXor(b0, fb);

  const __m128i ff = _mm_set1_epi64x(0xff);
  a2 = VXor(a2, ff);
  b2 = VXor(b2, ff);
  for (int r = 0; r < 4; ++r) {
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
  }

  const __m128i ra = VXor(VXor(a0, a1), VXor(a2, a3));
  const __m128i rb = VXor(VXor(b0, b1), VXor(b2, b3));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), ra);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2), rb);
}

namespace {

inline std::uint64_t BswapU64(std::uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap64(v);
#else
  std::uint64_t r = 0;
  for (int b = 0; b < 8; ++b) {
    r = (r << 8) | ((v >> (8 * b)) & 0xff);
  }
  return r;
#endif
}

}  // namespace

void SipHash24Int64BatchSse2(std::uint64_t k0, std::uint64_t k1,
                             const std::int64_t* vals, std::size_t count,
                             std::uint64_t* out) {
  const __m128i i0 =
      _mm_set1_epi64x(static_cast<long long>(0x736f6d6570736575ULL ^ k0));
  const __m128i i1 =
      _mm_set1_epi64x(static_cast<long long>(0x646f72616e646f6dULL ^ k1));
  const __m128i i2 =
      _mm_set1_epi64x(static_cast<long long>(0x6c7967656e657261ULL ^ k0));
  const __m128i i3 =
      _mm_set1_epi64x(static_cast<long long>(0x7465646279746573ULL ^ k1));
  const __m128i ff = _mm_set1_epi64x(0xff);

  for (std::size_t i = 0; i < count; i += 4) {
    // The 9-byte record [0x01][BE payload] as two little-endian SipHash
    // blocks, computed scalar per lane: block0 = 0x01 | bswap(v) << 8,
    // tail = 9 << 56 | bswap(v) >> 56.
    std::uint64_t m0[4];
    std::uint64_t m1[4];
    for (int l = 0; l < 4; ++l) {
      const std::uint64_t b =
          BswapU64(static_cast<std::uint64_t>(vals[i + l]));
      m0[l] = 1ULL | (b << 8);
      m1[l] = (9ULL << 56) | (b >> 56);
    }
    const __m128i m0a = _mm_set_epi64x(static_cast<long long>(m0[1]),
                                       static_cast<long long>(m0[0]));
    const __m128i m0b = _mm_set_epi64x(static_cast<long long>(m0[3]),
                                       static_cast<long long>(m0[2]));
    const __m128i m1a = _mm_set_epi64x(static_cast<long long>(m1[1]),
                                       static_cast<long long>(m1[0]));
    const __m128i m1b = _mm_set_epi64x(static_cast<long long>(m1[3]),
                                       static_cast<long long>(m1[2]));

    __m128i a0 = i0, a1 = i1, a2 = i2, a3 = i3;
    __m128i b0 = i0, b1 = i1, b2 = i2, b3 = i3;

    a3 = VXor(a3, m0a);
    b3 = VXor(b3, m0b);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    a0 = VXor(a0, m0a);
    b0 = VXor(b0, m0b);

    a3 = VXor(a3, m1a);
    b3 = VXor(b3, m1b);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    a0 = VXor(a0, m1a);
    b0 = VXor(b0, m1b);

    a2 = VXor(a2, ff);
    b2 = VXor(b2, ff);
    for (int r = 0; r < 4; ++r) {
      CATMARK_SIP_VROUND(a0, a1, a2, a3);
      CATMARK_SIP_VROUND(b0, b1, b2, b3);
    }

    const __m128i ra = VXor(VXor(a0, a1), VXor(a2, a3));
    const __m128i rb = VXor(VXor(b0, b1), VXor(b2, b3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), ra);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 2), rb);
  }
}

}  // namespace siphash_internal

#endif  // x86_64

}  // namespace catmark
