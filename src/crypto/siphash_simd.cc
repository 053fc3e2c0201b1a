#include "crypto/siphash_simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>

#include "common/check.h"
#include "crypto/siphash.h"
#include "crypto/siphash_simd_internal.h"

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
  return SimdLevel::kScalar;
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
                 "(expected avx512, avx2 or off)\n",
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

/// The active level's lane kernel and the next narrower one (AVX-512 only:
/// AVX2 has no narrower group). A batch runs whole wide groups, then narrow
/// groups, then scalar: at AVX-512 a tail of 8..15 messages still hashes 8
/// lanes wide, not 8..15 scalar calls (a batch of 8 hashes over twice as
/// fast through the AVX2 kernel).
struct Dispatch {
  LaneGroup wide;
  LaneGroup narrow;
};

Dispatch CurrentDispatch() {
#if defined(__x86_64__) || defined(_M_X64)
  const LaneGroup avx512{siphash_internal::SipHash24x16Avx512, 16};
  const LaneGroup avx2{siphash_internal::SipHash24x8Avx2, 8};
  switch (ActiveSimdLevel()) {
    case SimdLevel::kAvx512:
      return {avx512, avx2};
    case SimdLevel::kAvx2:
      return {avx2, {}};
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
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::optional<SimdLevel> SimdLevelFromName(std::string_view name) {
  if (name == "off" || name == "scalar") return SimdLevel::kScalar;
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
  // to the next narrower kernel, so a tail is never wider than 7 scalars.
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
#endif
  // Scalar tail (and the whole batch at the off level).
  for (; i < count; ++i) out[i] = SipHash24Int64(k0, k1, vals[i]);
}

void DivisibilityMask64(const DivisibilityCheck& check, const std::uint64_t* h,
                        std::size_t count, std::uint64_t* words) {
  std::size_t i = 0;
  std::uint64_t* w = words;
#if defined(__x86_64__) || defined(_M_X64)
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

}  // namespace catmark
