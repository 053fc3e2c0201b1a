#ifndef CATMARK_CRYPTO_SIPHASH_SIMD_H_
#define CATMARK_CRYPTO_SIPHASH_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "common/bits.h"

namespace catmark {

/// Vector widths the multi-lane SipHash-2-4 backend can run at. Ordered so
/// that a numeric comparison is a capability comparison: every level can be
/// clamped down to what the hardware (or the operator) allows.
///
///   - kScalar: the reference loop in siphash.cc, one message at a time
///              (and SipHash24Int64 for int64 keys). Any host, including
///              x86-64 without AVX2.
///   - kAvx2:   8 independent messages per call (two 4-lane state sets).
///   - kAvx512: 16 independent messages per call (two 8-lane state sets;
///              needs AVX-512 F, BW, DQ and VL), with the AVX2 kernel for
///              a tail of 8..15 messages.
///
/// Every level is bit-identical to kScalar for every message — the lanes
/// run the exact SipRound sequence on independent state, so the choice is
/// purely a throughput knob, never a compatibility one.
enum class SimdLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Registered name of a level ("off", "avx2", "avx512").
std::string_view SimdLevelName(SimdLevel level);

/// Name -> level: "avx512", "avx2", and "off" (alias "scalar");
/// anything else is nullopt. Case-sensitive, like CATMARK_PRF.
std::optional<SimdLevel> SimdLevelFromName(std::string_view name);

/// The widest level this binary can run on this machine: compile-time
/// kernel availability AND the runtime CPUID check. Always kScalar off
/// x86-64.
SimdLevel HardwareSimdLevel();

/// The level batch hashing actually dispatches to: HardwareSimdLevel()
/// clamped by the CATMARK_SIMD environment variable ("avx512", "avx2",
/// "off"; an unknown value is ignored with a one-line stderr
/// warning — unlike CATMARK_PRF a typo here cannot change any result, only
/// the speed) and by ForceSimdLevel. A request above the hardware level
/// clamps down, so CATMARK_SIMD=avx512 on an AVX2-only box runs AVX2, not
/// illegal instructions.
SimdLevel ActiveSimdLevel();

/// Process-wide dispatch override, clamped to HardwareSimdLevel():
/// parity tests and benches sweep levels in-process with it. nullopt
/// restores the environment/hardware default. Not intended for production
/// configuration — that is what CATMARK_SIMD is for.
void ForceSimdLevel(std::optional<SimdLevel> level);

/// Batch SipHash-2-4 over an (arena, bounds) message block: out[i] covers
/// arena bytes [bounds[i], bounds[i + 1]), so bounds.size() must be
/// out.size() + 1 (an empty batch is the single bound {0}). An equal-length
/// batch — what fixed-width serialized keys (DOUBLE, equal-width strings)
/// produce — streams through the multi-lane kernels at a constant stride
/// with no per-message bounds reads; mixed lengths are bucketed by length
/// and flushed lane-group by lane-group, with a scalar tail for partial
/// groups and messages longer than the bucket cap.
/// Bit-identical to the scalar loop at every level.
void SipHash24Batch(std::uint64_t k0, std::uint64_t k1,
                    const std::uint8_t* arena,
                    std::span<const std::size_t> bounds,
                    std::span<std::uint64_t> out);

/// Batch over canonical int64-key messages: out[i] = SipHash24 of the
/// 9-byte serialization tag 0x01 + big-endian vals[i] — without ever
/// materializing those bytes. A 9-byte message is exactly two SipHash input
/// blocks, and both are pure ALU functions of the value
/// (block0 = 0x01 | byteswap64(v) << 8, tail = 9 << 56 | byteswap64(v) >> 56),
/// so the AVX2 and AVX-512 paths assemble them in vector registers from two
/// contiguous loads of `vals` — no byte stores, no lane gathers, no per-lane
/// tail switch — and the scalar step (SipHash24Int64) in general registers.
/// Batches cascade 16 -> 8 -> scalar. Bit-identical to SerializeForHash +
/// the scalar loop at every dispatch level.
void SipHash24Int64Keys(std::uint64_t k0, std::uint64_t k1,
                        const std::int64_t* vals, std::size_t count,
                        std::span<std::uint64_t> out);

/// Packs `check(h[i])` into a bitset: bit (i mod 64) of words[i / 64] is 1
/// iff the divisor exactly divides h[i]; trailing bits of the last word are
/// zero. `words` must hold ceil(count / 64) entries. The scalar multiply in
/// DivisibilityCheck cannot auto-vectorize (no 64-bit vector multiply before
/// AVX-512), so the AVX2 kernel decomposes h * odd_inv into vpmuludq
/// cross-products and does the unsigned compare sign-biased; the AVX-512
/// kernel uses vpmullq and compares unsigned into a mask register. This is
/// the detect hot loop's fitness test, which is why it lives with the SIMD
/// dispatch rather than in common/. Identical output at every level.
void DivisibilityMask64(const DivisibilityCheck& check, const std::uint64_t* h,
                        std::size_t count, std::uint64_t* words);

}  // namespace catmark

#endif  // CATMARK_CRYPTO_SIPHASH_SIMD_H_
