#ifndef CATMARK_COMMON_BITS_H_
#define CATMARK_COMMON_BITS_H_

#include <bit>
#include <cstdint>
#include <cstring>

#include "common/check.h"

namespace catmark {

/// Bit-twiddling helpers mirroring the paper's notation (Section 2.1):
/// b(X) is the number of bits required to represent X, msb(X, b) the most
/// significant b bits (left-padding with zeroes when X is narrower), and
/// set_bit(d, a, b) returns d with bit position a set to value b.

/// b(X): number of bits required to represent `x`. By convention b(0) == 1
/// (a value domain of size 1 still needs one bit position to name it).
constexpr int BitWidth(std::uint64_t x) {
  int w = 1;
  while (x > 1) {
    x >>= 1;
    ++w;
  }
  return w;
}

/// msb(X, b): the most significant `b` bits of the `width`-bit representation
/// of `x`. When b(x) < width the value is conceptually left-padded with
/// zeroes, exactly as the paper specifies.
constexpr std::uint64_t Msb(std::uint64_t x, int b, int width = 64) {
  CATMARK_CHECK(b >= 0 && b <= width && width >= 1 && width <= 64);
  if (b == 0) return 0;
  return x >> (width - b);
}

/// set_bit(d, a, bit): `d` with bit position `a` (0 = least significant)
/// forced to `bit` (0 or 1).
constexpr std::uint64_t SetBit(std::uint64_t d, int a, int bit) {
  CATMARK_CHECK(a >= 0 && a < 64 && (bit == 0 || bit == 1));
  const std::uint64_t mask = std::uint64_t{1} << a;
  return bit ? (d | mask) : (d & ~mask);
}

/// Bit at position `a` of `d` (0 = least significant).
constexpr int GetBit(std::uint64_t d, int a) {
  CATMARK_CHECK(a >= 0 && a < 64);
  return static_cast<int>((d >> a) & 1u);
}

/// Big-endian 8-byte load and store at an unaligned address: one memcpy
/// plus a byte swap on little-endian hosts. (A shift-or loop over the
/// bytes is the portable spelling, but GCC does not turn it into one
/// swapped load or store, and it ran 2.5-4× slower in the .catm codec.)
inline std::uint64_t LoadBigEndian64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline void StoreBigEndian64(std::uint64_t v, std::uint8_t* out) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(out, &v, sizeof(v));
}

/// Smallest power of two >= x (x must be >= 1 and representable).
constexpr std::uint64_t NextPowerOfTwo(std::uint64_t x) {
  std::uint64_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

/// True when x is a power of two (x >= 1).
constexpr bool IsPowerOfTwo(std::uint64_t x) {
  return x != 0 && (x & (x - 1)) == 0;
}

/// Precomputed divisibility test `h % d == 0` for a loop-invariant divisor:
/// the detect hot loop evaluates the fitness criterion H mod e == 0 once per
/// prepared message per candidate key, and a hardware 64-bit divide there
/// costs more than the SipHash itself on short keys. Splits d into
/// 2^k * odd and combines a mask test with the Granlund–Montgomery/Lemire
/// exact-divisibility multiply: for odd m, `h * inv(m) <= UINT64_MAX / m`
/// iff m divides h, where inv(m) is the modular inverse of m mod 2^64.
class DivisibilityCheck {
 public:
  explicit constexpr DivisibilityCheck(std::uint64_t d) {
    CATMARK_CHECK(d >= 1u);
    std::uint64_t odd = d;
    while ((odd & 1u) == 0) {
      odd >>= 1;
      pow2_mask_ = (pow2_mask_ << 1) | 1u;
    }
    // Newton iteration doubles the valid low bits each round; five rounds
    // from a 5-bit-correct seed (m * m ≡ m mod 16 for odd m... the standard
    // seed inv = m is correct mod 2^3) reach all 64 bits.
    std::uint64_t inv = odd;
    for (int i = 0; i < 5; ++i) inv *= 2u - odd * inv;
    odd_inv_ = inv;
    odd_limit_ = ~std::uint64_t{0} / odd;
  }

  constexpr bool operator()(std::uint64_t h) const {
    return (h & pow2_mask_) == 0 && h * odd_inv_ <= odd_limit_;
  }

  /// The precomputed constants, exposed so batch kernels can vectorize the
  /// same test (see DivisibilityMask64 in crypto/siphash_simd.h): h is
  /// divisible iff (h & pow2_mask()) == 0 and h * odd_inv() <= odd_limit(),
  /// with the multiply taken mod 2^64 and the compare unsigned.
  constexpr std::uint64_t odd_inv() const { return odd_inv_; }
  constexpr std::uint64_t odd_limit() const { return odd_limit_; }
  constexpr std::uint64_t pow2_mask() const { return pow2_mask_; }

 private:
  std::uint64_t pow2_mask_ = 0;
  std::uint64_t odd_inv_ = 1;
  std::uint64_t odd_limit_ = ~std::uint64_t{0};
};

}  // namespace catmark

#endif  // CATMARK_COMMON_BITS_H_
