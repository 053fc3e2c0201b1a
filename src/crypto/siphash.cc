#include "crypto/siphash.h"

namespace catmark {

namespace {

inline std::uint64_t Rotl64(std::uint64_t x, int b) {
  return (x << b) | (x >> (64 - b));
}

inline std::uint64_t LoadLe64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(p[0]) |
         (static_cast<std::uint64_t>(p[1]) << 8) |
         (static_cast<std::uint64_t>(p[2]) << 16) |
         (static_cast<std::uint64_t>(p[3]) << 24) |
         (static_cast<std::uint64_t>(p[4]) << 32) |
         (static_cast<std::uint64_t>(p[5]) << 40) |
         (static_cast<std::uint64_t>(p[6]) << 48) |
         (static_cast<std::uint64_t>(p[7]) << 56);
}

inline void SipRound(std::uint64_t& v0, std::uint64_t& v1, std::uint64_t& v2,
                     std::uint64_t& v3) {
  v0 += v1;
  v1 = Rotl64(v1, 13);
  v1 ^= v0;
  v0 = Rotl64(v0, 32);
  v2 += v3;
  v3 = Rotl64(v3, 16);
  v3 ^= v2;
  v0 += v3;
  v3 = Rotl64(v3, 21);
  v3 ^= v0;
  v2 += v1;
  v1 = Rotl64(v1, 17);
  v1 ^= v2;
  v2 = Rotl64(v2, 32);
}

struct SipState {
  std::uint64_t v0, v1, v2, v3;

  SipState(std::uint64_t k0, std::uint64_t k1)
      : v0(0x736f6d6570736575ULL ^ k0),
        v1(0x646f72616e646f6dULL ^ k1),
        v2(0x6c7967656e657261ULL ^ k0),
        v3(0x7465646279746573ULL ^ k1) {}

  // One compression step: absorbs block m with two SipRounds.
  void Absorb(std::uint64_t m) {
    v3 ^= m;
    SipRound(v0, v1, v2, v3);
    SipRound(v0, v1, v2, v3);
    v0 ^= m;
  }

  std::uint64_t Finalize() {
    v2 ^= 0xff;
    SipRound(v0, v1, v2, v3);
    SipRound(v0, v1, v2, v3);
    SipRound(v0, v1, v2, v3);
    SipRound(v0, v1, v2, v3);
    return v0 ^ v1 ^ v2 ^ v3;
  }
};

}  // namespace

std::uint64_t SipHash24(std::uint64_t k0, std::uint64_t k1,
                        const std::uint8_t* data, std::size_t len) {
  SipState s(k0, k1);
  const std::uint8_t* end = data + (len - (len % 8));
  for (; data != end; data += 8) s.Absorb(LoadLe64(data));

  // Final block: the remaining 0..7 bytes plus the message length mod 256 in
  // the top byte.
  std::uint64_t b = static_cast<std::uint64_t>(len & 0xff) << 56;
  switch (len % 8) {
    case 7: b |= static_cast<std::uint64_t>(data[6]) << 48; [[fallthrough]];
    case 6: b |= static_cast<std::uint64_t>(data[5]) << 40; [[fallthrough]];
    case 5: b |= static_cast<std::uint64_t>(data[4]) << 32; [[fallthrough]];
    case 4: b |= static_cast<std::uint64_t>(data[3]) << 24; [[fallthrough]];
    case 3: b |= static_cast<std::uint64_t>(data[2]) << 16; [[fallthrough]];
    case 2: b |= static_cast<std::uint64_t>(data[1]) << 8; [[fallthrough]];
    case 1: b |= static_cast<std::uint64_t>(data[0]); break;
    case 0: break;
  }
  s.Absorb(b);
  return s.Finalize();
}

std::uint64_t SipHash24(const std::uint8_t key[16], const std::uint8_t* data,
                        std::size_t len) {
  return SipHash24(LoadLe64(key), LoadLe64(key + 8), data, len);
}

std::uint64_t SipHash24Int64(std::uint64_t k0, std::uint64_t k1,
                             std::int64_t v) {
  const std::uint64_t b = __builtin_bswap64(static_cast<std::uint64_t>(v));
  SipState s(k0, k1);
  s.Absorb(1ULL | (b << 8));
  s.Absorb((9ULL << 56) | (b >> 56));
  return s.Finalize();
}

}  // namespace catmark
