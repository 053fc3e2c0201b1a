#include "relation/catm_format.h"

#include <bit>
#include <cstring>
#include <string>

#include "common/bits.h"

namespace catmark {

namespace {

// Multiply-fold checksum core: xor-fold of the 128-bit product. Flipping
// any input bit flips roughly half the output bits.
inline std::uint64_t ChecksumMix(std::uint64_t a, std::uint64_t b) {
#if defined(__SIZEOF_INT128__)
  const auto p = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
#else
  // Portable 64x64->128 via 32-bit halves; must match the fast path bit for
  // bit — the checksum is part of the on-disk format.
  const std::uint64_t a_lo = a & 0xFFFFFFFFu, a_hi = a >> 32;
  const std::uint64_t b_lo = b & 0xFFFFFFFFu, b_hi = b >> 32;
  const std::uint64_t ll = a_lo * b_lo;
  const std::uint64_t lh = a_lo * b_hi;
  const std::uint64_t hl = a_hi * b_lo;
  const std::uint64_t hh = a_hi * b_hi;
  const std::uint64_t mid = (ll >> 32) + (lh & 0xFFFFFFFFu) + hl;
  const std::uint64_t lo = (ll & 0xFFFFFFFFu) | (mid << 32);
  const std::uint64_t hi = hh + (lh >> 32) + (mid >> 32);
  return lo ^ hi;
#endif
}

inline std::uint64_t ChecksumLoad64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = ((v & 0x00000000FFFFFFFFull) << 32) | (v >> 32);
    v = ((v & 0x0000FFFF0000FFFFull) << 16) |
        ((v >> 16) & 0x0000FFFF0000FFFFull);
    v = ((v & 0x00FF00FF00FF00FFull) << 8) | ((v >> 8) & 0x00FF00FF00FF00FFull);
  }
  return v;
}

// Odd 64-bit mixing constants (wyhash's published primes).
constexpr std::uint64_t kCk0 = 0xa0761d6478bd642full;
constexpr std::uint64_t kCk1 = 0xe7037ed1a0b428dbull;
constexpr std::uint64_t kCk2 = 0x8ebc6af09c88c6e3ull;
constexpr std::uint64_t kCk3 = 0x589965cc75374cc3ull;

}  // namespace

std::uint64_t CatmChecksum(const std::uint8_t* data, std::size_t len) {
  // wyhash-style multiply-fold over two independent 16-byte lanes.
  // Integrity against accidental corruption only — the checksum is unkeyed
  // and anyone can recompute it; authenticity comes from the watermark
  // itself, not the container. ~5x the throughput of the SipHash-2-4 it
  // replaced, which was the single largest cost of a .catm load.
  const std::uint8_t* p = data;
  std::size_t n = len;
  std::uint64_t h0 = kCk0 ^ static_cast<std::uint64_t>(len);
  std::uint64_t h1 = kCk1;
  while (n >= 32) {
    h0 = ChecksumMix(ChecksumLoad64(p) ^ kCk2, ChecksumLoad64(p + 8) ^ h0);
    h1 = ChecksumMix(ChecksumLoad64(p + 16) ^ kCk3,
                     ChecksumLoad64(p + 24) ^ h1);
    p += 32;
    n -= 32;
  }
  h0 ^= ChecksumMix(h1 ^ kCk1, kCk3);
  while (n >= 8) {
    h0 = ChecksumMix(ChecksumLoad64(p) ^ kCk2, h0 ^ kCk3);
    p += 8;
    n -= 8;
  }
  std::uint64_t tail = 0;
  for (std::size_t i = 0; i < n; ++i) {
    tail |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  h0 = ChecksumMix(tail ^ kCk2, h0 ^ kCk3);
  return ChecksumMix(h0 ^ kCk0, static_cast<std::uint64_t>(len) ^ kCk1);
}

std::uint64_t CatmChecksum(std::string_view bytes) {
  return CatmChecksum(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                      bytes.size());
}

bool ByteReader::ReadU8(std::uint8_t& v) {
  if (remaining() < 1) return false;
  v = data_[pos_++];
  return true;
}

bool ByteReader::ReadLeU16(std::uint16_t& v) {
  if (remaining() < 2) return false;
  v = static_cast<std::uint16_t>(data_[pos_] |
                                 (static_cast<std::uint16_t>(data_[pos_ + 1])
                                  << 8));
  pos_ += 2;
  return true;
}

bool ByteReader::ReadLeU32(std::uint32_t& v) {
  if (remaining() < 4) return false;
  v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return true;
}

bool ByteReader::ReadLeU64(std::uint64_t& v) {
  if (remaining() < 8) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return true;
}

bool ByteReader::ReadLeI32(std::int32_t& v) {
  std::uint32_t u = 0;
  if (!ReadLeU32(u)) return false;
  v = static_cast<std::int32_t>(u);
  return true;
}

bool ByteReader::ReadLeI64(std::int64_t& v) {
  std::uint64_t u = 0;
  if (!ReadLeU64(u)) return false;
  v = static_cast<std::int64_t>(u);
  return true;
}

bool ByteReader::ReadBeU64(std::uint64_t& v) {
  if (remaining() < 8) return false;
  v = LoadBigEndian64(data_ + pos_);
  pos_ += 8;
  return true;
}

bool ByteReader::ReadBytes(std::size_t n, const std::uint8_t*& p) {
  if (remaining() < n) return false;
  p = data_ + pos_;
  pos_ += n;
  return true;
}

bool ByteReader::Skip(std::size_t n) {
  if (remaining() < n) return false;
  pos_ += n;
  return true;
}

bool ByteReader::ReadLeI32Array(std::size_t n,
                                DefaultInitVector<std::int32_t>& out) {
  if (n > remaining() / sizeof(std::int32_t)) return false;
  out.resize(n);
  if constexpr (std::endian::native == std::endian::little) {
    if (n > 0) {  // an empty vector's data() may be null
      std::memcpy(out.data(), data_ + pos_, n * sizeof(std::int32_t));
    }
    pos_ += n * sizeof(std::int32_t);
  } else {
    for (std::size_t i = 0; i < n; ++i) ReadLeI32(out[i]);
  }
  return true;
}

bool ByteReader::ReadLeI64Array(std::size_t n,
                                std::vector<std::int64_t>& out) {
  if (n > remaining() / sizeof(std::int64_t)) return false;
  out.resize(n);
  if constexpr (std::endian::native == std::endian::little) {
    if (n > 0) {  // an empty vector's data() may be null
      std::memcpy(out.data(), data_ + pos_, n * sizeof(std::int64_t));
    }
    pos_ += n * sizeof(std::int64_t);
  } else {
    for (std::size_t i = 0; i < n; ++i) ReadLeI64(out[i]);
  }
  return true;
}

bool ByteReader::ReadLeU64Array(std::size_t n,
                                std::vector<std::uint64_t>& out) {
  if (n > remaining() / sizeof(std::uint64_t)) return false;
  out.resize(n);
  if constexpr (std::endian::native == std::endian::little) {
    if (n > 0) {  // an empty vector's data() may be null
      std::memcpy(out.data(), data_ + pos_, n * sizeof(std::uint64_t));
    }
    pos_ += n * sizeof(std::uint64_t);
  } else {
    for (std::size_t i = 0; i < n; ++i) ReadLeU64(out[i]);
  }
  return true;
}

Status DecodeValue(ByteReader& r, Value& out) {
  std::uint8_t tag = 0;
  if (!r.ReadU8(tag)) {
    return Status::InvalidArgument("value encoding runs past section end");
  }
  switch (tag) {
    case 0:
      out = Value();
      return Status::OK();
    case 1: {
      std::uint64_t u = 0;
      if (!r.ReadBeU64(u)) {
        return Status::InvalidArgument("INT64 payload runs past section end");
      }
      out = Value(static_cast<std::int64_t>(u));
      return Status::OK();
    }
    case 2: {
      std::uint64_t u = 0;
      if (!r.ReadBeU64(u)) {
        return Status::InvalidArgument("DOUBLE payload runs past section end");
      }
      out = Value(std::bit_cast<double>(u));
      return Status::OK();
    }
    case 3: {
      std::uint64_t len = 0;
      if (!r.ReadBeU64(len)) {
        return Status::InvalidArgument("string length runs past section end");
      }
      if (len > r.remaining()) {
        return Status::InvalidArgument(
            "string length " + std::to_string(len) + " exceeds the " +
            std::to_string(r.remaining()) + " bytes left in its section");
      }
      const std::uint8_t* p = nullptr;
      r.ReadBytes(static_cast<std::size_t>(len), p);
      out = Value(std::string(reinterpret_cast<const char*>(p),
                              static_cast<std::size_t>(len)));
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("unknown value tag " +
                                     std::to_string(tag));
  }
}

}  // namespace catmark
