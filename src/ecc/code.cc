#include "ecc/code.h"

#include <cstdlib>
#include <string>

namespace catmark {

namespace {

constexpr EccKind kAllKinds[] = {EccKind::kMajorityVoting, EccKind::kIdentity,
                                 EccKind::kBlockRepetition,
                                 EccKind::kHamming74};

/// Hamming(7,4) codewords for a `wm_len`-bit mark.
std::size_t Nibbles(std::size_t wm_len) { return (wm_len + 3) / 4; }

// Codeword layout [p1 p2 d1 p3 d2 d3 d4] (standard Hamming(7,4) with parity
// bits at positions 1, 2 and 4, 1-indexed).
void EncodeNibble(const int d[4], int cw[7]) {
  cw[0] = d[0] ^ d[1] ^ d[3];
  cw[1] = d[0] ^ d[2] ^ d[3];
  cw[2] = d[0];
  cw[3] = d[1] ^ d[2] ^ d[3];
  cw[4] = d[1];
  cw[5] = d[2];
  cw[6] = d[3];
}

// Corrects up to one flipped bit in place, then extracts the data bits.
void DecodeNibble(int cw[7], int d[4]) {
  const int s1 = cw[0] ^ cw[2] ^ cw[4] ^ cw[6];
  const int s2 = cw[1] ^ cw[2] ^ cw[5] ^ cw[6];
  const int s3 = cw[3] ^ cw[4] ^ cw[5] ^ cw[6];
  const int syndrome = s1 | (s2 << 1) | (s3 << 2);
  if (syndrome != 0) cw[syndrome - 1] ^= 1;
  d[0] = cw[2];
  d[1] = cw[4];
  d[2] = cw[5];
  d[3] = cw[6];
}

/// The shared payload-length check of PayloadBits::Create and Decode.
Status CheckPayloadLength(EccKind kind, std::size_t payload_len,
                          std::size_t wm_len) {
  const std::size_t min_len = MinPayloadLength(kind, wm_len);
  if (payload_len >= min_len) return Status::OK();
  return Status::InvalidArgument(
      "payload length " + std::to_string(payload_len) + " below the " +
      std::string(EccKindName(kind)) + " minimum " + std::to_string(min_len) +
      " for a " + std::to_string(wm_len) +
      "-bit watermark (insufficient bandwidth)");
}

}  // namespace

std::string_view EccKindName(EccKind kind) {
  switch (kind) {
    case EccKind::kMajorityVoting:
      return "majority-voting";
    case EccKind::kIdentity:
      return "identity";
    case EccKind::kBlockRepetition:
      return "block-repetition";
    case EccKind::kHamming74:
      return "hamming74";
  }
  return "unknown";
}

Result<EccKind> EccKindFromName(std::string_view name) {
  for (const EccKind kind : kAllKinds) {
    if (EccKindName(kind) == name) return kind;
  }
  return Status::InvalidArgument("unknown ecc '" + std::string(name) + "'");
}

// The shortest payload carries the codeword once, so this is also the
// codeword's length: the positions CodewordPosition returns lie below it.
std::size_t MinPayloadLength(EccKind kind, std::size_t wm_len) {
  return kind == EccKind::kHamming74 ? 7 * Nibbles(wm_len) : wm_len;
}

std::optional<std::size_t> CodewordPosition(EccKind kind, std::size_t slot,
                                            std::size_t payload_len,
                                            std::size_t wm_len) {
  switch (kind) {
    case EccKind::kMajorityVoting:
      return slot % wm_len;
    case EccKind::kIdentity:
      if (slot < wm_len) return slot;
      return std::nullopt;
    case EccKind::kBlockRepetition: {
      // Block j covers slots [j * L / m, (j+1) * L / m). The product is
      // taken in 128 bits: a claimed L near 2^32 times a long mark must
      // not wrap.
      const unsigned __int128 j =
          static_cast<unsigned __int128>(slot) * wm_len / payload_len;
      return j >= wm_len ? wm_len - 1 : static_cast<std::size_t>(j);
    }
    case EccKind::kHamming74:
      return slot % MinPayloadLength(kind, wm_len);
  }
  return std::nullopt;
}

Result<PayloadBits> PayloadBits::Create(EccKind kind, const BitVector& wm,
                                        std::size_t payload_len) {
  if (wm.empty()) return Status::InvalidArgument("empty watermark");
  CATMARK_RETURN_IF_ERROR(CheckPayloadLength(kind, payload_len, wm.size()));
  if (kind != EccKind::kHamming74) {
    return PayloadBits(kind, payload_len, wm.size(), wm);
  }
  BitVector codeword(MinPayloadLength(kind, wm.size()));
  for (std::size_t n = 0; n < Nibbles(wm.size()); ++n) {
    int d[4] = {0, 0, 0, 0};
    for (std::size_t j = 0; j < 4 && 4 * n + j < wm.size(); ++j) {
      d[j] = wm.Get(4 * n + j);
    }
    int cw[7];
    EncodeNibble(d, cw);
    for (std::size_t j = 0; j < 7; ++j) codeword.Set(7 * n + j, cw[j]);
  }
  return PayloadBits(kind, payload_len, wm.size(), std::move(codeword));
}

int PayloadBits::Get(std::size_t slot) const {
  const std::optional<std::size_t> pos =
      CodewordPosition(kind_, slot, payload_len_, wm_len_);
  return pos.has_value() ? codeword_.Get(*pos) : 0;
}

Result<DecodedMark> Decode(EccKind kind, std::span<const SlotVote> runs,
                           std::size_t payload_len, std::size_t wm_len) {
  if (wm_len == 0) return Status::InvalidArgument("wm_len must be > 0");
  CATMARK_RETURN_IF_ERROR(CheckPayloadLength(kind, payload_len, wm_len));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].slot >= payload_len ||
        (i > 0 && runs[i].slot <= runs[i - 1].slot)) {
      return Status::InvalidArgument(
          "slot runs must be strictly increasing and below the payload "
          "length");
    }
  }
  // Per codeword position: +1 per one-run, -1 per zero-run, and the number
  // of runs that voted.
  const std::size_t width = MinPayloadLength(kind, wm_len);
  std::vector<long> margin(width, 0);
  std::vector<long> total(width, 0);
  for (const SlotVote& run : runs) {
    if (run.vote == 0) continue;  // tied: an erasure
    const std::optional<std::size_t> pos =
        CodewordPosition(kind, run.slot, payload_len, wm_len);
    if (!pos.has_value()) continue;
    margin[*pos] += run.vote > 0 ? 1 : -1;
    ++total[*pos];
  }

  DecodedMark out{BitVector(wm_len), {}};
  if (kind == EccKind::kHamming74) {
    for (std::size_t n = 0; n < Nibbles(wm_len); ++n) {
      int cw[7];
      for (std::size_t j = 0; j < 7; ++j) cw[j] = margin[7 * n + j] > 0;
      int d[4];
      DecodeNibble(cw, d);
      for (std::size_t j = 0; j < 4 && 4 * n + j < wm_len; ++j) {
        out.wm.Set(4 * n + j, d[j]);
      }
    }
    return out;
  }
  for (std::size_t j = 0; j < wm_len; ++j) out.wm.Set(j, margin[j] > 0);
  if (kind == EccKind::kMajorityVoting) {
    out.confidence.assign(wm_len, 0.0);
    for (std::size_t j = 0; j < wm_len; ++j) {
      if (total[j] > 0) {
        out.confidence[j] = static_cast<double>(std::labs(margin[j])) /
                            static_cast<double>(total[j]);
      }
    }
  }
  return out;
}

}  // namespace catmark
