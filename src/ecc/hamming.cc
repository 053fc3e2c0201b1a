#include "ecc/hamming.h"

#include <vector>

namespace catmark {

namespace {

// Codeword layout [p1 p2 d1 p3 d2 d3 d4] (standard Hamming(7,4) with parity
// bits at positions 1, 2 and 4, 1-indexed).
void EncodeNibble(int d1, int d2, int d3, int d4, int out[7]) {
  const int p1 = d1 ^ d2 ^ d4;
  const int p2 = d1 ^ d3 ^ d4;
  const int p3 = d2 ^ d3 ^ d4;
  out[0] = p1;
  out[1] = p2;
  out[2] = d1;
  out[3] = p3;
  out[4] = d2;
  out[5] = d3;
  out[6] = d4;
}

// Corrects up to one flipped bit in place, then extracts the data bits.
void DecodeNibble(int cw[7], int data[4]) {
  const int s1 = cw[0] ^ cw[2] ^ cw[4] ^ cw[6];
  const int s2 = cw[1] ^ cw[2] ^ cw[5] ^ cw[6];
  const int s3 = cw[3] ^ cw[4] ^ cw[5] ^ cw[6];
  const int syndrome = s1 | (s2 << 1) | (s3 << 2);
  if (syndrome != 0) cw[syndrome - 1] ^= 1;
  data[0] = cw[2];
  data[1] = cw[4];
  data[2] = cw[5];
  data[3] = cw[6];
}

}  // namespace

Result<BitVector> Hamming74Code::Encode(const BitVector& wm,
                                        std::size_t payload_len) const {
  if (wm.empty()) return Status::InvalidArgument("empty watermark");
  const std::size_t min_len = MinPayloadLength(wm.size());
  if (payload_len < min_len) {
    return Status::InvalidArgument(
        "payload length " + std::to_string(payload_len) +
        " below Hamming(7,4) minimum " + std::to_string(min_len));
  }
  // Base codeword string: one 7-bit codeword per 4-bit nibble (zero-padded).
  const std::size_t nibbles = (wm.size() + 3) / 4;
  BitVector base(7 * nibbles);
  for (std::size_t n = 0; n < nibbles; ++n) {
    int d[4] = {0, 0, 0, 0};
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t bit = 4 * n + j;
      if (bit < wm.size()) d[j] = wm.Get(bit);
    }
    int cw[7];
    EncodeNibble(d[0], d[1], d[2], d[3], cw);
    for (int j = 0; j < 7; ++j) {
      base.Set(7 * n + static_cast<std::size_t>(j), cw[j]);
    }
  }
  // Cyclic repetition fills the remaining bandwidth.
  BitVector out(payload_len);
  for (std::size_t i = 0; i < payload_len; ++i) {
    out.Set(i, base.Get(i % base.size()));
  }
  return out;
}

Result<DecodedMark> Hamming74Code::DecodeRuns(std::span<const SlotVote> runs,
                                              std::size_t payload_len,
                                              std::size_t wm_len) const {
  const std::size_t base_len = MinPayloadLength(wm_len);
  if (payload_len < base_len) {
    return Status::InvalidArgument("payload below Hamming(7,4) minimum");
  }
  // Stage 1: majority per base codeword position across repetitions.
  std::vector<long> votes(base_len, 0);
  for (const SlotVote& run : runs) {
    if (run.vote == 0) continue;
    votes[run.slot % base_len] += run.vote > 0 ? 1 : -1;
  }
  // Stage 2: Hamming-correct each codeword.
  DecodedMark out{BitVector(wm_len), {}};
  const std::size_t nibbles = (wm_len + 3) / 4;
  for (std::size_t n = 0; n < nibbles; ++n) {
    int cw[7];
    for (int j = 0; j < 7; ++j) {
      cw[j] = votes[7 * n + static_cast<std::size_t>(j)] > 0 ? 1 : 0;
    }
    int d[4];
    DecodeNibble(cw, d);
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t bit = 4 * n + j;
      if (bit < wm_len) out.wm.Set(bit, d[j]);
    }
  }
  return out;
}

}  // namespace catmark
