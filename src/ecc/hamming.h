#ifndef CATMARK_ECC_HAMMING_H_
#define CATMARK_ECC_HAMMING_H_

#include "ecc/code.h"

namespace catmark {

/// Hamming(7,4) + repetition hybrid (an "alternative encoding method" in the
/// spirit of Section 3, for the ECC ablation). The watermark is chunked into
/// 4-bit nibbles, each encoded as a 7-bit Hamming codeword (corrects one bit
/// per codeword); the full codeword sequence is then repeated cyclically to
/// fill the payload, and decode first majority-votes each codeword position
/// (slot i votes for position i mod 7 * ceil(|wm| / 4)) across repetitions,
/// then Hamming-corrects.
class Hamming74Code final : public ErrorCorrectingCode {
 public:
  std::string_view Name() const override { return "hamming74"; }
  std::size_t MinPayloadLength(std::size_t wm_len) const override {
    return 7 * ((wm_len + 3) / 4);
  }
  Result<BitVector> Encode(const BitVector& wm,
                           std::size_t payload_len) const override;

 private:
  Result<DecodedMark> DecodeRuns(std::span<const SlotVote> runs,
                                 std::size_t payload_len,
                                 std::size_t wm_len) const override;
};

}  // namespace catmark

#endif  // CATMARK_ECC_HAMMING_H_
