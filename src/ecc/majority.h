#ifndef CATMARK_ECC_MAJORITY_H_
#define CATMARK_ECC_MAJORITY_H_

#include "ecc/code.h"

namespace catmark {

/// Majority voting code — the ECC the paper deploys ("in our implementation
/// we deploy majority voting codes", Section 3.2.1).
///
/// Encode: wm_data[i] = wm[i mod |wm|], spreading each watermark bit across
/// every |wm|-th payload position (positions are themselves scattered over
/// tuples by H(K, k2), so no attack can target one watermark bit).
/// Decode: per watermark bit, majority over the *present* positions of its
/// residue class (slot i votes for bit i mod |wm|); ties and fully-erased
/// classes decode to 0. Confidence is |#ones - #zeros| / (#ones + #zeros)
/// per residue class (0 when the class is fully erased): how decisively
/// each bit was decoded.
class MajorityVotingCode final : public ErrorCorrectingCode {
 public:
  std::string_view Name() const override { return "majority-voting"; }
  std::size_t MinPayloadLength(std::size_t wm_len) const override {
    return wm_len;
  }
  Result<BitVector> Encode(const BitVector& wm,
                           std::size_t payload_len) const override;

 private:
  Result<DecodedMark> DecodeRuns(std::span<const SlotVote> runs,
                                 std::size_t payload_len,
                                 std::size_t wm_len) const override;
};

}  // namespace catmark

#endif  // CATMARK_ECC_MAJORITY_H_
