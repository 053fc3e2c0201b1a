#ifndef CATMARK_ECC_IDENTITY_H_
#define CATMARK_ECC_IDENTITY_H_

#include "ecc/code.h"

namespace catmark {

/// No-redundancy code: the payload carries the watermark exactly once
/// (positions beyond |wm| are zero-filled and ignored at decode). Baseline
/// for the ECC ablation — shows what majority voting buys.
class IdentityCode final : public ErrorCorrectingCode {
 public:
  std::string_view Name() const override { return "identity"; }
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

#endif  // CATMARK_ECC_IDENTITY_H_
