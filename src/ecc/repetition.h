#ifndef CATMARK_ECC_REPETITION_H_
#define CATMARK_ECC_REPETITION_H_

#include "ecc/code.h"

namespace catmark {

/// Contiguous block repetition: the payload is split into |wm| equal blocks,
/// block j filled with wm[j]; decode takes the majority inside each block.
/// Statistically equivalent to MajorityVotingCode under position-uniform
/// damage, but weaker against position-local damage — the ablation bench
/// demonstrates the difference (use with the keyed interleaver to repair it).
class BlockRepetitionCode final : public ErrorCorrectingCode {
 public:
  std::string_view Name() const override { return "block-repetition"; }
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

#endif  // CATMARK_ECC_REPETITION_H_
