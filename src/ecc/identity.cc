#include "ecc/identity.h"

namespace catmark {

Result<BitVector> IdentityCode::Encode(const BitVector& wm,
                                       std::size_t payload_len) const {
  if (wm.empty()) return Status::InvalidArgument("empty watermark");
  if (payload_len < wm.size()) {
    return Status::InvalidArgument("payload shorter than watermark");
  }
  BitVector out(payload_len);
  for (std::size_t i = 0; i < wm.size(); ++i) out.Set(i, wm.Get(i));
  return out;
}

Result<DecodedMark> IdentityCode::DecodeRuns(std::span<const SlotVote> runs,
                                             std::size_t payload_len,
                                             std::size_t wm_len) const {
  if (payload_len < wm_len) {
    return Status::InvalidArgument("payload shorter than watermark");
  }
  // Slot i < |wm| carries bit i; an erased slot decodes to 0, and slots
  // past the mark carry nothing.
  DecodedMark out{BitVector(wm_len), {}};
  for (const SlotVote& run : runs) {
    if (run.slot >= wm_len) break;  // runs are slot-sorted
    if (run.vote > 0) out.wm.Set(run.slot, 1);
  }
  return out;
}

}  // namespace catmark
