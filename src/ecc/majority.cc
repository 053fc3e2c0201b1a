#include "ecc/majority.h"

#include <cstdlib>
#include <vector>

namespace catmark {

Result<BitVector> MajorityVotingCode::Encode(const BitVector& wm,
                                             std::size_t payload_len) const {
  if (wm.empty()) return Status::InvalidArgument("empty watermark");
  if (payload_len < MinPayloadLength(wm.size())) {
    return Status::InvalidArgument(
        "payload length " + std::to_string(payload_len) +
        " below watermark length " + std::to_string(wm.size()) +
        " (insufficient bandwidth)");
  }
  BitVector out(payload_len);
  for (std::size_t i = 0; i < payload_len; ++i) {
    out.Set(i, wm.Get(i % wm.size()));
  }
  return out;
}

Result<DecodedMark> MajorityVotingCode::DecodeRuns(
    std::span<const SlotVote> runs, std::size_t /*payload_len*/,
    std::size_t wm_len) const {
  std::vector<long> margin(wm_len, 0);  // +1 per one-slot, -1 per zero-slot
  std::vector<long> total(wm_len, 0);
  for (const SlotVote& run : runs) {
    if (run.vote == 0) continue;  // tied: an erasure
    const std::size_t j = run.slot % wm_len;
    margin[j] += run.vote > 0 ? 1 : -1;
    ++total[j];
  }
  DecodedMark out{BitVector(wm_len), std::vector<double>(wm_len, 0.0)};
  for (std::size_t j = 0; j < wm_len; ++j) {
    out.wm.Set(j, margin[j] > 0 ? 1 : 0);
    if (total[j] > 0) {
      out.confidence[j] = static_cast<double>(std::labs(margin[j])) /
                          static_cast<double>(total[j]);
    }
  }
  return out;
}

}  // namespace catmark
