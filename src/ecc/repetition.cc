#include "ecc/repetition.h"

#include <vector>

namespace catmark {

// Block j covers payload positions [j * L / m, (j+1) * L / m). The product
// is taken in 128 bits: a claimed L near 2^32 times a long mark must not
// wrap.
static std::size_t BlockOf(std::size_t i, std::size_t len, std::size_t m) {
  const unsigned __int128 j = static_cast<unsigned __int128>(i) * m / len;
  return j >= m ? m - 1 : static_cast<std::size_t>(j);
}

Result<BitVector> BlockRepetitionCode::Encode(const BitVector& wm,
                                              std::size_t payload_len) const {
  if (wm.empty()) return Status::InvalidArgument("empty watermark");
  if (payload_len < wm.size()) {
    return Status::InvalidArgument("payload shorter than watermark");
  }
  BitVector out(payload_len);
  for (std::size_t i = 0; i < payload_len; ++i) {
    out.Set(i, wm.Get(BlockOf(i, payload_len, wm.size())));
  }
  return out;
}

Result<DecodedMark> BlockRepetitionCode::DecodeRuns(
    std::span<const SlotVote> runs, std::size_t payload_len,
    std::size_t wm_len) const {
  if (payload_len < wm_len) {
    return Status::InvalidArgument("payload shorter than watermark");
  }
  std::vector<long> votes(wm_len, 0);
  for (const SlotVote& run : runs) {
    if (run.vote == 0) continue;
    votes[BlockOf(run.slot, payload_len, wm_len)] += run.vote > 0 ? 1 : -1;
  }
  DecodedMark out{BitVector(wm_len), {}};
  for (std::size_t j = 0; j < wm_len; ++j) out.wm.Set(j, votes[j] > 0 ? 1 : 0);
  return out;
}

}  // namespace catmark
