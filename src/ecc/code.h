#ifndef CATMARK_ECC_CODE_H_
#define CATMARK_ECC_CODE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/bitvec.h"
#include "common/result.h"

namespace catmark {

/// One wm_data position's merged detection tally: the sum of the votes (+1
/// per surviving fit tuple carrying a one-bit, -1 per zero-bit) landing on
/// `slot`. Detection hands the decoders a sparse, slot-sorted list of these
/// runs. A position with no run — no surviving fit tuple voted for it (data
/// loss, A1) — or with a zero sum (a tie) is an *erasure*, not a zero; the
/// decoders exclude it, which is what makes Figure 7's graceful degradation
/// under 80% data loss possible.
struct SlotVote {
  std::size_t slot = 0;
  long vote = 0;
};

/// ECC.decode output: the most likely watermark plus a per-bit decode
/// confidence in [0,1] (majority margin / total votes for that bit; 0 for a
/// fully erased bit). Codes without a natural confidence notion leave
/// `confidence` empty.
struct DecodedMark {
  BitVector wm;
  std::vector<double> confidence;
};

/// Error correcting code interface (Section 3.2.1): Encode expands a
/// |wm|-bit watermark into a redundant payload wm_data of a chosen length
/// (the available bandwidth N/e); Decode maps a potentially damaged payload
/// back to the most likely watermark.
class ErrorCorrectingCode {
 public:
  virtual ~ErrorCorrectingCode() = default;

  virtual std::string_view Name() const = 0;

  /// Smallest payload length able to carry a `wm_len`-bit watermark.
  virtual std::size_t MinPayloadLength(std::size_t wm_len) const = 0;

  /// wm_data = ECC.encode(wm, payload_len). Fails when payload_len <
  /// MinPayloadLength(wm.size()) — "lack of bandwidth" (Section 2.4).
  virtual Result<BitVector> Encode(const BitVector& wm,
                                   std::size_t payload_len) const = 0;

  /// wm = ECC.decode(wm_data, |wm|) over the sparse tally of a
  /// `payload_len`-position payload: `runs` must be sorted by strictly
  /// increasing slot, every slot below `payload_len` (InvalidArgument
  /// otherwise, as is wm_len == 0). Each code maps a slot to its codeword
  /// position and majority-votes the nonzero runs there, so the cost is
  /// O(runs + |wm|) whatever `payload_len` claims — the keyed interleaver
  /// alone pays O(payload_len) to rebuild its permutation.
  Result<DecodedMark> Decode(std::span<const SlotVote> runs,
                             std::size_t payload_len,
                             std::size_t wm_len) const;

 private:
  /// Decode after the shared argument checks passed.
  virtual Result<DecodedMark> DecodeRuns(std::span<const SlotVote> runs,
                                         std::size_t payload_len,
                                         std::size_t wm_len) const = 0;
};

/// Available code families; kMajorityVoting is the paper's implementation
/// choice, the others exist for the ECC ablation bench.
enum class EccKind {
  kMajorityVoting,    ///< wm_data[i] = wm[i mod |wm|]; positionwise majority.
  kIdentity,          ///< no redundancy; payload carries wm once.
  kBlockRepetition,   ///< contiguous blocks of repeated bits.
  kHamming74,         ///< Hamming(7,4) codewords, repeated to fill bandwidth.
};

std::string_view EccKindName(EccKind kind);

/// Factory for a code instance.
std::unique_ptr<ErrorCorrectingCode> CreateEcc(EccKind kind);

}  // namespace catmark

#endif  // CATMARK_ECC_CODE_H_
