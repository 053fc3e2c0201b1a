#ifndef CATMARK_ECC_CODE_H_
#define CATMARK_ECC_CODE_H_

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "common/result.h"

namespace catmark {

/// The error correcting codes of wm_data = ECC.encode(wm, L) (Section
/// 3.2.1). Each one repeats a short codeword over the L payload slots: the
/// mark itself, or for Hamming(7,4) the mark's 7-bit blocks. A code is
/// therefore its slot rule alone — the codeword position a slot carries,
/// CodewordPosition — and both directions use that one rule: PayloadBits
/// reads wm_data[i] as the codeword bit at slot i's position, and Decode
/// majority-votes every position over the slots that carry it. Nothing is
/// sized by L.
///
/// kMajorityVoting is the paper's implementation choice; the others exist
/// for the ECC ablation bench.
enum class EccKind {
  /// Slot i carries wm[i mod |wm|], so each mark bit is spread over every
  /// |wm|-th slot. Decode also reports a per-bit confidence.
  kMajorityVoting,
  /// Slot i < |wm| carries wm[i]; later slots carry nothing (wm_data holds
  /// 0 there and decode ignores them). No redundancy: the ablation's
  /// baseline.
  kIdentity,
  /// Slot i carries wm[⌊i·|wm| / L⌋]: |wm| contiguous blocks, weaker than
  /// majority voting against damage to a run of slots.
  kBlockRepetition,
  /// The mark in 4-bit nibbles (the last one zero-padded), each written as
  /// the Hamming(7,4) codeword [p1 p2 d1 p3 d2 d3 d4]; slot i carries bit
  /// i mod 7⌈|wm|/4⌉ of those codewords. Decode corrects one flipped bit
  /// per codeword after the per-position majority.
  kHamming74,
};

/// The kind's certificate and CLI name ("majority-voting", "identity",
/// "block-repetition", "hamming74").
std::string_view EccKindName(EccKind kind);

/// Inverse of EccKindName; InvalidArgument naming an unknown `name`.
Result<EccKind> EccKindFromName(std::string_view name);

/// Smallest payload length able to carry a `wm_len`-bit watermark: |wm|,
/// or 7⌈|wm|/4⌉ for Hamming(7,4).
std::size_t MinPayloadLength(EccKind kind, std::size_t wm_len);

/// The codeword position payload slot `slot` carries, or none (identity's
/// slots past the mark). Needs wm_len > 0, slot < payload_len and
/// payload_len >= MinPayloadLength(kind, wm_len).
std::optional<std::size_t> CodewordPosition(EccKind kind, std::size_t slot,
                                            std::size_t payload_len,
                                            std::size_t wm_len);

/// wm_data = ECC.encode(wm, L) without the L-bit buffer: holds only the
/// codeword, O(|wm|) bits whatever L a certificate claims, and looks each
/// slot's bit up through CodewordPosition.
class PayloadBits {
 public:
  /// InvalidArgument for an empty mark or payload_len <
  /// MinPayloadLength(kind, |wm|) — "lack of bandwidth" (Section 2.4).
  static Result<PayloadBits> Create(EccKind kind, const BitVector& wm,
                                    std::size_t payload_len);

  /// wm_data[slot], for slot < the payload length; 0 where the slot
  /// carries no codeword position.
  int Get(std::size_t slot) const;

 private:
  PayloadBits(EccKind kind, std::size_t payload_len, std::size_t wm_len,
              BitVector codeword)
      : kind_(kind),
        payload_len_(payload_len),
        wm_len_(wm_len),
        codeword_(std::move(codeword)) {}

  EccKind kind_;
  std::size_t payload_len_;
  std::size_t wm_len_;
  BitVector codeword_;
};

/// One wm_data position's merged detection tally: the sum of the votes (+1
/// per surviving fit tuple carrying a one-bit, -1 per zero-bit) landing on
/// `slot`. Detection hands Decode a sparse, slot-sorted list of these runs.
/// A position with no run — no surviving fit tuple voted for it (data
/// loss, A1) — or with a zero sum (a tie) is an *erasure*, not a zero;
/// Decode excludes it, which is what makes Figure 7's graceful degradation
/// under 80% data loss possible.
struct SlotVote {
  std::size_t slot = 0;
  long vote = 0;
};

/// ECC.decode output: the most likely watermark plus, for majority voting
/// only, a per-bit decode confidence in [0,1] (majority margin / votes for
/// that bit; 0 for a fully erased bit). The other codes leave `confidence`
/// empty.
struct DecodedMark {
  BitVector wm;
  std::vector<double> confidence;
};

/// wm = ECC.decode(wm_data, |wm|) over the sparse tally of a
/// `payload_len`-slot payload: each nonzero run casts one vote (its sign)
/// for its slot's codeword position, each position decodes to 1 when the
/// ones outvote the zeros (ties and unvoted positions decode to 0), and
/// Hamming(7,4) then corrects each codeword. InvalidArgument when wm_len
/// is 0, payload_len < MinPayloadLength(kind, wm_len), or `runs` are not
/// sorted by strictly increasing slot below payload_len. O(runs + |wm|)
/// whatever `payload_len` claims.
Result<DecodedMark> Decode(EccKind kind, std::span<const SlotVote> runs,
                           std::size_t payload_len, std::size_t wm_len);

}  // namespace catmark

#endif  // CATMARK_ECC_CODE_H_
