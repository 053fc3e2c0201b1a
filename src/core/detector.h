#ifndef CATMARK_CORE_DETECTOR_H_
#define CATMARK_CORE_DETECTOR_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "common/result.h"
#include "core/embedding_map.h"
#include "core/keys.h"
#include "core/params.h"
#include "relation/domain.h"
#include "relation/relation.h"

namespace catmark {

/// Detection inputs. Detection is *blind*: no original data — only the keys
/// and the scheme parameters (inside the Detector: e, PRF, ECC and the
/// payload length, WatermarkParams::payload_length), the watermark length
/// and the attribute domain. The target column's domain index follows from
/// the domain and the data; the engine builds it.
struct DetectOptions {
  std::string key_attr;
  std::string target_attr;

  /// Domain the embedder used. When unset it is recovered from the suspect
  /// data itself — correct as long as the attack did not remove entire
  /// categories (after heavy data loss prefer passing the owner-side copy
  /// from EmbedReport::domain).
  std::optional<CategoricalDomain> domain;

  /// Detect via the Figure 2(b) embedding-map variant instead of k2: the
  /// map becomes the KeyCandidate's position source. The pointee must
  /// outlive the Detect call.
  const EmbeddingMap* embedding_map = nullptr;
};

/// Detection outcome plus channel diagnostics.
struct DetectionResult {
  BitVector wm;                        ///< decoded watermark
  std::size_t num_tuples = 0;          ///< suspect relation size
  std::size_t fit_tuples = 0;          ///< tuples passing the fitness test
  std::size_t usable_votes = 0;        ///< fit tuples with in-domain values
  std::size_t payload_length = 0;      ///< |wm_data| used
  std::size_t positions_present = 0;   ///< payload positions with >=1 vote
  double payload_fill = 0.0;           ///< positions_present / payload_length

  /// Keyed-PRF backend detection ran with (must match the embed-time one;
  /// certificates carry it).
  PrfKind prf = PrfKind::kKeyedHash;

  /// Per-bit decode confidence in [0,1] (majority margin; empty when the
  /// configured ECC has no confidence notion). Court-facing evidence
  /// quality: 1.0 = unanimous votes, 0.0 = fully erased / tied.
  std::vector<double> bit_confidence;

  /// Wall-clock seconds this detection call took.
  double wall_seconds = 0.0;

  /// Suspect rows this detection speaks for — always the relation's row
  /// count, on every key layout and position source (k2 or map).
  /// Throughput rates divide by this.
  std::size_t rows_scanned = 0;

  /// Messages actually pushed through the keyed PRF: the non-NULL key
  /// rows on a plain key column and the *live distinct* dictionary entries
  /// on a dict-encoded one (the dict-code gather). The amortization a sweep
  /// ranks and benches by — kept separate from rows_scanned so the two are
  /// never conflated again.
  std::size_t messages_hashed = 0;
};

/// Agreement between an expected and a decoded watermark, with the
/// court-time statistics of Section 4.4.
struct MatchStats {
  std::size_t matched_bits = 0;
  /// max(|expected|, |decoded|). On a length mismatch the bits present on
  /// only one side count as mismatched, so the score degrades instead of
  /// the comparison being undefined.
  std::size_t total_bits = 0;
  /// True when |expected| != |decoded| — usually a payload-length mix-up
  /// between embed and detect; callers should surface it.
  bool length_mismatch = false;
  double match_fraction = 0.0;    ///< matched / total
  double mark_alteration = 0.0;   ///< 1 - match_fraction (the figures' y-axis)
  /// P[>= matched_bits of total match by pure chance] — the false-claim
  /// probability a court would weigh; (1/2)^|wm| when all bits match.
  double false_match_probability = 1.0;
};

/// Size-tolerant comparison: never aborts on a length mismatch (it is
/// reported via MatchStats::length_mismatch and scored against the longer
/// vector instead).
MatchStats MatchWatermark(const BitVector& expected, const BitVector& decoded);

/// The sparse vote tally every detect path shares: each worker appends one
/// (slot, ±1-sum) hit per voting fit message to its own buffer in `parts`
/// (non-empty). This concatenates the buffers into parts[0], sorts the
/// hits by slot and folds each slot's hits into one run in place, dropping
/// runs whose votes cancel (a tie is an erasure), and returns the runs.
/// Integer sums commute, so the runs do not depend on the order the hits
/// arrived in — bit-identical at every worker count. A byte-wise radix
/// sort through `sort_buffer` (scratch space a caller merging many tallies
/// reuses) keeps it O(hits) per pass; nothing is sized by the payload
/// length.
std::vector<SlotVote>& MergeSlotRuns(std::span<std::vector<SlotVote>> parts,
                                     std::vector<SlotVote>& sort_buffer);

/// Turns the folded runs of a `payload_len`-position payload into the
/// decoded-payload fields of `result`: positions_present (the nonzero
/// runs), payload_fill (positions_present / payload_len), wm and
/// bit_confidence, via one ECC Decode over the runs.
/// O(runs + |wm|) whatever payload length a certificate claims. The
/// DetectEngine per-key pass runs it under either position source and on
/// either key layout.
Status FinishVoteTally(std::span<const SlotVote> runs, std::size_t payload_len,
                       std::size_t wm_len, EccKind ecc,
                       DetectionResult& result);

/// wm_decode (Figure 2): blind watermark detection. A thin front over
/// DetectEngine for both variants: Detect is DetectEngine::Create plus one
/// DetectEngine::Detect, so a single detection and a sweep's per-candidate
/// pass run the same loop. Invalid keys (k1 == k2), e == 0, a zero mark
/// length or a payload length above kMaxPayloadLength come back from Detect
/// as InvalidArgument.
///
/// The payload length is params.payload_length: the embed-time value
/// (EmbedReport::payload_length, a certificate's params). Left at 0 it is
/// re-derived from the *suspect* relation's size — wrong after A1/A2, so
/// owners keep this one integer — and fails with FailedPrecondition when
/// N / e == 0.
class Detector {
 public:
  Detector(WatermarkKeySet keys, WatermarkParams params);

  Result<DetectionResult> Detect(const Relation& rel,
                                 const DetectOptions& options,
                                 std::size_t wm_len) const;

 private:
  WatermarkKeySet keys_;
  WatermarkParams params_;
};

}  // namespace catmark

#endif  // CATMARK_CORE_DETECTOR_H_
