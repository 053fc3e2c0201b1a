#ifndef CATMARK_ECC_INTERLEAVER_H_
#define CATMARK_ECC_INTERLEAVER_H_

#include <memory>
#include <vector>

#include "crypto/keyed_hash.h"
#include "ecc/code.h"

namespace catmark {

/// Keyed interleaver: wraps an inner code and applies a secret permutation
/// (derived from `key`) to the payload. Converts position-local damage into
/// position-uniform damage, repairing BlockRepetitionCode's weakness; the
/// permutation is key-dependent so an adversary cannot target a block.
class InterleavedCode final : public ErrorCorrectingCode {
 public:
  InterleavedCode(std::unique_ptr<ErrorCorrectingCode> inner, SecretKey key);

  std::string_view Name() const override { return "interleaved"; }
  std::size_t MinPayloadLength(std::size_t wm_len) const override {
    return inner_->MinPayloadLength(wm_len);
  }
  Result<BitVector> Encode(const BitVector& wm,
                           std::size_t payload_len) const override;

 private:
  /// Maps every run through the inverse permutation (O(payload_len) to
  /// rebuild it) and decodes the re-sorted runs with the inner code.
  Result<DecodedMark> DecodeRuns(std::span<const SlotVote> runs,
                                 std::size_t payload_len,
                                 std::size_t wm_len) const override;

  /// Deterministic permutation of [0, n) derived from the key.
  std::vector<std::size_t> Permutation(std::size_t n) const;

  std::unique_ptr<ErrorCorrectingCode> inner_;
  SecretKey key_;
};

}  // namespace catmark

#endif  // CATMARK_ECC_INTERLEAVER_H_
