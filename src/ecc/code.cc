#include "ecc/code.h"

#include "ecc/hamming.h"
#include "ecc/identity.h"
#include "ecc/majority.h"
#include "ecc/repetition.h"

namespace catmark {

Result<DecodedMark> ErrorCorrectingCode::Decode(std::span<const SlotVote> runs,
                                                std::size_t payload_len,
                                                std::size_t wm_len) const {
  if (wm_len == 0) return Status::InvalidArgument("wm_len must be > 0");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].slot >= payload_len ||
        (i > 0 && runs[i].slot <= runs[i - 1].slot)) {
      return Status::InvalidArgument(
          "slot runs must be strictly increasing and below the payload "
          "length");
    }
  }
  return DecodeRuns(runs, payload_len, wm_len);
}

std::string_view EccKindName(EccKind kind) {
  switch (kind) {
    case EccKind::kMajorityVoting:
      return "majority-voting";
    case EccKind::kIdentity:
      return "identity";
    case EccKind::kBlockRepetition:
      return "block-repetition";
    case EccKind::kHamming74:
      return "hamming74";
  }
  return "unknown";
}

std::unique_ptr<ErrorCorrectingCode> CreateEcc(EccKind kind) {
  switch (kind) {
    case EccKind::kMajorityVoting:
      return std::make_unique<MajorityVotingCode>();
    case EccKind::kIdentity:
      return std::make_unique<IdentityCode>();
    case EccKind::kBlockRepetition:
      return std::make_unique<BlockRepetitionCode>();
    case EccKind::kHamming74:
      return std::make_unique<Hamming74Code>();
  }
  return nullptr;
}

}  // namespace catmark
