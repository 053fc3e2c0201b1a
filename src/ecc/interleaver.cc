#include "ecc/interleaver.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "crypto/prf.h"
#include "random/distributions.h"
#include "random/rng.h"

namespace catmark {

InterleavedCode::InterleavedCode(std::unique_ptr<ErrorCorrectingCode> inner,
                                 SecretKey key)
    : inner_(std::move(inner)), key_(std::move(key)) {
  CATMARK_CHECK(inner_ != nullptr);
}

std::vector<std::size_t> InterleavedCode::Permutation(std::size_t n) const {
  const std::unique_ptr<KeyedPrf> prf =
      CreateKeyedPrf(PrfKind::kKeyedHash, key_);
  Xoshiro256ss rng(prf->Hash64(std::string_view("interleave")));
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  Shuffle(perm, rng);
  return perm;
}

Result<BitVector> InterleavedCode::Encode(const BitVector& wm,
                                          std::size_t payload_len) const {
  Result<BitVector> inner = inner_->Encode(wm, payload_len);
  if (!inner.ok()) return inner.status();
  const std::vector<std::size_t> perm = Permutation(payload_len);
  BitVector out(payload_len);
  // Position i of the inner payload lands at perm[i].
  for (std::size_t i = 0; i < payload_len; ++i) {
    out.Set(perm[i], inner.value().Get(i));
  }
  return out;
}

Result<DecodedMark> InterleavedCode::DecodeRuns(
    std::span<const SlotVote> runs, std::size_t payload_len,
    std::size_t wm_len) const {
  // Inner position i was written to payload slot perm[i], so payload slot
  // p carries inner position perm^-1(p).
  const std::vector<std::size_t> perm = Permutation(payload_len);
  std::vector<std::size_t> inverse(payload_len);
  for (std::size_t i = 0; i < payload_len; ++i) inverse[perm[i]] = i;
  std::vector<SlotVote> inner;
  inner.reserve(runs.size());
  for (const SlotVote& run : runs) {
    inner.push_back({inverse[run.slot], run.vote});
  }
  std::sort(inner.begin(), inner.end(),
            [](const SlotVote& a, const SlotVote& b) {
              return a.slot < b.slot;
            });
  return inner_->Decode(inner, payload_len, wm_len);
}

}  // namespace catmark
