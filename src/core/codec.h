#ifndef CATMARK_CORE_CODEC_H_
#define CATMARK_CORE_CODEC_H_

#include <cstdint>

#include "core/params.h"
#include "crypto/keyed_hash.h"
#include "crypto/prf.h"
#include "relation/value.h"

namespace catmark {

/// H(v, k): the keyed hash of a Value's canonical serialization
/// (Value::SerializeForHash), serialized into `scratch` (cleared first) so
/// tight loops reuse one buffer per thread. A tuple is fit for encoding
/// (Section 3.2.1) iff HashValue(k1, T(K)) mod e == 0. The row-at-a-time
/// channels (additive-attack injection) use this; the bulk pipelines batch
/// through the FitScanner (core/fit_scan.h) instead.
std::uint64_t HashValue(const KeyedPrf& prf, const Value& v,
                        HashScratch& scratch);

/// Maps a 64-bit hash to a wm_data index in [0, L).
std::size_t PayloadIndexFromHash(std::uint64_t h, std::size_t payload_len,
                                 BitIndexMode mode);

/// Selects the new attribute value index t in [0, nA) (Section 3.2.1):
/// a keyed-hash-derived base index with its least significant bit forced to
/// `bit`. When forcing the LSB would leave the domain (t == nA), t is pulled
/// back by 2, which preserves the LSB. Requires nA >= 2.
std::size_t SelectValueIndex(std::uint64_t h1, std::size_t domain_size,
                             int bit);

/// Reads the embedded bit back: t & 1 (Section 3.2.2).
inline int ExtractBitFromValueIndex(std::size_t t) {
  return static_cast<int>(t & 1u);
}

}  // namespace catmark

#endif  // CATMARK_CORE_CODEC_H_
