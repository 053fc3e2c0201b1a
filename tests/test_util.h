#ifndef CATMARK_TESTS_TEST_UTIL_H_
#define CATMARK_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <string>

#include "common/bitvec.h"
#include "core/keys.h"
#include "crypto/keyed_hash.h"
#include "crypto/prf.h"
#include "gen/sales_gen.h"
#include "relation/relation.h"

namespace catmark {
namespace testutil {

/// Column names of the fixture relation returned by SmallKeyedRelation().
inline constexpr char kKeyAttr[] = "K";
inline constexpr char kTargetAttr[] = "A";

/// Deterministic (K INT64 PRIMARY KEY, A STRING CATEGORICAL) fixture.
Relation SmallKeyedRelation(std::size_t num_tuples = 2000,
                            std::size_t domain_size = 40,
                            std::uint64_t seed = 42);

/// Deterministic key set shared by suites that embed + detect.
WatermarkKeySet TestKeys(std::uint64_t seed = 7);

/// Deterministic pseudo-random watermark of `bits` bits.
BitVector TestWatermark(std::size_t bits, std::uint64_t seed = 99);

/// H(v, k): the PRF of one Value's canonical serialization
/// (Value::SerializeForHash), written into `scratch` (cleared first) — the
/// one-value-at-a-time reference the batched FitScanner paths must match.
std::uint64_t HashValue(const KeyedPrf& prf, const Value& v,
                        HashScratch& scratch);

}  // namespace testutil
}  // namespace catmark

#endif  // CATMARK_TESTS_TEST_UTIL_H_
