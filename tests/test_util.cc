#include "test_util.h"

#include "random/rng.h"

namespace catmark {
namespace testutil {

Relation SmallKeyedRelation(std::size_t num_tuples, std::size_t domain_size,
                            std::uint64_t seed) {
  KeyedCategoricalConfig config;
  config.num_tuples = num_tuples;
  config.domain_size = domain_size;
  config.zipf_s = 0.8;
  config.seed = seed;
  return GenerateKeyedCategorical(config);
}

WatermarkKeySet TestKeys(std::uint64_t seed) {
  return WatermarkKeySet::FromSeed(seed);
}

BitVector TestWatermark(std::size_t bits, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  return BitVector::FromGenerator(bits, [&rng] { return rng.Next(); });
}

std::uint64_t HashValue(const KeyedPrf& prf, const Value& v,
                        HashScratch& scratch) {
  scratch.clear();
  v.SerializeForHash(scratch);
  return prf.Hash64(scratch.data(), scratch.size());
}

}  // namespace testutil
}  // namespace catmark
