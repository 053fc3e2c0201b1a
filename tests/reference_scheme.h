#ifndef CATMARK_TESTS_REFERENCE_SCHEME_H_
#define CATMARK_TESTS_REFERENCE_SCHEME_H_

#include <cstddef>
#include <cstdint>
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
namespace reference {

/// Everything Figure 2's wm_decode reads, spelled out: no options ladder,
/// no environment, no defaults resolved behind the caller's back.
struct ReferenceInputs {
  std::string key_attr;
  std::string target_attr;
  CategoricalDomain domain;
  WatermarkKeySet keys;
  std::uint64_t e = 0;
  PrfKind prf = PrfKind::kKeyedHash;
  HashAlgorithm hash_algo = HashAlgorithm::kSha256;
  EccKind ecc = EccKind::kMajorityVoting;
  BitIndexMode bit_index_mode = BitIndexMode::kModulo;
  /// |wm_data|; 0 = max(|wm|, N/e) over the suspect relation.
  std::size_t payload_length = 0;
  std::size_t wm_len = 0;
  /// Figure 2(b): positions come from this map instead of k2.
  const EmbeddingMap* embedding_map = nullptr;
};

/// The DetectionResult fields Figure 2 determines.
struct ReferenceDetection {
  BitVector wm;
  std::size_t num_tuples = 0;
  std::size_t fit_tuples = 0;
  std::size_t usable_votes = 0;
  std::size_t payload_length = 0;
  std::size_t positions_present = 0;
  double payload_fill = 0.0;
  std::vector<double> bit_confidence;
};

/// Figure 2 transcribed row by row, the slow and obvious way: one keyed-PRF
/// call per message over Value::SerializeForHash, fitness by `% e`, the k2
/// (or embedding-map) slot, a std::map slot tally, a dense wm_data
/// reconstruction and an independent dense decode per EccKind. Shares no
/// code with the detect pipeline beyond the PRF primitives, the Value
/// serialization and the relation accessors, so a differential test
/// against it checks the pipeline rather than the pipeline against itself.
/// Dense in the payload length by design: keep test payloads small.
Result<ReferenceDetection> ReferenceDetect(const Relation& rel,
                                           const ReferenceInputs& in);

}  // namespace reference
}  // namespace catmark

#endif  // CATMARK_TESTS_REFERENCE_SCHEME_H_
