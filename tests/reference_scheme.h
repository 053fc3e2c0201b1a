#ifndef CATMARK_TESTS_REFERENCE_SCHEME_H_
#define CATMARK_TESTS_REFERENCE_SCHEME_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "common/result.h"
#include "core/detect_engine.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "core/embedding_map.h"
#include "core/keys.h"
#include "core/ledger.h"
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

/// The oracle inputs of detection candidate `c` (keys, params, mark length
/// and embedding map) over key attribute "K" and target attribute "A" with
/// the detect-time `domain`. The payload length is c.params.payload_length.
/// c.params.prf must be set: the oracle resolves nothing from the
/// environment.
ReferenceInputs DetectInputsOf(const KeyCandidate& c,
                               const CategoricalDomain& domain);

/// Field-by-field check of a detection against the oracle: status code,
/// every DetectionResult field Figure 2 determines, and rows_scanned == N.
void ExpectDetectMatchesReference(const Result<DetectionResult>& got,
                                  const Result<ReferenceDetection>& want,
                                  const std::string& where);

/// Everything Figure 1's wm_embed reads, spelled out like ReferenceInputs.
struct ReferenceEmbedInputs {
  std::string key_attr;
  std::string target_attr;
  /// The target's value domain; unset = its sorted distinct non-NULL values.
  std::optional<CategoricalDomain> domain;
  WatermarkKeySet keys;
  std::uint64_t e = 0;
  PrfKind prf = PrfKind::kKeyedHash;
  HashAlgorithm hash_algo = HashAlgorithm::kSha256;
  EccKind ecc = EccKind::kMajorityVoting;
  BitIndexMode bit_index_mode = BitIndexMode::kModulo;
  /// |wm_data|; 0 = max(|wm|, N/e).
  std::size_t payload_length = 0;
  /// The category-drain guard: no alteration may take a category to fewer
  /// than this many occurrences (0 = off).
  long min_category_keep = 0;
  /// Figure 1(b): positions come from a running map index instead of k2.
  bool build_embedding_map = false;
};

/// The same inputs as an Embedder call with `keys`, `params` and `options`.
/// params.prf must be set: the oracle resolves nothing from the
/// environment.
ReferenceEmbedInputs EmbedInputsOf(const WatermarkKeySet& keys,
                                   const WatermarkParams& params,
                                   const EmbedOptions& options);

/// The EmbedReport fields Figure 1 determines.
struct ReferenceEmbedding {
  std::size_t num_tuples = 0;
  std::size_t fit_tuples = 0;
  std::size_t altered_tuples = 0;
  std::size_t unchanged_tuples = 0;
  std::size_t skipped_by_ledger = 0;
  std::size_t skipped_by_domain_guard = 0;
  std::size_t payload_length = 0;
  std::size_t positions_written = 0;
  CategoricalDomain domain;
  EmbeddingMap embedding_map;
};

/// Figure 1(a)/(b) transcribed row by row: for each tuple T_j in order, a
/// keyed-PRF call over Value::SerializeForHash decides fitness (`% e`);
/// a fit tuple takes its wm_data position from k2 (or the running map
/// index), skips a cell the ledger already holds, selects value index
/// t = H(T_j(K), k1) mod |D| with its LSB set to the bit (stepping back 2
/// past the domain's end, Section 3.2.2), leaves a tuple already holding
/// a_t as is, lets the category-drain guard veto a change that would take
/// a category below min_category_keep, writes a_t with Relation::Set, and
/// records committed tuples in the ledger and the map, in row order. It
/// calls CreateEcc(...)->Encode for wm_data (pinned by ecc_test) and
/// shares nothing else with the embed pipeline beyond the PRF primitives,
/// the Value serialization and the relation accessors. Fails, with the
/// relation untouched, where Embedder::Embed must: e == 0, an empty
/// relation, N/e == 0, fewer than 2 domain values or a domain value of
/// another type than the target column.
Result<ReferenceEmbedding> ReferenceEmbed(Relation& rel,
                                          const ReferenceEmbedInputs& in,
                                          const BitVector& wm,
                                          EmbeddingLedger* ledger = nullptr);

/// Field-by-field check of an Embed run against the oracle run on a copy of
/// the same relation (and ledger): status code, every report counter the
/// oracle determines (and rows_scanned == N), the domain, the serialized
/// embedding map, the relations' CSV text and the ledgers' cells. Either
/// ledger may be null only if both are.
void ExpectEmbedMatchesReference(const Result<EmbedReport>& got,
                                 const Relation& got_rel,
                                 const EmbeddingLedger* got_ledger,
                                 const Result<ReferenceEmbedding>& want,
                                 const Relation& want_rel,
                                 const EmbeddingLedger* want_ledger,
                                 const std::string& where);

}  // namespace reference
}  // namespace catmark

#endif  // CATMARK_TESTS_REFERENCE_SCHEME_H_
