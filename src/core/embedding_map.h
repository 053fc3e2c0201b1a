#ifndef CATMARK_CORE_EMBEDDING_MAP_H_
#define CATMARK_CORE_EMBEDDING_MAP_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "relation/column_store.h"
#include "relation/value.h"

namespace catmark {

/// The embedding map of the alternative algorithm (Figures 1(b)/2(b)): an
/// owner-side table from primary-key value to the exact wm_data bit index
/// embedded in that tuple (~N/e entries). Using it at detection recovers
/// every bit exactly and removes the need for the second key k2, at the cost
/// of keeping owner-side state.
///
/// Keys are the canonical hash serialization of the PK value (so INT64 7 and
/// STRING "7" stay distinct), held in a transparent-hash map probed with a
/// std::string_view. At detection the map is a KeyCandidate's position
/// source inside the DetectEngine tally, which probes with key bytes it
/// already holds: a plan message on a dict key column, a fit row serialized
/// into a per-worker buffer on a plain one. No key is allocated per tuple.
class EmbeddingMap {
 public:
  EmbeddingMap() = default;

  /// Associates the tuple whose key attribute equals `pk` with wm_data
  /// index `idx`. Re-inserting the same key overwrites.
  void Insert(const Value& pk, std::size_t idx);

  /// Index for `pk`, or nullopt when the tuple was not embedded.
  std::optional<std::size_t> Lookup(const Value& pk) const;

  /// Heterogeneous variant: looks up an already-serialized key (the bytes
  /// SerializeKey produces) without building a std::string.
  std::optional<std::size_t> Lookup(std::string_view serialized_pk) const;

  /// Serializes `pk` into `scratch` (cleared first) and returns a view of
  /// the bytes — the allocation-free feeder for Lookup(string_view).
  static std::string_view SerializeKey(const Value& pk,
                                       std::vector<std::uint8_t>& scratch);

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  /// Owner-side persistence: one "hex(pk-bytes),index" line per entry.
  std::string Serialize() const;

  /// Parses Serialize output. Duplicate keys are rejected with
  /// InvalidArgument: two entries for one PK mean the file is corrupt or
  /// hand-edited, and silently keeping the later one would make the
  /// detector vote on a position the embedder never wrote for that tuple.
  static Result<EmbeddingMap> Deserialize(std::string_view text);

 private:
  std::unordered_map<std::string, std::size_t, TransparentStringHash,
                     std::equal_to<>>
      map_;
  // Reused serialization buffer for Insert (the embed apply loop; never
  // read by const lookups).
  std::vector<std::uint8_t> insert_scratch_;
};

}  // namespace catmark

#endif  // CATMARK_CORE_EMBEDDING_MAP_H_
