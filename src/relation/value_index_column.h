#ifndef CATMARK_RELATION_VALUE_INDEX_COLUMN_H_
#define CATMARK_RELATION_VALUE_INDEX_COLUMN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "relation/domain.h"
#include "relation/relation.h"

namespace catmark {

/// Domain-index-encoded view of one categorical column: entry j holds the
/// sorted-domain index t of rel.Get(j, col), or kNoIndex when the cell is
/// NULL or outside the domain (e.g. after an A6 remapping attack).
///
/// Embedding and detection both need t per cell — the embedded bit is t & 1.
/// On a dictionary-encoded column this is a zero-copy view: it aliases the
/// store's code vector and only materializes a dictionary-code -> domain-
/// index remap table (|dict| binary searches instead of one per row), so
/// building it is O(dict log domain) and index(j) is two array loads. On a
/// plain column it falls back to the materialized per-row cache.
///
/// Aliasing contract (dict path): the view reads the relation's live code
/// array, so the relation must outlive the view, and codes interned *after*
/// Build resolve to kNoIndex (the remap table does not cover them). Cells
/// rewritten in place (SetCode) show through; appending or removing rows
/// invalidates the view, as it does ColumnStore::Codes. The embed
/// apply loop relies on exactly this: it interns the domain's codes first,
/// builds the view, then reads each row's old index before overwriting it.
class ValueIndexColumn {
 public:
  static constexpr std::int32_t kNoIndex = -1;

  ValueIndexColumn() = default;

  /// Builds the view with `num_threads` workers (0 = auto; only the plain-
  /// column fallback parallelizes — the dict path has no per-row work).
  static ValueIndexColumn Build(const Relation& rel, std::size_t col,
                                const CategoricalDomain& domain,
                                std::size_t num_threads = 0);

  /// Domain index of row `j`, or kNoIndex.
  std::int32_t index(std::size_t j) const {
    if (live_ != nullptr) {
      const std::int32_t c = codes_[j];
      return (c < 0 || static_cast<std::size_t>(c) >= remap_.size())
                 ? kNoIndex
                 : remap_[static_cast<std::size_t>(c)];
    }
    return index_[j];
  }

  std::size_t size() const {
    return live_ != nullptr ? codes_.size() : index_.size();
  }

  /// Occurrence count per domain index (kNoIndex cells excluded) — the
  /// input of the embedder's category-draining guard. O(dict) on the
  /// zero-copy path via the store's live counts, O(N) otherwise.
  std::vector<long> CountPerCategory(std::size_t domain_size) const;

 private:
  // Zero-copy path (dictionary columns): aliased store state + remap.
  std::span<const std::int32_t> codes_;
  const std::vector<std::int64_t>* live_ = nullptr;  // non-null on this path
  std::vector<std::int32_t> remap_;  // dict code -> domain index / kNoIndex

  // Materialized fallback (plain columns).
  std::vector<std::int32_t> index_;
};

}  // namespace catmark

#endif  // CATMARK_RELATION_VALUE_INDEX_COLUMN_H_
