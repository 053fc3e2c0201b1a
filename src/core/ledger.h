#ifndef CATMARK_CORE_LEDGER_H_
#define CATMARK_CORE_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>

#include "common/check.h"

namespace catmark {

/// Embedding interference ledger (Section 3.3): a hash-set "remembering
/// modified tuples in each marking pass" so that multi-attribute embedding
/// passes skip cells that already carry a previous pass's mark instead of
/// destroying it. Cells are identified by (row, column); a cell counts as
/// carrying a mark even when the embedding left its value unchanged (the
/// value is still load-bearing for detection).
class EmbeddingLedger {
 public:
  bool IsMarked(std::size_t row, std::size_t col) const {
    return cells_.count(KeyOf(row, col)) > 0;
  }

  void Mark(std::size_t row, std::size_t col) {
    cells_.insert(KeyOf(row, col));
  }

  std::size_t size() const { return cells_.size(); }
  void Clear() { cells_.clear(); }

 private:
  static std::uint64_t KeyOf(std::size_t row, std::size_t col) {
    CATMARK_CHECK_LT(col, 1u << 16);
    return (static_cast<std::uint64_t>(row) << 16) |
           static_cast<std::uint64_t>(col);
  }

  std::unordered_set<std::uint64_t> cells_;
};

}  // namespace catmark

#endif  // CATMARK_CORE_LEDGER_H_
