#ifndef CATMARK_RELATION_INDEX_H_
#define CATMARK_RELATION_INDEX_H_

#include <optional>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "relation/relation.h"

namespace catmark {

/// Hash index over the primary key: O(1) row lookup by key value, plus the
/// uniqueness validation a primary key implies. No library path depends on
/// it; a caller updating tuples by key can use it to find the row index
/// that StreamSession::Refresh takes.
///
/// The index is a snapshot: structural changes to the relation (appends,
/// removals, key updates) invalidate it; rebuild after batch changes.
class PrimaryKeyIndex {
 public:
  /// Builds over the schema's primary key column. Fails when the schema has
  /// no primary key or key values are duplicated/NULL (a primary key
  /// violation worth surfacing loudly).
  static Result<PrimaryKeyIndex> Build(const Relation& rel);

  /// Row index holding `key`, or nullopt.
  std::optional<std::size_t> Find(const Value& key) const;

  std::size_t size() const { return rows_.size(); }
  std::size_t key_column() const { return key_column_; }

 private:
  static std::string KeyOf(const Value& v);

  std::size_t key_column_ = 0;
  std::unordered_map<std::string, std::size_t> rows_;
};

}  // namespace catmark

#endif  // CATMARK_RELATION_INDEX_H_
