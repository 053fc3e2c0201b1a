#ifndef CATMARK_RELATION_SCHEMA_H_
#define CATMARK_RELATION_SCHEMA_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relation/value.h"

namespace catmark {

/// Longest column name Schema::Create accepts, in bytes: the .catm format
/// stores each name's length in a u16.
inline constexpr std::size_t kMaxColumnNameBytes = 0xFFFF;

/// One attribute of the relation. `categorical` marks discrete attributes —
/// the watermark embedding channels of this library. The paper's schema is
/// (K, A, B) with K the primary key and A, B categorical.
struct Column {
  std::string name;
  ColumnType type = ColumnType::kString;
  bool categorical = false;
};

/// Immutable description of a relation's attributes, with an optional
/// primary key designation.
class Schema {
 public:
  Schema() = default;

  /// Builds a schema. `primary_key` may be empty (no PK — e.g. after a
  /// vertical partitioning attack dropped it); otherwise it must name one of
  /// the columns. Column names must be unique, non-empty and at most
  /// kMaxColumnNameBytes long.
  static Result<Schema> Create(std::vector<Column> columns,
                               std::string_view primary_key = "");

  std::size_t num_columns() const { return columns_.size(); }
  const Column& column(std::size_t i) const;
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of `name`, or -1 when absent.
  int ColumnIndex(std::string_view name) const;

  /// Index of `name`, or NotFound.
  Result<std::size_t> ColumnIndexOrError(std::string_view name) const;

  /// Index of the primary key column, or -1 when the schema has none.
  int primary_key_index() const { return primary_key_index_; }
  bool has_primary_key() const { return primary_key_index_ >= 0; }

  /// Indices of all categorical columns.
  std::vector<std::size_t> CategoricalColumns() const;

  /// "name TYPE [CATEGORICAL] [PRIMARY KEY], ..." — for diagnostics.
  std::string ToString() const;

  friend bool operator==(const Schema& a, const Schema& b);

 private:
  std::vector<Column> columns_;
  int primary_key_index_ = -1;
};

}  // namespace catmark

#endif  // CATMARK_RELATION_SCHEMA_H_
