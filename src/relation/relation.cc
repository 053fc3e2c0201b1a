#include "relation/relation.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace catmark {

namespace {

/// The arity and (non-NULL) type check every validating append runs.
Status ValidateRow(const Schema& schema, const Row& row) {
  if (row.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema.num_columns()));
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null() && !row[i].MatchesType(schema.column(i).type)) {
      return Status::InvalidArgument(
          "value for column '" + schema.column(i).name + "' has wrong type");
    }
  }
  return Status::OK();
}

}  // namespace

Relation::Relation(Schema schema, ColumnStore store)
    : schema_(std::move(schema)), store_(std::move(store)) {
  CATMARK_CHECK_EQ(store_.num_columns(), schema_.num_columns());
  for (std::size_t c = 0; c < schema_.num_columns(); ++c) {
    const Column& column = schema_.column(c);
    CATMARK_CHECK_EQ(store_.IsDictColumn(c), column.categorical);
    CATMARK_CHECK_EQ(store_.IsLaneColumn(c),
                     !column.categorical && column.type != ColumnType::kString);
    if (store_.IsLaneColumn(c)) {
      CATMARK_CHECK(store_.Lane(c).type == column.type);
    }
  }
}

Status Relation::AppendRow(Row row) {
  CATMARK_RETURN_IF_ERROR(ValidateRow(schema_, row));
  store_.AppendRow(std::move(row));
  return Status::OK();
}

Status Relation::AppendRows(std::span<Row> rows) {
  for (const Row& row : rows) {
    CATMARK_RETURN_IF_ERROR(ValidateRow(schema_, row));
  }
  store_.AppendRows(rows);
  return Status::OK();
}

Status Relation::AppendRowsFrom(const Relation& other,
                                const std::vector<std::size_t>& indices,
                                const ColumnOverride& override) {
  if (!(schema_ == other.schema_)) {
    return Status::InvalidArgument("schema mismatch in AppendRowsFrom");
  }
  for (const std::size_t i : indices) {
    if (i >= other.NumRows()) return Status::OutOfRange("row index");
  }
  if (!override.values.empty()) {
    if (override.values.size() != indices.size()) {
      return Status::InvalidArgument(
          "override holds " + std::to_string(override.values.size()) +
          " values for " + std::to_string(indices.size()) + " rows");
    }
    if (override.col >= schema_.num_columns()) {
      return Status::OutOfRange("override column index");
    }
    const Column& column = schema_.column(override.col);
    for (const Value* v : override.values) {
      if (v != nullptr && !v->is_null() && !v->MatchesType(column.type)) {
        return Status::InvalidArgument("override value for column '" +
                                       column.name + "' has wrong type");
      }
    }
  }
  if (this == &other) {
    // Self-append: the bulk path would read the vectors it is growing.
    for (std::size_t k = 0; k < indices.size(); ++k) {
      Row row = other.row(indices[k]);
      if (!override.values.empty() && override.values[k] != nullptr) {
        row[override.col] = *override.values[k];
      }
      store_.AppendRow(std::move(row));
    }
    return Status::OK();
  }
  store_.AppendRowsFrom(other.store_, indices, override);
  return Status::OK();
}

Status Relation::Set(std::size_t row, std::size_t col, Value v) {
  if (row >= store_.num_rows()) return Status::OutOfRange("row index");
  if (col >= schema_.num_columns()) return Status::OutOfRange("column index");
  if (!v.is_null() && !v.MatchesType(schema_.column(col).type)) {
    return Status::InvalidArgument("value for column '" +
                                   schema_.column(col).name +
                                   "' has wrong type");
  }
  store_.Set(row, col, std::move(v));
  return Status::OK();
}

bool Relation::SameContent(const Relation& other) const {
  if (!(schema_ == other.schema_) || NumRows() != other.NumRows()) {
    return false;
  }
  const std::size_t n = NumRows();
  const std::size_t num_cols = schema_.num_columns();

  // Canonical per-row serialization, sorted and compared as multisets.
  // Dictionary columns serialize each dictionary entry once and append the
  // memoized bytes per row, so code assignment order (which depends on
  // insertion order) cannot leak into the comparison.
  const auto keys_of = [num_cols](const Relation& rel, std::size_t rows) {
    std::vector<std::string> dict_bytes;  // flattened per-column memo
    std::vector<std::string> keys(rows);
    for (std::size_t c = 0; c < num_cols; ++c) {
      std::vector<std::uint8_t> scratch;
      if (rel.store().IsDictColumn(c)) {
        const std::vector<Value>& dict = rel.store().Dict(c);
        dict_bytes.assign(dict.size(), {});
        for (std::size_t code = 0; code < dict.size(); ++code) {
          scratch.clear();
          dict[code].SerializeForHash(scratch);
          dict_bytes[code].assign(scratch.begin(), scratch.end());
        }
        scratch.clear();
        NullValue().SerializeForHash(scratch);
        const std::string null_bytes(scratch.begin(), scratch.end());
        const std::vector<std::int32_t>& codes = rel.store().Codes(c);
        for (std::size_t r = 0; r < rows; ++r) {
          keys[r] += codes[r] < 0
                         ? null_bytes
                         : dict_bytes[static_cast<std::size_t>(codes[r])];
        }
      } else {
        const ColumnReader reader(rel.store(), c);
        for (std::size_t r = 0; r < rows; ++r) {
          scratch.clear();
          reader.SerializeForHash(r, scratch);
          keys[r].append(scratch.begin(), scratch.end());
        }
      }
    }
    return keys;
  };

  std::vector<std::string> a = keys_of(*this, n);
  std::vector<std::string> b = keys_of(other, n);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace catmark
