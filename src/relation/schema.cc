#include "relation/schema.h"

#include <unordered_set>

#include "common/check.h"

namespace catmark {

Result<Schema> Schema::Create(std::vector<Column> columns,
                              std::string_view primary_key) {
  if (columns.empty()) {
    return Status::InvalidArgument("schema needs at least one column");
  }
  std::unordered_set<std::string> names;
  for (const Column& c : columns) {
    if (c.name.empty()) {
      return Status::InvalidArgument("column names must be non-empty");
    }
    if (c.name.size() > kMaxColumnNameBytes) {
      return Status::InvalidArgument(
          "column name of " + std::to_string(c.name.size()) +
          " bytes exceeds the " + std::to_string(kMaxColumnNameBytes) +
          "-byte limit");
    }
    if (!names.insert(c.name).second) {
      return Status::AlreadyExists("duplicate column name '" + c.name + "'");
    }
  }
  Schema s;
  s.columns_ = std::move(columns);
  if (!primary_key.empty()) {
    s.primary_key_index_ = s.ColumnIndex(primary_key);
    if (s.primary_key_index_ < 0) {
      return Status::NotFound("primary key column '" +
                              std::string(primary_key) + "' not in schema");
    }
  }
  return s;
}

const Column& Schema::column(std::size_t i) const {
  CATMARK_CHECK_LT(i, columns_.size());
  return columns_[i];
}

int Schema::ColumnIndex(std::string_view name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Result<std::size_t> Schema::ColumnIndexOrError(std::string_view name) const {
  const int idx = ColumnIndex(name);
  if (idx < 0) {
    return Status::NotFound("column '" + std::string(name) + "' not found");
  }
  return static_cast<std::size_t>(idx);
}

std::vector<std::size_t> Schema::CategoricalColumns() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].categorical) out.push_back(i);
  }
  return out;
}

std::string Schema::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += ' ';
    out += ColumnTypeName(columns_[i].type);
    if (columns_[i].categorical) out += " CATEGORICAL";
    if (static_cast<int>(i) == primary_key_index_) out += " PRIMARY KEY";
  }
  return out;
}

bool operator==(const Schema& a, const Schema& b) {
  if (a.primary_key_index_ != b.primary_key_index_ ||
      a.columns_.size() != b.columns_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.columns_.size(); ++i) {
    if (a.columns_[i].name != b.columns_[i].name ||
        a.columns_[i].type != b.columns_[i].type ||
        a.columns_[i].categorical != b.columns_[i].categorical) {
      return false;
    }
  }
  return true;
}

}  // namespace catmark
