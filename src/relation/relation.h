#ifndef CATMARK_RELATION_RELATION_H_
#define CATMARK_RELATION_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "relation/column_store.h"
#include "relation/schema.h"
#include "relation/value.h"

namespace catmark {

/// An in-memory relation: a schema plus N tuples. This is the object
/// watermarks are embedded into and detected from.
///
/// Storage is column-major (ColumnStore): categorical attributes — the
/// embedding channels — are dictionary-encoded int32 code vectors; other
/// INT64/DOUBLE attributes are raw 8-byte lanes with a NULL bitmap, and
/// other STRING attributes are per-column Value vectors. The
/// tuple-oriented API below reads and writes Values; hot paths read codes
/// and lanes directly via store().
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema)
      : schema_(std::move(schema)), store_(schema_) {}

  /// Adopts a fully-built store — the .catm load and parallel-ingest merge
  /// paths, which assemble the columnar storage directly and skip the
  /// row-at-a-time append path entirely. The store's layout must match the
  /// schema (column count and dict-vs-plain kinds, CHECKed); cell-level
  /// validation is the builder's responsibility.
  Relation(Schema schema, ColumnStore store);

  const Schema& schema() const { return schema_; }

  /// N — number of tuples.
  std::size_t NumRows() const { return store_.num_rows(); }
  bool empty() const { return store_.num_rows() == 0; }

  /// Appends a tuple after validating arity and (non-null) types.
  Status AppendRow(Row row);

  /// Appends without type validation — generator/attack hot path; the caller
  /// guarantees schema conformance (arity is still checked, and so is the
  /// type of a numeric plain cell, which its lane cannot hold otherwise).
  void AppendRowUnchecked(Row row) { store_.AppendRow(std::move(row)); }

  /// Bulk-appends `rows` (consumed) after validating the whole batch —
  /// atomic: on any arity/type error nothing is appended.
  Status AppendRows(std::span<Row> rows);

  void Reserve(std::size_t n) { store_.Reserve(n); }

  /// Bulk-appends rows `indices` of `other` (equal schemas required). The
  /// backbone of sampling/shuffle/sort/append ops: dictionary codes are
  /// translated instead of every cell being re-serialized and re-interned.
  /// `override` replaces one column's cells per appended row (see
  /// ColumnOverride); its size, column and value types are validated.
  /// Atomic: on any error nothing is appended.
  Status AppendRowsFrom(const Relation& other,
                        const std::vector<std::size_t>& indices,
                        const ColumnOverride& override = {});

  /// Drops every tuple, keeping the schema, the storage's capacity and the
  /// dictionaries (see ColumnStore::ClearRows).
  void ClearRows() { store_.ClearRows(); }

  /// Materializes tuple `i` as a Row of Value copies (the storage is
  /// columnar, so there is no stored Row to reference).
  Row row(std::size_t i) const { return store_.MaterializeRow(i); }

  /// Cell accessors (bounds-checked). Get returns the cell by value: a
  /// lane cell has no stored Value to refer to.
  Value Get(std::size_t row, std::size_t col) const {
    return store_.Get(row, col);
  }
  Status Set(std::size_t row, std::size_t col, Value v);

  /// Removes the row at `i` by swapping with the last row (order is not
  /// semantically meaningful for a relation).
  void SwapRemoveRow(std::size_t i) { store_.SwapRemoveRow(i); }

  /// True when both relations have equal schemas and equal row *multisets*
  /// (order-insensitive — Section 2.3 A4 makes order semantically void).
  /// Compares values, not dictionary codes: two stores whose dictionaries
  /// assigned codes in different insertion orders still compare equal.
  bool SameContent(const Relation& other) const;

  /// Columnar storage — the hot-path surface (codes, dictionaries, live
  /// counts). Mutating through mutable_store() bypasses schema validation.
  const ColumnStore& store() const { return store_; }
  ColumnStore& mutable_store() { return store_; }

 private:
  Schema schema_;
  ColumnStore store_;
};

}  // namespace catmark

#endif  // CATMARK_RELATION_RELATION_H_
