#ifndef CATMARK_RELATION_COLUMN_STORE_H_
#define CATMARK_RELATION_COLUMN_STORE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/default_init.h"
#include "relation/schema.h"
#include "relation/value.h"

namespace catmark {

/// Transparent string hash: lets std::string-keyed maps probe with a
/// std::string_view (or char*) without materializing a key copy.
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// The shared NULL value.
const Value& NullValue();

/// Read-only view of a numeric plain column: one raw 8-byte word per row —
/// the int64's two's complement, or the double's bit pattern, so -0.0 and
/// NaN payloads survive exactly — plus the NULL bitmap. `null_words` is
/// empty while the column has never held a NULL; otherwise bit r of it
/// (bit r % 64 of word r / 64) marks row r NULL, and that row's word is 0.
/// The spans are valid until the column is next mutated.
struct NumericLane {
  ColumnType type = ColumnType::kInt64;
  std::span<const std::uint64_t> bits;
  std::span<const std::uint64_t> null_words;

  std::size_t size() const { return bits.size(); }
  bool IsNull(std::size_t row) const {
    return !null_words.empty() && ((null_words[row >> 6] >> (row & 63)) & 1);
  }
  /// The lane as int64 keys; only meaningful when type == kInt64.
  std::span<const std::int64_t> int64s() const {
    // Signed and unsigned variants of one integer type may alias.
    return {reinterpret_cast<const std::int64_t*>(bits.data()), bits.size()};
  }
  /// Row `row` as a Value (NULL, int64 or double).
  Value Get(std::size_t row) const {
    if (IsNull(row)) return Value();
    return LaneValue(type, bits[row]);
  }
};

/// A per-row replacement of one column during AppendRowsFrom: appended row k
/// takes `*values[k]` in column `col` instead of the source cell, unless
/// values[k] is null. `values` is parallel to the appended indices; an empty
/// span replaces nothing. The streaming insert path writes its marked
/// target values through this instead of materializing rows.
struct ColumnOverride {
  std::size_t col = 0;
  std::span<const Value* const> values;
};

/// Column-major tuple storage behind Relation.
///
/// Each categorical column is dictionary-encoded: cells are int32 codes into
/// a per-column dictionary of distinct values (code kNullCode marks NULL),
/// interned through a transparent-hash map over the values' canonical hash
/// serialization. The dictionary also tracks a live-occurrence count per
/// code, so "which distinct values are present, and how often" — domain
/// recovery, frequency histograms, the embedder's category-draining guard —
/// costs O(dictionary) instead of a full O(N) column scan.
///
/// Non-categorical columns (keys, measures) are mostly distinct, so a
/// dictionary would just add an indirection on every access; they are
/// stored plain instead. An INT64 or DOUBLE plain column is one raw 8-byte
/// lane per row plus a NULL bitmap allocated when the first NULL arrives
/// (see NumericLane): 8 bytes a row where a std::variant Value costs 40,
/// which is what a 2M-row key column pays in page faults on load and
/// release. A STRING plain column is a std::vector<Value>.
///
/// Cells are read by value (Get, ColumnReader): a lane cell has no Value
/// object to refer to.
///
/// The per-row arrays — a lane's words and a dictionary column's codes —
/// are DefaultInitVectors, so a bulk loader sizes them once without a
/// zero-fill and its workers first-touch their own rows. The rule: every
/// slot is written by its owner. The loaders (the CSV reader, the .catm
/// decoders) write every row of what they install; every resize inside
/// the store passes an explicit value. An array of 2 MB or more (a
/// 2M-row column) starts on a 2 MB boundary and is advised onto
/// transparent huge pages, whole huge pages only; where the kernel does
/// not grant them it is an ordinary allocation (see default_init.h).
///
/// Sion's channel is per-tuple-per-attribute, which makes the embed/detect
/// hot loops stream exactly one column at a time; the int32 code arrays keep
/// those passes cache-resident where row-of-Value storage thrashed.
class ColumnStore {
 public:
  static constexpr std::int32_t kNullCode = -1;

  ColumnStore() = default;

  /// Lays out one column per schema attribute: dictionary-encoded when
  /// `categorical`, else a numeric lane (INT64/DOUBLE) or a Value vector
  /// (STRING).
  explicit ColumnStore(const Schema& schema);

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_columns() const { return columns_.size(); }

  void Reserve(std::size_t n);

  /// Appends a tuple; `row.size()` must equal num_columns() (checked). A
  /// non-NULL cell of a numeric lane must hold the column's type (checked).
  void AppendRow(Row row);

  /// Bulk-appends `rows` (each of arity num_columns(), checked in one
  /// up-front sweep), consuming them. Column-major: each column's cells
  /// append in row order, so dictionary code assignment is identical to
  /// issuing the same AppendRow calls one at a time — only the per-row
  /// variant dispatch and map-growth churn are amortized away. The
  /// streaming insert path batches through this.
  void AppendRows(std::span<Row> rows);

  /// Bulk-appends rows `indices` of `src`, which must have the same column
  /// layout (checked) and not be this store. Dictionary columns intern each
  /// *referenced* source dictionary entry once and translate codes;
  /// plain columns copy lane words or values — no per-cell
  /// re-serialization, unlike
  /// the row-at-a-time path. `override` (size-checked) replaces cells of
  /// one column; overridden and copied cells intern in row order, so code
  /// assignment matches appending the resulting rows one at a time.
  void AppendRowsFrom(const ColumnStore& src,
                      const std::vector<std::size_t>& indices,
                      const ColumnOverride& override = {});

  /// Drops every row, keeping the column layout, the vectors' capacity and
  /// the dictionaries: their entries go dead (live count 0) and keep their
  /// codes, so refilling with recurring values interns nothing new.
  void ClearRows();

  /// Cell value, by value (NULL cells return a NULL Value).
  Value Get(std::size_t row, std::size_t col) const;

  /// Overwrites one cell. Only a numeric lane checks the type (it cannot
  /// hold any other); Relation validates every column on top.
  void Set(std::size_t row, std::size_t col, Value v);

  /// Removes row `i` by swapping the last row into its slot: O(columns).
  void SwapRemoveRow(std::size_t i);

  /// Materializes row `i` as a Row of Value copies.
  Row MaterializeRow(std::size_t i) const;

  // --- Columnar access (the hot-path surface) ------------------------------

  bool IsDictColumn(std::size_t col) const;

  /// Per-row dictionary codes of a dictionary column. The span stays valid
  /// across Set/SetCode/Intern (only elements change); appending or
  /// removing rows invalidates it.
  std::span<const std::int32_t> Codes(std::size_t col) const;

  /// code -> value dictionary of a dictionary column. Append-only: codes are
  /// never recycled, so an entry may outlive its last occurrence (its live
  /// count drops to 0 instead).
  const std::vector<Value>& Dict(std::size_t col) const;

  /// Rows currently holding each code (parallel to Dict). Entries with a
  /// zero count are "dead": interned but not present in any row.
  const std::vector<std::int64_t>& DictLiveCounts(std::size_t col) const;

  /// True for an INT64/DOUBLE plain column, stored as a NumericLane.
  bool IsLaneColumn(std::size_t col) const;

  /// The lane of a numeric plain column (checked).
  NumericLane Lane(std::size_t col) const;

  /// Per-row values of a STRING plain column (checked).
  const std::vector<Value>& StringValues(std::size_t col) const;

  /// Interns `v` into `col`'s dictionary without touching any row; returns
  /// its code. NULL interns as kNullCode.
  std::int32_t InternValue(std::size_t col, const Value& v);

  /// Code of `v` in `col`'s dictionary, or kNullCode when absent/NULL.
  std::int32_t CodeOf(std::size_t col, const Value& v) const;

  /// Cell code of a dictionary column (kNullCode for NULL cells).
  std::int32_t GetCode(std::size_t row, std::size_t col) const;

  /// Overwrites a dictionary cell by code; `code` must be kNullCode or a
  /// valid code for `col` (checked).
  void SetCode(std::size_t row, std::size_t col, std::int32_t code);

  // --- Wholesale column installation (the zero-re-intern load surface) -----
  //
  // The .catm loader and the CSV reader build columns elsewhere (from disk
  // sections / the CSV reader's in-place parse) and adopt them here
  // without touching the per-row intern path. Contract: the store must be
  // freshly constructed for the right schema (num_rows() == 0, CHECKed),
  // each column installed at most once, and FinalizeInstall called last —
  // a partially-installed store is not usable through the row API.
  //
  // Everything data-dependent is validated with a Status (the inputs come
  // from disk and must never crash the process): duplicate or NULL
  // dictionary entries, codes outside [kNullCode, dict size), and live
  // counts that disagree with the code vector all return InvalidArgument.
  // Code assignment is adopted verbatim — including dead (zero-live)
  // entries — so a loaded store is code-for-code identical to the one that
  // was serialized.

  /// Installs a dictionary column from pre-encoded parts; rebuilds the
  /// intern map from `dict` (O(dictionary), the only non-bulk work).
  Status InstallDictColumn(std::size_t col, std::vector<Value> dict,
                           std::vector<std::int64_t> live,
                           DefaultInitVector<std::int32_t> codes);

  /// Installs a numeric plain column's lane: `bits` as NumericLane
  /// describes, and `null_words` empty (no NULL) or exactly one word per 64
  /// rows with no bit set past the last row (checked).
  Status InstallLaneColumn(std::size_t col,
                           DefaultInitVector<std::uint64_t> bits,
                           std::vector<std::uint64_t> null_words);

  /// Installs a STRING plain column's per-row values.
  Status InstallStringColumn(std::size_t col, std::vector<Value> values);

  /// Verifies every column holds exactly `num_rows` cells and commits the
  /// row count; InvalidArgument (and the store stays inert) otherwise.
  Status FinalizeInstall(std::size_t num_rows);

 private:
  struct DictColumn {
    DefaultInitVector<std::int32_t> codes;  // per-row; kNullCode == NULL
    std::vector<Value> dict;                // code -> value, append-only
    std::vector<std::int64_t> live;         // code -> rows holding it
    // Canonical hash serialization of each dict value -> its code.
    std::unordered_map<std::string, std::int32_t, TransparentStringHash,
                       std::equal_to<>>
        code_of;
    // The last interned key and its code (kNullCode: none yet). Entries
    // are never removed, so the memo stays valid across calls.
    std::string last_key;
    std::int32_t last_code = kNullCode;
  };
  struct StringColumn {
    std::vector<Value> values;  // per-row
  };
  // Once allocated, null_words holds one word per 64 rows of `bits` and no
  // set bit past the last row; the members below keep it that way.
  struct LaneColumn {
    ColumnType type = ColumnType::kInt64;
    DefaultInitVector<std::uint64_t> bits;  // per-row; 0 in NULL slots
    std::vector<std::uint64_t> null_words;  // empty until the first NULL

    bool IsNull(std::size_t row) const {
      return !null_words.empty() &&
             ((null_words[row >> 6] >> (row & 63)) & 1);
    }
    // Row `row` (< bits.size()) becomes NULL / non-NULL in the bitmap; the
    // first MarkNull allocates it.
    void MarkNull(std::size_t row);
    void ClearNull(std::size_t row);
    // Re-fits an allocated bitmap to bits.size().
    void SyncNullWords();
    // Appends one cell (NULL or the lane's type, checked).
    void Push(const Value& v);
  };
  using AnyColumn = std::variant<DictColumn, StringColumn, LaneColumn>;

  DictColumn& dict_column(std::size_t col);
  const DictColumn& dict_column(std::size_t col) const;

  std::int32_t Intern(DictColumn& c, const Value& v);

  static std::size_t ColumnRows(const AnyColumn& column);

  std::vector<AnyColumn> columns_;
  std::size_t num_rows_ = 0;
  // Reused buffers of the single-threaded mutation path (readers never
  // touch them): the intern probe's serialization, and AppendRowsFrom's
  // source-code translation with the codes it translated.
  static constexpr std::int32_t kUntranslated = -2;
  std::vector<std::uint8_t> scratch_;
  std::vector<std::int32_t> xlate_;
  std::vector<std::int32_t> translated_;
};

/// Cheap positional cursor over one column for hot loops: resolves the
/// column's layout once at construction, then reads a row with one or two
/// indexed loads. `store` must outlive the reader, and the column must not
/// be mutated while it is in use.
class ColumnReader {
 public:
  ColumnReader(const ColumnStore& store, std::size_t col);

  /// Row `row`'s value, by value.
  Value operator[](std::size_t row) const {
    if (dict_ != nullptr) {
      const std::int32_t c = codes_[row];
      return c < 0 ? Value() : (*dict_)[static_cast<std::size_t>(c)];
    }
    if (values_ != nullptr) return (*values_)[row];
    return lane_.Get(row);
  }

  bool IsNull(std::size_t row) const {
    if (dict_ != nullptr) return codes_[row] < 0;
    if (values_ != nullptr) return (*values_)[row].is_null();
    return lane_.IsNull(row);
  }

  /// Appends row `row`'s Value::SerializeForHash bytes to `out` without
  /// materializing a Value.
  void SerializeForHash(std::size_t row, std::vector<std::uint8_t>& out) const;

  /// Row `row`'s canonical key bytes (Value::SerializeKeyInto), serialized
  /// into `scratch` (cleared first).
  std::string_view SerializeKeyInto(std::size_t row,
                                    std::vector<std::uint8_t>& scratch) const {
    scratch.clear();
    SerializeForHash(row, scratch);
    return {reinterpret_cast<const char*>(scratch.data()), scratch.size()};
  }

  bool is_dict() const { return dict_ != nullptr; }
  std::span<const std::int32_t> codes() const { return codes_; }
  const std::vector<Value>& dict() const { return *dict_; }

 private:
  std::span<const std::int32_t> codes_;     // dictionary column
  const std::vector<Value>* dict_ = nullptr;  // non-null iff a dict column
  const std::vector<Value>* values_ = nullptr;  // STRING plain column
  NumericLane lane_;                            // numeric plain column
};

}  // namespace catmark

#endif  // CATMARK_RELATION_COLUMN_STORE_H_
