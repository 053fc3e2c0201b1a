#include "relation/column_store.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace catmark {

namespace {

// Fewest rows a worker of the install check takes: below this a thread
// costs more to spawn than the tally it saves.
constexpr std::size_t kInstallRowsPerShard = std::size_t{1} << 14;

// Makes room for `n` more elements, geometrically when a batch overflows
// capacity: reserve(size + n) would set capacity *exactly*, so a steady
// stream of batch appends would reallocate (and copy) every column on every
// batch — O(N^2) growth.
template <typename Vec>
void GrowFor(Vec& vec, std::size_t n) {
  if (vec.size() + n > vec.capacity()) {
    vec.reserve(std::max(vec.size() + n, vec.capacity() * 2));
  }
}

/// A non-NULL cell's lane word; the value must hold the lane's type
/// (checked by the typed accessor).
std::uint64_t LaneBits(ColumnType type, const Value& v) {
  if (type == ColumnType::kInt64) {
    return static_cast<std::uint64_t>(v.AsInt64());
  }
  return std::bit_cast<std::uint64_t>(v.AsDouble());
}

constexpr std::size_t WordsFor(std::size_t rows) { return (rows + 63) / 64; }

}  // namespace

const Value& NullValue() {
  static const Value kNull;
  return kNull;
}

void ColumnStore::LaneColumn::MarkNull(std::size_t row) {
  null_words.resize(WordsFor(bits.size()), 0);
  null_words[row >> 6] |= std::uint64_t{1} << (row & 63);
}

void ColumnStore::LaneColumn::ClearNull(std::size_t row) {
  if (!null_words.empty()) {
    null_words[row >> 6] &= ~(std::uint64_t{1} << (row & 63));
  }
}

void ColumnStore::LaneColumn::SyncNullWords() {
  if (!null_words.empty()) null_words.resize(WordsFor(bits.size()), 0);
}

void ColumnStore::LaneColumn::Push(const Value& v) {
  if (v.is_null()) {
    bits.push_back(0);
    MarkNull(bits.size() - 1);
    return;
  }
  bits.push_back(LaneBits(type, v));
  SyncNullWords();
}

ColumnStore::ColumnStore(const Schema& schema) {
  columns_.reserve(schema.num_columns());
  for (std::size_t c = 0; c < schema.num_columns(); ++c) {
    const Column& column = schema.column(c);
    if (column.categorical) {
      columns_.emplace_back(DictColumn{});
    } else if (column.type == ColumnType::kString) {
      columns_.emplace_back(StringColumn{});
    } else {
      columns_.emplace_back(LaneColumn{column.type, {}, {}});
    }
  }
}

std::size_t ColumnStore::ColumnRows(const AnyColumn& column) {
  if (const auto* d = std::get_if<DictColumn>(&column)) return d->codes.size();
  if (const auto* p = std::get_if<StringColumn>(&column)) {
    return p->values.size();
  }
  return std::get<LaneColumn>(column).bits.size();
}

void ColumnStore::Reserve(std::size_t n) {
  for (auto& col : columns_) {
    if (auto* d = std::get_if<DictColumn>(&col)) {
      d->codes.reserve(n);
    } else if (auto* p = std::get_if<StringColumn>(&col)) {
      p->values.reserve(n);
    } else {
      std::get<LaneColumn>(col).bits.reserve(n);
    }
  }
}

std::int32_t ColumnStore::Intern(DictColumn& c, const Value& v) {
  const std::string_view key = v.SerializeKeyInto(scratch_);
  // Appended cells tend to come in runs of one value (a streamed feed, a
  // marked domain), so the last interned key skips the map probe. Comparing
  // serialized bytes (not Value equality) keeps code assignment exact:
  // -0.0 == 0.0 as doubles but they serialize differently.
  if (c.last_code != kNullCode && key == c.last_key) return c.last_code;
  std::int32_t code;
  if (const auto it = c.code_of.find(key); it != c.code_of.end()) {
    code = it->second;
  } else {
    CATMARK_CHECK_LT(c.dict.size(),
                     static_cast<std::size_t>(
                         std::numeric_limits<std::int32_t>::max()));
    code = static_cast<std::int32_t>(c.dict.size());
    c.dict.push_back(v);
    c.live.push_back(0);
    c.code_of.emplace(std::string(key), code);
  }
  c.last_key.assign(key);
  c.last_code = code;
  return code;
}

void ColumnStore::AppendRow(Row row) {
  CATMARK_CHECK_EQ(row.size(), columns_.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (auto* d = std::get_if<DictColumn>(&columns_[i])) {
      if (row[i].is_null()) {
        d->codes.push_back(kNullCode);
      } else {
        const std::int32_t code = Intern(*d, row[i]);
        d->codes.push_back(code);
        ++d->live[static_cast<std::size_t>(code)];
      }
    } else if (auto* p = std::get_if<StringColumn>(&columns_[i])) {
      p->values.push_back(std::move(row[i]));
    } else {
      std::get<LaneColumn>(columns_[i]).Push(row[i]);
    }
  }
  ++num_rows_;
}

void ColumnStore::AppendRows(std::span<Row> rows) {
  for (const Row& row : rows) CATMARK_CHECK_EQ(row.size(), columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (auto* d = std::get_if<DictColumn>(&columns_[c])) {
      GrowFor(d->codes, rows.size());
      for (Row& row : rows) {
        if (row[c].is_null()) {
          d->codes.push_back(kNullCode);
          continue;
        }
        const std::int32_t code = Intern(*d, row[c]);
        d->codes.push_back(code);
        ++d->live[static_cast<std::size_t>(code)];
      }
    } else if (auto* p = std::get_if<StringColumn>(&columns_[c])) {
      GrowFor(p->values, rows.size());
      for (Row& row : rows) p->values.push_back(std::move(row[c]));
    } else {
      LaneColumn& lane = std::get<LaneColumn>(columns_[c]);
      GrowFor(lane.bits, rows.size());
      for (const Row& row : rows) lane.Push(row[c]);
    }
  }
  num_rows_ += rows.size();
}

void ColumnStore::AppendRowsFrom(const ColumnStore& src,
                                 const std::vector<std::size_t>& indices,
                                 const ColumnOverride& override) {
  CATMARK_CHECK(this != &src) << "self-append requires the row path";
  CATMARK_CHECK_EQ(columns_.size(), src.columns_.size());
  // One validation pass; the per-column copy loops below can then index
  // unchecked.
  for (const std::size_t i : indices) CATMARK_CHECK_LT(i, src.num_rows_);
  if (!override.values.empty()) {
    CATMARK_CHECK_LT(override.col, columns_.size());
    CATMARK_CHECK_EQ(override.values.size(), indices.size());
  }
  const std::size_t n = indices.size();
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    CATMARK_CHECK_EQ(columns_[c].index(), src.columns_[c].index());
    const Value* const* over =
        c == override.col && !override.values.empty() ? override.values.data()
                                                      : nullptr;
    if (auto* d = std::get_if<DictColumn>(&columns_[c])) {
      const DictColumn& s = std::get<DictColumn>(src.columns_[c]);
      // Lazily translate source codes: each referenced dictionary entry is
      // interned once, however many rows carry it. Overridden cells intern
      // in row order between them, exactly where the row path would.
      // xlate_ reads kUntranslated everywhere between calls — the entries
      // translated here are reset below — so a small append from a large
      // dictionary costs O(rows), not O(dictionary).
      std::vector<std::int32_t>& xlate = xlate_;
      if (xlate.size() < s.dict.size()) {
        xlate.resize(s.dict.size(), kUntranslated);
      }
      translated_.clear();
      GrowFor(d->codes, n);
      for (std::size_t k = 0; k < n; ++k) {
        std::int32_t code;
        if (over != nullptr && over[k] != nullptr) {
          code = over[k]->is_null() ? kNullCode : Intern(*d, *over[k]);
        } else {
          code = s.codes[indices[k]];
          if (code >= 0) {
            std::int32_t& mapped = xlate[static_cast<std::size_t>(code)];
            if (mapped == kUntranslated) {
              mapped = Intern(*d, s.dict[static_cast<std::size_t>(code)]);
              translated_.push_back(code);
            }
            code = mapped;
          }
        }
        d->codes.push_back(code);
        if (code >= 0) ++d->live[static_cast<std::size_t>(code)];
      }
      for (const std::int32_t code : translated_) {
        xlate[static_cast<std::size_t>(code)] = kUntranslated;
      }
    } else if (auto* p = std::get_if<StringColumn>(&columns_[c])) {
      auto& values = p->values;
      const auto& s = std::get<StringColumn>(src.columns_[c]).values;
      GrowFor(values, n);
      if (over == nullptr) {
        for (const std::size_t i : indices) values.push_back(s[i]);
      } else {
        for (std::size_t k = 0; k < n; ++k) {
          values.push_back(over[k] != nullptr ? *over[k] : s[indices[k]]);
        }
      }
    } else {
      LaneColumn& d = std::get<LaneColumn>(columns_[c]);
      const LaneColumn& s = std::get<LaneColumn>(src.columns_[c]);
      CATMARK_CHECK(d.type == s.type);
      GrowFor(d.bits, n);
      for (std::size_t k = 0; k < n; ++k) {
        if (over != nullptr && over[k] != nullptr) {
          d.Push(*over[k]);
        } else if (s.IsNull(indices[k])) {
          d.bits.push_back(0);
          d.MarkNull(d.bits.size() - 1);
        } else {
          d.bits.push_back(s.bits[indices[k]]);
        }
      }
      d.SyncNullWords();
    }
  }
  num_rows_ += n;
}

void ColumnStore::ClearRows() {
  for (auto& col : columns_) {
    if (auto* d = std::get_if<DictColumn>(&col)) {
      for (const std::int32_t code : d->codes) {
        if (code >= 0) --d->live[static_cast<std::size_t>(code)];
      }
      d->codes.clear();
    } else if (auto* p = std::get_if<StringColumn>(&col)) {
      p->values.clear();
    } else {
      LaneColumn& lane = std::get<LaneColumn>(col);
      lane.bits.clear();
      lane.null_words.clear();
    }
  }
  num_rows_ = 0;
}

Value ColumnStore::Get(std::size_t row, std::size_t col) const {
  CATMARK_CHECK_LT(row, num_rows_);
  CATMARK_CHECK_LT(col, columns_.size());
  if (const auto* d = std::get_if<DictColumn>(&columns_[col])) {
    const std::int32_t c = d->codes[row];
    return c < 0 ? Value() : d->dict[static_cast<std::size_t>(c)];
  }
  if (const auto* p = std::get_if<StringColumn>(&columns_[col])) {
    return p->values[row];
  }
  const LaneColumn& lane = std::get<LaneColumn>(columns_[col]);
  if (lane.IsNull(row)) return Value();
  return LaneValue(lane.type, lane.bits[row]);
}

void ColumnStore::Set(std::size_t row, std::size_t col, Value v) {
  CATMARK_CHECK_LT(row, num_rows_);
  CATMARK_CHECK_LT(col, columns_.size());
  if (auto* d = std::get_if<DictColumn>(&columns_[col])) {
    const std::int32_t code = v.is_null() ? kNullCode : Intern(*d, v);
    const std::int32_t old = d->codes[row];
    if (old >= 0) --d->live[static_cast<std::size_t>(old)];
    if (code >= 0) ++d->live[static_cast<std::size_t>(code)];
    d->codes[row] = code;
    return;
  }
  if (auto* p = std::get_if<StringColumn>(&columns_[col])) {
    p->values[row] = std::move(v);
    return;
  }
  LaneColumn& lane = std::get<LaneColumn>(columns_[col]);
  if (v.is_null()) {
    lane.bits[row] = 0;
    lane.MarkNull(row);
  } else {
    lane.bits[row] = LaneBits(lane.type, v);
    lane.ClearNull(row);
  }
}

void ColumnStore::SwapRemoveRow(std::size_t i) {
  CATMARK_CHECK_LT(i, num_rows_);
  const std::size_t last = num_rows_ - 1;
  for (auto& col : columns_) {
    if (auto* d = std::get_if<DictColumn>(&col)) {
      const std::int32_t removed = d->codes[i];
      if (removed >= 0) --d->live[static_cast<std::size_t>(removed)];
      d->codes[i] = d->codes[last];
      d->codes.pop_back();
    } else if (auto* p = std::get_if<StringColumn>(&col)) {
      p->values[i] = std::move(p->values[last]);
      p->values.pop_back();
    } else {
      LaneColumn& lane = std::get<LaneColumn>(col);
      const bool last_null = lane.IsNull(last);
      lane.bits[i] = lane.bits[last];
      if (last_null) {
        lane.MarkNull(i);
      } else {
        lane.ClearNull(i);
      }
      lane.ClearNull(last);
      lane.bits.pop_back();
      lane.SyncNullWords();
    }
  }
  --num_rows_;
}

Row ColumnStore::MaterializeRow(std::size_t i) const {
  CATMARK_CHECK_LT(i, num_rows_);
  Row row;
  row.reserve(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) row.push_back(Get(i, c));
  return row;
}

bool ColumnStore::IsDictColumn(std::size_t col) const {
  CATMARK_CHECK_LT(col, columns_.size());
  return std::holds_alternative<DictColumn>(columns_[col]);
}

ColumnStore::DictColumn& ColumnStore::dict_column(std::size_t col) {
  CATMARK_CHECK_LT(col, columns_.size());
  auto* d = std::get_if<DictColumn>(&columns_[col]);
  CATMARK_CHECK(d != nullptr) << "column " << col << " is not dict-encoded";
  return *d;
}

const ColumnStore::DictColumn& ColumnStore::dict_column(
    std::size_t col) const {
  CATMARK_CHECK_LT(col, columns_.size());
  const auto* d = std::get_if<DictColumn>(&columns_[col]);
  CATMARK_CHECK(d != nullptr) << "column " << col << " is not dict-encoded";
  return *d;
}

std::span<const std::int32_t> ColumnStore::Codes(std::size_t col) const {
  return dict_column(col).codes;
}

const std::vector<Value>& ColumnStore::Dict(std::size_t col) const {
  return dict_column(col).dict;
}

const std::vector<std::int64_t>& ColumnStore::DictLiveCounts(
    std::size_t col) const {
  return dict_column(col).live;
}

bool ColumnStore::IsLaneColumn(std::size_t col) const {
  CATMARK_CHECK_LT(col, columns_.size());
  return std::holds_alternative<LaneColumn>(columns_[col]);
}

NumericLane ColumnStore::Lane(std::size_t col) const {
  CATMARK_CHECK_LT(col, columns_.size());
  const auto* lane = std::get_if<LaneColumn>(&columns_[col]);
  CATMARK_CHECK(lane != nullptr) << "column " << col << " is not a lane";
  return NumericLane{lane->type, lane->bits, lane->null_words};
}

const std::vector<Value>& ColumnStore::StringValues(std::size_t col) const {
  CATMARK_CHECK_LT(col, columns_.size());
  const auto* p = std::get_if<StringColumn>(&columns_[col]);
  CATMARK_CHECK(p != nullptr) << "column " << col
                              << " is not a plain STRING column";
  return p->values;
}

std::int32_t ColumnStore::InternValue(std::size_t col, const Value& v) {
  if (v.is_null()) return kNullCode;
  return Intern(dict_column(col), v);
}

std::int32_t ColumnStore::CodeOf(std::size_t col, const Value& v) const {
  if (v.is_null()) return kNullCode;
  const DictColumn& d = dict_column(col);
  std::vector<std::uint8_t> scratch;
  const auto it = d.code_of.find(v.SerializeKeyInto(scratch));
  return it == d.code_of.end() ? kNullCode : it->second;
}

std::int32_t ColumnStore::GetCode(std::size_t row, std::size_t col) const {
  CATMARK_CHECK_LT(row, num_rows_);
  return dict_column(col).codes[row];
}

void ColumnStore::SetCode(std::size_t row, std::size_t col,
                          std::int32_t code) {
  CATMARK_CHECK_LT(row, num_rows_);
  DictColumn& d = dict_column(col);
  CATMARK_CHECK(code >= kNullCode &&
                code < static_cast<std::int32_t>(d.dict.size()));
  const std::int32_t old = d.codes[row];
  if (old >= 0) --d.live[static_cast<std::size_t>(old)];
  if (code >= 0) ++d.live[static_cast<std::size_t>(code)];
  d.codes[row] = code;
}

Status ColumnStore::InstallDictColumn(std::size_t col,
                                      std::vector<Value> dict,
                                      std::vector<std::int64_t> live,
                                      DefaultInitVector<std::int32_t> codes) {
  CATMARK_CHECK_EQ(num_rows_, 0u) << "install on a non-fresh store";
  CATMARK_CHECK_LT(col, columns_.size());
  auto* d = std::get_if<DictColumn>(&columns_[col]);
  CATMARK_CHECK(d != nullptr) << "column " << col << " is not dict-encoded";
  CATMARK_CHECK(d->codes.empty() && d->dict.empty())
      << "column " << col << " installed twice";
  if (live.size() != dict.size()) {
    return Status::InvalidArgument(
        "dict column: live-count array does not match dictionary size");
  }
  // Rebuild the intern map; a duplicate canonical key means two codes would
  // alias one value and future interns could not reproduce the assignment.
  d->code_of.reserve(dict.size());
  for (std::size_t i = 0; i < dict.size(); ++i) {
    if (dict[i].is_null()) {
      return Status::InvalidArgument("dict column: NULL dictionary entry");
    }
    const std::string_view key = dict[i].SerializeKeyInto(scratch_);
    if (!d->code_of.emplace(std::string(key), static_cast<std::int32_t>(i))
             .second) {
      return Status::InvalidArgument(
          "dict column: duplicate dictionary entry");
    }
  }
  // Codes must land inside the dictionary and explain the live counts
  // exactly — live counts are stored (not derived) so a corrupted-but-
  // checksum-valid mismatch is treated as a malformed file, not repaired.
  // Row shards tally in parallel, one dictionary-sized tally each; the
  // shard count keeps all tallies within the code array's own bytes
  // (8 * shards * entries <= 4 * rows). Any out-of-range code is reported
  // before any count mismatch, at every shard count.
  const std::size_t rows = codes.size();
  const std::size_t entries = dict.size();
  const std::size_t shards = EffectiveThreadCount(
      0, std::max<std::size_t>(
             1, std::min(rows / kInstallRowsPerShard,
                         entries == 0 ? rows : rows / (2 * entries))));
  std::vector<std::int64_t> tallies(shards * entries, 0);
  std::vector<char> out_of_range(shards, 0);
  ParallelFor(rows, shards,
              [&](std::size_t s, std::size_t begin, std::size_t end) {
                std::int64_t* const tally = tallies.data() + s * entries;
                for (std::size_t r = begin; r < end; ++r) {
                  const std::int32_t code = codes[r];
                  if (code == kNullCode) continue;
                  if (code < 0 || static_cast<std::size_t>(code) >= entries) {
                    out_of_range[s] = 1;
                    return;
                  }
                  ++tally[static_cast<std::size_t>(code)];
                }
              });
  if (std::find(out_of_range.begin(), out_of_range.end(), 1) !=
      out_of_range.end()) {
    return Status::InvalidArgument("dict column: code out of range");
  }
  for (std::size_t s = 1; s < shards; ++s) {
    for (std::size_t i = 0; i < entries; ++i) {
      tallies[i] += tallies[s * entries + i];
    }
  }
  if (!std::equal(live.begin(), live.end(), tallies.begin())) {
    return Status::InvalidArgument(
        "dict column: live counts disagree with the code vector");
  }
  d->dict = std::move(dict);
  d->live = std::move(live);
  d->codes = std::move(codes);
  return Status::OK();
}

Status ColumnStore::InstallLaneColumn(std::size_t col,
                                      DefaultInitVector<std::uint64_t> bits,
                                      std::vector<std::uint64_t> null_words) {
  CATMARK_CHECK_EQ(num_rows_, 0u) << "install on a non-fresh store";
  CATMARK_CHECK_LT(col, columns_.size());
  auto* lane = std::get_if<LaneColumn>(&columns_[col]);
  CATMARK_CHECK(lane != nullptr) << "column " << col << " is not a lane";
  CATMARK_CHECK(lane->bits.empty()) << "column " << col << " installed twice";
  if (!null_words.empty()) {
    CATMARK_CHECK_EQ(null_words.size(), WordsFor(bits.size()));
    CATMARK_CHECK(bits.size() % 64 == 0 ||
                  null_words.back() >> (bits.size() % 64) == 0)
        << "NULL bit set past the last row";
  }
  lane->bits = std::move(bits);
  lane->null_words = std::move(null_words);
  return Status::OK();
}

Status ColumnStore::InstallStringColumn(std::size_t col,
                                        std::vector<Value> values) {
  CATMARK_CHECK_EQ(num_rows_, 0u) << "install on a non-fresh store";
  CATMARK_CHECK_LT(col, columns_.size());
  auto* p = std::get_if<StringColumn>(&columns_[col]);
  CATMARK_CHECK(p != nullptr) << "column " << col
                              << " is not a plain STRING column";
  CATMARK_CHECK(p->values.empty()) << "column " << col << " installed twice";
  p->values = std::move(values);
  return Status::OK();
}

Status ColumnStore::FinalizeInstall(std::size_t num_rows) {
  CATMARK_CHECK_EQ(num_rows_, 0u) << "finalize on a non-fresh store";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    const std::size_t rows = ColumnRows(columns_[c]);
    if (rows != num_rows) {
      return Status::InvalidArgument(
          "column " + std::to_string(c) + " holds " + std::to_string(rows) +
          " rows, expected " + std::to_string(num_rows));
    }
  }
  num_rows_ = num_rows;
  return Status::OK();
}

ColumnReader::ColumnReader(const ColumnStore& store, std::size_t col) {
  if (store.IsDictColumn(col)) {
    codes_ = store.Codes(col);
    dict_ = &store.Dict(col);
  } else if (store.IsLaneColumn(col)) {
    lane_ = store.Lane(col);
  } else {
    values_ = &store.StringValues(col);
  }
}

void ColumnReader::SerializeForHash(std::size_t row,
                                    std::vector<std::uint8_t>& out) const {
  if (dict_ != nullptr) {
    const std::int32_t c = codes_[row];
    (c < 0 ? NullValue() : (*dict_)[static_cast<std::size_t>(c)])
        .SerializeForHash(out);
  } else if (values_ != nullptr) {
    (*values_)[row].SerializeForHash(out);
  } else if (lane_.IsNull(row)) {
    NullValue().SerializeForHash(out);
  } else {
    const std::size_t at = out.size();
    out.resize(at + 9);
    Value::SerializeNumberTo(lane_.type, lane_.bits[row], out.data() + at);
  }
}

}  // namespace catmark
