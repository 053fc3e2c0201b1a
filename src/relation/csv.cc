#include "relation/csv.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "relation/catm_io.h"
#include "relation/column_store.h"

namespace catmark {

namespace {

bool NeedsQuoting(std::string_view field) {
  return field.find_first_of(",\"\n\r") != std::string_view::npos;
}

void AppendField(std::string_view field, std::string& out) {
  if (!NeedsQuoting(field)) {
    out.append(field);
    return;
  }
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

constexpr std::int32_t kNullCode = ColumnStore::kNullCode;

/// Bytes that end an unquoted run of the record scan.
constexpr std::array<bool, 256> kStopBytes = [] {
  std::array<bool, 256> stop{};
  for (const unsigned char c : {',', '"', '\n', '\r'}) stop[c] = true;
  return stop;
}();

/// The first byte at or after `p` that ends an unquoted run — ',', '"',
/// '\n' or '\r' — or `end`.
const char* FindStop(const char* p, const char* end) {
  while (p != end && !kStopBytes[static_cast<unsigned char>(*p)]) ++p;
  return p;
}

/// One field of a record: its bytes in the input, quotes and all.
struct FieldSpan {
  std::string_view raw;
  bool quoted = false;  // raw holds a '"'; the value is Unescape(raw)
};

/// Appends the value of a quoted field to `out`. Outside a quoted run a '"'
/// opens one; inside, "" is a literal quote and a lone '"' closes it.
void Unescape(std::string_view raw, std::string& out) {
  bool in_quotes = false;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    if (c != '"') {
      out.push_back(c);
    } else if (in_quotes && i + 1 < raw.size() && raw[i + 1] == '"') {
      out.push_back('"');
      ++i;
    } else {
      in_quotes = !in_quotes;
    }
  }
}

/// The value of `field`: its raw bytes, or its unescaped bytes in `scratch`
/// when it is quoted.
std::string_view FieldValue(const FieldSpan& field, std::string& scratch) {
  if (!field.quoted) return field.raw;
  scratch.clear();
  Unescape(field.raw, scratch);
  return scratch;
}

/// Splits the record at `p` (< end) into fields: the first fields.size()
/// are stored, all are counted in `count`. `p` advances past the record's
/// terminator — \n, \r\n or a lone \r — or to the end of the input. A
/// quoted run may hold any byte and is skipped with memchr; every '"'
/// toggles quoting, which is what ChunkStarts relies on. False when the
/// input ends inside a quoted run.
bool SplitRecord(const char*& p, const char* end, std::span<FieldSpan> fields,
                 std::size_t& count) {
  count = 0;
  const char* field = p;
  bool quoted = false;
  const auto finish_field = [&] {
    if (count < fields.size()) {
      fields[count] = {{field, static_cast<std::size_t>(p - field)}, quoted};
    }
    ++count;
  };
  for (;;) {
    p = FindStop(p, end);
    if (p == end) {
      finish_field();
      return true;
    }
    const char c = *p;
    if (c == '"') {
      quoted = true;
      // `p` is on the quote that opens the run, then on the second quote of
      // each escaped "" pair inside it.
      do {
        const void* close = std::memchr(p + 1, '"', end - p - 1);
        if (close == nullptr) return false;
        p = static_cast<const char*>(close) + 1;
      } while (p != end && *p == '"');
      continue;
    }
    finish_field();
    ++p;
    if (c == ',') {
      field = p;
      quoted = false;
      continue;
    }
    if (c == '\r' && p != end && *p == '\n') ++p;
    return true;
  }
}

/// Parses and verifies the header row; `pos` advances past it.
Status ReadHeader(std::string_view text, const Schema& schema,
                  std::size_t& pos) {
  if (text.empty()) return Status::IoError("CSV: missing header row");
  std::vector<FieldSpan> fields(schema.num_columns());
  std::size_t count = 0;
  const char* p = text.data();
  if (!SplitRecord(p, text.data() + text.size(), fields, count)) {
    return Status::InvalidArgument("CSV: unterminated quoted field");
  }
  pos = static_cast<std::size_t>(p - text.data());
  if (count != fields.size()) {
    return Status::IoError("CSV: header arity mismatch");
  }
  std::string scratch;
  for (std::size_t c = 0; c < fields.size(); ++c) {
    const std::string_view name = FieldValue(fields[c], scratch);
    if (name != schema.column(c).name) {
      return Status::IoError("CSV: header column '" + std::string(name) +
                             "' != schema column '" + schema.column(c).name +
                             "'");
    }
  }
  return Status::OK();
}

/// Bucket hash of a dictionary key: the 8-byte word, or the bytes folded
/// in 8 at a time, each step mixed by a multiply and a shift.
std::uint64_t Mix(std::uint64_t h) {
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}
std::uint64_t KeyHash(std::uint64_t word) { return Mix(word); }
std::uint64_t KeyHash(std::string_view bytes) {
  std::uint64_t h = bytes.size();
  std::size_t at = 0;
  for (; at + 8 <= bytes.size(); at += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + at, 8);
    h = Mix(h ^ word);
  }
  if (at < bytes.size()) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + at, bytes.size() - at);
    h = Mix(h ^ word);
  }
  return Mix(h);
}

/// A dictionary under construction: keys in first-occurrence order, so a
/// key's code is its index, each with its live count. Lookups probe a
/// power-of-two table of codes linearly; it is kept at most half full.
template <typename Key>
struct DictBuilder {
  std::vector<Key> keys;
  std::vector<std::int64_t> live;
  std::vector<std::int32_t> slots;  // a code, or kNullCode when empty

  /// The code of `key`, and whether this call added it.
  std::pair<std::int32_t, bool> FindOrAdd(Key key) {
    if (slots.empty()) slots.assign(64, kNullCode);
    const std::size_t mask = slots.size() - 1;
    std::size_t i = KeyHash(key) & mask;
    for (; slots[i] != kNullCode; i = (i + 1) & mask) {
      if (keys[static_cast<std::size_t>(slots[i])] == key) {
        return {slots[i], false};
      }
    }
    CATMARK_CHECK_LT(keys.size(), static_cast<std::size_t>(
                                      std::numeric_limits<std::int32_t>::max()));
    const auto code = static_cast<std::int32_t>(keys.size());
    keys.push_back(key);
    live.push_back(0);
    slots[i] = code;
    if (keys.size() * 2 > slots.size()) Rehash(slots.size() * 2);
    return {code, true};
  }

 private:
  void Rehash(std::size_t size) {
    slots.assign(size, kNullCode);
    const std::size_t mask = size - 1;
    for (std::size_t code = 0; code < keys.size(); ++code) {
      std::size_t i = KeyHash(keys[code]) & mask;
      while (slots[i] != kNullCode) i = (i + 1) & mask;
      slots[i] = static_cast<std::int32_t>(code);
    }
  }
};

/// One column's cells from one chunk of the input, in the column's stored
/// form: a numeric lane, codes into a chunk-local dictionary keyed by the
/// 8-byte word (INT64/DOUBLE) or the unescaped bytes (STRING), or STRING
/// Values.
struct ColumnSink {
  enum class Kind { kLane, kNumberDict, kStringDict, kStrings };
  Kind kind = Kind::kLane;
  ColumnType type = ColumnType::kInt64;
  std::vector<std::uint64_t> bits;        // kLane; 0 in NULL rows
  std::vector<std::uint64_t> null_words;  // kLane; grown at each NULL
  std::vector<std::int32_t> codes;        // the dictionary kinds
  DictBuilder<std::uint64_t> numbers;     // kNumberDict
  // kStringDict. A key views the input when its field had no quotes, else
  // its unescaped copy in `owned` (a deque: elements never move).
  DictBuilder<std::string_view> strings;
  std::deque<std::string> owned;
  std::vector<Value> values;  // kStrings

  /// Appends one cell, empty text being NULL. False when a numeric cell
  /// does not parse. `text` must outlive the sink unless `quoted`.
  bool Add(std::string_view text, bool quoted) {
    if (kind == Kind::kStrings) {
      if (text.empty()) {
        values.emplace_back();
      } else {
        values.emplace_back(std::string(text));
      }
      return true;
    }
    if (text.empty()) {
      if (kind != Kind::kLane) {
        codes.push_back(kNullCode);
        return true;
      }
      const std::size_t row = bits.size();
      if (null_words.size() <= row >> 6) null_words.resize((row >> 6) + 1, 0);
      null_words[row >> 6] |= std::uint64_t{1} << (row & 63);
      bits.push_back(0);
      return true;
    }
    if (kind == Kind::kStringDict) {
      const auto [code, added] = strings.FindOrAdd(text);
      if (added && quoted) {
        strings.keys[static_cast<std::size_t>(code)] = owned.emplace_back(text);
      }
      ++strings.live[static_cast<std::size_t>(code)];
      codes.push_back(code);
      return true;
    }
    std::uint64_t word = 0;
    if (!ParseNumberBits(text, type, word)) return false;
    if (kind == Kind::kLane) {
      bits.push_back(word);
      return true;
    }
    const std::int32_t code = numbers.FindOrAdd(word).first;
    ++numbers.live[static_cast<std::size_t>(code)];
    codes.push_back(code);
    return true;
  }
};

/// Everything one chunk of records parses to.
struct ChunkResult {
  std::vector<ColumnSink> columns;
  std::size_t rows = 0;       // records parsed before any error
  bool unterminated = false;  // the input ended inside a quoted run
  std::string bad_record;     // why record `rows` failed, when one did
};

/// Parses the records of `chunk` into `out`, stopping at the first error.
void ParseChunk(std::string_view chunk, const Schema& schema,
                ChunkResult& out) {
  const std::size_t num_cols = schema.num_columns();
  // A capacity hint: overcounts when quoted fields hold newlines.
  const auto capacity = static_cast<std::size_t>(
      std::count(chunk.begin(), chunk.end(), '\n') + 1);
  out.columns.resize(num_cols);
  for (std::size_t c = 0; c < num_cols; ++c) {
    const Column& column = schema.column(c);
    ColumnSink& sink = out.columns[c];
    sink.type = column.type;
    if (column.categorical) {
      sink.kind = column.type == ColumnType::kString
                      ? ColumnSink::Kind::kStringDict
                      : ColumnSink::Kind::kNumberDict;
      sink.codes.reserve(capacity);
    } else if (column.type == ColumnType::kString) {
      sink.kind = ColumnSink::Kind::kStrings;
      sink.values.reserve(capacity);
    } else {
      sink.kind = ColumnSink::Kind::kLane;
      sink.bits.reserve(capacity);
    }
  }
  std::vector<FieldSpan> fields(num_cols);
  std::string scratch;
  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  while (p != end) {
    std::size_t count = 0;
    if (!SplitRecord(p, end, fields, count)) {
      out.unterminated = true;
      return;
    }
    if (count != num_cols) {
      out.bad_record = "arity mismatch";
      return;
    }
    for (std::size_t c = 0; c < num_cols; ++c) {
      const std::string_view text = FieldValue(fields[c], scratch);
      if (!out.columns[c].Add(text, fields[c].quoted)) {
        out.bad_record = NumberParseError(text, schema.column(c).type);
        return;
      }
    }
    ++out.rows;
  }
}

/// Just past the first record end at or after `p`, or nullptr when the
/// input ends first. `in_quotes` is the quote state at `p`; quoted runs
/// are skipped with memchr. Each byte is looked at once.
const char* NextRecordStart(const char* p, const char* end, bool in_quotes) {
  for (; p != end; ++p) {
    if (in_quotes) {
      const void* close = std::memchr(p, '"', end - p);
      if (close == nullptr) return nullptr;
      p = static_cast<const char*>(close);
      in_quotes = false;
    } else if (*p == '"') {
      in_quotes = true;
    } else if (*p == '\n' || *p == '\r') {
      const char* next = p + 1;
      if (*p == '\r' && next != end && *next == '\n') ++next;
      return next;
    }
  }
  return nullptr;
}

/// Chunk start offsets into `text`: `num_chunks + 1` offsets where chunk s
/// covers [starts[s], starts[s + 1]), every boundary on a record start.
/// Every '"' toggles quoting (an escaped "" is two toggles with no newline
/// between them), so the quote state at a target offset is the parity of
/// the quotes before it. On quote-free input one memchr settles that, and
/// the boundary costs one newline search.
std::vector<std::size_t> ChunkStarts(std::string_view text,
                                     std::size_t data_begin,
                                     std::size_t num_chunks) {
  std::vector<std::size_t> starts(num_chunks + 1, text.size());
  starts[0] = data_begin;
  const char* const base = text.data();
  const char* const end = base + text.size();
  const std::size_t data_size = text.size() - data_begin;
  // [base + data_begin, p) holds whole records, so `p` is outside quotes.
  const char* p = base + data_begin;
  for (std::size_t s = 1; s < num_chunks; ++s) {
    const char* const target =
        std::max(p, base + data_begin + s * data_size / num_chunks);
    const char* quote =
        static_cast<const char*>(std::memchr(p, '"', target - p));
    const bool in_quotes =
        quote != nullptr && std::count(quote, target, '"') % 2 == 1;
    p = NextRecordStart(target, end, in_quotes);
    // Unassigned boundaries (tiny input, or a run-away quoted field)
    // collapse to text.size(): those chunks parse as empty.
    if (p == nullptr) break;
    starts[s] = static_cast<std::size_t>(p - base);
  }
  return starts;
}

/// Merges column `col`'s chunk dictionaries (`member` of each sink) and
/// installs the column. The first chunk's dictionary and codes are global
/// as they stand; each later chunk's keys are interned into them in their
/// own order, which assigns codes in global first-occurrence order: the
/// codes a one-chunk read assigns.
template <typename Key, typename ToValue>
Status InstallDict(ColumnStore& store, std::size_t col,
                   std::vector<ChunkResult>& chunks,
                   DictBuilder<Key> ColumnSink::*member, std::size_t total,
                   ToValue to_value) {
  DictBuilder<Key> merged = std::move(chunks[0].columns[col].*member);
  std::vector<std::int32_t> codes = std::move(chunks[0].columns[col].codes);
  codes.reserve(total);
  std::vector<std::int32_t> remap;
  for (std::size_t s = 1; s < chunks.size(); ++s) {
    const ColumnSink& sink = chunks[s].columns[col];
    const DictBuilder<Key>& part = sink.*member;
    remap.resize(part.keys.size());
    for (std::size_t j = 0; j < part.keys.size(); ++j) {
      const std::int32_t code = merged.FindOrAdd(part.keys[j]).first;
      merged.live[static_cast<std::size_t>(code)] += part.live[j];
      remap[j] = code;
    }
    for (const std::int32_t code : sink.codes) {
      codes.push_back(code < 0 ? code : remap[static_cast<std::size_t>(code)]);
    }
  }
  std::vector<Value> dict;
  dict.reserve(merged.keys.size());
  for (const Key& key : merged.keys) dict.push_back(to_value(key));
  return store.InstallDictColumn(col, std::move(dict), std::move(merged.live),
                                 std::move(codes));
}

/// Concatenates column `col` of the chunks, which start at rows `offsets`,
/// and installs it. The first chunk's vectors are taken over and the later
/// chunks appended to them.
Status InstallColumn(ColumnStore& store, std::size_t col,
                     std::vector<ChunkResult>& chunks,
                     const std::vector<std::size_t>& offsets,
                     std::size_t total) {
  const ColumnType type = chunks[0].columns[col].type;
  switch (chunks[0].columns[col].kind) {
    case ColumnSink::Kind::kLane: {
      std::vector<std::uint64_t> bits = std::move(chunks[0].columns[col].bits);
      bits.reserve(total);
      for (std::size_t s = 1; s < chunks.size(); ++s) {
        const std::vector<std::uint64_t>& part = chunks[s].columns[col].bits;
        bits.insert(bits.end(), part.begin(), part.end());
      }
      // NULLs are rare: their bits re-land at the shifted row one by one.
      std::vector<std::uint64_t> null_words;
      for (std::size_t s = 0; s < chunks.size(); ++s) {
        const std::vector<std::uint64_t>& part =
            chunks[s].columns[col].null_words;
        if (part.empty()) continue;
        null_words.resize((total + 63) / 64, 0);
        for (std::size_t w = 0; w < part.size(); ++w) {
          for (std::uint64_t word = part[w]; word != 0; word &= word - 1) {
            const std::size_t row =
                offsets[s] + w * 64 +
                static_cast<std::size_t>(std::countr_zero(word));
            null_words[row >> 6] |= std::uint64_t{1} << (row & 63);
          }
        }
      }
      return store.InstallLaneColumn(col, std::move(bits),
                                     std::move(null_words));
    }
    case ColumnSink::Kind::kNumberDict:
      return InstallDict(
          store, col, chunks, &ColumnSink::numbers, total,
          [type](std::uint64_t word) { return LaneValue(type, word); });
    case ColumnSink::Kind::kStringDict:
      return InstallDict(
          store, col, chunks, &ColumnSink::strings, total,
          [](std::string_view key) { return Value(std::string(key)); });
    case ColumnSink::Kind::kStrings: {
      std::vector<Value> values = std::move(chunks[0].columns[col].values);
      values.reserve(total);
      for (std::size_t s = 1; s < chunks.size(); ++s) {
        std::vector<Value>& part = chunks[s].columns[col].values;
        values.insert(values.end(), std::make_move_iterator(part.begin()),
                      std::make_move_iterator(part.end()));
      }
      return store.InstallStringColumn(col, std::move(values));
    }
  }
  return Status::Internal("CSV: unknown column sink");
}

/// Installs the parsed chunks, concatenated in order, as a relation.
Result<Relation> InstallChunks(const Schema& schema,
                               std::vector<ChunkResult>& chunks) {
  std::vector<std::size_t> offsets(chunks.size());
  for (std::size_t s = 0; s < chunks.size(); ++s) {
    offsets[s] = chunks[s].rows;
  }
  const std::size_t total = ExclusivePrefixSum(offsets);
  ColumnStore store(schema);
  for (std::size_t c = 0; c < schema.num_columns(); ++c) {
    CATMARK_RETURN_IF_ERROR(InstallColumn(store, c, chunks, offsets, total));
  }
  CATMARK_RETURN_IF_ERROR(store.FinalizeInstall(total));
  return Relation(schema, std::move(store));
}

/// Minimum bytes of input per chunk before auto mode adds another worker —
/// below this the spawn/merge overhead outweighs the parse.
constexpr std::size_t kMinParallelChunk = 64 * 1024;

/// Chunks per worker of a parallel read.
constexpr std::size_t kChunksPerThread = 4;

}  // namespace

std::string WriteCsvString(const Relation& rel) {
  std::string out;
  const Schema& schema = rel.schema();
  const std::size_t num_cols = schema.num_columns();
  for (std::size_t c = 0; c < num_cols; ++c) {
    if (c > 0) out.push_back(',');
    AppendField(schema.column(c).name, out);
  }
  out.push_back('\n');

  // Dictionary columns render (and quote-escape) each distinct value once;
  // rows then copy the memoized text by code. Column encodings are resolved
  // once here, not per cell in the row loop.
  std::vector<std::vector<std::string>> rendered(num_cols);
  std::vector<const std::vector<std::int32_t>*> codes(num_cols, nullptr);
  std::vector<ColumnReader> readers;
  readers.reserve(num_cols);
  for (std::size_t c = 0; c < num_cols; ++c) {
    readers.emplace_back(rel.store(), c);
    if (!rel.store().IsDictColumn(c)) continue;
    codes[c] = &rel.store().Codes(c);
    const std::vector<Value>& dict = rel.store().Dict(c);
    rendered[c].reserve(dict.size());
    for (const Value& v : dict) {
      std::string field;
      AppendField(v.ToString(), field);
      rendered[c].push_back(std::move(field));
    }
  }

  for (std::size_t r = 0; r < rel.NumRows(); ++r) {
    for (std::size_t c = 0; c < num_cols; ++c) {
      if (c > 0) out.push_back(',');
      if (codes[c] != nullptr) {
        const std::int32_t code = (*codes[c])[r];
        if (code >= 0) out.append(rendered[c][static_cast<std::size_t>(code)]);
        // NULL renders as the empty field.
      } else {
        AppendField(readers[c][r].ToString(), out);
      }
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const Relation& rel, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot open '" + path + "' for writing");
  const std::string data = WriteCsvString(rel);
  f.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!f) return Status::IoError("write failed for '" + path + "'");
  return Status::OK();
}

Result<Relation> ReadCsvString(std::string_view text, const Schema& schema) {
  return ReadCsvStringParallel(text, schema, 1);
}

Result<Relation> ReadCsvFile(const std::string& path, const Schema& schema) {
  CATMARK_ASSIGN_OR_RETURN(FileBytes bytes, FileBytes::Open(path));
  return ReadCsvString(bytes.view(), schema);
}

Result<Relation> ReadCsvStringParallel(std::string_view text,
                                       const Schema& schema,
                                       std::size_t num_threads) {
  std::size_t data_begin = 0;
  CATMARK_RETURN_IF_ERROR(ReadHeader(text, schema, data_begin));
  const std::size_t data_size = text.size() - data_begin;
  // An explicit thread count is honored exactly (tests force many chunks on
  // tiny inputs); auto mode adds workers only when each gets a real chunk.
  const std::size_t threads =
      num_threads != 0
          ? num_threads
          : EffectiveThreadCount(0, data_size / kMinParallelChunk);
  // Workers take chunks off a shared counter, so a slow worker takes fewer.
  // Output does not depend on who parsed what: chunks install in order.
  const std::size_t num_chunks =
      threads == 1 ? 1 : threads * kChunksPerThread;
  const std::vector<std::size_t> starts =
      ChunkStarts(text, data_begin, num_chunks);
  std::vector<ChunkResult> chunks(num_chunks);
  std::atomic<std::size_t> next_chunk{0};
  ParallelFor(threads, threads, [&](std::size_t, std::size_t, std::size_t) {
    for (std::size_t s; (s = next_chunk.fetch_add(1)) < num_chunks;) {
      ParseChunk(text.substr(starts[s], starts[s + 1] - starts[s]), schema,
                 chunks[s]);
    }
  });
  // The first bad record in input order wins. Chunks start on record
  // starts, so a record's line is 2 plus the records before it, whichever
  // chunk holds it: the Status does not depend on the chunk count.
  std::size_t rows_before = 0;
  for (const ChunkResult& chunk : chunks) {
    if (chunk.unterminated) {
      return Status::InvalidArgument("CSV: unterminated quoted field");
    }
    if (!chunk.bad_record.empty()) {
      return Status::IoError("CSV line " +
                             std::to_string(rows_before + chunk.rows + 2) +
                             ": " + chunk.bad_record);
    }
    rows_before += chunk.rows;
  }
  return InstallChunks(schema, chunks);
}

Result<Relation> ReadCsvFileParallel(const std::string& path,
                                     const Schema& schema,
                                     std::size_t num_threads) {
  CATMARK_ASSIGN_OR_RETURN(FileBytes bytes, FileBytes::Open(path));
  return ReadCsvStringParallel(bytes.view(), schema, num_threads);
}

}  // namespace catmark
