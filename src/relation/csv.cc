#include "relation/csv.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/default_init.h"
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
/// form. A numeric lane and the codes of a dictionary column go straight
/// to their final array: `bits` / `codes` point at the chunk's first row
/// in it, and cell `row` of the chunk lands at bits[row] / codes[row].
/// Codes index a chunk-local dictionary keyed by the 8-byte word
/// (INT64/DOUBLE) or the unescaped bytes (STRING) until the merge remaps
/// them. A plain STRING column gathers Values.
struct ColumnSink {
  enum class Kind { kLane, kNumberDict, kStringDict, kStrings };
  Kind kind = Kind::kLane;
  ColumnType type = ColumnType::kInt64;
  std::uint64_t* bits = nullptr;          // kLane; 0 in NULL rows
  std::vector<std::uint64_t> null_words;  // kLane; chunk rows, grown at NULLs
  std::int32_t* codes = nullptr;          // the dictionary kinds
  DictBuilder<std::uint64_t> numbers;     // kNumberDict
  // kStringDict. A key views the input when its field had no quotes, else
  // its unescaped copy in `owned` (a deque: elements never move).
  DictBuilder<std::string_view> strings;
  std::deque<std::string> owned;
  std::vector<Value> values;  // kStrings

  /// Writes cell `row` of the chunk, empty text being NULL. False when a
  /// numeric cell does not parse. `text` must outlive the sink unless
  /// `quoted`.
  bool Add(std::size_t row, std::string_view text, bool quoted) {
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
        codes[row] = kNullCode;
        return true;
      }
      if (null_words.size() <= row >> 6) null_words.resize((row >> 6) + 1, 0);
      null_words[row >> 6] |= std::uint64_t{1} << (row & 63);
      bits[row] = 0;
      return true;
    }
    if (kind == Kind::kStringDict) {
      const auto [code, added] = strings.FindOrAdd(text);
      if (added && quoted) {
        strings.keys[static_cast<std::size_t>(code)] = owned.emplace_back(text);
      }
      ++strings.live[static_cast<std::size_t>(code)];
      codes[row] = code;
      return true;
    }
    std::uint64_t word = 0;
    if (!ParseNumberBits(text, type, word)) return false;
    if (kind == Kind::kLane) {
      bits[row] = word;
      return true;
    }
    const std::int32_t code = numbers.FindOrAdd(word).first;
    ++numbers.live[static_cast<std::size_t>(code)];
    codes[row] = code;
    return true;
  }
};

/// How column `column` is stored, and so parsed.
ColumnSink::Kind SinkKind(const Column& column) {
  if (column.categorical) {
    return column.type == ColumnType::kString ? ColumnSink::Kind::kStringDict
                                              : ColumnSink::Kind::kNumberDict;
  }
  return column.type == ColumnType::kString ? ColumnSink::Kind::kStrings
                                            : ColumnSink::Kind::kLane;
}

/// Everything one chunk of records parses to.
struct ChunkResult {
  std::vector<ColumnSink> columns;
  std::size_t rows = 0;       // records parsed before any error
  bool unterminated = false;  // the input ended inside a quoted run
  bool overflow = false;      // the chunk holds more records than counted
  std::string bad_record;     // why record `rows` failed, when one did
};

/// Parses the records of `chunk`, at most `counted` of them, into `out`,
/// whose sinks point at the chunk's rows. Stops at the first error.
void ParseChunk(std::string_view chunk, const Schema& schema,
                std::size_t counted, ChunkResult& out) {
  const std::size_t num_cols = schema.num_columns();
  std::vector<FieldSpan> fields(num_cols);
  std::string scratch;
  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  while (p != end) {
    // The destination holds `counted` rows of this chunk and no more.
    if (out.rows == counted) {
      out.overflow = true;
      return;
    }
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
      if (!out.columns[c].Add(out.rows, text, fields[c].quoted)) {
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

/// The records of `chunk`, which starts on a record start: the number
/// ParseChunk parses from it when none fails. A chunk with no '"' and no
/// '\r' counts its '\n' bytes; any other walks its records the way the
/// boundary scan does. A last record with no terminator (the end of the
/// input, or a run-away quoted field) counts as one.
std::size_t CountRecords(std::string_view chunk) {
  if (chunk.empty()) return 0;
  // One pass, which the compiler vectorizes, counts the '\n' bytes and
  // looks for any '"' or '\r'.
  std::size_t newlines = 0;
  unsigned char quotes_or_crs = 0;
  for (const char c : chunk) {
    newlines += c == '\n' ? 1 : 0;
    quotes_or_crs |= static_cast<unsigned char>((c == '"') | (c == '\r'));
  }
  if (quotes_or_crs == 0) return newlines + (chunk.back() != '\n' ? 1 : 0);
  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  std::size_t records = 0;
  while (p != end) {
    p = NextRecordStart(p, end, /*in_quotes=*/false);
    ++records;
    if (p == nullptr) break;
  }
  return records;
}

/// Runs fn(s) for each chunk s in [first, last) on up to `threads` workers,
/// which take chunks off a shared counter, so a slow worker takes fewer.
template <typename Fn>
void ForEachChunk(std::size_t threads, std::size_t first, std::size_t last,
                  Fn&& fn) {
  if (first >= last) return;
  const std::size_t workers = std::min(threads, last - first);
  std::atomic<std::size_t> next{first};
  ParallelFor(workers, workers, [&](std::size_t, std::size_t, std::size_t) {
    for (std::size_t s; (s = next.fetch_add(1)) < last;) fn(s);
  });
}

/// Chunk start offsets into `text`: `num_chunks + 1` offsets where chunk s
/// covers [starts[s], starts[s + 1]), every boundary on a record start.
/// Chunk s > 0 starts just past the first record end at or after its
/// target offset, or after the previous boundary when that lies further on.
/// Every '"' toggles quoting (an escaped "" is two toggles with no newline
/// between them), so the quote state at a target offset is the parity of
/// the quotes before it: `threads` workers count the quotes between
/// consecutive targets (one memchr settles a quote-free segment), and a
/// running parity takes it from there. Each boundary then costs one
/// record-end search.
std::vector<std::size_t> ChunkStarts(std::string_view text,
                                     std::size_t data_begin,
                                     std::size_t num_chunks,
                                     std::size_t threads) {
  std::vector<std::size_t> starts(num_chunks + 1, text.size());
  starts[0] = data_begin;
  const char* const base = text.data();
  const char* const end = base + text.size();
  const std::size_t data_size = text.size() - data_begin;
  const auto target = [&](std::size_t s) {
    return base + data_begin + s * data_size / num_chunks;
  };
  // odd_quotes[s]: whether [target(s - 1), target(s)) holds an odd number
  // of quotes.
  std::vector<char> odd_quotes(num_chunks, 0);
  ForEachChunk(threads, 1, num_chunks, [&](std::size_t s) {
    const char* const from = target(s - 1);
    const char* const to = target(s);
    const char* const quote =
        static_cast<const char*>(std::memchr(from, '"', to - from));
    odd_quotes[s] = quote != nullptr && std::count(quote, to, '"') % 2 == 1;
  });
  // [base + data_begin, p) holds whole records, so `p` is outside quotes.
  const char* p = base + data_begin;
  bool odd = false;  // quote parity of [base + data_begin, target(s))
  for (std::size_t s = 1; s < num_chunks; ++s) {
    odd ^= odd_quotes[s] != 0;
    p = target(s) >= p ? NextRecordStart(target(s), end, odd)
                       : NextRecordStart(p, end, false);
    // Unassigned boundaries (tiny input, or a run-away quoted field)
    // collapse to text.size(): those chunks parse as empty.
    if (p == nullptr) break;
    starts[s] = static_cast<std::size_t>(p - base);
  }
  return starts;
}

/// Merges column `col`'s chunk dictionaries (`member` of each sink) and
/// installs the column over `codes`, which the chunks wrote in place. The
/// first chunk's dictionary and codes are global as they stand; each later
/// chunk's keys are interned into them in their own order, which assigns
/// codes in global first-occurrence order: the codes a one-chunk read
/// assigns. The merge is serial and O(distinct keys per chunk); it leaves
/// a table per chunk through which `threads` workers then rewrite each
/// later chunk's codes in place.
template <typename Key, typename ToValue>
Status InstallDict(ColumnStore& store, std::size_t col,
                   std::vector<ChunkResult>& chunks,
                   DictBuilder<Key> ColumnSink::*member,
                   DefaultInitVector<std::int32_t> codes, std::size_t threads,
                   ToValue to_value) {
  DictBuilder<Key> merged = std::move(chunks[0].columns[col].*member);
  std::vector<std::vector<std::int32_t>> remaps(chunks.size());
  for (std::size_t s = 1; s < chunks.size(); ++s) {
    const DictBuilder<Key>& part = chunks[s].columns[col].*member;
    remaps[s].resize(part.keys.size());
    for (std::size_t j = 0; j < part.keys.size(); ++j) {
      const std::int32_t code = merged.FindOrAdd(part.keys[j]).first;
      merged.live[static_cast<std::size_t>(code)] += part.live[j];
      remaps[s][j] = code;
    }
  }
  ForEachChunk(threads, 1, chunks.size(), [&](std::size_t s) {
    std::int32_t* const slice = chunks[s].columns[col].codes;
    const std::int32_t* const remap = remaps[s].data();
    for (std::size_t row = 0; row < chunks[s].rows; ++row) {
      if (slice[row] >= 0) {
        slice[row] = remap[static_cast<std::size_t>(slice[row])];
      }
    }
  });
  std::vector<Value> dict;
  dict.reserve(merged.keys.size());
  for (const Key& key : merged.keys) dict.push_back(to_value(key));
  return store.InstallDictColumn(col, std::move(dict), std::move(merged.live),
                                 std::move(codes));
}

/// The NULL bitmap of a lane column whose chunks start at rows `offsets`,
/// or empty when no chunk saw a NULL. NULLs are rare: their bits re-land
/// at the shifted row one by one.
std::vector<std::uint64_t> MergeNullWords(
    const std::vector<ChunkResult>& chunks, std::size_t col,
    const std::vector<std::size_t>& offsets, std::size_t total) {
  std::vector<std::uint64_t> null_words;
  for (std::size_t s = 0; s < chunks.size(); ++s) {
    const std::vector<std::uint64_t>& part = chunks[s].columns[col].null_words;
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
  return null_words;
}

/// Installs the parsed chunks, which start at rows `offsets` (the last
/// entry being the total), as a relation over the final `lanes` and
/// `codes` they wrote. NULL words and STRING values gather in chunk order.
Result<Relation> InstallChunks(
    const Schema& schema, std::vector<ChunkResult>& chunks,
    const std::vector<std::size_t>& offsets,
    std::vector<DefaultInitVector<std::uint64_t>>& lanes,
    std::vector<DefaultInitVector<std::int32_t>>& codes, std::size_t threads) {
  const std::size_t total = offsets.back();
  ColumnStore store(schema);
  for (std::size_t c = 0; c < schema.num_columns(); ++c) {
    const ColumnType type = schema.column(c).type;
    Status status;
    switch (SinkKind(schema.column(c))) {
      case ColumnSink::Kind::kLane:
        status = store.InstallLaneColumn(
            c, std::move(lanes[c]), MergeNullWords(chunks, c, offsets, total));
        break;
      case ColumnSink::Kind::kNumberDict:
        status = InstallDict(
            store, c, chunks, &ColumnSink::numbers, std::move(codes[c]),
            threads,
            [type](std::uint64_t word) { return LaneValue(type, word); });
        break;
      case ColumnSink::Kind::kStringDict:
        status = InstallDict(
            store, c, chunks, &ColumnSink::strings, std::move(codes[c]),
            threads,
            [](std::string_view key) { return Value(std::string(key)); });
        break;
      case ColumnSink::Kind::kStrings: {
        std::vector<Value> values = std::move(chunks[0].columns[c].values);
        values.reserve(total);
        for (std::size_t s = 1; s < chunks.size(); ++s) {
          std::vector<Value>& part = chunks[s].columns[c].values;
          values.insert(values.end(), std::make_move_iterator(part.begin()),
                        std::make_move_iterator(part.end()));
        }
        status = store.InstallStringColumn(c, std::move(values));
        break;
      }
    }
    CATMARK_RETURN_IF_ERROR(status);
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
  std::vector<ColumnReader> readers;
  readers.reserve(num_cols);
  for (std::size_t c = 0; c < num_cols; ++c) {
    const ColumnReader& reader = readers.emplace_back(rel.store(), c);
    if (!reader.is_dict()) continue;
    const std::vector<Value>& dict = reader.dict();
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
      if (readers[c].is_dict()) {
        const std::int32_t code = readers[c].codes()[r];
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
  return ReplaceFile(path, WriteCsvString(rel));
}

Result<Relation> ReadCsvString(std::string_view text, const Schema& schema,
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
  // Output does not depend on who parsed what: every chunk writes its own
  // rows, and the merge runs in chunk order.
  const std::size_t num_chunks =
      threads == 1 ? 1 : threads * kChunksPerThread;
  const std::vector<std::size_t> starts =
      ChunkStarts(text, data_begin, num_chunks, threads);
  const auto chunk_text = [&](std::size_t s) {
    return text.substr(starts[s], starts[s + 1] - starts[s]);
  };

  // Count: chunk s's rows start at row offsets[s]; the last entry is the
  // total.
  std::vector<std::size_t> offsets(num_chunks + 1, 0);
  ForEachChunk(threads, 0, num_chunks, [&](std::size_t s) {
    offsets[s] = CountRecords(chunk_text(s));
  });
  ExclusivePrefixSum(offsets);

  // Every lane and code array is sized once to the total, with no
  // zero-fill: the parse writes, and so first-touches, each of its rows.
  const std::size_t num_cols = schema.num_columns();
  std::vector<DefaultInitVector<std::uint64_t>> lanes(num_cols);
  std::vector<DefaultInitVector<std::int32_t>> codes(num_cols);
  for (std::size_t c = 0; c < num_cols; ++c) {
    const ColumnSink::Kind kind = SinkKind(schema.column(c));
    if (kind == ColumnSink::Kind::kLane) {
      lanes[c].resize(offsets.back());
    } else if (kind != ColumnSink::Kind::kStrings) {
      codes[c].resize(offsets.back());
    }
  }

  // Parse: chunk s writes its record i to row offsets[s] + i.
  std::vector<ChunkResult> chunks(num_chunks);
  ForEachChunk(threads, 0, num_chunks, [&](std::size_t s) {
    ChunkResult& chunk = chunks[s];
    chunk.columns.resize(num_cols);
    for (std::size_t c = 0; c < num_cols; ++c) {
      ColumnSink& sink = chunk.columns[c];
      sink.kind = SinkKind(schema.column(c));
      sink.type = schema.column(c).type;
      if (sink.kind == ColumnSink::Kind::kLane) {
        sink.bits = lanes[c].data() + offsets[s];
      } else if (sink.kind != ColumnSink::Kind::kStrings) {
        sink.codes = codes[c].data() + offsets[s];
      }
    }
    ParseChunk(chunk_text(s), schema, offsets[s + 1] - offsets[s], chunk);
  });

  // The first bad record in input order wins. Chunks start on record
  // starts, so a record's line is 2 plus the records before it, whichever
  // chunk holds it: the Status does not depend on the chunk count.
  for (std::size_t s = 0; s < num_chunks; ++s) {
    const ChunkResult& chunk = chunks[s];
    if (chunk.unterminated) {
      return Status::InvalidArgument("CSV: unterminated quoted field");
    }
    if (!chunk.bad_record.empty()) {
      return Status::IoError("CSV line " +
                             std::to_string(offsets[s] + chunk.rows + 2) +
                             ": " + chunk.bad_record);
    }
    if (chunk.overflow || chunk.rows != offsets[s + 1] - offsets[s]) {
      return Status::Internal("CSV: chunk " + std::to_string(s) +
                              " parsed a record count other than the " +
                              std::to_string(offsets[s + 1] - offsets[s]) +
                              " it counted");
    }
  }
  return InstallChunks(schema, chunks, offsets, lanes, codes, threads);
}

Result<Relation> ReadCsvFile(const std::string& path, const Schema& schema,
                             std::size_t num_threads) {
  CATMARK_ASSIGN_OR_RETURN(FileBytes bytes, FileBytes::Open(path));
  return ReadCsvString(bytes.view(), schema, num_threads);
}

}  // namespace catmark
