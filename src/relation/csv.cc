#include "relation/csv.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "common/str_util.h"
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

/// Reusable record buffer: the field strings persist across records so the
/// row loop appends into already-sized heap buffers instead of allocating
/// `arity` fresh strings per record. `count` is the arity of the current
/// record; fields[i] for i < count are its values.
struct RecordScratch {
  std::vector<std::string> fields;
  std::size_t count = 0;

  std::string& StartField() {
    if (count == fields.size()) fields.emplace_back();
    std::string& f = fields[count++];
    f.clear();
    return f;
  }
};

/// Splits one CSV record honoring quotes into `rec` (in place). `pos`
/// advances past the record's terminating newline. Returns false at end of
/// input.
bool NextRecord(std::string_view text, std::size_t& pos, RecordScratch& rec,
                Status& status) {
  rec.count = 0;
  if (pos >= text.size()) return false;
  bool in_quotes = false;
  std::string* field = &rec.StartField();
  while (pos < text.size()) {
    const char c = text[pos];
    if (in_quotes) {
      if (c == '"') {
        if (pos + 1 < text.size() && text[pos + 1] == '"') {
          field->push_back('"');
          pos += 2;
        } else {
          in_quotes = false;
          ++pos;
        }
      } else {
        field->push_back(c);
        ++pos;
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      ++pos;
    } else if (c == ',') {
      field = &rec.StartField();
      ++pos;
    } else if (c == '\n' || c == '\r') {
      // Consume \r\n or \n.
      ++pos;
      if (c == '\r' && pos < text.size() && text[pos] == '\n') ++pos;
      break;
    } else {
      field->push_back(c);
      ++pos;
    }
  }
  if (in_quotes) {
    // Input ended inside an open quote: the record is structurally invalid,
    // not an I/O failure — treating it as a complete record would silently
    // swallow a truncated file.
    status = Status::InvalidArgument("CSV: unterminated quoted field");
    return false;
  }
  return true;
}

/// Parses and verifies the header row; `pos` advances past it.
Status ReadHeader(std::string_view text, const Schema& schema,
                  std::size_t& pos, RecordScratch& rec) {
  Status status = Status::OK();
  if (!NextRecord(text, pos, rec, status)) {
    if (!status.ok()) return status;
    return Status::IoError("CSV: missing header row");
  }
  if (rec.count != schema.num_columns()) {
    return Status::IoError("CSV: header arity mismatch");
  }
  for (std::size_t c = 0; c < rec.count; ++c) {
    if (rec.fields[c] != schema.column(c).name) {
      return Status::IoError("CSV: header column '" + rec.fields[c] +
                             "' != schema column '" + schema.column(c).name +
                             "'");
    }
  }
  return Status::OK();
}

/// Parses the data records of `chunk` into `rel`. `first_line` is the
/// 1-based line number of the record *before* the chunk (the header, for a
/// whole-input parse), used in error messages.
Status ParseRecords(std::string_view chunk, const Schema& schema,
                    std::size_t first_line, Relation& rel) {
  const std::size_t num_cols = schema.num_columns();
  RecordScratch rec;
  rec.fields.reserve(num_cols);
  // Slight overcount when quoted fields contain newlines — fine for a
  // capacity hint.
  rel.Reserve(rel.NumRows() + static_cast<std::size_t>(std::count(
                                  chunk.begin(), chunk.end(), '\n')));
  std::size_t pos = 0;
  std::size_t line = first_line;
  Status status = Status::OK();
  while (NextRecord(chunk, pos, rec, status)) {
    ++line;
    if (rec.count != num_cols) {
      return Status::IoError("CSV line " + std::to_string(line) +
                             ": arity mismatch");
    }
    Row row;
    row.reserve(num_cols);
    for (std::size_t c = 0; c < num_cols; ++c) {
      Result<Value> v = Value::Parse(rec.fields[c], schema.column(c).type);
      if (!v.ok()) {
        return Status::IoError("CSV line " + std::to_string(line) + ": " +
                               v.status().message());
      }
      row.push_back(std::move(v).value());
    }
    CATMARK_RETURN_IF_ERROR(rel.AppendRow(std::move(row)));
  }
  return status;
}

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
  std::size_t pos = 0;
  RecordScratch rec;
  rec.fields.reserve(schema.num_columns());
  CATMARK_RETURN_IF_ERROR(ReadHeader(text, schema, pos, rec));
  Relation rel(schema);
  CATMARK_RETURN_IF_ERROR(ParseRecords(text.substr(pos), schema, 1, rel));
  return rel;
}

Result<Relation> ReadCsvFile(const std::string& path, const Schema& schema) {
  CATMARK_ASSIGN_OR_RETURN(FileBytes bytes, FileBytes::Open(path));
  return ReadCsvString(bytes.view(), schema);
}

namespace {

/// Minimum bytes of input per chunk before auto mode adds another worker —
/// below this the spawn/merge overhead outweighs the parse.
constexpr std::size_t kMinParallelChunk = 64 * 1024;

/// Chunk start offsets into `text`: `shards + 1` offsets where chunk s
/// covers [starts[s], starts[s + 1]), every boundary on a record start. The
/// scan toggles quote state on every '"' — an escaped "" is two toggles, a
/// net no-op with no newline between them — so its notion of "unquoted
/// newline" agrees exactly with NextRecord's.
std::vector<std::size_t> ChunkStarts(std::string_view text,
                                     std::size_t data_begin,
                                     std::size_t shards) {
  std::vector<std::size_t> starts(shards + 1, text.size());
  starts[0] = data_begin;
  const std::size_t data_size = text.size() - data_begin;
  std::size_t next = 1;
  bool in_quotes = false;
  std::size_t pos = data_begin;
  while (pos < text.size() && next < shards) {
    const char c = text[pos];
    if (c == '"') {
      in_quotes = !in_quotes;
      ++pos;
      continue;
    }
    if (!in_quotes && (c == '\n' || c == '\r')) {
      ++pos;
      if (c == '\r' && pos < text.size() && text[pos] == '\n') ++pos;
      while (next < shards &&
             pos >= data_begin + (next * data_size) / shards) {
        starts[next++] = pos;
      }
      continue;
    }
    ++pos;
  }
  // Unassigned boundaries (tiny input, or a run-away quoted field) collapse
  // to text.size(): those chunks parse as empty.
  return starts;
}

}  // namespace

Result<Relation> ReadCsvStringParallel(std::string_view text,
                                       const Schema& schema,
                                       std::size_t num_threads) {
  std::size_t pos = 0;
  RecordScratch rec;
  rec.fields.reserve(schema.num_columns());
  CATMARK_RETURN_IF_ERROR(ReadHeader(text, schema, pos, rec));
  const std::size_t data_size = text.size() - pos;
  // An explicit thread count is honored exactly (tests force many chunks on
  // tiny inputs); auto mode adds workers only when each gets a real chunk.
  const std::size_t shards =
      num_threads != 0
          ? num_threads
          : EffectiveThreadCount(0, data_size / kMinParallelChunk);
  if (shards <= 1) {
    Relation rel(schema);
    CATMARK_RETURN_IF_ERROR(ParseRecords(text.substr(pos), schema, 1, rel));
    return rel;
  }

  const std::vector<std::size_t> starts = ChunkStarts(text, pos, shards);
  std::vector<Relation> parts(shards);
  std::vector<Status> errors(shards);
  ParallelFor(shards, shards,
              [&](std::size_t shard, std::size_t, std::size_t) {
                Relation rel(schema);
                errors[shard] = ParseRecords(
                    text.substr(starts[shard],
                                starts[shard + 1] - starts[shard]),
                    schema, 0, rel);
                parts[shard] = std::move(rel);
              });
  for (const Status& s : errors) {
    if (!s.ok()) {
      // Canonical error path: shard-local line numbers are meaningless, so
      // re-parse serially and report exactly what the serial parser says.
      return ReadCsvString(text, schema);
    }
  }

  // Serial deterministic merge: walking shards in input order and interning
  // each shard dictionary in its own order assigns global codes in global
  // first-occurrence order — the serial parser's assignment.
  const std::size_t num_cols = schema.num_columns();
  std::size_t total = 0;
  for (const Relation& part : parts) total += part.NumRows();
  ColumnStore store(schema);
  std::vector<std::uint8_t> scratch;
  for (std::size_t c = 0; c < num_cols; ++c) {
    if (schema.column(c).categorical) {
      std::vector<Value> dict;
      std::vector<std::int64_t> live;
      std::vector<std::int32_t> codes;
      codes.reserve(total);
      std::unordered_map<std::string, std::int32_t, TransparentStringHash,
                         std::equal_to<>>
          code_of;
      for (const Relation& part : parts) {
        const std::vector<Value>& pdict = part.store().Dict(c);
        const std::vector<std::int64_t>& plive = part.store().DictLiveCounts(c);
        std::vector<std::int32_t> remap(pdict.size());
        for (std::size_t j = 0; j < pdict.size(); ++j) {
          const std::string_view key = pdict[j].SerializeKeyInto(scratch);
          const auto it = code_of.find(key);
          std::int32_t g;
          if (it == code_of.end()) {
            g = static_cast<std::int32_t>(dict.size());
            code_of.emplace(std::string(key), g);
            dict.push_back(pdict[j]);
            live.push_back(0);
          } else {
            g = it->second;
          }
          remap[j] = g;
          live[static_cast<std::size_t>(g)] += plive[j];
        }
        for (const std::int32_t code : part.store().Codes(c)) {
          codes.push_back(code < 0 ? ColumnStore::kNullCode
                                   : remap[static_cast<std::size_t>(code)]);
        }
      }
      CATMARK_RETURN_IF_ERROR(store.InstallDictColumn(
          c, std::move(dict), std::move(live), std::move(codes)));
    } else if (store.IsLaneColumn(c)) {
      // Shard lanes concatenate with one memcpy each; NULL bits (rare)
      // re-land at their shifted row.
      std::vector<std::uint64_t> bits(total);
      std::vector<std::uint64_t> null_words;
      std::size_t at = 0;
      for (const Relation& part : parts) {
        const NumericLane lane = part.store().Lane(c);
        if (!lane.bits.empty()) {
          std::memcpy(bits.data() + at, lane.bits.data(),
                      lane.bits.size_bytes());
        }
        if (!lane.null_words.empty()) {
          null_words.resize((total + 63) / 64, 0);
          for (std::size_t r = 0; r < lane.size(); ++r) {
            if (!lane.IsNull(r)) continue;
            null_words[(at + r) >> 6] |= std::uint64_t{1} << ((at + r) & 63);
          }
        }
        at += lane.size();
      }
      CATMARK_RETURN_IF_ERROR(store.InstallLaneColumn(c, std::move(bits),
                                                      std::move(null_words)));
    } else {
      std::vector<Value> values;
      values.reserve(total);
      for (Relation& part : parts) {
        std::vector<Value> pv = part.mutable_store().TakeStringColumn(c);
        values.insert(values.end(), std::make_move_iterator(pv.begin()),
                      std::make_move_iterator(pv.end()));
      }
      CATMARK_RETURN_IF_ERROR(store.InstallStringColumn(c, std::move(values)));
    }
  }
  CATMARK_RETURN_IF_ERROR(store.FinalizeInstall(total));
  return Relation(schema, std::move(store));
}

Result<Relation> ReadCsvFileParallel(const std::string& path,
                                     const Schema& schema,
                                     std::size_t num_threads) {
  CATMARK_ASSIGN_OR_RETURN(FileBytes bytes, FileBytes::Open(path));
  return ReadCsvStringParallel(bytes.view(), schema, num_threads);
}

}  // namespace catmark
