#ifndef CATMARK_RELATION_CSV_H_
#define CATMARK_RELATION_CSV_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "relation/relation.h"

namespace catmark {

/// Serializes `rel` as RFC-4180-style CSV (header row, quoting only when a
/// field contains comma/quote/newline).
std::string WriteCsvString(const Relation& rel);
Status WriteCsvFile(const Relation& rel, const std::string& path);

/// Parses CSV text into a relation with the given schema. The header row
/// must match the schema's column names exactly (and in order); field
/// values are parsed per the column type, empty fields as NULL. This is
/// the one-chunk case of ReadCsvStringParallel: the same parser on the
/// calling thread.
Result<Relation> ReadCsvString(std::string_view text, const Schema& schema);
Result<Relation> ReadCsvFile(const std::string& path, const Schema& schema);

/// Columnar CSV parse.
///
/// Records: a record ends at an unquoted \n, \r\n or lone \r (or the end
/// of the input). Outside quotes a '"' opens a quoted run anywhere in a
/// field; inside one, "" is a literal quote and a lone '"' closes it. A
/// record is split into field spans over `text`; a field is copied only
/// when it holds a quote to unescape.
///
/// Column sinks: each field goes straight to its column's stored form. An
/// INT64/DOUBLE plain column fills a numeric lane, converting through
/// ParseNumberBits (the conversion Value::Parse uses). A categorical column
/// fills int32 codes over a chunk-local dictionary keyed by the 8-byte word
/// (INT64/DOUBLE) or the unescaped bytes (STRING). A plain STRING column
/// fills Values. No Row and no per-cell Value is built.
///
/// Chunks: the data region splits at record boundaries into chunks (one,
/// or 4 per worker), which `num_threads` workers (0 = auto:
/// DefaultThreadCount, clamped so each worker gets at least ~64 KiB; an
/// explicit count is honored exactly) take off a shared counter. Every '"'
/// toggles quoting, so the boundary scan reads the quote state at a target
/// offset from the parity of the quotes before it — one memchr on
/// quote-free input — and then walks to the next record end, skipping
/// quoted runs. Each boundary starts where the last one ended, so the
/// whole scan reads each byte a bounded number of times, however long a
/// record is or however many quotes it holds.
///
/// Determinism: the chunks merge in input order. Lanes and STRING values
/// concatenate; each chunk dictionary interns into the global one in its
/// own (first-occurrence) order, which reproduces global first-occurrence
/// code assignment. The result is therefore byte-identical (under
/// WriteCatmString) at every thread count.
///
/// Errors: the first bad record wins. A header that does not match is
/// IoError "CSV: header arity mismatch" / "CSV: header column 'X' !=
/// schema column 'Y'", and an empty input is IoError "CSV: missing header
/// row". A data record with the wrong field count is IoError "CSV line N:
/// arity mismatch", checked before any of its cells; a bad INT64/DOUBLE
/// cell is IoError "CSV line N: cannot parse <TYPE> from '<field>'". N
/// counts records, the header being line 1, so a quoted newline does not
/// advance it. Input that ends inside a quoted run is InvalidArgument
/// "CSV: unterminated quoted field". Chunks start on record starts, so a
/// parallel read numbers a record's line from the records of the chunks
/// before it, and the Status is the same at every thread count.
Result<Relation> ReadCsvStringParallel(std::string_view text,
                                       const Schema& schema,
                                       std::size_t num_threads = 0);
Result<Relation> ReadCsvFileParallel(const std::string& path,
                                     const Schema& schema,
                                     std::size_t num_threads = 0);

}  // namespace catmark

#endif  // CATMARK_RELATION_CSV_H_
