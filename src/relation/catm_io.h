#ifndef CATMARK_RELATION_CATM_IO_H_
#define CATMARK_RELATION_CATM_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "relation/relation.h"

namespace catmark {

/// Read-only view of a whole file. Memory-maps on POSIX hosts (the .catm
/// loader then bulk-copies column arrays straight out of the page cache);
/// falls back to an ordinary buffered read elsewhere. Move-only; the view
/// stays valid for the lifetime of the object.
class FileBytes {
 public:
  FileBytes() = default;
  ~FileBytes();
  FileBytes(FileBytes&& other) noexcept;
  FileBytes& operator=(FileBytes&& other) noexcept;
  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;

  /// Opens and maps (or reads) `path`. IoError when it cannot be opened.
  static Result<FileBytes> Open(const std::string& path);

  std::string_view view() const { return {data_, size_}; }
  bool mapped() const { return map_ != nullptr; }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  std::string owned_;  // fallback storage; data_ points into it when set
  void* map_ = nullptr;
  std::size_t map_len_ = 0;
};

/// True when `bytes` starts with the .catm magic — the sniff the
/// format-agnostic load path dispatches on.
bool LooksLikeCatm(std::string_view bytes);

/// Rows per encode/decode shard. The writer splits plain-column encoding
/// and code copies into row shards of at least this many rows, and the
/// loader decodes columns on separate workers only for images of at least
/// this many rows; anything smaller stays on the calling thread, where it
/// finishes faster than a thread spawns. Shard boundaries never change the
/// bytes: the image is identical at every worker count.
inline constexpr std::size_t kCatmRowsPerShard = std::size_t{1} << 14;

/// Serializes `rel` as a .catm v1 image (see catm_format.h for the layout).
/// One encoder serves both forms: it sizes every section first, encodes
/// plain values and code arrays one row shard per worker straight into a
/// single pre-sized image, and checksums the sections one column per
/// worker. Deterministic: equal stores (schema, dictionaries, codes,
/// values) serialize to byte-identical output at every worker count.
std::string WriteCatmString(const Relation& rel);
/// Writes the same bytes as WriteCatmString to `path` with one write(2)
/// loop and no second copy. IoError when the file cannot be opened or
/// fully written (missing directory, a directory path, a full disk).
Status WriteCatmFile(const Relation& rel, const std::string& path);

/// Parses a .catm image back into a Relation. Validation order: magic and
/// version, then the meta checksum, then the schema and section table, then
/// each section's checksum and contents — so corruption anywhere yields
/// DataLoss (truncation / checksum mismatch) or InvalidArgument (structural
/// inconsistency), never a crash. Sections are verified and decoded one
/// column per worker and installed in column order; when several columns
/// are corrupt the lowest-numbered one's Status is returned, exactly as a
/// serial column-by-column load would. The two-argument form additionally
/// requires the embedded schema to equal `expected`.
Result<Relation> ReadCatmString(std::string_view bytes);
Result<Relation> ReadCatmString(std::string_view bytes,
                                const Schema& expected);
Result<Relation> ReadCatmFile(const std::string& path);
Result<Relation> ReadCatmFile(const std::string& path,
                              const Schema& expected);

/// Format-agnostic load: sniffs the file content (not the extension) and
/// dispatches to the .catm reader or the CSV parser. Both paths validate
/// against `schema`. This is what the CLI / harness / bench load through.
Result<Relation> LoadRelation(const std::string& path, const Schema& schema);

/// Format-by-extension save: paths ending in ".catm" write the binary
/// format, everything else CSV.
Status SaveRelation(const Relation& rel, const std::string& path);

}  // namespace catmark

#endif  // CATMARK_RELATION_CATM_IO_H_
