#include "relation/catm_io.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "common/parallel.h"
#include "relation/catm_format.h"
#include "relation/csv.h"

#if defined(__unix__) || defined(__APPLE__)
#define CATMARK_HAVE_POSIX_IO 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define CATMARK_HAVE_POSIX_IO 0
#endif

namespace catmark {

FileBytes::~FileBytes() {
#if CATMARK_HAVE_POSIX_IO
  if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
}

FileBytes::FileBytes(FileBytes&& other) noexcept
    : size_(other.size_),
      owned_(std::move(other.owned_)),
      map_(other.map_),
      map_len_(other.map_len_) {
  // owned_'s buffer may relocate on move (SSO), so data_ must be re-derived
  // rather than copied.
  data_ = map_ != nullptr ? static_cast<const char*>(map_) : owned_.data();
  other.map_ = nullptr;
  other.map_len_ = 0;
  other.data_ = nullptr;
  other.size_ = 0;
}

FileBytes& FileBytes::operator=(FileBytes&& other) noexcept {
  if (this == &other) return *this;
#if CATMARK_HAVE_POSIX_IO
  if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
  size_ = other.size_;
  owned_ = std::move(other.owned_);
  map_ = other.map_;
  map_len_ = other.map_len_;
  data_ = map_ != nullptr ? static_cast<const char*>(map_) : owned_.data();
  other.map_ = nullptr;
  other.map_len_ = 0;
  other.data_ = nullptr;
  other.size_ = 0;
  return *this;
}

Result<FileBytes> FileBytes::Open(const std::string& path) {
  FileBytes fb;
#if CATMARK_HAVE_POSIX_IO
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                       PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);
      fb.map_ = map;
      fb.map_len_ = static_cast<std::size_t>(st.st_size);
      fb.data_ = static_cast<const char*>(map);
      fb.size_ = fb.map_len_;
      return fb;
    }
  }
  ::close(fd);  // not a regular file / empty / mmap refused: buffered read
#endif
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("error while reading '" + path + "'");
  }
  fb.owned_ = std::move(buf).str();
  fb.data_ = fb.owned_.data();
  fb.size_ = fb.owned_.size();
  return fb;
}

bool LooksLikeCatm(std::string_view bytes) {
  return bytes.size() >= sizeof(kCatmMagic) &&
         std::memcmp(bytes.data(), kCatmMagic, sizeof(kCatmMagic)) == 0;
}

namespace {

std::uint8_t TypeByte(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return 0;
    case ColumnType::kDouble:
      return 1;
    case ColumnType::kString:
      return 2;
  }
  CATMARK_CHECK(false) << "unknown ColumnType";
  return 0;
}

struct SectionEntry {
  std::uint8_t kind = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t checksum = 0;
};

/// Where every byte of a relation's .catm image goes, fixed before any byte
/// is written: the section table (checksums aside) and, per column, the
/// offset inside its section at which each row shard's bytes start.
struct CatmLayout {
  std::size_t meta_length = 0;
  std::size_t size = 0;
  std::vector<std::size_t> bounds;  // row shards, as ShardBounds
  std::vector<SectionEntry> table;
  std::vector<std::vector<std::size_t>> shard_at;  // [column][shard]
};

/// Sizes every section. Dict sections are sized from their parts; plain
/// sections by a parallel per-shard pass whose sizes an exclusive prefix
/// sum turns into the shards' offsets.
Result<CatmLayout> PlanCatm(const Relation& rel) {
  const Schema& schema = rel.schema();
  const ColumnStore& store = rel.store();
  const std::size_t num_cols = schema.num_columns();
  const std::size_t num_rows = store.num_rows();

  CatmLayout layout;
  for (const Column& col : schema.columns()) {
    // Schema::Create bounds every name to the format's u16 length field.
    CATMARK_CHECK_LE(col.name.size(), kMaxColumnNameBytes);
    layout.meta_length += kCatmMetaPerColumn + col.name.size();
  }
  if (layout.meta_length > 0xFFFFFFFF) {
    return Status::InvalidArgument(
        "schema too large for .catm: " + std::to_string(layout.meta_length) +
        " meta bytes exceed the u32 length field");
  }

  // One row shard per kCatmRowsPerShard rows, capped by the default thread
  // count, so small relations stay on the calling thread.
  const std::size_t shards = EffectiveThreadCount(
      0, std::max<std::size_t>(1, num_rows / kCatmRowsPerShard));
  layout.bounds = ShardBounds(num_rows, shards);
  layout.shard_at.assign(num_cols, std::vector<std::size_t>(shards, 0));
  ParallelFor(num_rows, shards,
              [&](std::size_t s, std::size_t begin, std::size_t end) {
                for (std::size_t c = 0; c < num_cols; ++c) {
                  if (store.IsDictColumn(c)) continue;
                  std::size_t bytes = 0;
                  if (store.IsLaneColumn(c)) {
                    // 9 bytes a number, 1 a NULL.
                    const NumericLane lane = store.Lane(c);
                    bytes = 9 * (end - begin);
                    if (!lane.null_words.empty()) {
                      for (std::size_t r = begin; r < end; ++r) {
                        if (lane.IsNull(r)) bytes -= 8;
                      }
                    }
                  } else {
                    const std::vector<Value>& values = store.StringValues(c);
                    for (std::size_t r = begin; r < end; ++r) {
                      bytes += values[r].SerializedSize();
                    }
                  }
                  layout.shard_at[c][s] = bytes;
                }
              });

  layout.table.resize(num_cols);
  std::size_t offset = kCatmHeaderSize + layout.meta_length;
  for (std::size_t c = 0; c < num_cols; ++c) {
    SectionEntry& entry = layout.table[c];
    std::vector<std::size_t>& at = layout.shard_at[c];
    if (store.IsDictColumn(c)) {
      // Count, offsets, blob and live counts, then the codes: shard s copies
      // its rows' codes to row bounds[s] of the code array.
      const std::vector<Value>& dict = store.Dict(c);
      std::size_t codes_at = 4 + 8 * (dict.size() + 1) + 8 * dict.size();
      for (const Value& v : dict) codes_at += v.SerializedSize();
      for (std::size_t s = 0; s < shards; ++s) {
        at[s] = codes_at + 4 * layout.bounds[s];
      }
      entry.kind = kCatmSectionDict;
      entry.length = codes_at + 4 * num_rows;
    } else {
      entry.kind = kCatmSectionPlain;
      entry.length = ExclusivePrefixSum(at);
    }
    entry.offset = offset;
    offset += entry.length;
  }
  layout.size = offset;
  return layout;
}

/// Encodes `rel` into `image` (layout.size bytes): dictionary heads
/// serially, then plain values and code slices one row shard per worker,
/// then the section checksums one column per worker, then the header and
/// meta block with their checksum.
void EncodeCatm(const Relation& rel, CatmLayout& layout, std::uint8_t* image) {
  const Schema& schema = rel.schema();
  const ColumnStore& store = rel.store();
  const std::size_t num_cols = schema.num_columns();
  const std::size_t num_rows = store.num_rows();
  const std::size_t shards = layout.bounds.size() - 1;

  for (std::size_t c = 0; c < num_cols; ++c) {
    if (!store.IsDictColumn(c)) continue;
    const std::vector<Value>& dict = store.Dict(c);
    ByteWriter w(image + layout.table[c].offset);
    w.PutLeU32(static_cast<std::uint32_t>(dict.size()));
    std::uint64_t blob_at = 0;
    w.PutLeU64(blob_at);
    for (const Value& v : dict) {
      blob_at += v.SerializedSize();
      w.PutLeU64(blob_at);
    }
    for (const Value& v : dict) w.PutValue(v);
    w.PutLeArray(std::span<const std::int64_t>(store.DictLiveCounts(c)));
    CATMARK_CHECK(w.pos() ==
                  image + layout.table[c].offset + layout.shard_at[c][0]);
  }

  ParallelFor(
      num_rows, shards, [&](std::size_t s, std::size_t begin, std::size_t end) {
        for (std::size_t c = 0; c < num_cols; ++c) {
          const SectionEntry& entry = layout.table[c];
          const std::vector<std::size_t>& at = layout.shard_at[c];
          ByteWriter w(image + entry.offset + at[s]);
          if (store.IsDictColumn(c)) {
            w.PutLeArray(std::span<const std::int32_t>(store.Codes(c))
                             .subspan(begin, end - begin));
          } else if (store.IsLaneColumn(c)) {
            const NumericLane lane = store.Lane(c);
            for (std::size_t r = begin; r < end; ++r) {
              if (lane.IsNull(r)) {
                w.PutU8(0);
              } else {
                w.PutNumber(lane.type, lane.bits[r]);
              }
            }
          } else {
            const std::vector<Value>& values = store.StringValues(c);
            for (std::size_t r = begin; r < end; ++r) w.PutValue(values[r]);
          }
          const std::size_t shard_end =
              s + 1 < shards ? at[s + 1] : entry.length;
          CATMARK_CHECK(w.pos() == image + entry.offset + shard_end);
        }
      });

  ParallelFor(num_cols, shards,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t c = begin; c < end; ++c) {
                  SectionEntry& entry = layout.table[c];
                  entry.checksum = CatmChecksum(image + entry.offset,
                                                entry.length);
                }
              });

  ByteWriter w(image);
  w.PutBytes(kCatmMagic, sizeof(kCatmMagic));
  w.PutLeU32(kCatmVersion);
  w.PutLeU32(static_cast<std::uint32_t>(layout.meta_length));
  w.PutLeU64(0);  // meta checksum, sealed below
  w.PutLeU64(num_rows);
  w.PutLeU32(static_cast<std::uint32_t>(num_cols));
  w.PutLeU32(static_cast<std::uint32_t>(schema.primary_key_index()));
  for (const Column& col : schema.columns()) {
    w.PutLeU16(static_cast<std::uint16_t>(col.name.size()));
    w.PutBytes(col.name.data(), col.name.size());
    w.PutU8(TypeByte(col.type));
    w.PutU8(col.categorical ? 1 : 0);
  }
  for (const SectionEntry& entry : layout.table) {
    w.PutU8(entry.kind);
    w.PutLeU64(entry.offset);
    w.PutLeU64(entry.length);
    w.PutLeU64(entry.checksum);
  }
  const std::size_t sections_start = kCatmHeaderSize + layout.meta_length;
  CATMARK_CHECK(w.pos() == image + sections_start);
  ByteWriter(image + 16).PutLeU64(
      CatmChecksum(image + kCatmChecksumStart,
                   sections_start - kCatmChecksumStart));
}

}  // namespace

std::string WriteCatmString(const Relation& rel) {
  Result<CatmLayout> layout = PlanCatm(rel);
  CATMARK_CHECK(layout.ok()) << layout.status().ToString();
  std::string out(layout->size, '\0');
  EncodeCatm(rel, *layout, reinterpret_cast<std::uint8_t*>(out.data()));
  return out;
}

Status WriteCatmFile(const Relation& rel, const std::string& path) {
  CATMARK_ASSIGN_OR_RETURN(CatmLayout layout, PlanCatm(rel));
#if CATMARK_HAVE_POSIX_IO
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path +
                           "' for writing: " + std::strerror(errno));
  }
  // Default-initialized rather than zeroed: the encode shards are the first
  // to touch each page, in parallel.
  const std::unique_ptr<std::uint8_t[]> image(new std::uint8_t[layout.size]);
  EncodeCatm(rel, layout, image.get());
  const std::uint8_t* p = image.get();
  std::size_t left = layout.size;
  int error = 0;
  while (left > 0) {
    const ::ssize_t n = ::write(fd, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      error = n < 0 ? errno : EIO;
      break;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::close(fd) != 0 && error == 0) error = errno;
  if (error != 0) {
    return Status::IoError("error while writing '" + path +
                           "': " + std::strerror(error));
  }
  return Status::OK();
#else
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  std::string image(layout.size, '\0');
  EncodeCatm(rel, layout, reinterpret_cast<std::uint8_t*>(image.data()));
  const bool wrote = std::fwrite(image.data(), 1, image.size(), f) ==
                     image.size();
  if (std::fclose(f) != 0 || !wrote) {
    return Status::IoError("error while writing '" + path + "'");
  }
  return Status::OK();
#endif
}

namespace {

/// The Status a plain section reports for the value at `at`, which the
/// fast decoders below could not take: the value is re-decoded through
/// DecodeValue so a corrupt image surfaces the exact same Status on every
/// path, and a value that decodes fine but carries the wrong tag is a
/// schema/type mismatch.
Status PlainValueError(const std::uint8_t* at, const std::uint8_t* end,
                       const std::string& name) {
  ByteReader vr(at, static_cast<std::size_t>(end - at));
  Value v;
  CATMARK_RETURN_IF_ERROR(DecodeValue(vr, v));
  return Status::InvalidArgument(
      ".catm value type disagrees with the schema in column '" + name + "'");
}

Status PlainTrailingBytes(const std::string& name) {
  return Status::InvalidArgument(
      ".catm plain section has trailing bytes in column '" + name + "'");
}

/// Decodes an INT64/DOUBLE plain section straight into a lane: per row a
/// tag check and a byte-swapped load, no Value.
Status DecodeLaneSection(ByteReader& r, ColumnType type,
                         std::uint64_t num_rows, const std::string& name,
                         std::vector<std::uint64_t>& bits,
                         std::vector<std::uint64_t>& null_words) {
  const std::size_t section_len = r.remaining();
  const std::uint8_t* p = nullptr;
  r.ReadBytes(section_len, p);
  const std::uint8_t* const end = p + section_len;
  // Every value takes at least one byte, so no more than section_len rows
  // can decode: row section_len starts at `end` and fails before its
  // store. The cap keeps a corrupt row count from over-allocating.
  const auto cap = static_cast<std::size_t>(
      std::min<std::uint64_t>(num_rows, section_len));
  bits.resize(cap);
  std::uint64_t* const out = bits.data();
  const std::uint8_t want_tag = type == ColumnType::kInt64 ? 1 : 2;
  for (std::size_t i = 0; i < num_rows; ++i) {
    const std::uint8_t* const at = p;
    if (p == end) return PlainValueError(at, end, name);
    if (*p == want_tag && end - p > 8) {
      out[i] = LoadBigEndian64(p + 1);
      p += 9;
    } else if (*p == 0) {
      if (null_words.empty()) null_words.assign((cap + 63) / 64, 0);
      out[i] = 0;
      null_words[i >> 6] |= std::uint64_t{1} << (i & 63);
      ++p;
    } else {
      return PlainValueError(at, end, name);
    }
  }
  if (p != end) return PlainTrailingBytes(name);
  return Status::OK();
}

/// Decodes a STRING plain section with a tight raw-pointer loop.
/// DecodeValue produces identical values, but pays an out-of-line call per
/// value.
Status DecodeStringSection(ByteReader& r, std::uint64_t num_rows,
                           const std::string& name,
                           std::vector<Value>& values) {
  const std::size_t section_len = r.remaining();
  const std::uint8_t* p = nullptr;
  r.ReadBytes(section_len, p);
  const std::uint8_t* const end = p + section_len;
  values.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(num_rows, section_len)));
  for (std::uint64_t i = 0; i < num_rows; ++i) {
    const std::uint8_t* const at = p;
    if (p == end) return PlainValueError(at, end, name);
    const std::uint8_t tag = *p++;
    if (tag == 3) {
      if (end - p < 8) return PlainValueError(at, end, name);
      const std::uint64_t len = LoadBigEndian64(p);
      p += 8;
      if (len > static_cast<std::uint64_t>(end - p)) {
        return PlainValueError(at, end, name);
      }
      values.emplace_back(std::string(reinterpret_cast<const char*>(p),
                                      static_cast<std::size_t>(len)));
      p += len;
    } else if (tag == 0) {
      values.emplace_back();
    } else {
      return PlainValueError(at, end, name);
    }
  }
  if (p != end) return PlainTrailingBytes(name);
  return Status::OK();
}

/// One column's section, verified and decoded: the parts its install takes,
/// or the Status the column failed with.
struct DecodedColumn {
  Status status;
  std::vector<Value> dict;
  std::vector<std::int64_t> live;
  std::vector<std::int32_t> codes;
  std::vector<std::uint64_t> bits;        // INT64/DOUBLE plain sections
  std::vector<std::uint64_t> null_words;
  std::vector<Value> values;              // STRING plain sections
};

/// Checks one section's checksum and decodes it into `out`. Touches only
/// the image and `out`, so columns decode on separate workers.
Status DecodeSection(const std::uint8_t* data, const SectionEntry& s,
                     const Column& col, std::uint64_t num_rows,
                     DecodedColumn& out) {
  const std::uint8_t* sp = data + s.offset;
  const auto slen = static_cast<std::size_t>(s.length);
  if (CatmChecksum(sp, slen) != s.checksum) {
    return Status::DataLoss(".catm section checksum mismatch in column '" +
                            col.name + "'");
  }
  ByteReader r(sp, slen);
  if (s.kind != kCatmSectionDict) {
    if (col.type == ColumnType::kString) {
      return DecodeStringSection(r, num_rows, col.name, out.values);
    }
    return DecodeLaneSection(r, col.type, num_rows, col.name, out.bits,
                             out.null_words);
  }
  std::uint32_t dict_count = 0;
  if (!r.ReadLeU32(dict_count)) {
    return Status::InvalidArgument(".catm dict section for column '" +
                                   col.name + "' is too short");
  }
  std::vector<std::uint64_t> offsets;
  if (!r.ReadLeU64Array(static_cast<std::size_t>(dict_count) + 1, offsets)) {
    return Status::InvalidArgument(
        ".catm dict offsets run past the section end in column '" + col.name +
        "'");
  }
  const std::uint64_t live_bytes = std::uint64_t{dict_count} * 8;
  const std::uint64_t code_bytes = num_rows * 4;
  if (live_bytes + code_bytes > r.remaining()) {
    return Status::InvalidArgument(
        ".catm dict section too short for live counts and codes in column '" +
        col.name + "'");
  }
  const std::size_t blob_len =
      r.remaining() - static_cast<std::size_t>(live_bytes + code_bytes);
  if (offsets.front() != 0 || offsets.back() != blob_len) {
    return Status::InvalidArgument(
        ".catm dict blob length disagrees with its offsets in column '" +
        col.name + "'");
  }
  // Full monotonicity must hold before any entry is decoded: together with
  // front()==0 and back()==blob_len it bounds every offset by blob_len, so
  // no ByteReader below can reach past the blob.
  for (std::size_t i = 0; i < dict_count; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::InvalidArgument(
          ".catm dict offsets are not monotone in column '" + col.name + "'");
    }
  }
  const std::uint8_t* blob = nullptr;
  r.ReadBytes(blob_len, blob);
  out.dict.resize(dict_count);
  for (std::size_t i = 0; i < dict_count; ++i) {
    ByteReader vr(blob + offsets[i],
                  static_cast<std::size_t>(offsets[i + 1] - offsets[i]));
    CATMARK_RETURN_IF_ERROR(DecodeValue(vr, out.dict[i]));
    if (!vr.AtEnd()) {
      return Status::InvalidArgument(
          ".catm dict entry has trailing bytes in column '" + col.name + "'");
    }
    if (out.dict[i].is_null()) {
      return Status::InvalidArgument(
          ".catm dictionary contains a NULL entry in column '" + col.name +
          "'");
    }
    if (!out.dict[i].MatchesType(col.type)) {
      return Status::InvalidArgument(
          ".catm dict entry type disagrees with the schema in column '" +
          col.name + "'");
    }
  }
  r.ReadLeI64Array(dict_count, out.live);
  r.ReadLeI32Array(static_cast<std::size_t>(num_rows), out.codes);
  return Status::OK();
}

Result<Relation> ReadCatmImpl(std::string_view bytes, const Schema* expected) {
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
  if (!LooksLikeCatm(bytes)) {
    return Status::InvalidArgument("not a .catm file (bad magic)");
  }
  if (bytes.size() < kCatmHeaderSize) {
    return Status::DataLoss("truncated .catm file: " +
                            std::to_string(bytes.size()) +
                            " bytes is shorter than the header");
  }
  ByteReader hdr(data + sizeof(kCatmMagic),
                 kCatmHeaderSize - sizeof(kCatmMagic));
  std::uint32_t version = 0;
  std::uint32_t meta_length = 0;
  std::uint64_t meta_checksum = 0;
  std::uint64_t num_rows = 0;
  std::uint32_t num_columns = 0;
  std::int32_t pk_index = 0;
  hdr.ReadLeU32(version);
  hdr.ReadLeU32(meta_length);
  hdr.ReadLeU64(meta_checksum);
  hdr.ReadLeU64(num_rows);
  hdr.ReadLeU32(num_columns);
  hdr.ReadLeI32(pk_index);
  if (version != kCatmVersion) {
    return Status::InvalidArgument("unsupported .catm version " +
                                   std::to_string(version) +
                                   " (this build reads version " +
                                   std::to_string(kCatmVersion) + ")");
  }

  const std::uint64_t sections_start =
      static_cast<std::uint64_t>(kCatmHeaderSize) + meta_length;
  if (sections_start > bytes.size()) {
    return Status::DataLoss("truncated .catm file: meta block runs past EOF");
  }
  const std::uint64_t actual = CatmChecksum(
      data + kCatmChecksumStart,
      static_cast<std::size_t>(sections_start) - kCatmChecksumStart);
  if (actual != meta_checksum) {
    return Status::DataLoss(".catm meta checksum mismatch");
  }

  // The meta checksum verified; everything below is protected against
  // corruption-in-transit, so remaining failures are malformed files.
  if (num_columns == 0) {
    return Status::InvalidArgument(".catm file declares zero columns");
  }
  if (num_columns > meta_length / kCatmMetaPerColumn) {
    return Status::InvalidArgument(
        ".catm column count " + std::to_string(num_columns) +
        " exceeds what the meta block can describe");
  }
  // Every row costs >= 1 byte in every column section, so a row count
  // beyond the file size is bogus — reject before sizing any vector by it.
  if (num_rows > bytes.size()) {
    return Status::InvalidArgument(".catm row count " +
                                   std::to_string(num_rows) +
                                   " exceeds the file size");
  }

  ByteReader meta(data + kCatmHeaderSize, meta_length);
  std::vector<Column> columns(num_columns);
  for (std::size_t c = 0; c < num_columns; ++c) {
    std::uint16_t name_len = 0;
    const std::uint8_t* name = nullptr;
    std::uint8_t type = 0;
    std::uint8_t categorical = 0;
    if (!meta.ReadLeU16(name_len) || !meta.ReadBytes(name_len, name) ||
        !meta.ReadU8(type) || !meta.ReadU8(categorical)) {
      return Status::InvalidArgument(".catm meta block ends inside schema");
    }
    if (type > 2) {
      return Status::InvalidArgument(".catm column " + std::to_string(c) +
                                     " has unknown type byte " +
                                     std::to_string(type));
    }
    if (categorical > 1) {
      return Status::InvalidArgument(".catm column " + std::to_string(c) +
                                     " has a categorical flag that is not 0/1");
    }
    columns[c].name.assign(reinterpret_cast<const char*>(name), name_len);
    columns[c].type = static_cast<ColumnType>(type);
    columns[c].categorical = categorical == 1;
  }
  std::string pk_name;
  if (pk_index != -1) {
    if (pk_index < 0 || static_cast<std::uint32_t>(pk_index) >= num_columns) {
      return Status::InvalidArgument(".catm primary key index " +
                                     std::to_string(pk_index) +
                                     " is out of range");
    }
    pk_name = columns[static_cast<std::size_t>(pk_index)].name;
  }
  Result<Schema> schema_r = Schema::Create(std::move(columns), pk_name);
  if (!schema_r.ok()) {
    return Status::InvalidArgument(".catm schema is invalid: " +
                                   schema_r.status().message());
  }
  Schema schema = std::move(schema_r).value();

  std::vector<SectionEntry> table(num_columns);
  std::uint64_t expect_offset = sections_start;
  for (std::size_t c = 0; c < num_columns; ++c) {
    SectionEntry& s = table[c];
    if (!meta.ReadU8(s.kind) || !meta.ReadLeU64(s.offset) ||
        !meta.ReadLeU64(s.length) || !meta.ReadLeU64(s.checksum)) {
      return Status::InvalidArgument(
          ".catm meta block ends inside the section table");
    }
    if (s.kind != kCatmSectionDict && s.kind != kCatmSectionPlain) {
      return Status::InvalidArgument(".catm column " + std::to_string(c) +
                                     " has unknown section kind " +
                                     std::to_string(s.kind));
    }
    const bool want_dict = schema.column(c).categorical;
    if ((s.kind == kCatmSectionDict) != want_dict) {
      return Status::InvalidArgument(
          ".catm section kind disagrees with the schema for column '" +
          schema.column(c).name + "'");
    }
    if (s.offset != expect_offset) {
      return Status::InvalidArgument(
          ".catm sections are not contiguous at column " + std::to_string(c));
    }
    if (s.offset > bytes.size() || s.length > bytes.size() - s.offset) {
      return Status::DataLoss("truncated .catm file: section for column " +
                              std::to_string(c) + " runs past EOF");
    }
    expect_offset = s.offset + s.length;
  }
  if (!meta.AtEnd()) {
    return Status::InvalidArgument(".catm meta block has trailing bytes");
  }
  if (expect_offset != bytes.size()) {
    return Status::InvalidArgument(
        ".catm file has trailing bytes after the last section");
  }

  // Sections verify and decode one column per worker; the columns then
  // install in column order, and the first failure in that order wins, so a
  // corrupt image reports the same Status at every worker count.
  std::vector<DecodedColumn> decoded(num_columns);
  ParallelFor(num_columns,
              num_rows >= kCatmRowsPerShard
                  ? EffectiveThreadCount(0, num_columns)
                  : 1,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t c = begin; c < end; ++c) {
                  decoded[c].status = DecodeSection(
                      data, table[c], schema.column(c), num_rows, decoded[c]);
                }
              });
  ColumnStore store(schema);
  for (std::size_t c = 0; c < num_columns; ++c) {
    DecodedColumn& d = decoded[c];
    CATMARK_RETURN_IF_ERROR(d.status);
    CATMARK_RETURN_IF_ERROR(
        table[c].kind == kCatmSectionDict
            ? store.InstallDictColumn(c, std::move(d.dict), std::move(d.live),
                                      std::move(d.codes))
        : store.IsLaneColumn(c)
            ? store.InstallLaneColumn(c, std::move(d.bits),
                                      std::move(d.null_words))
            : store.InstallStringColumn(c, std::move(d.values)));
  }
  CATMARK_RETURN_IF_ERROR(
      store.FinalizeInstall(static_cast<std::size_t>(num_rows)));

  if (expected != nullptr && !(schema == *expected)) {
    return Status::InvalidArgument(
        ".catm schema does not match the expected schema; file has: " +
        schema.ToString());
  }
  return Relation(std::move(schema), std::move(store));
}

}  // namespace

Result<Relation> ReadCatmString(std::string_view bytes) {
  return ReadCatmImpl(bytes, nullptr);
}

Result<Relation> ReadCatmString(std::string_view bytes,
                                const Schema& expected) {
  return ReadCatmImpl(bytes, &expected);
}

Result<Relation> ReadCatmFile(const std::string& path) {
  CATMARK_ASSIGN_OR_RETURN(FileBytes bytes, FileBytes::Open(path));
  return ReadCatmString(bytes.view());
}

Result<Relation> ReadCatmFile(const std::string& path,
                              const Schema& expected) {
  CATMARK_ASSIGN_OR_RETURN(FileBytes bytes, FileBytes::Open(path));
  return ReadCatmString(bytes.view(), expected);
}

Result<Relation> LoadRelation(const std::string& path, const Schema& schema) {
  CATMARK_ASSIGN_OR_RETURN(FileBytes bytes, FileBytes::Open(path));
  if (LooksLikeCatm(bytes.view())) {
    return ReadCatmString(bytes.view(), schema);
  }
  // CSV ingest goes through the chunked parallel parser; its output is
  // byte-identical to the serial parser at every thread count.
  return ReadCsvStringParallel(bytes.view(), schema);
}

Status SaveRelation(const Relation& rel, const std::string& path) {
  constexpr std::string_view kExt = ".catm";
  if (path.size() >= kExt.size() &&
      std::string_view(path).substr(path.size() - kExt.size()) == kExt) {
    return WriteCatmFile(rel, path);
  }
  return WriteCsvFile(rel, path);
}

}  // namespace catmark
