#ifndef CATMARK_RELATION_CATM_FORMAT_H_
#define CATMARK_RELATION_CATM_FORMAT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "common/default_init.h"
#include "common/status.h"
#include "relation/value.h"

namespace catmark {

/// Low-level building blocks of the .catm binary relation format (v1).
///
/// A .catm file is the on-disk image of a ColumnStore: dictionary columns
/// keep their dictionary, live counts and int32 code vector; plain columns
/// keep their per-row values. Loading bulk-copies those arrays back instead
/// of re-parsing and re-interning every cell, and adopts code assignment
/// verbatim, so a loaded relation is code-for-code identical to the one
/// that was written.
///
/// Layout (all fixed-width fields little-endian; the byte offsets on the
/// left are absolute):
///
///   0   magic[8]            89 'C' 'A' 'T' 'M' 0D 0A 1A
///   8   u32 version         1
///   12  u32 meta_length     length of the meta block
///   16  u64 meta_checksum   CatmChecksum over bytes [24, 40 + meta_length)
///   24  u64 num_rows
///   32  u32 num_columns
///   36  i32 primary_key_index   (-1 = schema has no primary key)
///   40  meta block:
///         per column: u16 name_len, name bytes,
///                     u8 type (0=INT64 1=DOUBLE 2=STRING), u8 categorical
///         then the section table, per column:
///                     u8 kind (1=dict 2=plain),
///                     u64 offset (absolute), u64 length, u64 checksum
///   40 + meta_length  column sections, contiguous and in column order
///
/// Dict section payload:
///   u32 dict_count
///   u64 value_offsets[dict_count + 1]   (into the blob; [0] = 0)
///   blob                                (dict values, EncodeValue form)
///   i64 live[dict_count]
///   i32 codes[num_rows]                 (kNullCode = -1 marks NULL)
///
/// Plain section payload: num_rows values in EncodeValue form, back to back.
///
/// Values are encoded exactly as Value::SerializeForHash — a tag byte then a
/// big-endian payload — so a dictionary blob slice doubles as the canonical
/// intern key without re-serialization.
///
/// Integrity and error taxonomy: every byte after the four structural header
/// fields is covered by a checksum (the meta checksum spans the counts, the
/// schema and the section table; each section carries its own). Checksums
/// are an unkeyed 64-bit multiply-fold hash (wyhash-style) — corruption
/// detection, not authenticity. Truncation and checksum mismatches report
/// DataLoss;
/// everything else a well-formed-looking file can get wrong (bad magic,
/// unsupported version, malformed values, inconsistent counts) reports
/// InvalidArgument. Loading never crashes on hostile bytes.

inline constexpr std::uint8_t kCatmMagic[8] = {0x89, 'C',  'A',  'T',
                                               'M',  0x0D, 0x0A, 0x1A};
inline constexpr std::uint32_t kCatmVersion = 1;

/// Fixed-size prefix before the meta block (magic through primary_key_index).
inline constexpr std::size_t kCatmHeaderSize = 40;
/// First byte covered by the meta checksum (num_rows onward).
inline constexpr std::size_t kCatmChecksumStart = 24;

/// Section kinds in the section table.
inline constexpr std::uint8_t kCatmSectionDict = 1;
inline constexpr std::uint8_t kCatmSectionPlain = 2;

/// Per-column byte cost inside the meta block, excluding the name bytes:
/// the schema entry (u16 + u8 + u8) plus the section table entry.
inline constexpr std::size_t kCatmMetaPerColumn = 4 + (1 + 8 + 8 + 8);

/// The format's 64-bit integrity checksum: an unkeyed wyhash-style
/// multiply-fold over two 16-byte lanes. Fast enough (~10 GB/s) that
/// verifying every byte on load is not the bottleneck of a .catm read.
std::uint64_t CatmChecksum(const std::uint8_t* data, std::size_t len);
std::uint64_t CatmChecksum(std::string_view bytes);

/// Forward writer over a pre-sized byte range: the writer-side mirror of
/// ByteReader. The .catm encoder sizes every section before it writes, so
/// the writer does no bounds checks of its own.
class ByteWriter {
 public:
  explicit ByteWriter(std::uint8_t* p) : p_(p) {}

  std::uint8_t* pos() const { return p_; }

  void PutU8(std::uint8_t v) { *p_++ = v; }
  void PutLeU16(std::uint16_t v) { PutLe(v, 2); }
  void PutLeU32(std::uint32_t v) { PutLe(v, 4); }
  void PutLeU64(std::uint64_t v) { PutLe(v, 8); }
  void PutBytes(const void* data, std::size_t n) {
    if (n > 0) std::memcpy(p_, data, n);
    p_ += n;
  }
  /// Fixed-width integer arrays, little-endian: one memcpy on
  /// little-endian hosts, a per-element loop otherwise.
  template <typename T>
  void PutLeArray(std::span<const T> v) {
    if constexpr (std::endian::native == std::endian::little) {
      PutBytes(v.data(), v.size_bytes());
    } else {
      for (const T x : v) PutLe(static_cast<std::uint64_t>(x), sizeof(T));
    }
  }
  /// The format's value encoding (== Value::SerializeForHash).
  void PutValue(const Value& v) { p_ = v.SerializeTo(p_); }
  /// A non-NULL numeric lane word, in PutValue's encoding.
  void PutNumber(ColumnType type, std::uint64_t bits) {
    p_ = Value::SerializeNumberTo(type, bits, p_);
  }

 private:
  void PutLe(std::uint64_t v, std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) {
      *p_++ = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::uint8_t* p_;
};

/// Bounds-checked forward reader over a byte range. Every Read* returns
/// false instead of reading past the end — the loader turns that into a
/// Status rather than trusting lengths baked into the file.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                   bytes.size()) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  bool ReadU8(std::uint8_t& v);
  bool ReadLeU16(std::uint16_t& v);
  bool ReadLeU32(std::uint32_t& v);
  bool ReadLeU64(std::uint64_t& v);
  bool ReadLeI32(std::int32_t& v);
  bool ReadLeI64(std::int64_t& v);
  /// Big-endian u64 — the payload order of the value encoding.
  bool ReadBeU64(std::uint64_t& v);

  /// Exposes the next `n` bytes in place and advances past them.
  bool ReadBytes(std::size_t n, const std::uint8_t*& p);
  bool Skip(std::size_t n);

  /// Bulk array forms (memcpy on little-endian hosts). The element count is
  /// validated against the remaining bytes *before* any allocation, so a
  /// corrupt length cannot trigger a huge resize. The int32 form fills a
  /// column's code array, sized without a zero-fill: it writes every slot.
  bool ReadLeI32Array(std::size_t n, DefaultInitVector<std::int32_t>& out);
  bool ReadLeI64Array(std::size_t n, std::vector<std::int64_t>& out);
  bool ReadLeU64Array(std::size_t n, std::vector<std::uint64_t>& out);

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Decodes one value off `r` (tag byte + payload). String lengths are
/// validated against the reader's remaining bytes before allocation.
/// InvalidArgument on unknown tags or payloads running past the end.
Status DecodeValue(ByteReader& r, Value& out);

}  // namespace catmark

#endif  // CATMARK_RELATION_CATM_FORMAT_H_
