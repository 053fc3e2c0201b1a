#ifndef CATMARK_RELATION_VALUE_H_
#define CATMARK_RELATION_VALUE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/bits.h"
#include "common/result.h"

namespace catmark {

/// Column data types. Categorical attributes are typically kString (city
/// names, airline codes) or kInt64 (product numbers such as Item_Nbr);
/// kDouble exists for non-categorical payload columns.
enum class ColumnType { kInt64, kDouble, kString };

std::string_view ColumnTypeName(ColumnType type);

/// A single relational value: NULL, 64-bit integer, double, or string.
/// Values are ordered (strings byte-wise — "sorted e.g. by ASCII value" per
/// Section 2.1) and canonically serializable so keyed hashes are stable.
class Value {
 public:
  /// NULL value.
  Value() : data_(std::monostate{}) {}
  explicit Value(std::int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int64() const { return std::holds_alternative<std::int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }

  /// Typed accessors; the value must hold that type (checked).
  std::int64_t AsInt64() const;
  double AsDouble() const;
  const std::string& AsString() const;

  /// Branch-only typed probe for per-row hot loops: the held int64, or
  /// nullptr for every other alternative (including NULL). Unlike AsInt64
  /// this is inline and unchecked — one variant-tag test, no call.
  const std::int64_t* TryInt64() const {
    return std::get_if<std::int64_t>(&data_);
  }

  /// True when a non-null value matches the given column type.
  bool MatchesType(ColumnType type) const;

  /// Renders for CSV / display; NULL renders as the empty string.
  std::string ToString() const;

  /// Parses `text` according to `type`. Empty text parses as NULL.
  static Result<Value> Parse(std::string_view text, ColumnType type);

  /// Appends a canonical, type-tagged byte serialization used as keyed-hash
  /// input: tag byte, then big-endian payload (strings appended raw with a
  /// length prefix). Identical values always serialize identically.
  void SerializeForHash(std::vector<std::uint8_t>& out) const;

  /// Byte length of the SerializeForHash form: 1 for NULL, 9 for numbers,
  /// 9 + length for strings.
  std::size_t SerializedSize() const {
    if (const auto* s = std::get_if<std::string>(&data_)) return 9 + s->size();
    return is_null() ? 1 : 9;
  }

  /// Writes the SerializeForHash form to `out`, which must have room for
  /// SerializedSize() bytes; returns one past the last byte written. Inline
  /// so bulk encoders (the .catm writer) pay no call per value.
  std::uint8_t* SerializeTo(std::uint8_t* out) const {
    if (const auto* i = std::get_if<std::int64_t>(&data_)) {
      return SerializeNumberTo(ColumnType::kInt64,
                               static_cast<std::uint64_t>(*i), out);
    }
    if (const auto* d = std::get_if<double>(&data_)) {
      return SerializeNumberTo(ColumnType::kDouble,
                               std::bit_cast<std::uint64_t>(*d), out);
    }
    if (const auto* s = std::get_if<std::string>(&data_)) {
      *out = 3;
      out = PutBigEndian64(s->size(), out + 1);
      std::memcpy(out, s->data(), s->size());
      return out + s->size();
    }
    *out = 0;
    return out + 1;
  }

  /// Writes the 9-byte SerializeForHash form of the non-NULL number whose
  /// raw 8-byte word is `bits` (an int64's two's complement for kInt64, a
  /// double's bit pattern for kDouble) without building a Value: the
  /// numeric-lane encoders serialize straight from the lane through this.
  static std::uint8_t* SerializeNumberTo(ColumnType type, std::uint64_t bits,
                                         std::uint8_t* out) {
    *out = type == ColumnType::kInt64 ? 1 : 2;
    return PutBigEndian64(bits, out + 1);
  }

  /// Serializes into `scratch` (cleared first) and returns a view of the
  /// bytes: the canonical key form shared by dictionary interning and the
  /// embedding map, kept in one place so they can never disagree.
  std::string_view SerializeKeyInto(std::vector<std::uint8_t>& scratch) const;

  /// Three-way ordering: NULL < int64 < double < string across types;
  /// natural ordering within a type (byte-wise for strings).
  static int Compare(const Value& a, const Value& b);

  friend bool operator==(const Value& a, const Value& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator!=(const Value& a, const Value& b) {
    return Compare(a, b) != 0;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return Compare(a, b) < 0;
  }

 private:
  static std::uint8_t* PutBigEndian64(std::uint64_t v, std::uint8_t* out) {
    StoreBigEndian64(v, out);
    return out + 8;
  }

  std::variant<std::monostate, std::int64_t, double, std::string> data_;
};

/// The non-NULL Value a numeric lane word holds (see SerializeNumberTo):
/// an int64 for kInt64, else the double with those bits.
inline Value LaneValue(ColumnType type, std::uint64_t bits) {
  if (type == ColumnType::kInt64) return Value(static_cast<std::int64_t>(bits));
  return Value(std::bit_cast<double>(bits));
}

/// Converts the text of an INT64 or DOUBLE cell to its lane word (see
/// SerializeNumberTo). INT64 goes through std::from_chars: no '+' prefix,
/// no whitespace, no overflow. DOUBLE goes through strtod, so leading
/// whitespace, nan/inf, hex floats and out-of-range magnitudes read
/// exactly as strtod reads them. Either must consume the whole text; false
/// when it does not, or when the text is empty. Value::Parse and the CSV
/// reader's numeric columns both convert through this, so a cell reads the
/// same either way.
bool ParseNumberBits(std::string_view text, ColumnType type,
                     std::uint64_t& bits);

/// The message of a failed ParseNumberBits: "cannot parse <TYPE> from
/// '<text>'".
std::string NumberParseError(std::string_view text, ColumnType type);

/// A tuple (row) of the relation.
using Row = std::vector<Value>;

}  // namespace catmark

#endif  // CATMARK_RELATION_VALUE_H_
