#include "relation/value.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace catmark {

std::string_view ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "INT64";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

std::int64_t Value::AsInt64() const {
  CATMARK_CHECK(is_int64()) << "Value is not INT64";
  return std::get<std::int64_t>(data_);
}

double Value::AsDouble() const {
  CATMARK_CHECK(is_double()) << "Value is not DOUBLE";
  return std::get<double>(data_);
}

const std::string& Value::AsString() const {
  CATMARK_CHECK(is_string()) << "Value is not STRING";
  return std::get<std::string>(data_);
}

bool Value::MatchesType(ColumnType type) const {
  switch (type) {
    case ColumnType::kInt64:
      return is_int64();
    case ColumnType::kDouble:
      return is_double();
    case ColumnType::kString:
      return is_string();
  }
  return false;
}

std::string Value::ToString() const {
  if (is_null()) return "";
  if (is_int64()) return std::to_string(AsInt64());
  if (is_double()) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", AsDouble());
    return buf;
  }
  return AsString();
}

bool ParseNumberBits(std::string_view text, ColumnType type,
                     std::uint64_t& bits) {
  if (text.empty()) return false;
  const char* const end = text.data() + text.size();
  if (type == ColumnType::kInt64) {
    std::int64_t v = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    bits = static_cast<std::uint64_t>(v);
    return ec == std::errc() && ptr == end;
  }
  // strtod needs a NUL-terminated copy; cells that fit take it on the
  // stack. An embedded NUL stops strtod early and so fails the
  // whole-text check.
  char stack[64];
  std::string heap;
  const char* copy = stack;
  if (text.size() < sizeof(stack)) {
    std::memcpy(stack, text.data(), text.size());
    stack[text.size()] = '\0';
  } else {
    heap.assign(text);
    copy = heap.c_str();
  }
  char* stop = nullptr;
  bits = std::bit_cast<std::uint64_t>(std::strtod(copy, &stop));
  return stop == copy + text.size();
}

std::string NumberParseError(std::string_view text, ColumnType type) {
  return "cannot parse " + std::string(ColumnTypeName(type)) + " from '" +
         std::string(text) + "'";
}

Result<Value> Value::Parse(std::string_view text, ColumnType type) {
  if (text.empty()) return Value();
  if (type == ColumnType::kString) return Value(std::string(text));
  std::uint64_t bits = 0;
  if (!ParseNumberBits(text, type, bits)) {
    return Status::InvalidArgument(NumberParseError(text, type));
  }
  return LaneValue(type, bits);
}

void Value::SerializeForHash(std::vector<std::uint8_t>& out) const {
  // One grow and one SerializeTo instead of a push_back per byte: this sits
  // on the per-row serialize path of every embed/detect.
  const std::size_t at = out.size();
  out.resize(at + SerializedSize());
  SerializeTo(out.data() + at);
}

std::string_view Value::SerializeKeyInto(
    std::vector<std::uint8_t>& scratch) const {
  scratch.clear();
  SerializeForHash(scratch);
  return std::string_view(reinterpret_cast<const char*>(scratch.data()),
                          scratch.size());
}

int Value::Compare(const Value& a, const Value& b) {
  const auto type_rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_int64()) return 1;
    if (v.is_double()) return 2;
    return 3;
  };
  const int ra = type_rank(a);
  const int rb = type_rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;
    case 1: {
      const auto x = a.AsInt64(), y = b.AsInt64();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case 2: {
      const auto x = a.AsDouble(), y = b.AsDouble();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    default: {
      const int c = a.AsString().compare(b.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

}  // namespace catmark
