#include "relation/value.h"

#include <charconv>
#include <cstdio>

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

Result<Value> Value::Parse(std::string_view text, ColumnType type) {
  if (text.empty()) return Value();
  switch (type) {
    case ColumnType::kInt64: {
      std::int64_t v = 0;
      const auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::InvalidArgument("cannot parse INT64 from '" +
                                       std::string(text) + "'");
      }
      return Value(v);
    }
    case ColumnType::kDouble: {
      // std::from_chars for double is not universally available; strtod via
      // a NUL-terminated copy is fine off the hot path.
      const std::string copy(text);
      char* end = nullptr;
      const double v = std::strtod(copy.c_str(), &end);
      if (end != copy.c_str() + copy.size()) {
        return Status::InvalidArgument("cannot parse DOUBLE from '" + copy +
                                       "'");
      }
      return Value(v);
    }
    case ColumnType::kString:
      return Value(std::string(text));
  }
  return Status::InvalidArgument("unknown column type");
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
