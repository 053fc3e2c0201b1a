#ifndef CATMARK_COMMON_STR_UTIL_H_
#define CATMARK_COMMON_STR_UTIL_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace catmark {

/// Splits `s` on `sep`; empty fields are preserved ("a,,b" -> {"a","","b"}).
std::vector<std::string> StrSplit(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view StrTrim(std::string_view s);

/// True when `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Strict numeric parsing for values that cross a trust boundary (CLI
/// flags, certificate fields): the whole of `text` must be the number, with
/// no surrounding space; nullopt otherwise.
///
/// ParseUint takes plain decimal digits only — no sign — in [min, max].
std::optional<std::uint64_t> ParseUint(
    std::string_view text, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
/// ParseDouble takes a finite decimal or scientific-notation number
/// ("0.25", "-1", "2.5e-07"); "inf", "nan" and hex floats are rejected.
std::optional<double> ParseDouble(std::string_view text);

/// printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace catmark

#endif  // CATMARK_COMMON_STR_UTIL_H_
