// String helpers shared across libmframe.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mframe::util {

/// Split `s` on `sep`, trimming surrounding whitespace from each piece.
/// Empty pieces are kept (so "a,,b" yields {"a","","b"}).
std::vector<std::string> split(std::string_view s, char sep);

/// Split on arbitrary runs of whitespace; empty pieces are dropped.
std::vector<std::string> splitWs(std::string_view s);

/// Remove leading/trailing whitespace.
std::string trim(std::string_view s);

/// True if `s` begins with `prefix`.
bool startsWith(std::string_view s, std::string_view prefix);

/// Join `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// `s` as the body of a JSON string literal (without the quotes): `"`, `\`
/// and every control character are escaped.
std::string jsonEscape(std::string_view s);

/// Left/right pad `s` with spaces to width `w` (no-op if already wider).
std::string padLeft(std::string_view s, std::size_t w);
std::string padRight(std::string_view s, std::size_t w);

/// Parse a non-negative integer; returns -1 on malformed input or on a
/// value that would overflow `long` (overflow is rejected, never wrapped).
long parseLong(std::string_view s);

/// Parse a signed integer (optional leading '-'); false on malformed input.
bool parseSignedLong(std::string_view s, long& out);

/// Parse a finite double, consuming the entire string (strtod grammar, so
/// "1.5e2" works but "abc", "" and trailing garbage do not); false on
/// malformed, non-finite, or out-of-range input.
bool parseDouble(std::string_view s, double& out);

}  // namespace mframe::util
