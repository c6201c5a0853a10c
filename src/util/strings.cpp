#include "util/strings.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace mframe::util {

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> splitWs(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t b = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > b) out.emplace_back(s.substr(b, i - b));
  }
  return out;
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string format(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += format("\\u%04x", static_cast<unsigned>(c));
        else
          out += c;
    }
  }
  return out;
}

std::string padLeft(std::string_view s, std::size_t w) {
  std::string out(s);
  if (out.size() < w) out.insert(0, w - out.size(), ' ');
  return out;
}

std::string padRight(std::string_view s, std::size_t w) {
  std::string out(s);
  if (out.size() < w) out.append(w - out.size(), ' ');
  return out;
}

long parseLong(std::string_view s) {
  if (s.empty()) return -1;
  constexpr long kMax = std::numeric_limits<long>::max();
  long v = 0;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return -1;
    const long d = c - '0';
    if (v > (kMax - d) / 10) return -1;  // would wrap: reject, don't truncate
    v = v * 10 + d;
  }
  return v;
}

bool parseSignedLong(std::string_view s, long& out) {
  const bool neg = !s.empty() && s[0] == '-';
  const long v = parseLong(neg ? s.substr(1) : s);
  if (v < 0) return false;
  out = neg ? -v : v;
  return true;
}

bool parseDouble(std::string_view s, double& out) {
  if (s.empty()) return false;
  const std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE || !std::isfinite(v))
    return false;
  out = v;
  return true;
}

}  // namespace mframe::util
