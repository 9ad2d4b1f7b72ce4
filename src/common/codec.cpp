#include "common/codec.hpp"

#include <charconv>
#include <cstdio>

namespace cello {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string hex_u64(u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

namespace {

/// The whole of `digits` in `base`; from_chars takes no sign, space or "0x"
/// prefix for an unsigned target and reports overflow.
std::optional<u64> parse_whole(std::string_view digits, int base) {
  u64 v = 0;
  const char* end = digits.data() + digits.size();
  const auto [stop, ec] = std::from_chars(digits.data(), end, v, base);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return v;
}

}  // namespace

std::optional<u64> parse_hex_u64(std::string_view text) {
  if (text.size() != 18 || !text.starts_with("0x")) return std::nullopt;
  return parse_whole(text.substr(2), 16);
}

std::optional<u64> parse_decimal_u64(std::string_view text) { return parse_whole(text, 10); }

u64 fnv1a(std::string_view bytes, u64 h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace cello
