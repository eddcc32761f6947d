// Shared JSON formatting primitives of the %.17g golden-file scheme, used
// by core::export (decision reports, golden files), kits::kit_json
// (process-kit exchange) and the serve response serializer.  One
// implementation keeps the serializers' escaping and number formatting from
// drifting apart.  The append_* forms write straight into the caller's
// buffer, so a document is built in one pass without temporary strings.
#pragma once

#include <charconv>
#include <string>

#include "common/strfmt.hpp"

namespace ipass {

// Appends `value` with JSON string escaping (without the surrounding
// quotes).  The names we serialize carry no control chars in practice, but
// keep the escapes correct anyway.
inline void append_json_escaped(std::string& out, const std::string& value) {
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strf("\\u%04x", c);
        } else {
          out += c;
        }
        break;
    }
  }
}

inline std::string json_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  append_json_escaped(out, value);
  return out;
}

// Appends `v` formatted exactly as printf's "%.17g" (the standard defines
// to_chars with chars_format::general and a precision that way), which
// round-trips every finite binary64 (strtod inverts it).  to_chars skips
// printf's format parsing and locale machinery, roughly 10x faster.
inline void append_json_number(std::string& out, double v) {
  char buf[32];  // "-2.2250738585072014e-308" is the longest: 24 chars
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

inline std::string json_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

// Appends `prefix` (typically `, "key": `) followed by the number `v`.
inline void append_json_field(std::string& out, const char* prefix, double v) {
  out += prefix;
  append_json_number(out, v);
}

}  // namespace ipass
