#include "util/strings.hpp"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace mcrtl {

std::string str_format(const char* fmt, ...) {
  // One formatting pass into a stack buffer covers almost every call (names,
  // labels, numbers); only longer results format a second time.
  char buf[256];
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0 && static_cast<std::size_t>(n) < sizeof buf) {
    out.assign(buf, static_cast<std::size_t>(n));
  } else if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

bool is_identifier(const std::string& s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_') return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

std::string sanitize_identifier(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 1);
  for (char c : s) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), 'v');
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += str_format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string format_fixed(double v, int digits) {
  return str_format("%.*f", digits, v);
}

}  // namespace mcrtl
