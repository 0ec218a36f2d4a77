// Small string helpers shared by report printers, parsers and the VHDL
// emitter.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

namespace mcrtl {

/// printf-style formatting into a std::string.
std::string str_format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Join `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Lower-case ASCII copy.
std::string to_lower(std::string s);

/// True if `s` is a valid VHDL/C-style identifier.
bool is_identifier(const std::string& s);

/// Mangle an arbitrary name into a safe identifier (non-alnum -> '_',
/// leading digit prefixed).
std::string sanitize_identifier(const std::string& s);

/// The body of a JSON string literal: quote, backslash, newline and tab get
/// their short escapes, every other byte below 0x20 a \u00XX escape.
std::string json_escape(const std::string& s);

/// A CSV field: quoted, with embedded quotes doubled, if it holds a comma, a
/// quote or a newline; otherwise unchanged.
std::string csv_escape(const std::string& s);

/// Format a double with `digits` significant decimals, trimming trailing
/// zeros ("3.50" stays "3.50" when digits==2; used for table output).
std::string format_fixed(double v, int digits);

/// Parse all of `text` as a decimal T (integer or floating point) in
/// [lo, hi]. nullopt for anything else: empty text, a trailing suffix, a
/// sign on an unsigned type, overflow, NaN, or a value out of range.
template <class T>
std::optional<T> parse_number(const std::string& text, T lo, T hi) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || !(v >= lo) ||
      !(v <= hi)) {
    return std::nullopt;
  }
  return v;
}

}  // namespace mcrtl
