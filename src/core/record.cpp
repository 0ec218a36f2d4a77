#include "core/record.hpp"

#include <bit>
#include <climits>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace mcrtl::core::record {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

/// Value of a lower-case hex digit, or -1.
int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

/// The token separators: exactly what isspace() accepts in the C locale.
bool is_blank(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// A decimal token as strtol/strtoull read one: an optional sign, then
/// digits and nothing else. False when there is no digit or the magnitude
/// exceeds 64 bits.
bool parse_decimal(std::string_view tok, bool& negative, std::uint64_t& mag) {
  std::size_t i = 0;
  negative = false;
  if (!tok.empty() && (tok[0] == '+' || tok[0] == '-')) {
    negative = tok[0] == '-';
    i = 1;
  }
  if (i == tok.size()) return false;
  mag = 0;
  for (; i < tok.size(); ++i) {
    if (tok[i] < '0' || tok[i] > '9') return false;
    const auto digit = static_cast<std::uint64_t>(tok[i] - '0');
    if (mag > (UINT64_MAX - digit) / 10) return false;
    mag = mag * 10 + digit;
  }
  return true;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool read_file(const std::string& path, std::string& out) {
  out.clear();
  // A directory or device opens fine but has no meaningful size: only a
  // regular file is read.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) return false;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.resize(static_cast<std::size_t>(size));
  in.read(out.data(), static_cast<std::streamsize>(size));
  out.resize(static_cast<std::size_t>(in.gcount()));
  return true;
}

void append_str(std::string& out, std::string_view s) {
  out += "s:";
  for (unsigned char c : s) {
    if (c > 0x20 && c < 0x7f && c != '%') {
      out += static_cast<char>(c);
    } else {
      const char esc[] = {'%', kHexDigits[c >> 4], kHexDigits[c & 0xf]};
      out.append(esc, sizeof esc);
    }
  }
}

bool decode_str(std::string_view tok, std::string& out) {
  if (!tok.starts_with("s:")) return false;
  out.clear();
  std::size_t i = 2;
  while (i < tok.size()) {
    const std::size_t pct = tok.find('%', i);
    if (pct == std::string_view::npos) {
      out.append(tok.substr(i));
      break;
    }
    out.append(tok.substr(i, pct - i));
    if (pct + 2 >= tok.size()) return false;
    const int hi = hex_value(tok[pct + 1]);
    const int lo = hex_value(tok[pct + 2]);
    if (hi < 0 || lo < 0) return false;
    out += static_cast<char>(hi << 4 | lo);
    i = pct + 3;
  }
  return true;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[16];
  for (int k = 15; k >= 0; --k) {
    buf[k] = kHexDigits[v & 0xf];
    v >>= 4;
  }
  out.append(buf, sizeof buf);
}

std::string encode_u64(std::uint64_t v) {
  std::string out;
  append_u64(out, v);
  return out;
}

bool decode_u64(std::string_view tok, std::uint64_t& out) {
  if (tok.size() != 16) return false;
  std::uint64_t bits = 0;
  for (char c : tok) {
    const int v = hex_value(c);
    if (v < 0) return false;
    bits = bits << 4 | static_cast<std::uint64_t>(v);
  }
  out = bits;
  return true;
}

void append_double(std::string& out, double d) {
  append_u64(out, std::bit_cast<std::uint64_t>(d));
}

std::string encode_double(double d) {
  return encode_u64(std::bit_cast<std::uint64_t>(d));
}

bool decode_double(std::string_view tok, double& out) {
  std::uint64_t bits = 0;
  if (!decode_u64(tok, bits)) return false;
  out = std::bit_cast<double>(bits);
  return true;
}

bool decode_int(std::string_view tok, int& out) {
  bool negative = false;
  std::uint64_t mag = 0;
  if (!parse_decimal(tok, negative, mag)) return false;
  const std::uint64_t limit = negative ? std::uint64_t{INT_MAX} + 1 : INT_MAX;
  if (mag > limit) return false;
  const auto v = static_cast<std::int64_t>(mag);
  out = static_cast<int>(negative ? -v : v);
  return true;
}

bool decode_index(std::string_view tok, std::size_t& out) {
  bool negative = false;
  std::uint64_t mag = 0;
  if (!parse_decimal(tok, negative, mag)) return false;
  if ((negative && mag != 0) || mag > SIZE_MAX) return false;
  out = static_cast<std::size_t>(mag);
  return true;
}

std::size_t split(std::string_view line, std::span<std::string_view> out) {
  std::size_t n = 0;
  std::size_t i = 0;
  for (;;) {
    while (i < line.size() && is_blank(line[i])) ++i;
    if (i == line.size()) return n;
    const std::size_t start = i;
    while (i < line.size() && !is_blank(line[i])) ++i;
    if (n == out.size()) return n + 1;
    out[n++] = line.substr(start, i - start);
  }
}

std::size_t begin_record(std::string& out, char tag) {
  out += tag;
  out += ' ';
  return out.size();
}

void end_record(std::string& out, std::size_t payload_at) {
  const std::uint64_t crc = fnv1a64(std::string_view(out).substr(payload_at));
  out += ' ';
  append_u64(out, crc);
  out += '\n';
}

bool checked_payload(std::string_view line, std::string_view& payload) {
  if (line.size() < 2 || line[1] != ' ') return false;
  // line[1] is a space, so rfind finds one; at 1 there is no checksum.
  const std::size_t crc_sep = line.rfind(' ');
  if (crc_sep < 2) return false;
  std::uint64_t crc = 0;
  if (!decode_u64(line.substr(crc_sep + 1), crc)) return false;
  payload = line.substr(2, crc_sep - 2);
  return crc == fnv1a64(payload);
}

void append_point_fields(std::string& out, const ExplorationPoint& p) {
  append_str(out, p.label);
  const double pow[] = {p.power.combinational, p.power.storage,
                        p.power.clock_tree,    p.power.control,
                        p.power.io,            p.power.leakage,
                        p.power.total,         p.power_stddev,
                        p.power_ci95};
  const double area[] = {p.area.alus,       p.area.storage, p.area.muxes,
                         p.area.controller, p.area.io,      p.area.clocking,
                         p.area.fixed,      p.area.total};
  for (double d : pow) {
    out += ' ';
    append_double(out, d);
  }
  for (double d : area) {
    out += ' ';
    append_double(out, d);
  }
  out += ' ';
  append_str(out, p.stats.alu_summary);
  for (int v : {p.stats.num_alus, p.stats.num_memory_cells,
                p.stats.num_mux_inputs, p.stats.num_muxes,
                p.stats.num_clocks, p.stats.period}) {
    out += ' ';
    append_decimal(out, v);
  }
  out += ' ';
  append_str(out, p.hotspot);
  out += ' ';
  append_double(out, p.hotspot_share);
  out += ' ';
  append_double(out, p.crest);
}

std::string encode_point_fields(const ExplorationPoint& p) {
  std::string out;
  append_point_fields(out, p);
  return out;
}

bool decode_point_fields(std::span<const std::string_view, kPointTokens> toks,
                         ExplorationPoint& point) {
  if (!decode_str(toks[0], point.label)) return false;
  double* pow[] = {&point.power.combinational, &point.power.storage,
                   &point.power.clock_tree,    &point.power.control,
                   &point.power.io,            &point.power.leakage,
                   &point.power.total,         &point.power_stddev,
                   &point.power_ci95};
  for (std::size_t k = 0; k < 9; ++k) {
    if (!decode_double(toks[1 + k], *pow[k])) return false;
  }
  double* area[] = {&point.area.alus,       &point.area.storage,
                    &point.area.muxes,      &point.area.controller,
                    &point.area.io,         &point.area.clocking,
                    &point.area.fixed,      &point.area.total};
  for (std::size_t k = 0; k < 8; ++k) {
    if (!decode_double(toks[10 + k], *area[k])) return false;
  }
  if (!decode_str(toks[18], point.stats.alu_summary)) return false;
  int* ints[] = {&point.stats.num_alus,   &point.stats.num_memory_cells,
                 &point.stats.num_mux_inputs, &point.stats.num_muxes,
                 &point.stats.num_clocks, &point.stats.period};
  for (std::size_t k = 0; k < 6; ++k) {
    if (!decode_int(toks[19 + k], *ints[k])) return false;
  }
  if (!decode_str(toks[25], point.hotspot)) return false;
  if (!decode_double(toks[26], point.hotspot_share)) return false;
  return decode_double(toks[27], point.crest);
}

}  // namespace mcrtl::core::record
