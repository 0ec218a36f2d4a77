// The shared record codec (core/record.hpp) and the search result cache's
// loader that runs it over whole files.
//
// Every table below pins what a decoder accepts, token by token and line by
// line: the stores read bytes that may be torn, flipped or forged, so the
// set of accepted inputs is part of the on-disk contract. A rewrite of the
// codec must accept exactly these inputs and decode them to exactly these
// values.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/record.hpp"
#include "core/search.hpp"

using namespace mcrtl;
namespace record = core::record;

namespace {

// ---- helpers ---------------------------------------------------------------

std::vector<std::string> words(const std::string& line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    const std::size_t sp = line.find(' ', i);
    const std::size_t end = sp == std::string::npos ? line.size() : sp;
    out.push_back(line.substr(i, end - i));
    i = end + 1;
  }
  return out;
}

std::string join(const std::vector<std::string>& toks, const std::string& sep) {
  std::string s;
  for (std::size_t k = 0; k < toks.size(); ++k) {
    if (k > 0) s += sep;
    s += toks[k];
  }
  return s;
}

/// Decode a whole field line (kPointTokens whitespace-separated tokens) the
/// way both stores do: split into tokens, demand the exact count, decode.
bool decode_fields(const std::string& line, core::ExplorationPoint& p) {
  std::string_view toks[record::kPointTokens];
  return record::split(line, toks) == std::size(toks) &&
         record::decode_point_fields(toks, p);
}

core::ExplorationPoint sample_point() {
  core::ExplorationPoint p;
  p.label = "3clk-int-latch";
  p.power.combinational = 0.1;
  p.power.total = 1.0 / 3.0;
  p.power_ci95 = -0.0;
  p.area.total = 123456.0;
  p.stats.alu_summary = "2(+), 1(*)";
  p.stats.num_alus = 3;
  p.stats.num_memory_cells = 7;
  p.stats.num_mux_inputs = 11;
  p.stats.num_muxes = 4;
  p.stats.num_clocks = 3;
  p.stats.period = 6;
  p.hotspot = "fu_mul0";
  p.hotspot_share = 2.0 / 3.0;
  p.crest = 1.5;
  return p;
}

/// The field tokens of sample_point() with token `k` replaced by `tok`.
std::vector<std::string> sample_tokens_with(std::size_t k,
                                            const std::string& tok) {
  auto toks = words(record::encode_point_fields(sample_point()));
  toks.at(k) = tok;
  return toks;
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "mcrtl_record_" + name;
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// A cache line "<tag> <payload> <crc>" with a checksum that holds.
std::string cache_line(char tag, const std::string& payload) {
  return std::string(1, tag) + ' ' + payload + ' ' +
         record::encode_u64(record::fnv1a64(payload));
}

std::string row_payload(std::uint64_t key, const std::string& sep = " ") {
  return record::encode_u64(key) + sep +
         join(words(record::encode_point_fields(sample_point())), sep);
}

std::string mark_payload(const std::string& rung) {
  return record::encode_u64(42) + ' ' + record::encode_u64(43) + ' ' + rung +
         " s:by";
}

constexpr const char* kHeader = "mcrtl-cache v1\n";

}  // namespace

// ---- token decoders --------------------------------------------------------

TEST(RecordCodec, DecodeU64AcceptsExactlySixteenLowerCaseHexDigits) {
  struct Case {
    const char* tok;
    bool ok;
    std::uint64_t value;
  };
  const Case cases[] = {
      {"0123456789abcdef", true, 0x0123456789abcdefULL},
      {"ffffffffffffffff", true, ~0ULL},
      {"0000000000000000", true, 0},
      {"0123456789ABCDEF", false, 0},   // upper case
      {"0123456789abcdeF", false, 0},   // one upper-case digit
      {"123456789abcdef", false, 0},    // 15 digits
      {"00123456789abcdef", false, 0},  // 17 digits
      {"", false, 0},
      {" 123456789abcdef", false, 0},
      {"+123456789abcdef", false, 0},
      {"-123456789abcdef", false, 0},
      {"0x23456789abcdef", false, 0},
      {"0123456789abcdeg", false, 0},
  };
  for (const auto& c : cases) {
    std::uint64_t v = 7;
    EXPECT_EQ(record::decode_u64(std::string(c.tok), v), c.ok) << c.tok;
    if (c.ok) {
      EXPECT_EQ(v, c.value) << c.tok;
    }
    double d = 0.0;
    EXPECT_EQ(record::decode_double(std::string(c.tok), d), c.ok) << c.tok;
    if (c.ok) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(d), c.value) << c.tok;
    }
  }
}

TEST(RecordCodec, DoublesRoundTripBitExactly) {
  for (const double d : {0.0, -0.0, 1.0 / 3.0, 1e-300, -2.5e300, 0.1}) {
    double back = 42.0;
    ASSERT_TRUE(record::decode_double(record::encode_double(d), back));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(d));
  }
  EXPECT_EQ(record::encode_double(1.0), "3ff0000000000000");
  EXPECT_EQ(record::encode_u64(0xabcULL), "0000000000000abc");
  double nan = 0.0;
  ASSERT_TRUE(record::decode_double("7ff8000000000000", nan));
  EXPECT_TRUE(std::isnan(nan));
}

TEST(RecordCodec, DecodeStrTable) {
  struct Case {
    const char* tok;
    bool ok;
    const char* value;
  };
  const Case cases[] = {
      {"s:", true, ""},
      {"s:abc", true, "abc"},
      {"s:a%20b", true, "a b"},
      {"s:%41", true, "A"},  // needless escape, still accepted
      {"s:%25%25", true, "%%"},
      {"s:%4a", true, "J"},
      {"s:%7f%ff", true, "\x7f\xff"},
      {"s:\x01raw", true, "\x01raw"},  // raw bytes pass through
      {"s:a\tb", true, "a\tb"},
      {"s:s:", true, "s:"},
      {"s:%2", false, ""},   // escape cut short
      {"s:%", false, ""},
      {"s:ab%", false, ""},
      {"s:%zz", false, ""},  // not hex
      {"s:%4A", false, ""},  // upper-case escape
      {"s:%g0", false, ""},
      {"abc", false, ""},  // missing "s:" prefix
      {"S:abc", false, ""},
      {":abc", false, ""},
      {"s", false, ""},
      {"", false, ""},
  };
  for (const auto& c : cases) {
    std::string out = "stale";
    EXPECT_EQ(record::decode_str(std::string(c.tok), out), c.ok) << c.tok;
    if (c.ok) {
      EXPECT_EQ(out, c.value) << c.tok;
    }
  }
  std::string enc;
  record::append_str(enc, "a b%\x7f\xff");
  EXPECT_EQ(enc, "s:a%20b%25%7f%ff");
  enc.clear();
  record::append_str(enc, "");
  EXPECT_EQ(enc, "s:");
}

// ---- point fields ----------------------------------------------------------

TEST(RecordCodec, PointFieldsRoundTrip) {
  const core::ExplorationPoint p = sample_point();
  const std::string line = record::encode_point_fields(p);
  EXPECT_EQ(words(line).size(), record::kPointTokens);
  core::ExplorationPoint q;
  ASSERT_TRUE(decode_fields(line, q));
  EXPECT_EQ(record::encode_point_fields(q), line);
  EXPECT_EQ(q.label, p.label);
  EXPECT_EQ(q.stats.alu_summary, p.stats.alu_summary);
  EXPECT_EQ(q.hotspot, p.hotspot);
  EXPECT_EQ(q.stats.period, 6);
  EXPECT_TRUE(std::signbit(q.power_ci95));
}

TEST(RecordCodec, PointFieldIntegerTokens) {
  // Token 19 is num_alus; the other five integers decode the same way.
  struct Case {
    const char* tok;
    bool ok;
    int value;
  };
  const Case cases[] = {
      {"5", true, 5},
      {"+5", true, 5},
      {"-5", true, -5},
      {"0", true, 0},
      {"-0", true, 0},
      {"0000000000000000000000005", true, 5},
      {"2147483647", true, INT_MAX},
      {"-2147483648", true, INT_MIN},
      {"5x", false, 0},
      {"x5", false, 0},
      {"0x5", false, 0},
      {"+", false, 0},
      {"-", false, 0},
      {"+-5", false, 0},
      {"--5", false, 0},
      {"5.0", false, 0},
      {"s:5", false, 0},
      {"99999999999999999999", false, 0},  // beyond long: strtol's ERANGE
  };
  for (const auto& c : cases) {
    core::ExplorationPoint q;
    EXPECT_EQ(decode_fields(join(sample_tokens_with(19, c.tok), " "), q), c.ok)
        << c.tok;
    if (c.ok) {
      EXPECT_EQ(q.stats.num_alus, c.value) << c.tok;
    }
  }
  // Every integer slot, not only the first.
  for (std::size_t k = 19; k < 25; ++k) {
    core::ExplorationPoint q;
    EXPECT_FALSE(decode_fields(join(sample_tokens_with(k, "1y"), " "), q)) << k;
    EXPECT_TRUE(decode_fields(join(sample_tokens_with(k, "+1"), " "), q)) << k;
  }
}

TEST(RecordCodec, PointFieldStringAndDoubleTokens) {
  struct Case {
    std::size_t k;
    const char* tok;
    bool ok;
  };
  const Case cases[] = {
      {0, "3clk", false},                // label without "s:"
      {0, "s:3clk%2", false},            // torn escape
      {0, "s:", true},                   // empty label
      {18, "2(+)", false},               // alu_summary without "s:"
      {25, "s:%zz", false},              // hotspot with a bad escape
      {1, "3FF0000000000000", false},    // upper-case double
      {7, "3ff000000000000", false},     // 15 digits
      {17, "3ff00000000000000", false},  // 17 digits
      {26, "3ff0000000000000", true},
      {27, "s:1", false},                // a string where a double goes
  };
  for (const auto& c : cases) {
    core::ExplorationPoint q;
    EXPECT_EQ(decode_fields(join(sample_tokens_with(c.k, c.tok), " "), q), c.ok)
        << c.k << ' ' << c.tok;
  }
}

TEST(RecordCodec, PointFieldsSplitOnAnyBlank) {
  const auto toks = words(record::encode_point_fields(sample_point()));
  core::ExplorationPoint q;
  // Tabs, CR, vertical tab, form feed and runs of blanks all separate
  // tokens; leading and trailing blanks are ignored. Empty tokens do not
  // exist.
  for (const std::string sep : {"\t", "\r", "\v", "\f", "  ", " \t\r "}) {
    EXPECT_TRUE(decode_fields(join(toks, sep), q)) << int(sep[0]);
  }
  EXPECT_TRUE(decode_fields(" " + join(toks, " ") + "\r", q));
  EXPECT_TRUE(decode_fields("\t\t" + join(toks, " ") + " \t", q));
  // One token short or one too many.
  auto short_toks = toks;
  short_toks.pop_back();
  EXPECT_FALSE(decode_fields(join(short_toks, " "), q));
  auto long_toks = toks;
  long_toks.push_back("s:");
  EXPECT_FALSE(decode_fields(join(long_toks, " "), q));
  EXPECT_FALSE(decode_fields("", q));
}

// ---- ResultCache::load over whole files ------------------------------------

TEST(RecordCodec, CacheLoadTable) {
  const std::string good_row = cache_line('r', row_payload(1));
  const std::string good_mark = cache_line('x', mark_payload("3"));
  std::string flipped = good_row;
  flipped[10] = flipped[10] == 'a' ? 'b' : 'a';  // inside the key
  std::string upper_crc = good_row;
  for (std::size_t i = upper_crc.rfind(' ') + 1; i < upper_crc.size(); ++i) {
    upper_crc[i] = static_cast<char>(std::toupper(upper_crc[i]));
  }
  const bool crc_has_letter =
      upper_crc != good_row;  // else the case below is not a mismatch

  struct Case {
    const char* name;
    std::string bytes;
    std::size_t bad;
    std::size_t rows;
    std::size_t marks;
  };
  const std::vector<Case> cases = {
      {"empty file", "", 0, 0, 0},
      {"header only", kHeader, 0, 0, 0},
      {"header without newline", "mcrtl-cache v1", 0, 0, 0},
      {"CRLF header", "mcrtl-cache v1\r\n" + good_row + "\n", 1, 0, 0},
      {"foreign header", "mcrtl-cache v2\n" + good_row + "\n", 1, 0, 0},
      {"blank first line", "\n" + std::string(kHeader) + good_row + "\n", 1, 0,
       0},
      {"one row", kHeader + good_row + "\n", 0, 1, 0},
      {"one marker", kHeader + good_mark + "\n", 0, 0, 1},
      {"torn last line, complete in substance", kHeader + good_row, 0, 1, 0},
      {"torn last line, cut short",
       kHeader + good_mark + "\n" + good_row.substr(0, good_row.size() / 2), 1,
       0, 1},
      {"CRC mismatch", kHeader + flipped + "\n" + good_mark + "\n", 1, 0, 1},
      {"CRLF line", kHeader + good_row + "\r\n", 1, 0, 0},
      {"blank lines are skipped", kHeader + std::string("\n\n") + good_row +
                                      "\n\n",
       0, 1, 0},
      {"unknown tag", kHeader + cache_line('q', row_payload(1)) + "\n", 1, 0,
       0},
      {"tag without blank", kHeader + std::string("r") + "\n", 1, 0, 0},
      {"tag and blank only", kHeader + std::string("r ") + "\n", 1, 0, 0},
      {"no checksum", kHeader + std::string("r ") + row_payload(1) + "\n", 1,
       0, 0},
      {"checksum joined by a tab",
       kHeader + std::string("r ") + row_payload(1) + '\t' +
           record::encode_u64(record::fnv1a64(row_payload(1))) + "\n",
       1, 0, 0},
      {"tabs between payload tokens",
       kHeader + cache_line('r', row_payload(1, "\t")) + "\n", 0, 1, 0},
      {"CR inside the payload",
       kHeader + cache_line('r', row_payload(1, "\r")) + "\n", 0, 1, 0},
      {"row missing a field",
       kHeader +
           cache_line('r', row_payload(1).substr(
                               0, row_payload(1).rfind(' '))) +
           "\n",
       1, 0, 0},
      {"row with a bad key",
       kHeader + cache_line('r', "xyz " + row_payload(1).substr(17)) + "\n", 1,
       0, 0},
      {"marker rung +3", kHeader + cache_line('x', mark_payload("+3")) + "\n",
       0, 0, 1},
      {"marker rung -1", kHeader + cache_line('x', mark_payload("-1")) + "\n",
       0, 0, 1},
      {"marker rung 3x", kHeader + cache_line('x', mark_payload("3x")) + "\n",
       1, 0, 0},
      {"marker rung missing",
       kHeader + cache_line('x', record::encode_u64(42) + ' ' +
                                     record::encode_u64(43) + " s:by") +
           "\n",
       1, 0, 0},
      {"marker label without s:",
       kHeader + cache_line('x', record::encode_u64(42) + ' ' +
                                     record::encode_u64(43) + " 3 by") +
           "\n",
       1, 0, 0},
      {"marker with an upper-case key",
       kHeader + cache_line('x', "000000000000002A " + record::encode_u64(43) +
                                     " 3 s:by") +
           "\n",
       1, 0, 0},
  };
  for (const auto& c : cases) {
    const std::string db = tmp_path("table.db");
    spit(db, c.bytes);
    core::ResultCache cache;
    EXPECT_EQ(cache.load(db), c.bad) << c.name;
    EXPECT_EQ(cache.num_rows(), c.rows) << c.name;
    EXPECT_EQ(cache.num_pruned(), c.marks) << c.name;
    std::remove(db.c_str());
  }
  if (crc_has_letter) {
    const std::string db = tmp_path("upper.db");
    spit(db, kHeader + upper_crc + "\n");
    core::ResultCache cache;
    EXPECT_EQ(cache.load(db), 1u);
    std::remove(db.c_str());
  }
}

TEST(RecordCodec, CacheLoadDecodesValuesAndCountsSuperseded) {
  const std::string db = tmp_path("values.db");
  spit(db, kHeader + cache_line('r', row_payload(9, "\t")) + "\n" +
               cache_line('x', mark_payload("+3")) + "\n" +
               cache_line('x', mark_payload("-1")) + "\n" +
               cache_line('r', row_payload(9)));
  core::ResultCache cache;
  const auto st = cache.load_and_compact(db);
  EXPECT_EQ(st.bad_lines, 0u);
  EXPECT_EQ(st.superseded, 2u);
  EXPECT_TRUE(st.rewritten);
  const auto* p = cache.find_row(9);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(record::encode_point_fields(*p),
            record::encode_point_fields(sample_point()));
  const auto* m = cache.find_pruned(42, 43);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->rung, -1);  // the later marker wins
  EXPECT_EQ(m->dominated_by, "by");
  std::remove(db.c_str());
}

// ---- integers outside their field's range ----------------------------------
//
// FNV-1a is a checksum, not a MAC: a forged line carries a valid one, so the
// decoders themselves must refuse a value its field cannot hold instead of
// truncating it.

TEST(RecordCodec, IntegersOutsideIntRangeAreRejected) {
  for (const char* tok : {"2147483648", "-2147483649", "4294967297",
                          "9223372036854775807", "-9223372036854775808"}) {
    int v = 7;
    EXPECT_FALSE(record::decode_int(tok, v)) << tok;
    core::ExplorationPoint q;
    EXPECT_FALSE(decode_fields(join(sample_tokens_with(19, tok), " "), q))
        << tok;
  }
  // An integer token is all digits: bytes after them, a NUL included, make
  // it malformed.
  int v = 7;
  EXPECT_FALSE(record::decode_int(std::string("5\0", 2), v));
  EXPECT_FALSE(record::decode_int("5 ", v));
}

TEST(RecordCodec, DecodeIndexTable) {
  struct Case {
    const char* tok;
    bool ok;
    std::size_t value;
  };
  const Case cases[] = {
      {"0", true, 0},
      {"+3", true, 3},
      {"-0", true, 0},
      {"007", true, 7},
      {"18446744073709551615", true, SIZE_MAX},
      {"18446744073709551616", false, 0},
      {"-1", false, 0},
      {"3x", false, 0},
      {"", false, 0},
      {"+", false, 0},
  };
  for (const auto& c : cases) {
    std::size_t v = 42;
    EXPECT_EQ(record::decode_index(c.tok, v), c.ok) << c.tok;
    if (c.ok) {
      EXPECT_EQ(v, c.value) << c.tok;
    }
  }
}

TEST(RecordCodec, ForgedCacheLinesWithOutOfRangeIntegersAreBad) {
  // num_alus = 2^32 + 1 used to load and decode as 1.
  const std::string forged_row = cache_line(
      'r', record::encode_u64(1) + ' ' +
               join(sample_tokens_with(19, "4294967297"), " "));
  const std::string forged_mark = cache_line('x', mark_payload("4294967297"));
  const std::string nul_row =
      cache_line('r', record::encode_u64(2) + ' ' +
                          join(sample_tokens_with(19, std::string("5\0", 2)),
                               " "));
  for (const std::string& line : {forged_row, forged_mark, nul_row}) {
    const std::string db = tmp_path("forged.db");
    spit(db, kHeader + line + "\n" + cache_line('r', row_payload(3)) + "\n");
    core::ResultCache cache;
    EXPECT_EQ(cache.load(db), 1u) << line;
    EXPECT_EQ(cache.num_rows(), 1u) << line;  // the honest row after it
    EXPECT_EQ(cache.num_pruned(), 0u) << line;
    EXPECT_NE(cache.find_row(3), nullptr);
    std::remove(db.c_str());
  }
}
