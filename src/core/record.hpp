// Shared on-disk codec for evaluated design points.
//
// The checkpoint journal (core/checkpoint.cpp) and the search result cache
// (core/search.cpp) both persist ExplorationPoint measurements as
// line-oriented, whitespace-tokenized, CRC-guarded records. This header is
// the single definition of that token encoding so the two files can never
// drift apart:
//
//  * strings are "s:"-prefixed with %XX escapes for anything outside
//    printable ASCII (so a token never contains a space);
//  * doubles are 16-hex IEEE-754 bit patterns — a decoded point is
//    bit-identical to the encoded one, which is what makes replayed /
//    cached sweeps byte-identical to fresh ones;
//  * integers are decimal, with an optional sign on decode and a range
//    check against the field they land in;
//  * a record line is "<tag> <payload> <crc>": the payload is protected by
//    an FNV-1a 64 checksum appended as the last token, so torn or flipped
//    bytes are detected, not replayed.
//
// Decoding works in place: a store reads its file once, cuts it into line
// and token views (split()) and decodes from those, allocating only for
// the strings a decoded point owns. Encoders append to one caller-owned
// string.
#pragma once

#include <charconv>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "core/explorer.hpp"

namespace mcrtl::core::record {

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;

/// FNV-1a 64-bit — the hash behind record checksums, journal/cache
/// fingerprints and per-configuration hashes. `h` continues a hash over
/// earlier bytes: fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b).
std::uint64_t fnv1a64(std::string_view s, std::uint64_t h = kFnvOffsetBasis);

/// Read the whole regular file at `path` into `out` with one sized read.
/// False (and `out` empty) when it cannot be opened or is not a regular
/// file.
bool read_file(const std::string& path, std::string& out);

/// Space-free token encoding for labels: bytes outside the printable ASCII
/// range, '%' and ' ' become %XX. Prefixed with "s:" so an empty string is
/// still a well-formed token.
void append_str(std::string& out, std::string_view s);
bool decode_str(std::string_view tok, std::string& out);

/// 16-hex IEEE-754 bit pattern (lossless round trip).
void append_double(std::string& out, double d);
std::string encode_double(double d);
bool decode_double(std::string_view tok, double& out);

/// Fixed-width lower-case hex for fingerprints/checksums.
void append_u64(std::string& out, std::uint64_t v);
std::string encode_u64(std::uint64_t v);
bool decode_u64(std::string_view tok, std::uint64_t& out);

/// Decimal integers.
template <class Int>
void append_decimal(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}
/// An optional sign ('+' or '-') then one or more digits, nothing else;
/// false when the value does not fit an int.
bool decode_int(std::string_view tok, int& out);
/// As decode_int for a record index: false when negative (other than "-0")
/// or beyond 64 bits.
bool decode_index(std::string_view tok, std::size_t& out);

/// Cut `line` at blanks (space, \t, \n, \v, \f, \r) into the views
/// out[0..n) of its tokens and return n. Runs of blanks separate once, so
/// no token is empty. A line with more than out.size() tokens returns
/// out.size() + 1.
std::size_t split(std::string_view line, std::span<std::string_view> out);

/// Write a record line: begin_record() appends "<tag> " and returns where
/// the payload starts; after the payload, end_record() appends its
/// checksum and the newline.
std::size_t begin_record(std::string& out, char tag);
void end_record(std::string& out, std::size_t payload_at);

/// The payload of a record line (without its '\n'): the line is "<tag> "
/// followed by the payload, a space and 16 hex digits of the payload's
/// checksum. False when any of that fails; the tag (line[0]) is the
/// caller's to check.
bool checked_payload(std::string_view line, std::string_view& payload);

/// Number of tokens append_point_fields() emits: label, 9 power
/// (7 breakdown + stddev + ci95), 8 area, alu_summary, 6 stats ints
/// (alus, mem cells, mux inputs, muxes, clocks, period), hotspot,
/// hotspot_share, crest.
constexpr std::size_t kPointTokens = 28;

/// Serialize every measured field of a point (everything except `options`
/// and the `pareto` flag, which are re-derived by the consumer).
void append_point_fields(std::string& out, const ExplorationPoint& p);
std::string encode_point_fields(const ExplorationPoint& p);

/// Decode the kPointTokens tokens of a point into `point`. Returns false on
/// any malformation, in which case `point` must be discarded.
bool decode_point_fields(std::span<const std::string_view, kPointTokens> toks,
                         ExplorationPoint& point);

}  // namespace mcrtl::core::record
