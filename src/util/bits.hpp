// Bit-level utilities used by the datapath simulator and the switching
// activity counters. Datapath words are carried in uint64_t and masked to
// the configured bit-width; toggle counting is Hamming distance between the
// old and new word.
//
// The second half of this header is the bit-slice toolkit behind the
// simulator's Mode::BitSliced kernel: a `width`-bit signal carrying 64
// independent Monte-Carlo streams is stored as `width` planes, where bit s
// of plane b is bit b of stream s's word. One SWAR operation on the planes
// then advances all 64 streams at once — logic ops are plane-wise, addition
// is a ripple of full-adder planes, and per-stream toggle counts accumulate
// in "vertical" carry-save counters whose planes are themselves bit-sliced.
#pragma once

#include <bit>
#include <cstdint>

namespace mcrtl {

/// All-ones mask for a `width`-bit word (width in 1..64).
constexpr std::uint64_t bit_mask(unsigned width) {
  return width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
}

/// Truncate `v` to `width` bits.
constexpr std::uint64_t truncate(std::uint64_t v, unsigned width) {
  return v & bit_mask(width);
}

/// Inline SWAR popcount. `std::popcount` lowers to a `__popcountdi2` libcall
/// on baseline x86-64 builds (no -mpopcnt), and that call in the middle of
/// the simulator's toggle-counting hot path costs more than the count
/// itself; this version always inlines.
constexpr unsigned popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<unsigned>((x * 0x0101010101010101ULL) >> 56);
}

/// Number of bit positions that differ between two words — the quantity the
/// transition-counting power model accumulates per net.
constexpr unsigned hamming(std::uint64_t a, std::uint64_t b) {
  return popcount64(a ^ b);
}

/// Sign-extend a `width`-bit word into a signed 64-bit value, for arithmetic
/// interpretation of datapath words.
constexpr std::int64_t to_signed(std::uint64_t v, unsigned width) {
  if (width >= 64) return static_cast<std::int64_t>(v);
  const std::uint64_t sign = std::uint64_t{1} << (width - 1);
  const std::uint64_t x = truncate(v, width);
  return static_cast<std::int64_t>((x ^ sign) - sign);
}

/// Re-encode a signed value as a `width`-bit two's complement word.
constexpr std::uint64_t from_signed(std::int64_t v, unsigned width) {
  return truncate(static_cast<std::uint64_t>(v), width);
}

// ---- bit-slice primitives ---------------------------------------------------
//
// Layout convention: a sliced value is `width` consecutive uint64_t planes;
// bit s of plane b is bit b of lane (stream) s. `transpose64` converts
// between the plane view and the lane view — it is an involution, so the
// same call packs lanes into planes and unpacks planes into lanes.

/// In-place 64x64 bit-matrix transpose (Hacker's Delight 7-3): after the
/// call, bit j of x[i] is the old bit i of x[j]. Self-inverse.
inline void transpose64(std::uint64_t x[64]) {
  // Hacker's Delight 7-3, with the block swap taken between the *high* half
  // of the low row and the *low* half of the high row — HD's original pairs
  // the other halves, which transposes about the anti-diagonal (row i, bit
  // j -> row 63-j, bit 63-i) instead of the main diagonal wanted here.
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((x[k] >> j) ^ x[k | j]) & m;
      x[k] ^= t << j;
      x[k | j] ^= t;
    }
  }
}

/// Broadcast one scalar word into planes: every lane of out[b] is bit b of
/// `value` (the sliced image of a value all streams agree on, e.g. a
/// controller line or constant).
inline void slice_broadcast(std::uint64_t value, unsigned width,
                            std::uint64_t* out) {
  for (unsigned b = 0; b < width; ++b) {
    out[b] = (value >> b) & 1 ? ~std::uint64_t{0} : 0;
  }
}

/// Pack the low `width` bits of `n` lane words into planes; lanes >= n are
/// zero. Equivalent to zero-padding to 64 words and calling transpose64,
/// but costs width x n bit ops instead of a full 64x64 transpose — the
/// right tool when only a few planes are live.
inline void slice_pack(const std::uint64_t* words, std::size_t n,
                       unsigned width, std::uint64_t* out) {
  for (unsigned b = 0; b < width; ++b) {
    std::uint64_t plane = 0;
    for (std::size_t s = 0; s < n; ++s) {
      plane |= ((words[s] >> b) & 1) << s;
    }
    out[b] = plane;
  }
}

/// Gather lane `lane`'s word out of `width` planes.
inline std::uint64_t slice_extract_lane(const std::uint64_t* planes,
                                        unsigned width, unsigned lane) {
  std::uint64_t v = 0;
  for (unsigned b = 0; b < width; ++b) {
    v |= ((planes[b] >> lane) & 1) << b;
  }
  return v;
}

/// Unpack `width` planes into `n` per-lane words — the inverse of
/// slice_pack over the first n lanes.
inline void slice_unpack(const std::uint64_t* planes, unsigned width,
                         std::size_t n, std::uint64_t* out) {
  for (std::size_t s = 0; s < n; ++s) {
    out[s] = slice_extract_lane(planes, width, static_cast<unsigned>(s));
  }
}

/// Sliced ripple-carry addition out = a + b + carry_in (carry_in is a lane
/// mask: lanes with the bit set add 1). Returns the carry-out lane mask.
/// `out` may alias `a` or `b`.
inline std::uint64_t slice_add(const std::uint64_t* a, const std::uint64_t* b,
                               unsigned width, std::uint64_t* out,
                               std::uint64_t carry_in = 0) {
  std::uint64_t carry = carry_in;
  for (unsigned i = 0; i < width; ++i) {
    const std::uint64_t x = a[i], y = b[i];
    out[i] = x ^ y ^ carry;
    carry = (x & y) | (carry & (x ^ y));
  }
  return carry;
}

/// Sliced subtraction out = a - b (two's complement: a + ~b + 1). Returns
/// the carry-out lane mask (set = no borrow).
inline std::uint64_t slice_sub(const std::uint64_t* a, const std::uint64_t* b,
                               unsigned width, std::uint64_t* out) {
  std::uint64_t carry = ~std::uint64_t{0};
  for (unsigned i = 0; i < width; ++i) {
    const std::uint64_t x = a[i], y = ~b[i];
    out[i] = x ^ y ^ carry;
    carry = (x & y) | (carry & (x ^ y));
  }
  return carry;
}

/// Per-lane select: out[b] = mask ? a[b] : b_[b] for every plane. The sliced
/// form of a 2:1 mux whose select already is a lane mask.
inline void slice_mux(std::uint64_t mask, const std::uint64_t* a,
                      const std::uint64_t* b_, unsigned width,
                      std::uint64_t* out) {
  for (unsigned i = 0; i < width; ++i) {
    out[i] = (mask & a[i]) | (~mask & b_[i]);
  }
}

/// Lane mask of a == b.
inline std::uint64_t slice_eq(const std::uint64_t* a, const std::uint64_t* b,
                              unsigned width) {
  std::uint64_t m = ~std::uint64_t{0};
  for (unsigned i = 0; i < width; ++i) m &= ~(a[i] ^ b[i]);
  return m;
}

/// Lane mask of sliced value == scalar constant `c`.
inline std::uint64_t slice_eq_const(const std::uint64_t* a, unsigned width,
                                    std::uint64_t c) {
  std::uint64_t m = ~std::uint64_t{0};
  for (unsigned i = 0; i < width; ++i) {
    m &= (c >> i) & 1 ? a[i] : ~a[i];
  }
  return m;
}

/// Lane mask of signed a < b over `width`-bit two's complement words.
/// If the sign bits differ the negative operand is smaller; otherwise the
/// subtraction cannot overflow and the difference's sign bit decides.
inline std::uint64_t slice_lt_signed(const std::uint64_t* a,
                                     const std::uint64_t* b, unsigned width) {
  std::uint64_t carry = ~std::uint64_t{0};
  std::uint64_t diff_sign = 0;
  for (unsigned i = 0; i < width; ++i) {
    const std::uint64_t x = a[i], y = ~b[i];
    diff_sign = x ^ y ^ carry;
    carry = (x & y) | (carry & (x ^ y));
  }
  const std::uint64_t sa = a[width - 1], sb = b[width - 1];
  return (sa & ~sb) | (~(sa ^ sb) & diff_sign);
}

/// Compress `width` 1-bit lane masks into the bit-sliced binary sum per
/// lane: after the call, out[0..*out_planes) are the planes of a per-lane
/// integer in 0..width (the number of input masks with that lane set) —
/// a carry-save population count across planes. Returns the plane count
/// (at most 7 for width <= 64). `out` needs room for 7 planes.
inline unsigned slice_popcount_planes(const std::uint64_t* masks,
                                      unsigned width, std::uint64_t* out) {
  unsigned planes = 0;
  for (unsigned i = 0; i < width; ++i) {
    std::uint64_t carry = masks[i];
    for (unsigned p = 0; p < planes && carry != 0; ++p) {
      const std::uint64_t s = out[p] ^ carry;
      carry &= out[p];
      out[p] = s;
    }
    if (carry != 0) out[planes++] = carry;
  }
  return planes;
}

/// Add a bit-sliced per-lane value (`val`, `val_planes` planes) into a
/// vertical per-lane counter of `counter_planes` planes. Returns false on
/// overflow (a carry out of the top plane, or a set value plane above it,
/// in any lane).
inline bool slice_counter_add(std::uint64_t* counter, unsigned counter_planes,
                              const std::uint64_t* val, unsigned val_planes) {
  std::uint64_t carry = 0;
  for (unsigned p = 0; p < counter_planes; ++p) {
    const std::uint64_t add = p < val_planes ? val[p] : 0;
    const std::uint64_t x = counter[p];
    counter[p] = x ^ add ^ carry;
    carry = (x & add) | (carry & (x ^ add));
    if (p >= val_planes && carry == 0) return true;
  }
  for (unsigned p = counter_planes; p < val_planes; ++p) carry |= val[p];
  return carry == 0;
}

}  // namespace mcrtl
