#include "dfg/op.hpp"

#include <array>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace mcrtl::dfg {

namespace {
constexpr std::array<OpInfo, kNumOps> kOpTable = {{
    {"add", "+", 2, true},
    {"sub", "-", 2, false},
    {"mul", "*", 2, true},
    {"div", "/", 2, false},
    {"mod", "%", 2, false},
    {"and", "&", 2, true},
    {"or", "|", 2, true},
    {"xor", "^", 2, true},
    {"not", "~", 1, false},
    {"neg", "neg", 1, false},
    {"shl", "<<", 2, false},
    {"shr", ">>", 2, false},
    {"lt", "<", 2, false},
    {"gt", ">", 2, false},
    {"le", "<=", 2, false},
    {"ge", ">=", 2, false},
    {"eq", "==", 2, true},
    {"ne", "!=", 2, true},
    {"min", "min", 2, true},
    {"max", "max", 2, true},
    {"pass", "pass", 1, false},
}};

// Shift amounts use the low bits of b, bounded by width, so behaviour is
// defined for any operand (hardware barrel shifters saturate the same way).
// Only the shifts pay for this division.
unsigned shift_amount(std::uint64_t b, unsigned width) {
  return static_cast<unsigned>(b % (width < 64 ? width + 1 : 64));
}
}  // namespace

const OpInfo& op_info(Op op) {
  const auto i = static_cast<unsigned>(op);
  MCRTL_CHECK(i < kNumOps);
  return kOpTable[i];
}

std::uint64_t eval_op(Op op, std::uint64_t a, std::uint64_t b, unsigned width) {
  a = truncate(a, width);
  b = truncate(b, width);
  const std::int64_t sa = to_signed(a, width);
  const std::int64_t sb = to_signed(b, width);
  switch (op) {
    case Op::Add: return truncate(a + b, width);
    case Op::Sub: return truncate(a - b, width);
    case Op::Mul: return truncate(a * b, width);
    case Op::Div: return b == 0 ? bit_mask(width) : truncate(a / b, width);
    case Op::Mod: return b == 0 ? truncate(a, width) : truncate(a % b, width);
    case Op::And: return a & b;
    case Op::Or: return a | b;
    case Op::Xor: return a ^ b;
    case Op::Not: return truncate(~a, width);
    case Op::Neg: return truncate(0 - a, width);
    case Op::Shl: return truncate(a << shift_amount(b, width), width);
    case Op::Shr: return a >> shift_amount(b, width);
    case Op::Lt: return sa < sb ? 1 : 0;
    case Op::Gt: return sa > sb ? 1 : 0;
    case Op::Le: return sa <= sb ? 1 : 0;
    case Op::Ge: return sa >= sb ? 1 : 0;
    case Op::Eq: return a == b ? 1 : 0;
    case Op::Ne: return a != b ? 1 : 0;
    case Op::Min: return sa < sb ? a : b;
    case Op::Max: return sa > sb ? a : b;
    case Op::Pass: return a;
  }
  MCRTL_CHECK(false);
  return 0;
}

Op parse_op(const std::string& text) {
  for (unsigned i = 0; i < kNumOps; ++i) {
    const auto op = static_cast<Op>(i);
    if (text == op_info(op).name || text == op_info(op).symbol) return op;
  }
  throw Error("unknown operation: '" + text + "'");
}

}  // namespace mcrtl::dfg
