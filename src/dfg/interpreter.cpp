#include "dfg/interpreter.hpp"

#include "util/bits.hpp"
#include "util/error.hpp"

namespace mcrtl::dfg {

Interpreter::Interpreter(const Graph& g)
    : graph_(&g), order_(g.topo_order()), init_(g.num_values(), 0) {
  auto slot = [](ValueId v) { return static_cast<std::uint32_t>(v.index()); };
  program_.reserve(order_.size());
  for (NodeId nid : order_) {
    const Node& n = g.node(nid);
    const ValueId b = n.inputs.size() > 1 ? n.inputs[1] : n.inputs[0];
    program_.push_back({n.op, slot(n.inputs[0]), slot(b), slot(n.output)});
  }
  for (ValueId v : g.inputs()) input_slots_.push_back(slot(v));
  for (ValueId v : g.outputs()) output_slots_.push_back(slot(v));
  for (const auto& v : g.values()) {
    if (v.kind == ValueKind::Constant) {
      init_[v.id.index()] = from_signed(v.const_value, g.width());
    }
  }
}

EvalResult Interpreter::run(const InputVector& inputs) const {
  const Graph& g = *graph_;
  const auto ins = g.inputs();
  MCRTL_CHECK_MSG(inputs.size() == ins.size(),
                  "expected " << ins.size() << " inputs, got " << inputs.size());

  EvalResult r;
  r.values.assign(g.num_values(), 0);
  for (std::size_t i = 0; i < ins.size(); ++i) {
    r.values[ins[i].index()] = truncate(inputs[i], g.width());
  }
  for (const auto& v : g.values()) {
    if (v.kind == ValueKind::Constant) {
      r.values[v.id.index()] = from_signed(v.const_value, g.width());
    }
  }
  for (NodeId nid : order_) {
    const Node& n = g.node(nid);
    const std::uint64_t a = r.values[n.inputs[0].index()];
    const std::uint64_t b = n.inputs.size() > 1 ? r.values[n.inputs[1].index()] : 0;
    r.values[n.output.index()] = eval_op(n.op, a, b, g.width());
  }
  for (ValueId out : g.outputs()) r.outputs.push_back(r.values[out.index()]);
  return r;
}

void Interpreter::eval(std::span<const std::uint64_t> inputs,
                       std::span<std::uint64_t> scratch,
                       std::span<std::uint64_t> out) const {
  MCRTL_CHECK_MSG(inputs.size() == input_slots_.size(),
                  "expected " << input_slots_.size() << " inputs, got "
                              << inputs.size());
  MCRTL_CHECK(scratch.size() == init_.size() &&
              out.size() == output_slots_.size());
  const unsigned width = graph_->width();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    scratch[input_slots_[i]] = truncate(inputs[i], width);
  }
  for (const Step& s : program_) {
    scratch[s.out] = eval_op(s.op, scratch[s.a], scratch[s.b], width);
  }
  for (std::size_t o = 0; o < out.size(); ++o) out[o] = scratch[output_slots_[o]];
}

}  // namespace mcrtl::dfg
