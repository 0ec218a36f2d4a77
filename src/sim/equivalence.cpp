#include "sim/equivalence.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace mcrtl::sim {

EquivalenceReport check_outputs(const dfg::Graph& graph,
                                const InputStream& stream,
                                const WordTable& outputs,
                                const std::string& style_name) {
  return check_outputs(graph, golden_outputs(graph, stream), outputs,
                       style_name);
}

GoldenOutputs golden_outputs(const dfg::Graph& graph,
                             const InputStream& stream) {
  const dfg::Interpreter interp(graph);
  GoldenOutputs golden(stream.size(), interp.num_outputs());
  fill_golden_outputs(interp, stream, golden);
  return golden;
}

void fill_golden_outputs(const dfg::Interpreter& interp,
                         const InputStream& stream, GoldenOutputs& golden) {
  check_stream_width(stream, interp.num_inputs());
  obs::Span span("sim.golden");
  MCRTL_CHECK(golden.size() == stream.size() &&
              golden.words() == interp.num_outputs());
  auto scratch = interp.scratch();
  for (std::size_t c = 0; c < stream.size(); ++c) {
    interp.eval(stream[c], scratch, golden[c]);
  }
}

EquivalenceReport check_outputs(const dfg::Graph& graph,
                                const GoldenOutputs& golden,
                                const WordTable& outputs,
                                const std::string& style_name) {
  obs::Span span("sim.equivalence");
  EquivalenceReport rep;
  const auto out_order = graph.outputs();
  MCRTL_CHECK(outputs.size() == golden.size() &&
              golden.words() == out_order.size() &&
              outputs.words() == out_order.size());
  rep.computations_checked = outputs.size();
  if (std::ranges::equal(golden.values(), outputs.values())) return rep;
  for (std::size_t c = 0; c < outputs.size(); ++c) {
    const auto expect = golden[c];
    const auto rtl_out = outputs[c];
    for (std::size_t o = 0; o < out_order.size(); ++o) {
      if (expect[o] != rtl_out[o]) {
        rep.equivalent = false;
        rep.first_mismatch = c;
        rep.detail = str_format(
            "computation %zu, output '%s': golden=%llu rtl=%llu (style '%s')", c,
            graph.value(out_order[o]).name.c_str(),
            static_cast<unsigned long long>(expect[o]),
            static_cast<unsigned long long>(rtl_out[o]),
            style_name.c_str());
        rep.computations_checked = c + 1;
        return rep;
      }
    }
  }
  return rep;
}

}  // namespace mcrtl::sim
