#include "sim/equivalence.hpp"

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace mcrtl::sim {

EquivalenceReport check_outputs(const dfg::Graph& graph,
                                const InputStream& stream,
                                const std::vector<OutputSample>& outputs,
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
  obs::Span span("sim.golden");
  MCRTL_CHECK(golden.computations == stream.size() &&
              golden.outputs == interp.num_outputs() &&
              golden.values.size() == stream.size() * golden.outputs);
  auto scratch = interp.scratch();
  for (std::size_t c = 0; c < stream.size(); ++c) {
    interp.eval(stream[c], scratch,
                std::span(golden.values).subspan(c * golden.outputs,
                                                 golden.outputs));
  }
}

EquivalenceReport check_outputs(const dfg::Graph& graph,
                                const GoldenOutputs& golden,
                                const std::vector<OutputSample>& outputs,
                                const std::string& style_name) {
  obs::Span span("sim.equivalence");
  EquivalenceReport rep;
  const auto out_order = graph.outputs();
  MCRTL_CHECK(outputs.size() == golden.computations &&
              golden.outputs == out_order.size());
  for (std::size_t c = 0; c < outputs.size(); ++c) {
    const std::uint64_t* expect = golden.values.data() + c * golden.outputs;
    const auto& rtl_out = outputs[c];
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
  rep.computations_checked = outputs.size();
  return rep;
}

}  // namespace mcrtl::sim
