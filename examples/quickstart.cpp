// Quickstart: the whole MCRTL flow in ~60 lines.
//
//   behaviour (DFG)  ->  schedule  ->  multi-clock synthesis  ->
//   simulate with random inputs  ->  power / area report.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/measure.hpp"

using namespace mcrtl;

int main() {
  // 1. Describe the behaviour: out = (a+b)*(c-d) ; e = (a+b)+c.
  dfg::Graph g("quickstart", /*width=*/8);
  const auto a = g.add_input("a");
  const auto b = g.add_input("b");
  const auto c = g.add_input("c");
  const auto d = g.add_input("d");
  const auto sum = g.add_op(dfg::Op::Add, a, b, "sum");
  const auto diff = g.add_op(dfg::Op::Sub, c, d, "diff");
  const auto prod = g.add_op(dfg::Op::Mul, sum, diff, "prod");
  const auto acc = g.add_op(dfg::Op::Add, sum, c, "acc");
  g.mark_output(prod);
  g.mark_output(acc);

  // 2. Schedule it (resource-constrained list scheduling: 1 multiplier).
  dfg::ResourceLimits limits;
  limits.default_limit = 1;
  const dfg::Schedule sched = dfg::schedule_list(g, limits);
  std::printf("scheduled %zu ops into %d steps\n", g.num_nodes(),
              sched.num_steps());

  // 3. Synthesize the paper's 2-clock datapath (latches, latched control).
  core::SynthesisOptions opts;
  opts.style = core::DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const core::Synthesized syn = core::synthesize(g, sched, opts);
  std::printf("datapath: ALUs %s | %d memory cells | %d mux inputs | %d clocks\n",
              syn.design->stats.alu_summary.c_str(),
              syn.design->stats.num_memory_cells,
              syn.design->stats.num_mux_inputs, syn.design->stats.num_clocks);

  // 4. Simulate 1000 random computations, check every one against the
  //    golden model (measure() throws on a mismatch) and estimate power and
  //    area from the same run's switching activity.
  const auto stim = core::uniform_stimulus(g, 1000, 2024);
  const auto m = core::measure(*syn.design, g, stim,
                               power::TechLibrary::cmos08());
  std::printf("equivalence vs golden model: OK (%zu computations)\n",
              stim.streams[0].size());
  std::printf("power: %s\n", m.point.power.to_string().c_str());
  std::printf("area:  %s\n", m.point.area.to_string().c_str());
  return 0;
}
