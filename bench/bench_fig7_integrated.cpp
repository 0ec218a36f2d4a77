// Reproduces Fig. 6/7 / Sec. 4.2: the integrated allocation method.
//
// Builds the paper's Fig. 6 situation — an operation whose operands are
// written in different partitions — and shows the transfer temporary T the
// allocator inserts, the lifetime-based latch merging, and the resulting
// datapath statistics. Also measures the power effect of the transfer
// temporaries (the "input holding" mechanism) as an ablation.
#include <cstdio>

#include "core/integrated.hpp"
#include "core/partition.hpp"
#include "core/synthesizer.hpp"
#include "suite/benchmarks.hpp"
#include "table_common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace mcrtl;

namespace {

/// The Fig. 6 schedule: X written in step 1 (partition beta), E written in
/// step 2 (partition alpha), consumed together in step 3.
struct Fig6 {
  dfg::Graph g{"fig6", 4};
  dfg::Schedule s{g};

  Fig6() {
    const auto a = g.add_input("a");
    const auto b = g.add_input("b");
    const auto c = g.add_input("c");
    const auto nx = g.add_node(dfg::Op::Add, {a, b}, "writeX");   // step 1
    const auto ne = g.add_node(dfg::Op::Add, {b, c}, "writeE");   // step 2
    const auto nf = g.add_node(dfg::Op::Sub, {g.node(ne).output,
                                              g.node(nx).output},
                               "useEX");                          // step 3
    g.mark_output(g.node(nf).output);
    s.extend_for(g);
    s.set_step(nx, 1);
    s.set_step(ne, 2);
    s.set_step(nf, 3);
  }
};

}  // namespace

int main() {
  std::printf("=== Fig. 6/7 / Sec. 4.2: integrated allocation ===\n\n");

  // --- the Fig. 6 transfer temporary ---------------------------------------
  {
    Fig6 f;
    core::IntegratedOptions opts;
    opts.num_clocks = 2;
    const auto r = core::allocate_integrated(f.g, f.s, opts);
    std::printf("Fig. 6 behaviour: X written @T1 (partition 1), E written @T2 "
                "(partition 2), both read @T3.\n");
    std::printf("transfer temporaries inserted: %d\n", r.transfers_inserted);
    for (const auto& n : r.graph->nodes()) {
      if (r.binding->is_transfer(n.id)) {
        std::printf("  %s: Pass of '%s' scheduled @T%d (partition %d) — the "
                    "paper's variable T\n",
                    n.name.c_str(), r.graph->value(n.inputs[0]).name.c_str(),
                    r.schedule->step(n.id),
                    core::partition_of_step(r.schedule->step(n.id), 2));
      }
    }
    std::printf("datapath: ALUs %s, %d memory cells, %d mux inputs\n\n",
                r.binding->alu_summary().c_str(),
                r.binding->num_memory_cells(), r.binding->num_mux_inputs());
  }

  // --- transfer ablation across benchmarks ---------------------------------
  std::printf("transfer-temporary ablation (n=3, integrated): operand "
              "re-timing vs none\n\n");
  TextTable t({"benchmark", "transfers", "P with[mW]", "P without[mW]",
               "Mem with", "Mem without"});
  for (const char* name : {"facet", "hal", "biquad", "bandpass", "ewf"}) {
    const auto b = suite::by_name(name, 4);
    core::SynthesisOptions with;
    with.style = core::DesignStyle::MultiClock;
    with.num_clocks = 3;
    with.insert_transfers = true;
    core::SynthesisOptions without = with;
    without.insert_transfers = false;

    const auto syn = core::synthesize(*b.graph, *b.schedule, with);
    const auto rw = bench::run_style(b, with, 2000, 5);
    const auto ro = bench::run_style(b, without, 2000, 5);
    t.add_row({name, std::to_string(syn.alloc.transfers_inserted),
               format_fixed(rw.power.total, 2), format_fixed(ro.power.total, 2),
               std::to_string(rw.stats.num_memory_cells),
               std::to_string(ro.stats.num_memory_cells)});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\ntransfers hold operands in the partition preceding each "
              "operation (extra latches) so every ALU sees at most one\n"
              "input wave per cycle of its clock — the paper's Step 1 and its "
              "Fig. 7 discussion.\n");
  return 0;
}
