// Reproduces Fig. 5 / Sec. 4.1: the split allocation walkthrough.
//
// Step 1 partitions the schedule into odd/even local schedules, Step 2 runs
// a conventional allocator per partition, Step 3 is the clean-up phase.
// This bench prints the partitioning of each paper benchmark and the
// clean-up statistics (redundant pseudo-input registers removed, shared
// input ports merged, latch READ/WRITE conflicts split), then compares the
// split result against the integrated allocator on the same inputs.
#include <cstdio>

#include "core/partition.hpp"
#include "core/split.hpp"
#include "core/synthesizer.hpp"
#include "suite/benchmarks.hpp"
#include "table_common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace mcrtl;

int main() {
  std::printf("=== Fig. 5 / Sec. 4.1: split allocation and its clean-up phase "
              "===\n\n");

  // Step 1 on the motivating schedule, as in the figure.
  {
    const auto b = suite::motivating(4);
    const auto ps = core::partition_schedule(*b.schedule, 2);
    std::printf("step 1 (partition the schedule), motivating example:\n");
    for (int k = 1; k <= 2; ++k) {
      std::printf("  partition P%d (clock %d):", k, k);
      for (auto nid : ps.nodes[static_cast<std::size_t>(k - 1)]) {
        std::printf(" %s@T%d(local %d')", b.graph->node(nid).name.c_str(),
                    b.schedule->step(nid),
                    core::local_step(b.schedule->step(nid), 2));
      }
      std::printf("\n");
    }
    std::printf("  cut edges (pseudo primary I/O of the partitions): %zu\n\n",
                ps.cut_edges.size());
  }

  std::printf("steps 2+3 (allocate per partition, then clean up), all "
              "benchmarks at n=2:\n\n");
  TextTable t({"benchmark", "cut edges", "pseudo-regs removed",
               "inputs merged", "latch conflicts split", "Mem", "MuxIn"});
  for (const char* name : {"motivating", "facet", "hal", "biquad", "bandpass",
                           "ewf", "ar_lattice", "fir8"}) {
    const auto b = suite::by_name(name, 4);
    const auto ps = core::partition_schedule(*b.schedule, 2);
    core::SplitOptions opts;
    opts.num_clocks = 2;
    const auto r = core::allocate_split(*b.graph, *b.schedule, opts);
    t.add_row({name, std::to_string(ps.cut_edges.size()),
               std::to_string(r.cleanup.pseudo_input_registers_removed),
               std::to_string(r.cleanup.shared_inputs_merged),
               std::to_string(r.cleanup.latch_conflicts_split),
               std::to_string(r.synthesis.binding->num_memory_cells()),
               std::to_string(r.synthesis.binding->num_mux_inputs())});
  }
  std::fputs(t.render().c_str(), stdout);

  std::printf("\nsplit vs integrated (Sec. 4.2) at n=2, measured power:\n\n");
  TextTable cmp({"benchmark", "split[mW]", "integrated[mW]", "winner"});
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    core::SynthesisOptions so;
    so.style = core::DesignStyle::MultiClock;
    so.num_clocks = 2;
    so.method = core::AllocMethod::Split;
    const auto rs = bench::run_style(b, so, 2000, 99);
    so.method = core::AllocMethod::Integrated;
    const auto ri = bench::run_style(b, so, 2000, 99);
    cmp.add_row({name, format_fixed(rs.power.total, 2),
                 format_fixed(ri.power.total, 2),
                 ri.power.total <= rs.power.total ? "integrated" : "split"});
  }
  std::fputs(cmp.render().c_str(), stdout);
  std::printf("\nthe paper (Sec. 4) expects the integrated method to share "
              "resources better; the split method's value is that any\n"
              "existing allocator can be reused per partition.\n");
  return 0;
}
