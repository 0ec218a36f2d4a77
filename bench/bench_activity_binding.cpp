// Ablation: profile-guided activity-aware register binding (extension) vs
// the paper's left-edge binding, on top of the 3-clock integrated scheme.
//
// Left-edge minimizes register count; the activity-aware packer minimizes
// expected write toggles by co-locating statistically similar values.
#include <cstdio>

#include "core/synthesizer.hpp"
#include "suite/benchmarks.hpp"
#include "table_common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace mcrtl;

int main() {
  std::printf("=== extension ablation: left-edge vs activity-aware register "
              "binding (3 clocks, integrated) ===\n\n");
  TextTable t({"benchmark", "left-edge P[mW]", "activity P[mW]", "delta",
               "LE Mem", "AA Mem"});
  for (const char* name : {"facet", "hal", "biquad", "bandpass", "ewf",
                           "ar_lattice", "fir8"}) {
    const auto b = suite::by_name(name, 4);
    core::SynthesisOptions opts;
    opts.style = core::DesignStyle::MultiClock;
    opts.num_clocks = 3;
    opts.storage_binding = core::StorageBinding::LeftEdge;
    const auto le = bench::run_style(b, opts, 2500, 21);
    opts.storage_binding = core::StorageBinding::ActivityAware;
    const auto aa = bench::run_style(b, opts, 2500, 21);
    t.add_row({name, format_fixed(le.power.total, 2),
               format_fixed(aa.power.total, 2),
               str_format("%+.1f%%", 100.0 * (aa.power.total - le.power.total) /
                                         le.power.total),
               std::to_string(le.stats.num_memory_cells),
               std::to_string(aa.stats.num_memory_cells)});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\n(the extension changes only which values share a memory "
              "element; functional equivalence is re-checked per row)\n");
  return 0;
}
