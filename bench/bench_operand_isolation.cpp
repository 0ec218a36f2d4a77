// Ablation of the Sec. 2.2 aside: conventional power management can add
// "extra logic to isolate ALUs so that they will not consume useless
// combinational power in their off duty cycles". This bench strengthens the
// gated baseline with operand-isolation AND gates and re-compares it with
// the 3-clock scheme — the fair fight the paper alludes to.
#include <cstdio>

#include "core/synthesizer.hpp"
#include "suite/benchmarks.hpp"
#include "table_common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace mcrtl;

int main() {
  std::printf("=== operand isolation ablation: gated vs gated+isolation vs "
              "3 clocks ===\n\n");
  TextTable t({"benchmark", "gated[mW]", "gated+iso[mW]", "3clk[mW]",
               "3clk+iso[mW]", "best"});
  for (const char* name : {"facet", "hal", "biquad", "bandpass", "ewf"}) {
    const auto b = suite::by_name(name, 4);

    core::SynthesisOptions opts;
    opts.style = core::DesignStyle::ConventionalGated;
    const auto gated = bench::run_style(b, opts, 2000, 41);
    opts.operand_isolation = true;
    const auto gated_iso = bench::run_style(b, opts, 2000, 41);

    opts.style = core::DesignStyle::MultiClock;
    opts.num_clocks = 3;
    opts.operand_isolation = false;
    const auto mc3 = bench::run_style(b, opts, 2000, 41);
    opts.operand_isolation = true;
    const auto mc3_iso = bench::run_style(b, opts, 2000, 41);

    const double best = std::min({gated.power.total, gated_iso.power.total,
                                  mc3.power.total, mc3_iso.power.total});
    const char* who = best == mc3_iso.power.total     ? "3clk+iso"
                      : best == mc3.power.total       ? "3clk"
                      : best == gated_iso.power.total ? "gated+iso"
                                                      : "gated";
    t.add_row({name, format_fixed(gated.power.total, 2),
               format_fixed(gated_iso.power.total, 2),
               format_fixed(mc3.power.total, 2),
               format_fixed(mc3_iso.power.total, 2), who});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\nisolation shields idle ALU function blocks from upstream "
              "transitions at the cost of one AND-gate stage per operand;\n"
              "it composes with the multi-clock scheme (the two attack "
              "different slices of the power budget).\n");
  return 0;
}
