// hal_low_power: walk the paper's HAL differential-equation benchmark
// through all five design styles, showing where each milliwatt goes, and
// dump a VCD trace of the 2-clock design for waveform inspection.
//
// Build & run:  ./build/examples/hal_low_power [out.vcd]
#include <cstdio>
#include <fstream>

#include "core/measure.hpp"
#include "sim/vcd.hpp"
#include "suite/benchmarks.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace mcrtl;

namespace {

struct StyleRun {
  core::DesignStyle style;
  int clocks;
};

}  // namespace

int main(int argc, char** argv) {
  const auto b = suite::hal(4);
  std::printf("HAL benchmark: %s\n", b.description.c_str());
  std::printf("%zu operations in %d control steps\n\n", b.graph->num_nodes(),
              b.schedule->num_steps());

  const StyleRun runs[] = {
      {core::DesignStyle::ConventionalNonGated, 1},
      {core::DesignStyle::ConventionalGated, 1},
      {core::DesignStyle::MultiClock, 1},
      {core::DesignStyle::MultiClock, 2},
      {core::DesignStyle::MultiClock, 3},
  };

  TextTable t({"Design", "total[mW]", "comb", "storage", "clock", "control",
               "area[1e6 l^2]"});
  const auto tech = power::TechLibrary::cmos08();
  const auto stim = core::uniform_stimulus(*b.graph, 3000, 1996);

  for (const auto& run : runs) {
    core::SynthesisOptions opts;
    opts.style = run.style;
    opts.num_clocks = run.clocks;
    const auto syn = core::synthesize(*b.graph, *b.schedule, opts);

    // measure() checks every computation against the golden model first.
    const auto m = core::measure(*syn.design, *b.graph, stim, tech);
    const auto& pw = m.point.power;
    const auto& ar = m.point.area;
    t.add_row({syn.design->style_name, format_fixed(pw.total, 2),
               format_fixed(pw.combinational, 2), format_fixed(pw.storage, 2),
               format_fixed(pw.clock_tree, 2), format_fixed(pw.control, 2),
               format_fixed(ar.total / 1e6, 2)});
  }
  std::fputs(t.render().c_str(), stdout);

  // VCD of the 2-clock design over a few computations.
  core::SynthesisOptions opts;
  opts.style = core::DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  sim::VcdTracer tracer(*syn.design);
  core::MeasureHooks hooks;
  hooks.observer = [&](std::uint64_t step,
                       const std::vector<std::uint64_t>& nets) {
    tracer.record(step, nets);
  };
  core::measure(*syn.design, *b.graph, core::uniform_stimulus(*b.graph, 4, 7),
                tech, {}, hooks);
  const std::string path = argc > 1 ? argv[1] : "hal_2clock.vcd";
  std::ofstream(path) << tracer.render();
  std::printf("\nwrote waveform trace of the 2-clock design to %s\n",
              path.c_str());
  return 0;
}
