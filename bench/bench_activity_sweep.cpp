// Input-activity sensitivity sweep: the tables use uniform random inputs
// (the paper's protocol); real DSP data is temporally correlated and
// switches less. This bench sweeps the input bit-flip probability and
// checks that the multi-clock advantage over gated clocks persists across
// activity levels (it should — the scheme saves clocking and control power
// that is data-independent, plus combinational power proportional to
// activity).
#include <cstdio>

#include "core/measure.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace mcrtl;

namespace {

double measure(const suite::Benchmark& b, core::DesignStyle style, int clocks,
               double flip_prob) {
  core::SynthesisOptions opts;
  opts.style = style;
  opts.num_clocks = clocks;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  Rng rng(17);
  const auto stim = core::make_stimulus(
      *b.graph, {sim::correlated_stream(rng, b.graph->inputs().size(), 2000,
                                        b.graph->width(), flip_prob)});
  return core::measure(*syn.design, *b.graph, stim,
                       power::TechLibrary::cmos08())
      .point.power.total;
}

}  // namespace

int main() {
  std::printf("=== input-activity sweep: gated baseline vs 3 clocks ===\n\n");
  const double flips[] = {0.0, 0.1, 0.25, 0.5};
  for (const char* name : {"facet", "hal", "biquad"}) {
    const auto b = suite::by_name(name, 4);
    std::printf("%s:\n", name);
    TextTable t({"flip prob", "gated[mW]", "3 clocks[mW]", "saving"});
    for (double f : flips) {
      const double pg = measure(b, core::DesignStyle::ConventionalGated, 1, f);
      const double p3 = measure(b, core::DesignStyle::MultiClock, 3, f);
      t.add_row({format_fixed(f, 2), format_fixed(pg, 2), format_fixed(p3, 2),
                 str_format("%.1f%%", 100.0 * (pg - p3) / pg)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\n");
  }
  std::printf("(flip prob 0.5 = uniform random, the tables' protocol; 0.0 = "
              "constant inputs, isolating clock/control savings)\n");
  return 0;
}
