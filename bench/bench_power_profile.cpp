// Per-step power profile: the multi-clock scheme's mechanism made visible.
// In a conventional single-clock datapath the whole circuit switches every
// master cycle; under n non-overlapping clocks only one partition switches
// per cycle, so the per-cycle switching-energy profile flattens and its
// average drops. Prints the profile folded onto one computation period for
// the HAL benchmark under each style.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/measure.hpp"
#include "suite/benchmarks.hpp"
#include "util/strings.hpp"

using namespace mcrtl;

namespace {

void profile(const suite::Benchmark& b, core::DesignStyle style, int clocks) {
  core::SynthesisOptions opts;
  opts.style = style;
  opts.num_clocks = clocks;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  const auto m = core::measure(*syn.design, *b.graph,
                               core::uniform_stimulus(*b.graph, 400, 61),
                               power::TechLibrary::cmos08());
  const sim::PowerProbe& probe = m.probe;

  // The probe's folded profile, averaged over the computations: the whole
  // design's energy at each step of the master period.
  const int P = probe.period();
  const double periods = static_cast<double>(probe.steps() / P);
  std::vector<double> per_step(static_cast<std::size_t>(P), 0.0);
  double top = 1.0;
  for (int t = 1; t <= P; ++t) {
    double& e = per_step[static_cast<std::size_t>(t - 1)];
    for (int d = 0; d <= probe.num_domains(); ++d) e += probe.profile_fj(d, t);
    e /= periods;
    top = std::max(top, e);
  }
  std::printf("%s (all switching, clock tree included):\n",
              syn.design->style_name.c_str());
  for (int t = 1; t <= P; ++t) {
    const double e = per_step[static_cast<std::size_t>(t - 1)];
    const auto bars = static_cast<std::size_t>(40.0 * e / top + 0.5);
    std::printf("step %2d (CLK_%d) |%-40s| %8.0f fJ\n", t,
                syn.design->clocks.phase_of_step(t),
                std::string(bars, '#').c_str(), e);
  }
  const auto energies = probe.step_energies();
  std::printf("mean %.0f fJ/cycle, peak %.0f fJ, crest %.2f\n\n",
              probe.total_fj() / static_cast<double>(probe.steps()),
              *std::max_element(energies.begin(), energies.end()),
              m.point.crest);
}

}  // namespace

int main() {
  std::printf("=== per-cycle switching-energy profile (HAL benchmark) ===\n\n");
  const auto b = suite::hal(4);
  profile(b, core::DesignStyle::ConventionalGated, 1);
  profile(b, core::DesignStyle::MultiClock, 2);
  profile(b, core::DesignStyle::MultiClock, 3);
  std::printf("each master cycle only one partition's DPM switches, so the "
              "multi-clock profiles spread work across the period\n"
              "instead of surging every cycle.\n");
  return 0;
}
