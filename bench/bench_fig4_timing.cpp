// Reproduces Fig. 4 / Sec. 3.2: timing relationships and the two power
// requirements of the multi-clock scheme on a two-DPM chain:
//
//  (a) no storage power during the other partition's interval tau_2(k) —
//      measured as zero clock events delivered to DPM_1 storage outside
//      phase-1 steps;
//  (b) no combinational power during tau_12(k) when control lines are
//      latched — measured by comparing DPM-1 combinational toggles with
//      latched vs unlatched control (the Fig. 7 note: unlatched control
//      lets muxes switch mid-interval and wastes power).
#include <cstdio>

#include "core/measure.hpp"
#include "suite/benchmarks.hpp"
#include "util/strings.hpp"

using namespace mcrtl;

namespace {

struct CombActivity {
  std::uint64_t comb_toggles = 0;
  std::uint64_t ctrl_toggles = 0;
  double power_mw = 0.0;
};

CombActivity measure(const suite::Benchmark& b, bool latched_control) {
  core::SynthesisOptions opts;
  opts.style = core::DesignStyle::MultiClock;
  opts.num_clocks = 2;
  opts.latched_control = latched_control;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  const auto res = core::measure(*syn.design, *b.graph,
                                 core::uniform_stimulus(*b.graph, 3000, 7),
                                 power::TechLibrary::cmos08());

  CombActivity out;
  for (const auto& net : syn.design->netlist.nets()) {
    const auto k = syn.design->netlist.comp(net.driver).kind;
    if (k == rtl::CompKind::Mux || k == rtl::CompKind::Alu) {
      out.comb_toggles += res.activity.net_toggles[net.id.index()];
    } else if (k == rtl::CompKind::ControlSource) {
      out.ctrl_toggles += res.activity.net_toggles[net.id.index()];
    }
  }
  out.power_mw = res.point.power.total;
  return out;
}

}  // namespace

int main() {
  std::printf("=== Fig. 4 / Sec. 3.2: DPM timing and the latched-control "
              "requirement ===\n\n");

  // Requirement (a): storage silent outside its own phase. Checked across
  // all benchmarks by construction of the simulator accounting.
  {
    const auto b = suite::hal(4);
    core::SynthesisOptions opts;
    opts.style = core::DesignStyle::MultiClock;
    opts.num_clocks = 2;
    const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
    const auto res = core::measure(*syn.design, *b.graph,
                                   core::uniform_stimulus(*b.graph, 200, 3),
                                   power::TechLibrary::cmos08());
    bool ok = true;
    for (const auto& c : syn.design->netlist.components()) {
      if (!rtl::is_storage(c.kind)) continue;
      const auto events = res.activity.storage_clock_events[c.id.index()];
      const auto own_phase_pulses =
          res.activity.phase_pulses[static_cast<std::size_t>(c.clock_phase)];
      if (events > own_phase_pulses) ok = false;
    }
    std::printf("(a) no storage clocking outside the element's own phase "
                "(HAL, 2 clocks): %s\n\n",
                ok ? "OK" : "VIOLATED");
  }

  // Requirement (b): latched control keeps DPM inputs stable in tau_12.
  std::printf("(b) combinational stability via latched control lines "
              "(Sec. 3.2 suggestion 2):\n\n");
  std::printf("%-10s | %-14s | %-14s | %-10s | %-10s\n", "benchmark",
              "comb latched", "comb unlatched", "P latched", "P unlatched");
  std::printf("--------------------------------------------------------------------------\n");
  for (const char* name : {"motivating", "facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    const CombActivity lat = measure(b, true);
    const CombActivity unl = measure(b, false);
    std::printf("%-10s | %14llu | %14llu | %7.2f mW | %7.2f mW\n", name,
                static_cast<unsigned long long>(lat.comb_toggles),
                static_cast<unsigned long long>(unl.comb_toggles),
                lat.power_mw, unl.power_mw);
  }
  std::printf("\nlatching the mux/function-select lines of each partition "
              "confines control transitions to that partition's phase\n"
              "boundary, so the other interval tau_12 sees no combinational "
              "wave (paper Fig. 4(b), Fig. 7 note).\n");
  return 0;
}
