// The §4.1 allocator description mentions "MUX/BUS collapsing": realize the
// multi-source interconnect either as gate-tree multiplexers or as shared
// tri-state buses and compare. Buses trade the mux gate tree for one
// tri-state driver per source on a long shared line — cheaper gates, but a
// heavy wire whose full capacitance switches on every transfer.
#include <cstdio>

#include "core/synthesizer.hpp"
#include "suite/benchmarks.hpp"
#include "table_common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace mcrtl;

int main() {
  std::printf("=== interconnect style: gate-tree muxes vs tri-state buses "
              "===\n\n");
  TextTable t({"benchmark", "style", "mux P[mW]", "bus P[mW]",
               "mux area[M]", "bus area[M]"});
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    for (int n : {1, 3}) {
      const auto b = suite::by_name(name, 4);
      core::SynthesisOptions opts;
      opts.style = n == 1 ? core::DesignStyle::ConventionalGated
                          : core::DesignStyle::MultiClock;
      opts.num_clocks = n;
      opts.interconnect = rtl::BuildOptions::Interconnect::Mux;
      const auto mux = bench::run_style(b, opts, 2000, 51);
      opts.interconnect = rtl::BuildOptions::Interconnect::TristateBus;
      const auto bus = bench::run_style(b, opts, 2000, 51);
      t.add_row({name, n == 1 ? "gated" : "3 clocks",
                 format_fixed(mux.power.total, 2),
                 format_fixed(bus.power.total, 2),
                 format_fixed(mux.area.total / 1e6, 2),
                 format_fixed(bus.area.total / 1e6, 2)});
    }
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\nhigh-fan-in routes favour buses on area (driver per source "
              "beats a gate tree) and muxes on power (short private\n"
              "wires beat the shared line's capacitance).\n");
  return 0;
}
