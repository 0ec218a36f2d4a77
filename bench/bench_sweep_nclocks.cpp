// E10: the headline-claim sweep — power and area vs number of clocks, with
// the ablations DESIGN.md calls out:
//
//  * n = 1..6 clock sweep (paper Sec. 5.2: "you can not keep adding clocks
//    and expect power reduction ... diminishing returns");
//  * latches vs D-flip-flops in the multi-clock partitions (Sec. 2.2);
//  * latched vs direct control lines (Sec. 3.2).
//
// Every (benchmark, configuration) cell is independent, so each table's
// grid is evaluated on the work-stealing pool and rendered afterwards in
// row order — the printed output is identical to the old serial sweep.
#include <cstdio>

#include "core/synthesizer.hpp"
#include "suite/benchmarks.hpp"
#include "table_common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace mcrtl;

int main() {
  ThreadPool pool;
  std::printf("=== E10: n-clock sweep and design-choice ablations "
              "(%u jobs) ===\n\n",
              pool.size());

  std::printf("power [mW] vs number of clocks (integrated allocation, "
              "latches, latched control):\n\n");
  {
    const std::vector<const char*> names{"facet", "hal", "biquad", "bandpass",
                                         "ewf", "ar_lattice", "fir8"};
    // Per benchmark: column 0 = gated baseline, columns 1..6 = n clocks.
    constexpr int kCols = 7;
    std::vector<core::ExplorationPoint> cells(names.size() * kCols);
    pool.parallel_for_index(cells.size(), [&](std::size_t i) {
      const auto b = suite::by_name(names[i / kCols], 4);
      const int col = static_cast<int>(i % kCols);
      core::SynthesisOptions opts;
      if (col == 0) {
        opts.style = core::DesignStyle::ConventionalGated;
      } else {
        opts.style = core::DesignStyle::MultiClock;
        opts.num_clocks = col;
      }
      cells[i] = bench::run_style(b, opts, 1500, 11);
    });
    TextTable t({"benchmark", "gated", "n=1", "n=2", "n=3", "n=4", "n=5",
                 "n=6", "best"});
    for (std::size_t bi = 0; bi < names.size(); ++bi) {
      std::vector<std::string> row{names[bi]};
      double best = 1e18;
      int best_n = 0;
      for (int col = 0; col < kCols; ++col) {
        const double p = cells[bi * kCols + col].power.total;
        row.push_back(format_fixed(p, 2));
        if (col > 0 && p < best) {
          best = p;
          best_n = col;
        }
      }
      row.push_back("n=" + std::to_string(best_n));
      t.add_row(row);
    }
    std::fputs(t.render().c_str(), stdout);
  }

  std::printf("\narea [1e6 lambda^2] vs number of clocks:\n\n");
  {
    const std::vector<const char*> names{"facet", "hal", "biquad", "bandpass"};
    constexpr int kCols = 6;
    std::vector<core::ExplorationPoint> cells(names.size() * kCols);
    pool.parallel_for_index(cells.size(), [&](std::size_t i) {
      const auto b = suite::by_name(names[i / kCols], 4);
      core::SynthesisOptions opts;
      opts.style = core::DesignStyle::MultiClock;
      opts.num_clocks = static_cast<int>(i % kCols) + 1;
      cells[i] = bench::run_style(b, opts, 400, 11);
    });
    TextTable t({"benchmark", "n=1", "n=2", "n=3", "n=4", "n=5", "n=6"});
    for (std::size_t bi = 0; bi < names.size(); ++bi) {
      std::vector<std::string> row{names[bi]};
      for (int col = 0; col < kCols; ++col) {
        row.push_back(
            format_fixed(cells[bi * kCols + col].area.total / 1e6, 2));
      }
      t.add_row(row);
    }
    std::fputs(t.render().c_str(), stdout);
  }

  std::printf("\nablation: latches vs D-flip-flops in the partitions (n=3):\n\n");
  {
    const std::vector<const char*> names{"facet", "hal", "biquad", "bandpass"};
    // Two cells per benchmark: even index = latch, odd = DFF.
    std::vector<core::ExplorationPoint> cells(names.size() * 2);
    pool.parallel_for_index(cells.size(), [&](std::size_t i) {
      const auto b = suite::by_name(names[i / 2], 4);
      core::SynthesisOptions opts;
      opts.style = core::DesignStyle::MultiClock;
      opts.num_clocks = 3;
      opts.use_latches = (i % 2) == 0;
      cells[i] = bench::run_style(b, opts, 1500, 13);
    });
    TextTable t({"benchmark", "latch P[mW]", "DFF P[mW]", "latch area",
                 "DFF area"});
    for (std::size_t bi = 0; bi < names.size(); ++bi) {
      const auto& lat = cells[bi * 2];
      const auto& dff = cells[bi * 2 + 1];
      t.add_row({names[bi], format_fixed(lat.power.total, 2),
                 format_fixed(dff.power.total, 2),
                 format_fixed(lat.area.total / 1e6, 2),
                 format_fixed(dff.area.total / 1e6, 2)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\n(the latch advantage of Sec. 2.2: cheaper clock pin and "
                "cell; only possible because the multi-clock partitions\n"
                "have no overlapping READ/WRITE)\n");
  }
  return 0;
}
