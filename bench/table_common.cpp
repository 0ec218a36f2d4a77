#include "table_common.hpp"

#include <cstdio>

#include "core/measure.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace mcrtl::bench {

namespace {

core::ExplorationPoint measure_style(const suite::Benchmark& b,
                                     const core::SynthesisOptions& opts,
                                     const core::Stimulus& stim) {
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  // measure() throws if the style's outputs differ from the golden model:
  // a wrong design must never make it into a table.
  return core::measure(*syn.design, *b.graph, stim,
                       power::TechLibrary::cmos08())
      .point;
}

}  // namespace

core::ExplorationPoint run_style(const suite::Benchmark& b,
                                 const core::SynthesisOptions& opts,
                                 std::size_t computations, std::uint64_t seed) {
  return measure_style(b, opts,
                       core::uniform_stimulus(*b.graph, computations, seed));
}

std::vector<core::ExplorationPoint> run_table(const TableConfig& cfg) {
  const suite::Benchmark b = suite::by_name(cfg.benchmark, cfg.width);
  const auto stim =
      core::uniform_stimulus(*b.graph, cfg.computations, cfg.seed);

  struct StyleSpec {
    core::DesignStyle style;
    int clocks;
  };
  const StyleSpec specs[] = {
      {core::DesignStyle::ConventionalNonGated, 1},
      {core::DesignStyle::ConventionalGated, 1},
      {core::DesignStyle::MultiClock, 1},
      {core::DesignStyle::MultiClock, 2},
      {core::DesignStyle::MultiClock, 3},
  };
  std::vector<core::ExplorationPoint> rows;
  for (const auto& spec : specs) {
    core::SynthesisOptions opts;
    opts.style = spec.style;
    opts.num_clocks = spec.clocks;
    rows.push_back(measure_style(b, opts, stim));
  }
  return rows;
}

std::string print_table(const TableConfig& cfg,
                        const std::vector<core::ExplorationPoint>& rows) {
  std::string out;
  out += "=== " + cfg.title + " ===\n";
  out += str_format("benchmark '%s', %u-bit datapath, %zu random computations, "
                    "V=4.65V\n\n",
                    cfg.benchmark.c_str(), cfg.width, cfg.computations);

  TextTable t({"Design", "Power[mW]", "Area[1e6 l^2]", "ALUs", "Mem", "MuxIn",
               "comb", "stor", "clk", "ctrl"});
  for (const auto& r : rows) {
    t.add_row({r.label, format_fixed(r.power.total, 2),
               format_fixed(r.area.total / 1e6, 2), r.stats.alu_summary,
               std::to_string(r.stats.num_memory_cells),
               std::to_string(r.stats.num_mux_inputs),
               format_fixed(r.power.combinational, 2),
               format_fixed(r.power.storage, 2),
               format_fixed(r.power.clock_tree, 2),
               format_fixed(r.power.control, 2)});
  }
  out += t.render();

  if (!cfg.paper.empty() && cfg.paper.size() == rows.size()) {
    out += "\npaper reported (COMPASS 0.8um, absolute numbers not expected to "
           "match):\n";
    TextTable p({"Design", "Power[mW]", "Area[1e6 l^2]"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      p.add_row({rows[i].label, format_fixed(cfg.paper[i].power_mw, 2),
                 format_fixed(cfg.paper[i].area_lambda2 / 1e6, 2)});
    }
    out += p.render();

    const double ours = 100.0 * (rows[1].power.total - rows[4].power.total) /
                        rows[1].power.total;
    const double papers = 100.0 * (cfg.paper[1].power_mw - cfg.paper[4].power_mw) /
                          cfg.paper[1].power_mw;
    const double area_ours =
        100.0 * (rows[4].area.total - rows[1].area.total) / rows[1].area.total;
    const double area_papers =
        100.0 * (cfg.paper[4].area_lambda2 - cfg.paper[1].area_lambda2) /
        cfg.paper[1].area_lambda2;
    out += str_format(
        "\n3-clock vs gated baseline: power %+.1f%% (paper %+.1f%%), "
        "area %+.1f%% (paper %+.1f%%)\n",
        -ours, -papers, area_ours, area_papers);
  }
  std::fputs(out.c_str(), stdout);
  return out;
}

}  // namespace mcrtl::bench
