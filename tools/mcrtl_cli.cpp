// mcrtl — command-line front end to the library.
//
// Usage:
//   mcrtl list
//       List the built-in benchmark behaviours.
//   mcrtl synth  (<benchmark> | --dfg <file>) [options]
//       Synthesize, verify equivalence, report power/area and structure.
//   mcrtl table  (<benchmark> | --dfg <file>) [options]
//       Run the paper's five design styles on one stimulus and print their
//       power/area table; for facet, hal, biquad and bandpass also the
//       paper's reported Table 1-4 and the 3-clock-vs-gated headline.
//   mcrtl emit   (<benchmark> | --dfg <file>) [options]
//       Write structural VHDL to stdout.
//   mcrtl dot    (<benchmark> | --dfg <file>) [options]
//       Write the partition-coloured scheduled DFG in Graphviz format.
//   mcrtl explore (<benchmark> | --dfg <file>) [options]
//       Design-space exploration: evaluate every configuration up to
//       --clocks clocks in parallel, print the Pareto-marked table.
//   mcrtl search [<benchmark>[,<benchmark>...]] [options]
//       Guided design-space search over {benchmark x width x schedule x
//       synthesis variant}: successive-halving prefix budgets, dominance
//       early-abort, optional persistent result cache. Prints the
//       per-behaviour Pareto front; --csv/--json write every surviving row
//       (plus the pruned candidates) in a deterministic order.
//   mcrtl experiment <id>
//       Reproduce one of the paper's figures or an ablation (ids E5..E19 of
//       DESIGN.md's experiment index); takes no command flags.
//
// Options:
//   --clocks N       number of non-overlapping clocks (default 2)
//   --width W        datapath bit width for built-in benchmarks (default 4)
//   --style S        conv | gated | multi (default multi)
//   --method M       integrated | split (default integrated)
//   --dff            use D-flip-flops instead of latches (ablation)
//   --isolation      add hold-mode operand isolation
//   --computations N simulation length (default 2000)
//   --seed N         stimulus seed (default 1996)
//   --streams N      (explore, search) independent Monte-Carlo streams per
//                    point, 1..64 (default 1). N > 1 switches points to the
//                    bit-sliced batch kernel: power becomes the per-stream
//                    mean and the CSV/JSON rows carry power_stddev_mw /
//                    power_ci95_mw
//   --csv FILE       also write measured rows as CSV
//   --json FILE      (explore, search) also write measured rows as JSON
//   --jobs N         worker threads for table/explore/search (default: all
//                    cores; results are identical for any N)
//   --checkpoint FILE (explore) crash-safe journal: completed points are
//                    fsync'd as they finish; re-running the same command
//                    resumes, skipping journalled points (byte-identical
//                    reports). A journal from a different configuration is
//                    rejected.
//   --point-timeout S (explore) per-point simulation deadline in seconds;
//                    an expired point is quarantined like any failure
//   --no-quarantine  (explore) abort the sweep on the first failing point
//                    instead of recording it and continuing
//   --fault-inject S arm a fault-injection site (testing): SPEC is
//                    site:always | site:first:K | site:observe, each
//                    optionally :match=SUBSTR; repeatable
//   --vcd FILE       (synth) dump a VCD waveform of the measured run
//   --power-trace-out FILE (synth) write the per-clock-domain energy
//                    waveform (fJ per master cycle, one column per domain)
//                    as CSV; the same waveform is merged into --trace-out
//                    as Perfetto counter tracks
//   --power-top K    (synth) print the K hottest components of the
//                    hierarchical power attribution
//   --power-flame FILE (synth) write the attribution as flamegraph
//                    collapsed stacks ("domain;component;op fJ" lines)
//   --trace-out FILE enable tracing; write Chrome trace-event JSON
//                    (chrome://tracing / Perfetto) on exit
//   --metrics-out FILE enable tracing; write counters/gauges/span JSON
//   --progress       live progress on stderr (explore) + span/counter
//                    summary tables on exit
//   --widths LIST    (search) comma-separated datapath widths (default:
//                    --width alone)
//   --limits LIST    (search) comma-separated per-op-class resource limits
//                    for list re-scheduling; 0 = the benchmark's reference
//                    schedule (default "0")
//   --budget-rungs N (search) prefix rungs before full depth (default 3;
//                    0 = evaluate everything at full depth)
//   --promote-frac F (search) fraction promoted unconditionally per rung
//                    (default 0.4)
//   --optimism F     (search) prefix-bound slack in (0,1] (default 0.85)
//   --min-survivors N (search) never abort a behaviour below this many
//                    candidates (default 4)
//   --cache-db FILE  (search) persistent result cache: full rows are keyed
//                    per point (reusable across overlapping sweeps), pruned
//                    markers per sweep; a repeated search is 100% cache
//                    hits and simulates nothing
//   --pareto-only    (search) restrict --csv/--json to the Pareto front
//
// Numeric values are parsed in full: garbage, a trailing suffix, a sign on
// a count or a value outside the flag's range is a usage error (exit 2)
// that names the flag. Ranges: --clocks 1..16; --width and each --widths
// entry 1..64; --computations 1..10000000; --seed any 64-bit unsigned;
// --streams 1..64; --jobs 0..1024 (0 = all cores); --point-timeout
// 0..86400; --power-top 0..100000; --budget-rungs 0..16; --promote-frac and --optimism 0.001..1;
// --min-survivors 0..100000; each --limits entry 0..1024.
//
// A flag the command does not read is a usage error (exit 2) naming the
// flag and the command; --trace-out, --metrics-out, --progress and
// --fault-inject apply to every command.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/explorer.hpp"
#include "core/measure.hpp"
#include "core/search.hpp"
#include "core/synthesizer.hpp"
#include "dfg/dot.hpp"
#include "dfg/textio.hpp"
#include "experiments.hpp"
#include "obs/obs.hpp"
#include "power/attribution.hpp"
#include "power/report.hpp"
#include "rtl/analysis.hpp"
#include "sim/vcd.hpp"
#include "suite/benchmarks.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "vhdl/emitter.hpp"
#include "vhdl/verilog.hpp"

using namespace mcrtl;

namespace {

struct CliOptions {
  std::string command;
  std::string benchmark;
  std::string dfg_file;
  int clocks = 2;
  unsigned width = 4;
  std::string style = "multi";
  std::string method = "integrated";
  bool dff = false;
  bool isolation = false;
  std::size_t computations = 2000;
  std::uint64_t seed = 1996;
  std::size_t streams = 1;
  std::string csv_file;
  std::string json_file;
  int jobs = 0;  // 0: auto (hardware concurrency)
  std::string checkpoint_file;
  double point_timeout_s = 0.0;
  bool no_quarantine = false;
  std::vector<std::string> fault_specs;
  std::string vcd_file;
  std::string power_trace_file;
  std::string power_flame_file;
  int power_top = 0;
  std::string trace_file;
  std::string metrics_file;
  bool progress = false;
  // search-specific
  std::vector<int> widths;      // empty = just `width`
  std::vector<int> limits{0};   // 0 = reference schedule
  int budget_rungs = 3;
  double promote_frac = 0.4;
  double optimism = 0.85;
  std::size_t min_survivors = 4;
  std::string cache_db;
  bool pareto_only = false;

  /// Any observability request turns collection on.
  bool obs_enabled() const {
    return !trace_file.empty() || !metrics_file.empty() || progress;
  }
};

/// A malformed command line: reported with the usage text, exit code 2.
class UsageError : public mcrtl::Error {
 public:
  explicit UsageError(const std::string& what) : Error(what) {}
};

int usage() {
  std::fprintf(stderr,
               "usage: mcrtl <list|synth|table|emit|emit-verilog|dot|explore"
               "|search|experiment> [<benchmark>|<id>] "
               "[--dfg file] [--clocks N] [--width W]\n"
               "             [--style conv|gated|multi] [--method "
               "integrated|split] [--dff] [--isolation]\n"
               "             [--computations N] [--seed N] [--streams N] "
               "[--csv file] [--json file] [--jobs N]\n"
               "             [--checkpoint file] [--point-timeout s] "
               "[--no-quarantine] [--fault-inject spec]\n"
               "             [--vcd file] [--power-trace-out file] "
               "[--power-top K] [--power-flame file]\n"
               "             [--trace-out file] "
               "[--metrics-out file] [--progress]\n"
               "             [--widths LIST] [--limits LIST] "
               "[--budget-rungs N] [--promote-frac F] [--optimism F]\n"
               "             [--min-survivors N] [--cache-db file] "
               "[--pareto-only]\n");
  return 2;
}

/// parse_number() for a flag value: anything it rejects is a UsageError
/// naming `flag` and the accepted range.
template <class T>
T parse_flag(const std::string& flag, const std::string& text, T lo, T hi) {
  const auto v = parse_number(text, lo, hi);
  if (!v) {
    std::ostringstream os;
    os << "invalid " << flag << " '" << text << "' (expected "
       << (std::is_integral_v<T> ? "an integer" : "a number") << " in " << lo
       << ".." << hi << ')';
    throw UsageError(os.str());
  }
  return *v;
}

/// A comma-separated list of integers in [lo, hi]; empty items are skipped.
std::vector<int> parse_int_list(const std::string& flag, const std::string& s,
                                int lo, int hi) {
  std::vector<int> out;
  std::istringstream is(s);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    if (!tok.empty()) out.push_back(parse_flag(flag, tok, lo, hi));
  }
  return out;
}

/// The flags each command reads. --trace-out, --metrics-out, --progress and
/// --fault-inject apply to every command and are not listed.
const std::map<std::string, std::set<std::string>> kCommandFlags{
    {"list", {}},
    {"synth",
     {"--dfg", "--width", "--clocks", "--style", "--method", "--dff",
      "--isolation", "--computations", "--seed", "--csv", "--vcd",
      "--power-trace-out", "--power-top", "--power-flame"}},
    {"table",
     {"--dfg", "--width", "--method", "--dff", "--isolation",
      "--computations", "--seed", "--jobs", "--csv"}},
    {"emit",
     {"--dfg", "--width", "--clocks", "--style", "--method", "--dff",
      "--isolation"}},
    {"emit-verilog",
     {"--dfg", "--width", "--clocks", "--style", "--method", "--dff",
      "--isolation"}},
    {"dot", {"--dfg", "--width", "--clocks", "--style"}},
    {"explore",
     {"--dfg", "--width", "--clocks", "--dff", "--computations", "--seed",
      "--streams", "--jobs", "--csv", "--json", "--checkpoint",
      "--point-timeout", "--no-quarantine"}},
    {"search",
     {"--width", "--widths", "--limits", "--clocks", "--computations",
      "--seed", "--streams", "--jobs", "--budget-rungs", "--promote-frac",
      "--optimism", "--min-survivors", "--cache-db", "--csv", "--json",
      "--pareto-only"}},
    {"experiment", {}},
};

bool is_global_flag(const std::string& flag) {
  return flag == "--trace-out" || flag == "--metrics-out" ||
         flag == "--progress" || flag == "--fault-inject";
}

CliOptions parse_args(int argc, char** argv) {
  if (argc < 2) throw UsageError("no command given");
  CliOptions o;
  o.command = argv[1];
  const auto command = kCommandFlags.find(o.command);
  if (command == kCommandFlags.end()) {
    throw UsageError("unknown command '" + o.command + "'");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError(a + " needs a value");
      return argv[++i];
    };
    auto number = [&](auto lo, auto hi) {
      return parse_flag(a, value(), lo, hi);
    };
    if (a == "--dfg") {
      o.dfg_file = value();
    } else if (a == "--clocks") {
      o.clocks = number(1, 16);
    } else if (a == "--width") {
      o.width = number(1u, 64u);
    } else if (a == "--style") {
      o.style = value();
    } else if (a == "--method") {
      o.method = value();
    } else if (a == "--dff") {
      o.dff = true;
    } else if (a == "--isolation") {
      o.isolation = true;
    } else if (a == "--computations") {
      o.computations = number(std::size_t{1}, std::size_t{10'000'000});
    } else if (a == "--seed") {
      o.seed = number(std::uint64_t{0}, ~std::uint64_t{0});
    } else if (a == "--streams") {
      o.streams = number(std::size_t{1}, std::size_t{64});
    } else if (a == "--csv") {
      o.csv_file = value();
    } else if (a == "--json") {
      o.json_file = value();
    } else if (a == "--checkpoint") {
      o.checkpoint_file = value();
    } else if (a == "--point-timeout") {
      o.point_timeout_s = number(0.0, 86400.0);
    } else if (a == "--no-quarantine") {
      o.no_quarantine = true;
    } else if (a == "--fault-inject") {
      o.fault_specs.push_back(value());
    } else if (a == "--jobs") {
      o.jobs = number(0, 1024);
    } else if (a == "--vcd") {
      o.vcd_file = value();
    } else if (a == "--power-trace-out") {
      o.power_trace_file = value();
    } else if (a == "--power-flame") {
      o.power_flame_file = value();
    } else if (a == "--power-top") {
      o.power_top = number(0, 100'000);
    } else if (a == "--trace-out") {
      o.trace_file = value();
    } else if (a == "--metrics-out") {
      o.metrics_file = value();
    } else if (a == "--progress") {
      o.progress = true;
    } else if (a == "--widths") {
      o.widths = parse_int_list(a, value(), 1, 64);
    } else if (a == "--limits") {
      o.limits = parse_int_list(a, value(), 0, 1024);
    } else if (a == "--budget-rungs") {
      o.budget_rungs = number(0, core::kMaxBudgetRungs);
    } else if (a == "--promote-frac") {
      o.promote_frac = number(0.001, 1.0);
    } else if (a == "--optimism") {
      o.optimism = number(0.001, 1.0);
    } else if (a == "--min-survivors") {
      o.min_survivors = number(std::size_t{0}, std::size_t{100'000});
    } else if (a == "--cache-db") {
      o.cache_db = value();
    } else if (a == "--pareto-only") {
      o.pareto_only = true;
    } else if (!a.empty() && a[0] != '-') {
      o.benchmark = a;
      continue;
    } else {
      throw UsageError("unknown option " + a);
    }
    // A flag the command would ignore is an error, not a silent no-op.
    if (!is_global_flag(a) && !command->second.contains(a)) {
      throw UsageError(a + " is not an option of '" + o.command + "'");
    }
  }
  if (o.command == "experiment") {
    const auto ids = cli::experiment_ids();
    if (std::find(ids.begin(), ids.end(), o.benchmark) == ids.end()) {
      std::string known;
      for (const auto& id : ids) known += " " + id;
      throw UsageError(
          (o.benchmark.empty() ? std::string("no experiment id given")
                               : "unknown experiment '" + o.benchmark + "'") +
          " (one of" + known + ")");
    }
  }
  return o;
}

/// Load the behaviour: built-in benchmark or .dfg file.
struct Loaded {
  std::unique_ptr<dfg::Graph> graph;
  std::unique_ptr<dfg::Schedule> schedule;
  std::string name;
  std::optional<suite::PaperTable> paper;  ///< built-in paper benchmarks only
};

Loaded load(const CliOptions& o) {
  Loaded l;
  if (!o.dfg_file.empty()) {
    std::ifstream in(o.dfg_file);
    if (!in) throw mcrtl::Error("cannot open " + o.dfg_file);
    std::ostringstream os;
    os << in.rdbuf();
    auto parsed = dfg::parse_dfg(os.str());
    l.graph = std::move(parsed.graph);
    if (parsed.schedule) {
      l.schedule = std::move(parsed.schedule);
    } else {
      dfg::ResourceLimits limits;
      limits.default_limit = 2;
      l.schedule =
          std::make_unique<dfg::Schedule>(dfg::schedule_list(*l.graph, limits));
    }
    l.name = l.graph->name();
    return l;
  }
  if (o.benchmark.empty()) throw mcrtl::Error("no benchmark or --dfg file given");
  auto b = suite::by_name(o.benchmark, o.width);
  l.graph = std::move(b.graph);
  l.schedule = std::move(b.schedule);
  l.name = b.name;
  l.paper = std::move(b.paper);
  return l;
}

core::SynthesisOptions synth_options(const CliOptions& o) {
  core::SynthesisOptions opts;
  if (o.style == "conv") {
    opts.style = core::DesignStyle::ConventionalNonGated;
  } else if (o.style == "gated") {
    opts.style = core::DesignStyle::ConventionalGated;
  } else if (o.style == "multi") {
    opts.style = core::DesignStyle::MultiClock;
    opts.num_clocks = o.clocks;
  } else {
    throw mcrtl::Error("unknown --style '" + o.style + "'");
  }
  if (o.method == "split") {
    opts.method = core::AllocMethod::Split;
  } else if (o.method != "integrated") {
    throw mcrtl::Error("unknown --method '" + o.method + "'");
  }
  opts.use_latches = !o.dff;
  opts.operand_isolation = o.isolation;
  return opts;
}

/// Write `text` to `path`; a file that cannot be opened or written is an
/// error naming the path (exit code 1), never a silent "wrote" line.
void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) throw mcrtl::Error("cannot write " + path);
}

/// The per-domain energy waveform of a probe as CSV: one row per master
/// cycle, one fJ column per clock domain.
std::string power_trace_csv(const sim::PowerProbe& probe) {
  std::ostringstream out;
  out << "step";
  for (int d = 0; d <= probe.num_domains(); ++d) {
    out << ',' << power::domain_label(d) << "_fj";
  }
  out << '\n';
  for (std::size_t s = 0; s < probe.steps(); ++s) {
    out << s;
    for (int d = 0; d <= probe.num_domains(); ++d) {
      out << ',' << str_format("%.3f", probe.step_fj(s, d));
    }
    out << '\n';
  }
  return out.str();
}

/// The report record of one measured design style of `l`.
power::ExperimentRecord record(const Loaded& l, std::size_t computations,
                               const core::ExplorationPoint& p) {
  power::ExperimentRecord rec;
  rec.experiment = "cli";
  rec.design = p.label;
  rec.benchmark = l.name;
  rec.width = l.graph->width();
  rec.computations = computations;
  rec.power = p.power;
  rec.area = p.area;
  rec.stats = p.stats;
  return rec;
}

int cmd_list() {
  for (const auto& name : suite::all_names()) {
    const auto b = suite::by_name(name, 4);
    std::printf("%-11s %3zu ops %2d steps  %s\n", name.c_str(),
                b.graph->num_nodes(), b.schedule->num_steps(),
                b.description.c_str());
  }
  return 0;
}

int cmd_synth(const CliOptions& o) {
  const Loaded l = load(o);
  const cli::Style style(*l.graph, *l.schedule, synth_options(o));
  const rtl::Design& design = *style.syn.design;
  // The VCD dump, the heatmap and the --power-* exports ride on the one
  // measured run.
  core::MeasureHooks hooks;
  std::unique_ptr<sim::VcdTracer> vcd;
  if (!o.vcd_file.empty()) {
    vcd = std::make_unique<sim::VcdTracer>(design);
    hooks.observer = [&](std::uint64_t step, const auto& nets) {
      vcd->record(step, nets);
    };
  }
  sim::PhaseHeatmap heatmap;
  if (obs::enabled()) hooks.heatmap = &heatmap;
  const auto m = style.measure(
      core::uniform_stimulus(*l.graph, o.computations, o.seed), hooks);
  if (vcd) {
    write_file(o.vcd_file, vcd->render());
    std::printf("wrote %s\n", o.vcd_file.c_str());
  }
  if (hooks.heatmap) {
    std::printf("\nper-partition storage activity (write-toggles/clock-edges "
                "per period step):\n%s",
                sim::render_heatmap(heatmap).c_str());
    for (int p = 1; p <= heatmap.num_phases; ++p) {
      obs::set_gauge(str_format("sim.phase%d.write_toggles", p),
                     static_cast<double>(heatmap.phase_total(p)));
    }
  }
  auto rec = record(l, o.computations, m.point);

  // The attribution columns are reported only when something asked for the
  // power profile: an explicit --power-* flag, or tracing (the per-domain
  // waveform is merged into the Chrome trace as counter tracks).
  if (!o.power_trace_file.empty() || !o.power_flame_file.empty() ||
      o.power_top > 0 || obs::enabled()) {
    power::publish_power_tracks(m.probe);  // no-op unless tracing is on
    rec.hotspot = m.point.hotspot;
    rec.hotspot_share = m.point.hotspot_share;
    rec.crest = m.point.crest;
    if (!o.power_trace_file.empty()) {
      write_file(o.power_trace_file, power_trace_csv(m.probe));
      std::printf("wrote %s\n", o.power_trace_file.c_str());
    }
    if (!o.power_flame_file.empty()) {
      write_file(o.power_flame_file, m.attribution.collapsed_stacks());
      std::printf("wrote %s\n", o.power_flame_file.c_str());
    }
    if (o.power_top > 0) {
      std::printf("\ntop %d power hotspots (of %zu attributed rows, "
                  "%.0f fJ total, crest %.2f):\n%s",
                  o.power_top, m.attribution.rows.size(),
                  m.attribution.total_fj, rec.crest,
                  m.attribution.top_table(static_cast<std::size_t>(o.power_top))
                      .c_str());
    }
  }

  std::printf("%s\n", rtl::describe_dpms(design).c_str());
  const auto safety = rtl::check_timing_safety(design);
  std::printf("timing safety: %s\n",
              safety.safe ? "OK" : safety.violations[0].c_str());
  std::printf("\npower: %s\narea:  %.0f lambda^2\nALUs %s | %d mem cells | "
              "%d mux inputs\n",
              rec.power.to_string().c_str(), rec.area.total,
              rec.stats.alu_summary.c_str(), rec.stats.num_memory_cells,
              rec.stats.num_mux_inputs);
  if (!o.csv_file.empty()) {
    write_file(o.csv_file, power::to_csv({rec}));
    std::printf("wrote %s\n", o.csv_file.c_str());
  }
  return 0;
}

/// The paper's reported table under our measured `recs` (rows in the
/// paper's order): its figures and the 3-clock-vs-gated headline.
std::string paper_block(const suite::PaperTable& paper,
                        const std::vector<power::ExperimentRecord>& recs) {
  std::string out =
      "\npaper reported (COMPASS 0.8um, absolute numbers not expected to "
      "match):\n";
  TextTable p({"Design", "Power[mW]", "Area[1e6 l^2]"});
  for (std::size_t i = 0; i < recs.size(); ++i) {
    p.add_row({recs[i].design, format_fixed(paper.rows[i].power_mw, 2),
               format_fixed(paper.rows[i].area_lambda2 / 1e6, 2)});
  }
  out += p.render();
  // Percent change from the gated baseline (row 1) to 3 clocks (row 4).
  const auto change = [](double gated, double clk3) {
    return 100.0 * (clk3 - gated) / gated;
  };
  out += str_format(
      "\n3-clock vs gated baseline: power %+.1f%% (paper %+.1f%%), "
      "area %+.1f%% (paper %+.1f%%)\n",
      change(recs[1].power.total, recs[4].power.total),
      change(paper.rows[1].power_mw, paper.rows[4].power_mw),
      change(recs[1].area.total, recs[4].area.total),
      change(paper.rows[1].area_lambda2, paper.rows[4].area_lambda2));
  return out;
}

int cmd_table(const CliOptions& o) {
  const Loaded l = load(o);
  // The paper's five table styles, in its row order: conventional
  // non-gated, conventional gated, then 1, 2 and 3 clocks.
  const std::pair<const char*, int> styles[] = {
      {"conv", 1}, {"gated", 1}, {"multi", 1}, {"multi", 2}, {"multi", 3}};
  // Measure the five rows concurrently on one shared stimulus; each slot is
  // written by exactly one worker and the table is rendered afterwards in
  // row order.
  const auto stim = core::uniform_stimulus(*l.graph, o.computations, o.seed);
  std::vector<power::ExperimentRecord> recs(std::size(styles));
  mcrtl::ThreadPool pool(ThreadPool::resolve_jobs(o.jobs));
  pool.parallel_for_index(std::size(styles), [&](std::size_t i) {
    CliOptions ro = o;
    ro.style = styles[i].first;
    ro.clocks = styles[i].second;
    const cli::Style style(*l.graph, *l.schedule, synth_options(ro));
    recs[i] = record(l, o.computations, style.measure(stim).point);
  });

  std::string out;
  if (l.paper) out += "=== " + l.paper->title + " ===\n";
  out += str_format("benchmark '%s', %u-bit datapath, %zu random computations, "
                    "V=4.65V\n\n",
                    l.name.c_str(), l.graph->width(), o.computations);
  TextTable t({"Design", "Power[mW]", "Area[1e6 l^2]", "ALUs", "Mem", "MuxIn",
               "comb", "stor", "clk", "ctrl"});
  for (const auto& rec : recs) {
    t.add_row({rec.design, format_fixed(rec.power.total, 2),
               format_fixed(rec.area.total / 1e6, 2), rec.stats.alu_summary,
               std::to_string(rec.stats.num_memory_cells),
               std::to_string(rec.stats.num_mux_inputs),
               format_fixed(rec.power.combinational, 2),
               format_fixed(rec.power.storage, 2),
               format_fixed(rec.power.clock_tree, 2),
               format_fixed(rec.power.control, 2)});
  }
  out += t.render();
  if (l.paper) out += paper_block(*l.paper, recs);
  std::fputs(out.c_str(), stdout);
  if (!o.csv_file.empty()) {
    write_file(o.csv_file, power::to_csv(recs));
    std::printf("wrote %s\n", o.csv_file.c_str());
  }
  return 0;
}

/// The report rows of an exploration result (experiment "cli_explore"):
/// one record per point in result order, dominated_by resolved from the
/// sorted points exactly like the explorer table.
std::vector<power::ExperimentRecord> explore_records(
    const core::ExplorationResult& r, const std::string& benchmark,
    unsigned width, std::size_t computations, std::size_t streams) {
  std::vector<power::ExperimentRecord> recs;
  recs.reserve(r.points.size());
  for (const auto& p : r.points) {
    power::ExperimentRecord rec;
    rec.experiment = "cli_explore";
    rec.design = p.label;
    rec.benchmark = benchmark;
    rec.width = width;
    rec.computations = computations;
    rec.streams = streams;
    rec.power = p.power;
    rec.power_stddev = p.power_stddev;
    rec.power_ci95 = p.power_ci95;
    rec.hotspot = p.hotspot;
    rec.hotspot_share = p.hotspot_share;
    rec.crest = p.crest;
    rec.area = p.area;
    rec.stats = p.stats;
    rec.pareto = p.pareto;
    if (!p.pareto) {
      // The lowest-power dominating row: points are sorted by ascending
      // power, so the first power/area dominator found is it.
      for (const auto& q : r.points) {
        if (core::dominates_power_area(core::point_metrics(q),
                                       core::point_metrics(p))) {
          rec.dominated_by = q.label;
          break;
        }
      }
    }
    recs.push_back(std::move(rec));
  }
  return recs;
}

int cmd_explore(const CliOptions& o) {
  const Loaded l = load(o);
  core::ExplorerConfig cfg;
  cfg.max_clocks = o.clocks;
  cfg.include_dff_variant = o.dff;
  cfg.computations = o.computations;
  cfg.seed = o.seed;
  cfg.streams = o.streams;
  cfg.jobs = o.jobs;
  cfg.checkpoint_file = o.checkpoint_file;
  cfg.point_timeout_s = o.point_timeout_s;
  // The CLI sweep is fault-isolated by default: one bad configuration is
  // reported in the "failed" table below rather than killing a long run.
  cfg.quarantine = !o.no_quarantine;

  // Live progress: counts points as workers finish them (the hook runs
  // concurrently — everything it touches is atomic or a local stderr write).
  const std::size_t total = core::num_configurations(cfg);
  std::atomic<std::size_t> done{0};
  const auto t0 = std::chrono::steady_clock::now();
  if (o.progress) {
    cfg.on_point = [&](const core::ExplorationPoint&) {
      const std::size_t k = done.fetch_add(1, std::memory_order_relaxed) + 1;
      const double el =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const double rate = el > 0 ? static_cast<double>(k) / el : 0.0;
      std::fprintf(stderr, "\r[%zu/%zu] %.1f points/s, ETA %.1fs   ", k, total,
                   rate,
                   rate > 0 ? static_cast<double>(total - k) / rate : 0.0);
    };
  }

  const auto r = core::explore(*l.graph, *l.schedule, cfg);

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (o.progress) std::fprintf(stderr, "\n");
  obs::set_gauge("explore.points_per_second",
                 elapsed > 0 ? static_cast<double>(r.points.size()) / elapsed
                             : 0.0);
  if (obs::enabled()) {
    // Per-worker utilization: busy span time per lane over the explore wall
    // clock (lane 0 is the main thread; with jobs > 1 it only coordinates).
    for (const auto& lane : obs::Registry::instance().lane_stats()) {
      if (lane.lane == 0) continue;
      obs::set_gauge(str_format("explore.worker%d.utilization", lane.lane - 1),
                     elapsed > 0 ? lane.busy_ms / (elapsed * 1e3) : 0.0);
    }
  }

  std::printf("%s: %zu design points (%u jobs)", l.name.c_str(),
              r.points.size(), ThreadPool::resolve_jobs(o.jobs));
  if (r.replayed_points > 0) {
    std::printf(", %zu replayed from %s", r.replayed_points,
                o.checkpoint_file.c_str());
  }
  std::printf("\n\n");
  // With a multi-stream sweep the table gains the 95% confidence half-width
  // of the per-stream power totals; single-stream keeps the historical shape.
  const bool sliced = o.streams > 1;
  TextTable t(sliced ? std::vector<std::string>{"configuration", "P[mW]",
                                                "+/-95%", "area[1e6 l^2]",
                                                "Pareto"}
                     : std::vector<std::string>{"configuration", "P[mW]",
                                                "area[1e6 l^2]", "Pareto"});
  for (const auto& p : r.points) {
    if (sliced) {
      t.add_row({p.label, format_fixed(p.power.total, 2),
                 format_fixed(p.power_ci95, 2),
                 format_fixed(p.area.total / 1e6, 2), p.pareto ? "*" : ""});
    } else {
      t.add_row({p.label, format_fixed(p.power.total, 2),
                 format_fixed(p.area.total / 1e6, 2), p.pareto ? "*" : ""});
    }
  }
  const auto recs = explore_records(r, l.name, l.graph->width(),
                                    o.computations, o.streams);
  std::fputs(t.render().c_str(), stdout);
  if (!r.failed_points.empty()) {
    std::printf("\n%zu configuration(s) failed and were quarantined:\n",
                r.failed_points.size());
    TextTable ft({"configuration", "error"});
    for (const auto& f : r.failed_points) ft.add_row({f.label, f.error});
    std::fputs(ft.render().c_str(), stdout);
  }
  if (!r.points.empty()) {
    std::printf("best power: %s (%.2f mW)\n", r.best_power().label.c_str(),
                r.best_power().power.total);
  }
  if (!o.csv_file.empty()) {
    write_file(o.csv_file, power::to_csv(recs));
    std::printf("wrote %s\n", o.csv_file.c_str());
  }
  if (!o.json_file.empty()) {
    write_file(o.json_file, power::to_json(recs));
    std::printf("wrote %s\n", o.json_file.c_str());
  }
  // A quarantined point is a *reported* degradation, not a failure of the
  // sweep itself: the exit code stays 0 so scripted sweeps keep their
  // partial results.
  return 0;
}

int cmd_search(const CliOptions& o) {
  // Behaviour grid: benchmarks (comma list) x widths x schedule resource
  // limits. Limit 0 keeps the benchmark's reference schedule; L > 0
  // re-schedules with a per-op-class cap of L.
  std::vector<std::string> names;
  {
    std::istringstream is(o.benchmark.empty() ? std::string("facet,hal")
                                              : o.benchmark);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      if (!tok.empty()) names.push_back(tok);
    }
  }
  const std::vector<int> widths =
      o.widths.empty() ? std::vector<int>{static_cast<int>(o.width)}
                       : o.widths;
  const std::vector<int> limits =
      o.limits.empty() ? std::vector<int>{0} : o.limits;

  // The graphs/schedules must outlive search(); the space only points at
  // them.
  std::vector<std::unique_ptr<dfg::Graph>> graphs;
  std::vector<std::unique_ptr<dfg::Schedule>> schedules;
  core::SearchSpace space;
  for (const auto& name : names) {
    for (const int w : widths) {
      for (const int lim : limits) {
        auto b = suite::by_name(name, static_cast<unsigned>(w));
        graphs.push_back(std::move(b.graph));
        if (lim > 0) {
          dfg::ResourceLimits rl;
          rl.default_limit = lim;
          schedules.push_back(std::make_unique<dfg::Schedule>(
              dfg::schedule_list(*graphs.back(), rl)));
        } else {
          schedules.push_back(std::move(b.schedule));
        }
        // Schedule variants of one (benchmark, width) compute the same
        // function, so they compete in a single dominance group.
        space.behaviours.push_back(core::SearchBehaviour{
            str_format("%s/w%d/%s", name.c_str(), w,
                       lim > 0 ? str_format("lim%d", lim).c_str() : "ref"),
            graphs.back().get(), schedules.back().get(),
            str_format("%s/w%d", name.c_str(), w)});
      }
    }
  }
  core::cross_variants(space, core::search_variants(o.clocks));

  core::SearchConfig cfg;
  cfg.computations = o.computations;
  cfg.seed = o.seed;
  cfg.streams = o.streams;
  cfg.jobs = o.jobs;
  cfg.budget_rungs = o.budget_rungs;
  cfg.promote_fraction = o.promote_frac;
  cfg.optimism = o.optimism;
  cfg.min_survivors = o.min_survivors;
  cfg.cache_db = o.cache_db;

  const auto t0 = std::chrono::steady_clock::now();
  const auto res = core::search(space, cfg);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("search: %zu candidates over %zu behaviours (%u jobs), %.2fs\n",
              space.candidates.size(), space.behaviours.size(),
              ThreadPool::resolve_jobs(o.jobs), elapsed);
  std::printf("rungs: %d run, %zu aborted by dominance, %zu evaluated at "
              "full depth\n",
              res.rungs_run, res.aborted, res.full_evaluations);
  if (!o.cache_db.empty()) {
    std::printf("cache: %zu hits / %zu misses (%s)\n", res.cache_hits,
                res.cache_misses, o.cache_db.c_str());
  }

  std::size_t front_size = 0;
  for (const auto& r : res.rows) front_size += r.pareto ? 1 : 0;
  std::printf("pareto front: %zu of %zu surviving rows\n\n", front_size,
              res.rows.size());
  TextTable t({"behaviour", "configuration", "P[mW]", "area[1e6 l^2]",
               "period"});
  for (const auto& r : res.rows) {
    if (!r.pareto) continue;
    t.add_row({r.behaviour, r.point.label, format_fixed(r.point.power.total, 2),
               format_fixed(r.point.area.total / 1e6, 2),
               std::to_string(r.point.stats.period)});
  }
  std::fputs(t.render().c_str(), stdout);

  if (!o.csv_file.empty()) {
    write_file(o.csv_file, core::search_to_csv(res, o.pareto_only));
    std::printf("wrote %s\n", o.csv_file.c_str());
  }
  if (!o.json_file.empty()) {
    write_file(o.json_file, core::search_to_json(res, o.pareto_only));
    std::printf("wrote %s\n", o.json_file.c_str());
  }
  return 0;
}

int cmd_emit(const CliOptions& o, bool verilog) {
  const Loaded l = load(o);
  const auto syn = core::synthesize(*l.graph, *l.schedule, synth_options(o));
  std::fputs(verilog ? vhdl::emit_verilog(*syn.design).c_str()
                     : vhdl::emit_vhdl(*syn.design).c_str(),
             stdout);
  return 0;
}

int cmd_dot(const CliOptions& o) {
  const Loaded l = load(o);
  std::fputs(dfg::to_dot(*l.schedule, o.style == "multi" ? o.clocks : 1).c_str(),
             stdout);
  return 0;
}

}  // namespace

namespace {

int dispatch(const CliOptions& o) {
  if (o.command == "list") return cmd_list();
  if (o.command == "synth") return cmd_synth(o);
  if (o.command == "table") return cmd_table(o);
  if (o.command == "emit") return cmd_emit(o, false);
  if (o.command == "emit-verilog") return cmd_emit(o, true);
  if (o.command == "dot") return cmd_dot(o);
  if (o.command == "explore") return cmd_explore(o);
  if (o.command == "search") return cmd_search(o);
  if (o.command == "experiment") return cli::run_experiment(o.benchmark);
  return usage();
}

/// Flush the requested observability sinks (after the command, whether it
/// succeeded or threw — a trace of a failing run is the most useful kind).
void flush_obs(const CliOptions& o) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::instance();
  if (!o.trace_file.empty()) {
    write_file(o.trace_file, reg.chrome_trace_json());
    std::fprintf(stderr, "wrote %s (%zu spans)\n", o.trace_file.c_str(),
                 reg.num_spans());
  }
  if (!o.metrics_file.empty()) {
    write_file(o.metrics_file, reg.metrics_json());
    std::fprintf(stderr, "wrote %s\n", o.metrics_file.c_str());
  }
  if (o.progress) std::fputs(reg.summary().c_str(), stderr);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions o;
  try {
    o = parse_args(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }
  if (o.obs_enabled()) obs::set_enabled(true);
  if (!o.fault_specs.empty()) {
    fault::set_enabled(true);
    for (const auto& spec : o.fault_specs) {
      if (!fault::arm_from_spec(spec)) {
        std::fprintf(stderr, "error: bad --fault-inject spec '%s'\n",
                     spec.c_str());
        return 2;
      }
    }
  }
  int rc = 1;
  try {
    rc = dispatch(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  try {
    flush_obs(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  return rc;
}
