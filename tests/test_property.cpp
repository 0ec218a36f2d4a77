// Property-based tests over random DFGs: the synthesis pipeline must hold
// its invariants for arbitrary valid behaviours, not just the paper's
// benchmarks. Parameterized over (seed, clock count, method, memory
// element); the wide grid runs on the work-stealing pool to keep wall-clock
// in check.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <sstream>
#include <vector>

#include "core/measure.hpp"
#include "dfg/random_graph.hpp"
#include "sim/stimulus.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mcrtl {
namespace {

struct PropertyParam {
  std::uint64_t seed;
  int num_clocks;
  core::AllocMethod method;
  bool use_latches = true;
};

std::string param_name(const PropertyParam& p) {
  return "seed" + std::to_string(p.seed) + "_n" +
         std::to_string(p.num_clocks) +
         (p.method == core::AllocMethod::Split ? "_split" : "_int") +
         (p.use_latches ? "" : "_dff");
}

/// Run one property case; returns "" on success, otherwise a description of
/// the first violated invariant. Pure function of the parameter — safe to
/// call from any thread.
std::string run_property_case(const PropertyParam& p,
                              std::size_t computations) {
  std::ostringstream err;
  Rng rng(p.seed);
  dfg::RandomGraphConfig cfg;
  cfg.num_inputs = 2 + static_cast<unsigned>(rng.next_below(4));
  cfg.num_nodes = 6 + static_cast<unsigned>(rng.next_below(24));
  cfg.width = 4 + static_cast<unsigned>(rng.next_below(9));
  const dfg::Graph g = dfg::random_graph(rng, cfg);
  const dfg::Schedule s = dfg::schedule_asap(g);

  core::SynthesisOptions opts;
  opts.style = core::DesignStyle::MultiClock;
  opts.num_clocks = p.num_clocks;
  opts.method = p.method;
  opts.use_latches = p.use_latches;
  const auto syn = core::synthesize(g, s, opts);

  // 1. Functional equivalence on a random stream.
  const auto stream =
      sim::uniform_stream(rng, g.inputs().size(), computations, cfg.width);
  try {
    core::measure(*syn.design, g, core::make_stimulus(g, {stream}),
                  power::TechLibrary::cmos08());
  } catch (const std::exception& e) {
    err << "[" << param_name(p) << "] equivalence: " << e.what();
    return err.str();
  }

  // 2. Binding invariants (partition homogeneity, no FU double-booking).
  const auto& binding = *syn.alloc.binding;
  std::set<std::pair<unsigned, int>> busy;
  for (const auto& fu : binding.func_units()) {
    for (dfg::NodeId op : fu.ops) {
      if (!busy.emplace(fu.index, syn.alloc.schedule->step(op)).second) {
        err << "[" << param_name(p) << "] FU " << fu.index
            << " double-booked at step " << syn.alloc.schedule->step(op);
        return err.str();
      }
      if (p.num_clocks > 1 &&
          fu.partition !=
              binding.partition_of_step(syn.alloc.schedule->step(op))) {
        err << "[" << param_name(p) << "] FU " << fu.index
            << " partition mismatch";
        return err.str();
      }
    }
  }

  // 3. Every storage unit's clock phase matches its partition in the
  // netlist.
  for (std::size_t i = 0; i < binding.storage().size(); ++i) {
    const auto& comp = syn.design->netlist.comp(syn.design->storage_comp[i]);
    if (comp.clock_phase != binding.storage()[i].partition) {
      err << "[" << param_name(p) << "] storage " << i
          << " clock phase " << comp.clock_phase << " != partition "
          << binding.storage()[i].partition;
      return err.str();
    }
  }

  // 4. Design statistics are internally consistent.
  if (syn.design->stats.num_memory_cells !=
      static_cast<int>(binding.storage().size())) {
    err << "[" << param_name(p) << "] num_memory_cells "
        << syn.design->stats.num_memory_cells << " != storage count "
        << binding.storage().size();
    return err.str();
  }
  int muxes = 0;
  for (const auto& c : syn.design->netlist.components()) {
    muxes += c.kind == rtl::CompKind::Mux ? 1 : 0;
  }
  if (muxes != syn.design->stats.num_muxes) {
    err << "[" << param_name(p) << "] mux count " << muxes
        << " != stats.num_muxes " << syn.design->stats.num_muxes;
    return err.str();
  }
  return "";
}

class RandomGraphProperty : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(RandomGraphProperty, SynthesisPreservesFunctionAndInvariants) {
  EXPECT_EQ(run_property_case(GetParam(), 60), "");
}

std::vector<PropertyParam> property_cases() {
  std::vector<PropertyParam> out;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (int n : {1, 2, 3, 4}) {
      out.push_back({seed, n, core::AllocMethod::Integrated});
      if (n > 1) out.push_back({seed, n, core::AllocMethod::Split});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomGraphProperty,
                         ::testing::ValuesIn(property_cases()),
                         [](const ::testing::TestParamInfo<PropertyParam>& info) {
                           return param_name(info.param);
                         });

// The wide grid: 3x the seeds of the parameterized sweep above, all clock
// counts up to 4, both allocation methods, and the DFF memory-element
// variant (use_latches = false). Runs as ONE test through the pool's
// parallel_for_each so the added coverage costs wall-clock/#cores, not
// wall-clock; failures are collected per-case and reported together with
// their reproducible parameter name.
TEST(RandomGraphPropertyWide, ParallelGridHoldsAllInvariants) {
  std::vector<PropertyParam> cases;
  for (std::uint64_t seed = 100; seed < 136; ++seed) {  // 36 fresh seeds
    for (int n : {1, 2, 3, 4}) {
      cases.push_back({seed, n, core::AllocMethod::Integrated, true});
      if (n > 1) {
        cases.push_back({seed, n, core::AllocMethod::Split, true});
        // The DFF ablation (explorer's include_dff_variant path).
        cases.push_back({seed, n, core::AllocMethod::Integrated, false});
        cases.push_back({seed, n, core::AllocMethod::Split, false});
      }
    }
  }
  ThreadPool pool;
  std::mutex m;
  std::vector<std::string> failures;
  pool.parallel_for_each(cases, [&](const PropertyParam& p) {
    // Shorter stream than the narrow sweep: the wide grid trades stream
    // length for configuration coverage.
    const std::string err = run_property_case(p, 30);
    if (!err.empty()) {
      std::lock_guard<std::mutex> lk(m);
      failures.push_back(err);
    }
  });
  for (const auto& f : failures) ADD_FAILURE() << f;
  EXPECT_EQ(failures.size(), 0u) << failures.size() << " of " << cases.size()
                                 << " cases failed";
}

class WidthSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(WidthSweep, EquivalenceAcrossWidths) {
  const unsigned width = GetParam();
  Rng rng(0xABCD + width);
  dfg::RandomGraphConfig cfg;
  cfg.num_nodes = 14;
  cfg.width = width;
  const dfg::Graph g = dfg::random_graph(rng, cfg);
  const dfg::Schedule s = dfg::schedule_asap(g);
  core::SynthesisOptions opts;
  opts.style = core::DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto syn = core::synthesize(g, s, opts);
  const auto stream = sim::uniform_stream(rng, g.inputs().size(), 40, width);
  EXPECT_NO_THROW(core::measure(*syn.design, g,
                                core::make_stimulus(g, {stream}),
                                power::TechLibrary::cmos08()));
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(1u, 2u, 4u, 7u, 8u, 13u, 16u, 24u,
                                           32u, 48u, 64u));

class SchedulerSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(SchedulerSweep, AllSchedulersFeedSynthesis) {
  // Any valid schedule (ASAP, ALAP, list, FDS) must synthesize and stay
  // functionally correct under the multi-clock scheme.
  const auto& [seed, n] = GetParam();
  Rng rng(seed);
  dfg::RandomGraphConfig cfg;
  cfg.num_nodes = 16;
  const dfg::Graph g = dfg::random_graph(rng, cfg);

  std::vector<dfg::Schedule> schedules;
  schedules.push_back(dfg::schedule_asap(g));
  const int horizon = static_cast<int>(g.critical_path_length()) + 2;
  schedules.push_back(dfg::schedule_alap(g, horizon));
  dfg::ResourceLimits limits;
  limits.default_limit = 2;
  schedules.push_back(dfg::schedule_list(g, limits));
  schedules.push_back(dfg::schedule_force_directed(g, horizon));

  for (const auto& s : schedules) {
    core::SynthesisOptions opts;
    opts.style = core::DesignStyle::MultiClock;
    opts.num_clocks = n;
    const auto syn = core::synthesize(g, s, opts);
    Rng srng(seed ^ 0x5555);
    const auto stream = sim::uniform_stream(srng, g.inputs().size(), 30, 8);
    EXPECT_NO_THROW(core::measure(*syn.design, g,
                                  core::make_stimulus(g, {stream}),
                                  power::TechLibrary::cmos08()));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SchedulerSweep,
                         ::testing::Combine(::testing::Values(31u, 32u, 33u),
                                            ::testing::Values(2, 3)));

}  // namespace
}  // namespace mcrtl
