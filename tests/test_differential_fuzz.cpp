// Differential fuzzing: every synthesized design style must agree with the
// DFG interpreter (the golden model) on *randomized* stimulus streams —
// not just the fixed uniform stream the explorer uses. This is the same
// golden-model validation the latch-conversion flows in the related work
// rely on, scaled over random behaviours.
//
// Every case is a pure function of (graph_seed, style, stream kind), so a
// failure report names exactly the tuple needed to replay it:
//     [graph_seed=S config=... stream=...]
// Rebuild the graph with dfg::random_graph(Rng(S), ...) and re-run that one
// configuration to reproduce.
#include <gtest/gtest.h>

#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/measure.hpp"
#include "dfg/random_graph.hpp"
#include "sim/stimulus.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mcrtl {
namespace {

struct StyleUnderTest {
  const char* name;
  core::SynthesisOptions opts;
};

std::vector<StyleUnderTest> styles_under_test() {
  std::vector<StyleUnderTest> out;
  {
    StyleUnderTest s{"conv", {}};
    s.opts.style = core::DesignStyle::ConventionalNonGated;
    out.push_back(s);
  }
  {
    StyleUnderTest s{"gated", {}};
    s.opts.style = core::DesignStyle::ConventionalGated;
    out.push_back(s);
  }
  for (int n : {1, 2, 3, 4}) {
    StyleUnderTest s{"multi_int_latch", {}};
    s.opts.style = core::DesignStyle::MultiClock;
    s.opts.num_clocks = n;
    out.push_back(s);
  }
  for (int n : {2, 3}) {
    StyleUnderTest s{"multi_split_latch", {}};
    s.opts.style = core::DesignStyle::MultiClock;
    s.opts.num_clocks = n;
    s.opts.method = core::AllocMethod::Split;
    out.push_back(s);
  }
  for (int n : {2, 3}) {
    StyleUnderTest s{"multi_int_dff", {}};
    s.opts.style = core::DesignStyle::MultiClock;
    s.opts.num_clocks = n;
    s.opts.use_latches = false;
    out.push_back(s);
  }
  {
    StyleUnderTest s{"multi_int_isolation", {}};
    s.opts.style = core::DesignStyle::MultiClock;
    s.opts.num_clocks = 2;
    s.opts.operand_isolation = true;
    out.push_back(s);
  }
  return out;
}

std::string describe(const StyleUnderTest& s) {
  std::ostringstream os;
  os << s.name << " n=" << s.opts.num_clocks
     << (s.opts.method == core::AllocMethod::Split ? " split" : " integrated")
     << (s.opts.use_latches ? " latch" : " dff");
  return os.str();
}

/// Fuzz one random graph against the golden model across all styles and
/// several randomized stimulus kinds. Returns failure descriptions
/// (empty = all equivalent). Pure function of graph_seed.
std::vector<std::string> fuzz_one_graph(std::uint64_t graph_seed) {
  std::vector<std::string> failures;
  Rng grng(graph_seed);
  dfg::RandomGraphConfig gcfg;
  gcfg.num_inputs = 2 + static_cast<unsigned>(grng.next_below(4));
  gcfg.num_nodes = 8 + static_cast<unsigned>(grng.next_below(16));
  gcfg.width = 4 + static_cast<unsigned>(grng.next_below(13));
  const dfg::Graph g = dfg::random_graph(grng, gcfg);
  const dfg::Schedule s = dfg::schedule_asap(g);

  // Randomized stimulus streams: the stream seed is derived from the graph
  // seed so the whole case replays from graph_seed alone.
  struct NamedStream {
    std::string name;
    sim::InputStream stream;
  };
  constexpr std::size_t kComputations = 40;
  std::vector<NamedStream> streams;
  {
    Rng srng(graph_seed * 0x9E3779B97F4A7C15ull + 1);
    streams.push_back({"uniform",
                       sim::uniform_stream(srng, g.inputs().size(),
                                           kComputations, gcfg.width)});
  }
  {
    Rng srng(graph_seed * 0x9E3779B97F4A7C15ull + 2);
    streams.push_back({"correlated(0.25)",
                       sim::correlated_stream(srng, g.inputs().size(),
                                              kComputations, gcfg.width,
                                              0.25)});
  }
  {
    Rng srng(graph_seed * 0x9E3779B97F4A7C15ull + 3);
    streams.push_back({"constant",
                       sim::constant_stream(srng, g.inputs().size(),
                                            kComputations, gcfg.width)});
  }
  streams.push_back(
      {"ramp", sim::ramp_stream(g.inputs().size(), kComputations, gcfg.width)});

  for (const auto& style : styles_under_test()) {
    const auto syn = core::synthesize(g, s, style.opts);
    for (const auto& ns : streams) {
      try {
        core::measure(*syn.design, g, core::make_stimulus(g, {ns.stream}),
                      power::TechLibrary::cmos08());
      } catch (const std::exception& e) {
        std::ostringstream os;
        os << "[graph_seed=" << graph_seed << " config=" << describe(style)
           << " stream=" << ns.name << "] " << e.what();
        failures.push_back(os.str());
      }
    }
  }
  return failures;
}

TEST(DifferentialFuzz, AllStylesMatchGoldenModelOnRandomStimulus) {
  // 24 graphs x 11 styles x 4 streams = 1056 differential checks, fanned
  // out one graph per pool task.
  std::vector<std::uint64_t> graph_seeds;
  for (std::uint64_t seed = 9000; seed < 9024; ++seed) {
    graph_seeds.push_back(seed);
  }
  ThreadPool pool;
  std::mutex m;
  std::vector<std::string> failures;
  pool.parallel_for_each(graph_seeds, [&](std::uint64_t seed) {
    auto f = fuzz_one_graph(seed);
    if (!f.empty()) {
      std::lock_guard<std::mutex> lk(m);
      failures.insert(failures.end(), f.begin(), f.end());
    }
  });
  for (const auto& f : failures) ADD_FAILURE() << f;
  EXPECT_EQ(failures.size(), 0u)
      << failures.size() << " differential mismatches — each line above "
      << "names the (seed, config, stream) tuple to replay it";
}

}  // namespace
}  // namespace mcrtl
