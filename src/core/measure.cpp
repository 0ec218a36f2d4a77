#include "core/measure.hpp"

#include "obs/obs.hpp"
#include "sim/stimulus.hpp"
#include "util/error.hpp"

namespace mcrtl::core {

Stimulus make_stimulus(const dfg::Graph& graph,
                       std::vector<sim::InputStream> streams) {
  const dfg::Interpreter interp(graph);
  for (const auto& s : streams) sim::check_stream_width(s, interp.num_inputs());
  Stimulus stim;
  stim.golden.reserve(streams.size());
  for (const auto& s : streams) {
    stim.golden.emplace_back(s.size(), interp.num_outputs());
    sim::fill_golden_outputs(interp, s, stim.golden.back());
  }
  stim.streams = std::move(streams);
  return stim;
}

Stimulus uniform_stimulus(const dfg::Graph& graph, std::size_t computations,
                          std::uint64_t seed) {
  Rng rng(sim::stream_seed(seed, 1, 0));
  std::vector<sim::InputStream> streams;
  streams.push_back(sim::uniform_stream(rng, graph.inputs().size(),
                                        computations, graph.width()));
  return make_stimulus(graph, std::move(streams));
}

Measurement measure(const rtl::Design& design, const dfg::Graph& graph,
                    const Stimulus& stimulus, const power::TechLibrary& tech,
                    const power::PowerParams& params,
                    const MeasureHooks& hooks) {
  const std::size_t num_streams = stimulus.streams.size();
  MCRTL_CHECK_MSG(num_streams >= 1 &&
                      num_streams <= sim::Simulator::kMaxStreams &&
                      stimulus.golden.size() == num_streams,
                  "measure() takes 1.." << sim::Simulator::kMaxStreams
                                        << " streams with golden outputs");
  // The debug hooks read per-step scalar state, so a hooked run is the
  // Oblivious reference kernel's run() — bit-identical to the time-sliced
  // pass every other measurement takes (tests/test_sim_kernel.cpp,
  // tests/test_sim_sliced.cpp).
  const bool hooked = hooks.heatmap != nullptr || hooks.observer;
  MCRTL_CHECK_MSG(num_streams == 1 || !hooked,
                  "measure() hooks a heatmap or observer on one stream only");
  sim::Simulator simulator(design, hooked ? sim::Simulator::Mode::Oblivious
                                          : sim::Simulator::Mode::BitSliced);
  if (hooks.deadline) simulator.set_deadline(*hooks.deadline);
  simulator.set_heatmap(hooks.heatmap);
  if (hooks.observer) simulator.set_observer(hooks.observer);
  // Hierarchical attribution rides along with every measurement: the probe
  // time-resolves the energy (the crest factor, the per-domain waveform)
  // and attribute() names the hotspot. The probe only observes — outputs
  // and Activity are bit-identical with it attached
  // (tests/test_attribution.cpp).
  auto energy =
      std::make_unique<const power::Attribution>(design, tech, params.vdd);
  sim::PowerProbe probe(energy->energy_model());
  simulator.set_power_probe(&probe);

  std::vector<sim::SimResult> results;
  if (hooked) {
    results.push_back(simulator.run(stimulus.streams[0], graph.inputs(),
                                    graph.outputs()));
  } else {
    results = simulator.run_time_sliced(stimulus.streams, graph.inputs(),
                                        graph.outputs());
  }
  // Every stream must be functionally equivalent to the golden model on
  // its own.
  for (std::size_t s = 0; s < num_streams; ++s) {
    const auto rep = sim::check_outputs(graph, stimulus.golden[s],
                                        results[s].outputs, design.style_name);
    if (!rep.equivalent) {
      throw Error(num_streams == 1
                      ? "non-equivalent design: " + rep.detail
                      : "non-equivalent design (stream " + std::to_string(s) +
                            "): " + rep.detail);
    }
  }

  // Every reported field is a per-stream sample mean (for one stream, its
  // value: stddev and ci95 are 0); sample_stats accumulates in sorted
  // order, so the point is invariant under stream permutation.
  ExplorationPoint p;
  p.label = design.style_name;
  std::vector<power::PowerBreakdown> brs(num_streams);
  std::vector<double> totals(num_streams);
  for (std::size_t s = 0; s < num_streams; ++s) {
    brs[s] = power::estimate_power(design, results[s].activity, tech, params);
    totals[s] = brs[s].total;
  }
  auto mean_of = [&](double power::PowerBreakdown::*field) {
    std::vector<double> v(num_streams);
    for (std::size_t s = 0; s < num_streams; ++s) v[s] = brs[s].*field;
    return sim::sample_stats(std::move(v)).mean;
  };
  p.power.combinational = mean_of(&power::PowerBreakdown::combinational);
  p.power.storage = mean_of(&power::PowerBreakdown::storage);
  p.power.clock_tree = mean_of(&power::PowerBreakdown::clock_tree);
  p.power.control = mean_of(&power::PowerBreakdown::control);
  p.power.io = mean_of(&power::PowerBreakdown::io);
  p.power.leakage = mean_of(&power::PowerBreakdown::leakage);
  const sim::SampleStats st = sim::sample_stats(std::move(totals));
  p.power.total = st.mean;
  p.power_stddev = st.stddev;
  p.power_ci95 = st.ci95;
  // Aggregate attribution across streams: integer Activity records add
  // exactly, and the probe already accumulated the all-lane waveform.
  sim::Activity activity = sim::sum_activities(results);
  auto arep = energy->attribute(activity);
  if (!arep.rows.empty()) {
    p.hotspot = arep.rows.front().component;
    p.hotspot_share = arep.total_fj > 0.0
                          ? arep.rows.front().energy_fj / arep.total_fj
                          : 0.0;
  }
  p.crest = probe.crest();
  if (obs::enabled()) {
    obs::observe_many("power.step_fj", probe.step_energies());
  }
  p.area = power::estimate_area(design, tech);
  p.stats = design.stats;
  return Measurement{std::move(p), std::move(activity), std::move(arep),
                     std::move(energy), std::move(probe)};
}

}  // namespace mcrtl::core
