// `mcrtl experiment <id>`: the paper's figures and the ablations, one
// renderer per id of DESIGN.md's experiment index, each pinned byte for
// byte by a golden file (tests/golden/experiment_<id>.txt).
#pragma once

#include <string>
#include <vector>

#include "core/measure.hpp"
#include "core/synthesizer.hpp"

namespace mcrtl::cli {

/// One design style of a behaviour, synthesized once and measured on any
/// stimulus with the 0.8 µm library. `mcrtl synth`, `mcrtl table` and
/// every experiment measure their rows through it; core::measure() throws
/// if the design's outputs differ from the golden model, so a wrong design
/// never reaches a report.
struct Style {
  Style(const dfg::Graph& graph, const dfg::Schedule& schedule,
        const core::SynthesisOptions& opts);

  core::Measurement measure(const core::Stimulus& stimulus,
                            const core::MeasureHooks& hooks = {}) const;

  const dfg::Graph& graph;
  core::Synthesized syn;
};

/// The experiment ids, in DESIGN.md order.
std::vector<std::string> experiment_ids();

/// Print experiment `id` (one of experiment_ids()) to stdout. Returns the
/// exit code: nonzero when the experiment's self-check fails (E6, E11).
int run_experiment(const std::string& id);

}  // namespace mcrtl::cli
