// Shared helper for the ablation and figure benches: measure one design
// style of a benchmark. The paper's Tables 1-4 come from `mcrtl table`.
#pragma once

#include <cstdint>

#include "core/explorer.hpp"
#include "suite/benchmarks.hpp"

namespace mcrtl::bench {

/// Measure a single custom style on a benchmark with `computations`
/// uniform random computations from Rng(seed) (used by ablation benches).
core::ExplorationPoint run_style(const suite::Benchmark& b,
                                 const core::SynthesisOptions& opts,
                                 std::size_t computations, std::uint64_t seed);

}  // namespace mcrtl::bench
