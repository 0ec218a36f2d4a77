// Shared harness for the Tables 1-4 reproducers: run the paper's five
// design styles on one benchmark, measure power/area, and print the table
// in the paper's format together with the paper's reported values.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "suite/benchmarks.hpp"

namespace mcrtl::bench {

/// The paper's reported numbers for comparison (power mW, area λ²).
struct PaperRow {
  double power_mw;
  double area_lambda2;
};

struct TableConfig {
  std::string benchmark;
  unsigned width = 4;
  std::size_t computations = 2000;
  std::uint64_t seed = 1996;
  /// Paper values in row order {non-gated, gated, 1clk, 2clk, 3clk};
  /// empty = no reference printed.
  std::vector<PaperRow> paper;
  std::string title;
};

/// Run the five styles of the paper's tables on one stimulus; returns rows
/// in paper order, each labelled with its design style.
std::vector<core::ExplorationPoint> run_table(const TableConfig& cfg);

/// Render rows (and the paper reference, if provided) to stdout and return
/// the text. Also prints the headline reduction (n-clock best vs gated).
std::string print_table(const TableConfig& cfg,
                        const std::vector<core::ExplorationPoint>& rows);

/// Measure a single custom style on a benchmark with `computations`
/// uniform random computations from Rng(seed) (used by ablation benches).
core::ExplorationPoint run_style(const suite::Benchmark& b,
                                 const core::SynthesisOptions& opts,
                                 std::size_t computations, std::uint64_t seed);

}  // namespace mcrtl::bench
