// Benchmark behaviours used in the paper's evaluation, rebuilt from the
// literature it cites (see DESIGN.md for the substitution notes):
//
//  * motivating  — the Fig. 1 example: 6 (+,-) operations in 5 steps whose
//                  odd/even split yields the paper's Circuit 2;
//  * facet       — the FACET example [Tseng & Siewiorek 83]: the op mix of
//                  the paper's Table 1 (+, -, *, /, &, |);
//  * hal         — the HAL differential-equation benchmark [Paulin &
//                  Knight 89]: one Euler step of y'' + 3xy' + 3y = 0
//                  (6 *, 2 +, 2 -, 1 <);
//  * biquad      — two cascaded direct-form-II biquad sections [Green &
//                  Turner 88];
//  * bandpass    — a fourth-order band-pass filter (direct-form-I biquad
//                  cascade) [Kung/Whitehouse/Kailath 85];
//
// plus extension workloads for wider coverage:
//
//  * ewf         — a 5th-order elliptic-wave-filter-like behaviour
//                  (add-dominated, 8 *, 26 +);
//  * ar_lattice  — an auto-regressive lattice filter stage (mul-heavy);
//  * fir8        — an 8-tap FIR filter.
//
// Each benchmark comes with a deterministic reference schedule (ASAP or
// resource-constrained list schedule) so the tables are reproducible.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dfg/graph.hpp"
#include "dfg/schedule.hpp"

namespace mcrtl::suite {

/// One design style's figures as the paper reports them (COMPASS 0.8um).
struct PaperRow {
  double power_mw;
  double area_lambda2;
};

/// One of the paper's Tables 1-4: its title and its rows in the order
/// conventional non-gated, conventional gated, 1, 2 and 3 clocks.
struct PaperTable {
  std::string title;
  std::array<PaperRow, 5> rows;
};

/// A behaviour plus its reference schedule. The schedule points into the
/// graph, so both are heap-held and the struct is freely movable.
struct Benchmark {
  std::string name;
  std::string description;
  std::unique_ptr<dfg::Graph> graph;
  std::unique_ptr<dfg::Schedule> schedule;
  /// The paper's table for this behaviour (facet, hal, biquad, bandpass);
  /// empty for every other behaviour.
  std::optional<PaperTable> paper;
};

Benchmark motivating(unsigned width = 4);
Benchmark facet(unsigned width = 4);
Benchmark hal(unsigned width = 4);
Benchmark biquad(unsigned width = 4);
Benchmark bandpass(unsigned width = 4);
Benchmark ewf(unsigned width = 4);
Benchmark ar_lattice(unsigned width = 4);
Benchmark fir8(unsigned width = 4);
/// 4-point DCT butterfly network (mul/add balanced, wide parallelism).
Benchmark dct4(unsigned width = 4);

/// All benchmark names accepted by `by_name`.
std::vector<std::string> all_names();
/// Factory by name; throws mcrtl::Error for unknown names.
Benchmark by_name(const std::string& name, unsigned width = 4);

}  // namespace mcrtl::suite
