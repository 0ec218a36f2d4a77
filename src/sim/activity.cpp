#include "sim/activity.hpp"

#include <algorithm>
#include <cmath>

#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace mcrtl::sim {

SampleStats sample_stats(std::vector<double> values) {
  SampleStats st;
  st.n = values.size();
  if (st.n == 0) return st;
  // Sorted accumulation: summation order is a function of the value set,
  // not of the lane order, so permuting streams cannot move a single ULP.
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (double v : values) sum += v;
  st.mean = sum / static_cast<double>(st.n);
  if (st.n < 2) return st;
  double ss = 0.0;
  for (double v : values) ss += (v - st.mean) * (v - st.mean);
  st.stddev = std::sqrt(ss / static_cast<double>(st.n - 1));
  st.ci95 = 1.96 * st.stddev / std::sqrt(static_cast<double>(st.n));
  return st;
}

namespace {
// Element-wise sum of get(parts[0]) .. get(parts[n-1]).
template <typename Parts, typename Get>
Activity sum_parts(const Parts& parts, Get get) {
  MCRTL_CHECK(!parts.empty());
  Activity total = get(parts[0]);
  for (std::size_t p = 1; p < parts.size(); ++p) {
    const Activity& a = get(parts[p]);
    MCRTL_CHECK(a.net_toggles.size() == total.net_toggles.size());
    MCRTL_CHECK(a.storage_clock_events.size() ==
                total.storage_clock_events.size());
    MCRTL_CHECK(a.storage_write_toggles.size() ==
                total.storage_write_toggles.size());
    MCRTL_CHECK(a.phase_pulses.size() == total.phase_pulses.size());
    for (std::size_t i = 0; i < a.net_toggles.size(); ++i) {
      total.net_toggles[i] += a.net_toggles[i];
    }
    for (std::size_t i = 0; i < a.storage_clock_events.size(); ++i) {
      total.storage_clock_events[i] += a.storage_clock_events[i];
      total.storage_write_toggles[i] += a.storage_write_toggles[i];
    }
    for (std::size_t i = 0; i < a.phase_pulses.size(); ++i) {
      total.phase_pulses[i] += a.phase_pulses[i];
    }
    total.steps += a.steps;
    total.computations += a.computations;
  }
  return total;
}
}  // namespace

Activity sum_activities(const std::vector<Activity>& parts) {
  return sum_parts(parts, [](const Activity& a) -> const Activity& {
    return a;
  });
}

Activity sum_activities(const std::vector<SimResult>& results) {
  return sum_parts(results, [](const SimResult& r) -> const Activity& {
    return r.activity;
  });
}

std::uint64_t PhaseHeatmap::phase_total(int phase) const {
  std::uint64_t total = 0;
  for (int t = 1; t <= period; ++t) total += write_toggles[at(phase, t)];
  return total;
}

std::string render_heatmap(const PhaseHeatmap& hm) {
  std::vector<std::string> header{"phase \\ step"};
  std::vector<Align> aligns{Align::Left};
  for (int t = 1; t <= hm.period; ++t) {
    header.push_back(str_format("t%d", t));
    aligns.push_back(Align::Right);
  }
  header.push_back("total");
  aligns.push_back(Align::Right);
  TextTable table(std::move(header), std::move(aligns));
  for (int p = 1; p <= hm.num_phases; ++p) {
    std::vector<std::string> row{str_format("phi%d", p)};
    for (int t = 1; t <= hm.period; ++t) {
      const auto tog = hm.write_toggles[hm.at(p, t)];
      const auto clk = hm.clock_events[hm.at(p, t)];
      row.push_back(tog == 0 && clk == 0
                        ? "."
                        : str_format("%llu/%llu",
                                     static_cast<unsigned long long>(tog),
                                     static_cast<unsigned long long>(clk)));
    }
    row.push_back(std::to_string(hm.phase_total(p)));
    table.add_row(std::move(row));
  }
  return table.render();
}

}  // namespace mcrtl::sim
