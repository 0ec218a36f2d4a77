// filter_design_space: explore the power/area design space of the biquad
// filter across clock counts, allocation methods and memory-element styles,
// and report the Pareto frontier — the workflow a designer would use to
// pick a multi-clock configuration under an area budget.
//
// Build & run:  ./build/examples/filter_design_space [benchmark] [width]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/measure.hpp"
#include "suite/benchmarks.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace mcrtl;

namespace {

struct Point {
  std::string label;
  double power_mw;
  double area;
  bool pareto = false;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "biquad";
  const unsigned width = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 4;
  const auto b = suite::by_name(name, width);
  std::printf("design space of '%s' (%u-bit): clocks x method x memory "
              "element\n\n", name.c_str(), width);

  const auto tech = power::TechLibrary::cmos08();
  const auto stim = core::uniform_stimulus(*b.graph, 1500, 77);

  std::vector<Point> points;
  auto eval = [&](const core::SynthesisOptions& opts, std::string label) {
    const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
    const auto m = core::measure(*syn.design, *b.graph, stim, tech);
    Point p;
    p.label = std::move(label);
    p.power_mw = m.point.power.total;
    p.area = m.point.area.total;
    points.push_back(p);
  };

  {
    core::SynthesisOptions opts;
    opts.style = core::DesignStyle::ConventionalNonGated;
    eval(opts, "conventional non-gated");
    opts.style = core::DesignStyle::ConventionalGated;
    eval(opts, "conventional gated");
  }
  for (int n = 1; n <= 4; ++n) {
    for (const bool latches : {true, false}) {
      for (const auto method :
           {core::AllocMethod::Integrated, core::AllocMethod::Split}) {
        if (n == 1 && method == core::AllocMethod::Split) continue;
        core::SynthesisOptions opts;
        opts.style = core::DesignStyle::MultiClock;
        opts.num_clocks = n;
        opts.use_latches = latches;
        opts.method = method;
        eval(opts, str_format("%d clk, %s, %s", n,
                              method == core::AllocMethod::Split ? "split"
                                                                 : "integrated",
                              latches ? "latches" : "DFFs"));
      }
    }
  }

  // Pareto: a point survives if nothing is better in both power and area.
  for (auto& p : points) {
    p.pareto = std::none_of(points.begin(), points.end(), [&](const Point& q) {
      return (q.power_mw < p.power_mw && q.area <= p.area) ||
             (q.power_mw <= p.power_mw && q.area < p.area);
    });
  }
  std::sort(points.begin(), points.end(),
            [](const Point& a, const Point& b) { return a.power_mw < b.power_mw; });

  TextTable t({"Configuration", "Power[mW]", "Area[1e6 l^2]", "Pareto"});
  for (const auto& p : points) {
    t.add_row({p.label, format_fixed(p.power_mw, 2), format_fixed(p.area / 1e6, 2),
               p.pareto ? "*" : ""});
  }
  std::fputs(t.render().c_str(), stdout);

  const auto& best = points.front();
  std::printf("\nlowest power: %s at %.2f mW\n", best.label.c_str(),
              best.power_mw);
  return 0;
}
