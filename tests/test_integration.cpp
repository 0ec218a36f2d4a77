// End-to-end integration tests: every benchmark, every design style,
// synthesize -> simulate -> compare against the DFG golden model.
#include <gtest/gtest.h>

#include "core/measure.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/rng.hpp"

namespace mcrtl {
namespace {

struct StyleCase {
  core::DesignStyle style;
  int num_clocks;
  core::AllocMethod method;
  const char* label;
};

const StyleCase kStyles[] = {
    {core::DesignStyle::ConventionalNonGated, 1, core::AllocMethod::Integrated,
     "conv_nongated"},
    {core::DesignStyle::ConventionalGated, 1, core::AllocMethod::Integrated,
     "conv_gated"},
    {core::DesignStyle::MultiClock, 1, core::AllocMethod::Integrated, "mc1"},
    {core::DesignStyle::MultiClock, 2, core::AllocMethod::Integrated, "mc2_int"},
    {core::DesignStyle::MultiClock, 3, core::AllocMethod::Integrated, "mc3_int"},
    {core::DesignStyle::MultiClock, 4, core::AllocMethod::Integrated, "mc4_int"},
    {core::DesignStyle::MultiClock, 2, core::AllocMethod::Split, "mc2_split"},
    {core::DesignStyle::MultiClock, 3, core::AllocMethod::Split, "mc3_split"},
};

class EquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(EquivalenceTest, RtlMatchesGoldenModel) {
  const auto& [bench_name, style_idx] = GetParam();
  const StyleCase& sc = kStyles[style_idx];

  suite::Benchmark b = suite::by_name(bench_name, /*width=*/8);

  core::SynthesisOptions opts;
  opts.style = sc.style;
  opts.num_clocks = sc.num_clocks;
  opts.method = sc.method;
  core::Synthesized syn = core::synthesize(*b.graph, *b.schedule, opts);

  Rng rng(0xC0FFEE ^ std::hash<std::string>{}(bench_name) ^ style_idx);
  const auto stream =
      sim::uniform_stream(rng, b.graph->inputs().size(), 200, b.graph->width());

  // NOTE: equivalence is checked against the *original* graph — transfer
  // temporaries must never change the computed function.
  // measure() checks every computation and throws on the first mismatch.
  EXPECT_NO_THROW(core::measure(*syn.design, *b.graph,
                                core::make_stimulus(*b.graph, {stream}),
                                power::TechLibrary::cmos08()));
}

std::vector<std::tuple<std::string, std::size_t>> all_cases() {
  std::vector<std::tuple<std::string, std::size_t>> cases;
  for (const auto& name : suite::all_names()) {
    for (std::size_t s = 0; s < std::size(kStyles); ++s) cases.emplace_back(name, s);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksAllStyles, EquivalenceTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::size_t>>& info) {
      return std::get<0>(info.param) + "_" +
             kStyles[std::get<1>(info.param)].label;
    });

}  // namespace
}  // namespace mcrtl
