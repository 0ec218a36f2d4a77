#include "table_common.hpp"

#include "core/measure.hpp"

namespace mcrtl::bench {

core::ExplorationPoint run_style(const suite::Benchmark& b,
                                 const core::SynthesisOptions& opts,
                                 std::size_t computations, std::uint64_t seed) {
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  // measure() throws if the style's outputs differ from the golden model:
  // a wrong design must never make it into a table.
  return core::measure(*syn.design, *b.graph,
                       core::uniform_stimulus(*b.graph, computations, seed),
                       power::TechLibrary::cmos08())
      .point;
}

}  // namespace mcrtl::bench
