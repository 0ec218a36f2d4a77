// Allocation scaling of the measurement path: streams, samples and golden
// outputs are flat word tables, so the number of heap blocks a measurement
// allocates must not grow with the number of computations it simulates.
// This binary replaces the global operator new with a counting one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/measure.hpp"
#include "core/synthesizer.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"

namespace {
std::atomic<std::size_t> g_blocks{0};
}  // namespace

// Kept out of line: inlined into a caller, the malloc/free pair would read
// to the compiler as a block from operator new released with free().
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_blocks.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mcrtl::core {
namespace {

/// Heap blocks `fn` allocates through operator new.
template <typename Fn>
std::size_t blocks_of(Fn&& fn) {
  const std::size_t before = g_blocks.load();
  fn();
  return g_blocks.load() - before;
}

// Blocks a measurement may allocate beyond a fixed count, whatever its
// depth: a container's growth steps differ at most by a few between 200
// and 400 computations.
constexpr std::size_t kSlack = 4;

Stimulus bundle(const dfg::Graph& graph, std::size_t streams,
                std::size_t computations) {
  return make_stimulus(graph,
                       sim::uniform_streams(5, streams, graph.inputs().size(),
                                            computations, graph.width()));
}

TEST(AllocScalingTest, MeasureBlocksDoNotGrowWithComputations) {
  const auto b = suite::hal(4);
  SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto syn = synthesize(*b.graph, *b.schedule, opts);
  const auto tech = power::TechLibrary::cmos08();
  const auto short_stim = bundle(*b.graph, 64, 200);
  const auto long_stim = bundle(*b.graph, 64, 400);
  auto run = [&](const Stimulus& stim) {
    return blocks_of([&] { measure(*syn.design, *b.graph, stim, tech); });
  };
  run(short_stim);  // first-use allocations (static tables) out of the way
  const std::size_t at200 = run(short_stim);
  const std::size_t at400 = run(long_stim);
  EXPECT_LE(at400, at200 + kSlack) << "200: " << at200 << ", 400: " << at400;
  EXPECT_LE(at200, at400 + kSlack) << "200: " << at200 << ", 400: " << at400;
}

TEST(AllocScalingTest, StimulusBlocksScaleWithStreamsOnly) {
  const auto b = suite::hal(4);
  const dfg::Graph& g = *b.graph;
  // One stream: a fixed number of blocks at any depth.
  const std::size_t one200 =
      blocks_of([&] { uniform_stimulus(g, 200, 1); });
  const std::size_t one400 =
      blocks_of([&] { uniform_stimulus(g, 400, 1); });
  EXPECT_EQ(one200, one400);
  // A bundle: two blocks per stream (its golden outputs and the golden
  // model's scratch) over the interpreter's fixed set, at any depth.
  const auto inputs = g.inputs().size();
  auto make = [&](std::size_t streams, std::size_t computations) {
    auto ss = sim::uniform_streams(5, streams, inputs, computations,
                                   g.width());
    return blocks_of([&] { make_stimulus(g, std::move(ss)); });
  };
  const std::size_t s8 = make(8, 200);
  const std::size_t s64 = make(64, 200);
  EXPECT_EQ(s64, make(64, 400));
  EXPECT_LE(s64 - s8, 2 * (64 - 8)) << "8 streams: " << s8 << ", 64: " << s64;
  // Generating the bundle itself: one block per stream plus the seeds and
  // the bundle vector.
  const std::size_t gen64 = blocks_of(
      [&] { sim::uniform_streams(5, 64, inputs, 400, g.width()); });
  EXPECT_LE(gen64, 64 + kSlack);
}

}  // namespace
}  // namespace mcrtl::core
