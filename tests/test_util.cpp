// Unit tests for src/util: strong ids, rng, bit utilities, strings, tables,
// thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <unordered_set>

#include "sim/activity.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace mcrtl {
namespace {

using TestId = StrongId<struct TestTag>;
using OtherId = StrongId<struct OtherTag>;

TEST(StrongIdTest, DefaultIsInvalid) {
  TestId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, TestId::invalid());
}

TEST(StrongIdTest, ValueRoundTrip) {
  TestId id(42);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
  EXPECT_EQ(id.index(), 42u);
}

TEST(StrongIdTest, Ordering) {
  EXPECT_LT(TestId(1), TestId(2));
  EXPECT_EQ(TestId(7), TestId(7));
  EXPECT_NE(TestId(7), TestId(8));
}

TEST(StrongIdTest, Hashable) {
  std::unordered_set<TestId> s;
  s.insert(TestId(1));
  s.insert(TestId(1));
  s.insert(TestId(2));
  EXPECT_EQ(s.size(), 2u);
}

TEST(StrongIdTest, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<TestId, OtherId>);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextBitsMasked) {
  Rng r(9);
  for (int i = 0; i < 200; ++i) EXPECT_LE(r.next_bits(5), 31u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng r(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = r.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng r(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng r(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  r.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(BitsTest, MaskValues) {
  EXPECT_EQ(bit_mask(1), 1u);
  EXPECT_EQ(bit_mask(4), 0xFu);
  EXPECT_EQ(bit_mask(64), ~std::uint64_t{0});
}

TEST(BitsTest, TruncateDropsHighBits) {
  EXPECT_EQ(truncate(0x1F, 4), 0xFu);
  EXPECT_EQ(truncate(0x10, 4), 0u);
}

TEST(BitsTest, Hamming) {
  EXPECT_EQ(hamming(0, 0), 0u);
  EXPECT_EQ(hamming(0b1010, 0b0101), 4u);
  EXPECT_EQ(hamming(~std::uint64_t{0}, 0), 64u);
}

TEST(BitsTest, SignedRoundTrip) {
  for (int v = -8; v <= 7; ++v) {
    EXPECT_EQ(to_signed(from_signed(v, 4), 4), v) << v;
  }
}

TEST(BitsTest, SignExtension) {
  EXPECT_EQ(to_signed(0xF, 4), -1);
  EXPECT_EQ(to_signed(0x8, 4), -8);
  EXPECT_EQ(to_signed(0x7, 4), 7);
}

// ---- bit-slice primitive properties ----------------------------------------
//
// The sliced simulator kernel (sim/sliced.cpp) is only as correct as these
// building blocks, so each one is checked against a plain scalar loop over
// the lanes, at the width extremes (1, 63, 64) and on random data.

namespace slices {

constexpr unsigned kWidths[] = {1, 4, 63, 64};

/// Random planes where every lane carries an independent width-bit word.
std::array<std::uint64_t, 64> random_planes(Rng& rng, unsigned width) {
  std::array<std::uint64_t, 64> lanes{};
  for (auto& w : lanes) w = rng.next_bits(width);
  std::array<std::uint64_t, 64> planes = lanes;
  transpose64(planes.data());
  return planes;
}

}  // namespace slices

TEST(SliceTest, Transpose64IsAMainDiagonalTransposeAndInvolution) {
  Rng rng(2024);
  std::array<std::uint64_t, 64> m{};
  for (auto& row : m) row = rng.next();
  auto t = m;
  transpose64(t.data());
  for (unsigned i = 0; i < 64; ++i) {
    for (unsigned j = 0; j < 64; ++j) {
      EXPECT_EQ((t[i] >> j) & 1, (m[j] >> i) & 1) << i << "," << j;
    }
  }
  transpose64(t.data());
  EXPECT_EQ(t, m);
}

TEST(SliceTest, BroadcastAndExtractLaneRoundTrip) {
  Rng rng(2025);
  for (const unsigned width : slices::kWidths) {
    // Broadcast: every lane reads back the scalar.
    const std::uint64_t v = rng.next_bits(width);
    std::array<std::uint64_t, 64> planes{};
    slice_broadcast(v, width, planes.data());
    for (unsigned lane = 0; lane < 64; ++lane) {
      EXPECT_EQ(slice_extract_lane(planes.data(), width, lane), v);
    }
    // Pack via transpose: each lane reads back its own word.
    std::array<std::uint64_t, 64> lanes{};
    for (auto& w : lanes) w = rng.next_bits(width);
    auto packed = lanes;
    transpose64(packed.data());
    for (unsigned lane = 0; lane < 64; ++lane) {
      EXPECT_EQ(slice_extract_lane(packed.data(), width, lane), lanes[lane]);
    }
  }
}

TEST(SliceTest, AddAndSubMatchScalarPerLane) {
  Rng rng(2026);
  for (const unsigned width : slices::kWidths) {
    for (int round = 0; round < 8; ++round) {
      const auto a = slices::random_planes(rng, width);
      const auto b = slices::random_planes(rng, width);
      const std::uint64_t cin = rng.next();

      std::array<std::uint64_t, 64> sum{};
      const std::uint64_t cout =
          slice_add(a.data(), b.data(), width, sum.data(), cin);
      std::array<std::uint64_t, 64> diff{};
      const std::uint64_t no_borrow =
          slice_sub(a.data(), b.data(), width, diff.data());

      for (unsigned lane = 0; lane < 64; ++lane) {
        const std::uint64_t x = slice_extract_lane(a.data(), width, lane);
        const std::uint64_t y = slice_extract_lane(b.data(), width, lane);
        const std::uint64_t c = (cin >> lane) & 1;
        const unsigned __int128 wide =
            static_cast<unsigned __int128>(x) + y + c;
        EXPECT_EQ(slice_extract_lane(sum.data(), width, lane),
                  truncate(static_cast<std::uint64_t>(wide), width));
        EXPECT_EQ((cout >> lane) & 1,
                  static_cast<std::uint64_t>((wide >> width) & 1));
        EXPECT_EQ(slice_extract_lane(diff.data(), width, lane),
                  truncate(x - y, width));
        EXPECT_EQ((no_borrow >> lane) & 1, x >= y ? 1u : 0u);
      }
    }
  }
}

TEST(SliceTest, AddIsAliasingSafe) {
  Rng rng(2027);
  const unsigned width = 16;
  auto a = slices::random_planes(rng, width);
  const auto b = slices::random_planes(rng, width);
  auto expected = a;
  std::array<std::uint64_t, 64> out{};
  slice_add(expected.data(), b.data(), width, out.data());
  slice_add(a.data(), b.data(), width, a.data());  // out aliases a
  for (unsigned i = 0; i < width; ++i) EXPECT_EQ(a[i], out[i]);
}

TEST(SliceTest, ComparesAndMuxMatchScalarPerLane) {
  Rng rng(2028);
  for (const unsigned width : slices::kWidths) {
    for (int round = 0; round < 8; ++round) {
      auto a = slices::random_planes(rng, width);
      auto b = slices::random_planes(rng, width);
      if (round & 1) {
        // Force lane collisions so the eq masks are not all-zero.
        for (unsigned i = 0; i < width; ++i) b[i] = a[i];
        b[0] ^= rng.next();
      }
      const std::uint64_t c = rng.next_bits(width);
      const std::uint64_t eq = slice_eq(a.data(), b.data(), width);
      const std::uint64_t eqc = slice_eq_const(a.data(), width, c);
      const std::uint64_t lt = slice_lt_signed(a.data(), b.data(), width);
      const std::uint64_t sel = rng.next();
      std::array<std::uint64_t, 64> mux{};
      slice_mux(sel, a.data(), b.data(), width, mux.data());

      for (unsigned lane = 0; lane < 64; ++lane) {
        const std::uint64_t x = slice_extract_lane(a.data(), width, lane);
        const std::uint64_t y = slice_extract_lane(b.data(), width, lane);
        EXPECT_EQ((eq >> lane) & 1, x == y ? 1u : 0u);
        EXPECT_EQ((eqc >> lane) & 1, x == c ? 1u : 0u);
        EXPECT_EQ((lt >> lane) & 1,
                  to_signed(x, width) < to_signed(y, width) ? 1u : 0u)
            << "width=" << width << " lane=" << lane;
        EXPECT_EQ(slice_extract_lane(mux.data(), width, lane),
                  (sel >> lane) & 1 ? x : y);
      }
    }
  }
}

TEST(SliceTest, PopcountPlanesAndCounterAddMatchScalarSums) {
  Rng rng(2029);
  for (const unsigned width : slices::kWidths) {
    constexpr unsigned kCounterPlanes = 20;
    std::array<std::uint64_t, kCounterPlanes> counter{};
    std::array<std::uint64_t, 64> scalar_sums{};
    for (int round = 0; round < 16; ++round) {
      std::array<std::uint64_t, 64> masks{};
      for (unsigned i = 0; i < width; ++i) masks[i] = rng.next();
      std::array<std::uint64_t, 7> pop{};
      const unsigned planes =
          slice_popcount_planes(masks.data(), width, pop.data());
      ASSERT_LE(planes, 7u);
      for (unsigned lane = 0; lane < 64; ++lane) {
        unsigned expect = 0;
        for (unsigned i = 0; i < width; ++i) expect += (masks[i] >> lane) & 1;
        EXPECT_EQ(slice_extract_lane(pop.data(), planes, lane), expect);
        scalar_sums[lane] += expect;
      }
      ASSERT_TRUE(slice_counter_add(counter.data(), kCounterPlanes, pop.data(),
                                    planes));
    }
    for (unsigned lane = 0; lane < 64; ++lane) {
      EXPECT_EQ(slice_extract_lane(counter.data(), kCounterPlanes, lane),
                scalar_sums[lane])
          << "width=" << width << " lane=" << lane;
    }
  }
}

TEST(SliceTest, CounterAddReportsOverflow) {
  // A one-plane counter holds 0..1 per lane: the third increment of the
  // same lane must report overflow instead of wrapping silently.
  std::array<std::uint64_t, 1> counter{};
  const std::array<std::uint64_t, 1> one{{1}};  // lane 0 += 1
  EXPECT_TRUE(slice_counter_add(counter.data(), 1, one.data(), 1));
  EXPECT_FALSE(slice_counter_add(counter.data(), 1, one.data(), 1));
}

TEST(StringsTest, Format) {
  EXPECT_EQ(str_format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(str_format("%.2f", 1.005), "1.00");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(StringsTest, Identifier) {
  EXPECT_TRUE(is_identifier("abc_1"));
  EXPECT_FALSE(is_identifier("1abc"));
  EXPECT_FALSE(is_identifier("a-b"));
  EXPECT_FALSE(is_identifier(""));
}

TEST(StringsTest, Sanitize) {
  EXPECT_TRUE(is_identifier(sanitize_identifier("3x y-z")));
  EXPECT_EQ(sanitize_identifier("ok_name"), "ok_name");
  EXPECT_TRUE(is_identifier(sanitize_identifier("")));
}

TEST(StringsTest, JsonEscape) {
  EXPECT_EQ(json_escape("2 clk / split"), "2 clk / split");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("l1\nl2\tx"), "l1\\nl2\\tx");
  EXPECT_EQ(json_escape(std::string("x\x01y")), "x\\u0001y");
  EXPECT_EQ(json_escape(std::string("\x1f\r")), "\\u001f\\u000d");
  EXPECT_EQ(json_escape(""), "");
}

TEST(StringsTest, CsvEscape) {
  EXPECT_EQ(csv_escape("1(*) 2(+)"), "1(*) 2(+)");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("l1\nl2"), "\"l1\nl2\"");
  EXPECT_EQ(csv_escape("tab\there"), "tab\there");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"Name", "Val"});
  t.add_row({"a", "1"});
  t.add_row({"long", "23"});
  const std::string s = t.render();
  EXPECT_NE(s.find("Name | Val"), std::string::npos);
  EXPECT_NE(s.find("long |  23"), std::string::npos);
}

TEST(TableTest, RejectsArityMismatch) {
  TextTable t({"A", "B"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(ThreadPoolTest, ParallelForIndexCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 500;
  std::vector<int> hits(kN, 0);
  pool.parallel_for_index(kN, [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(kN));
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::vector<std::size_t> order;
  pool.parallel_for_index(5, [&](std::size_t i) { order.push_back(i); });
  // Inline fallback preserves serial order exactly.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelForEachSeesEveryElement) {
  ThreadPool pool(3);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 1);
  std::atomic<long> sum{0};
  pool.parallel_for_each(items, [&](int v) { sum += v; });
  EXPECT_EQ(sum.load(), 100 * 101 / 2);
}

TEST(ThreadPoolTest, RethrowsLowestIndexException) {
  ThreadPool pool(4);
  // Several tasks throw; the pool must surface the one a serial loop
  // would have hit first, and only after all tasks finished.
  std::atomic<int> ran{0};
  try {
    pool.parallel_for_index(64, [&](std::size_t i) {
      ran += 1;
      if (i % 7 == 3) throw Error("boom at " + std::to_string(i));
    });
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom at 3"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, WorkIsActuallyDistributed) {
  // With more workers than a single thread could fake, distinct thread ids
  // must show up (smoke test for stealing/wakeup, not a perf assertion).
  ThreadPool pool(4);
  std::mutex m;
  std::set<std::thread::id> ids;
  pool.parallel_for_index(200, [&](std::size_t) {
    std::lock_guard<std::mutex> lk(m);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 4u);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(1);  // worst case: nested call on the only worker
  std::atomic<int> inner{0};
  pool.parallel_for_index(4, [&](std::size_t) {
    pool.parallel_for_index(4, [&](std::size_t) { inner += 1; });
  });
  EXPECT_EQ(inner.load(), 16);
}

TEST(ThreadPoolTest, SubmitAndDrainOnDestruction) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&] { done += 1; });
    }
    // Destructor must drain all 50 before joining.
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, ResolveJobs) {
  // Explicit requests are clamped to the core count: oversubscribing a
  // CPU-bound pool only adds scheduling overhead.
  EXPECT_EQ(ThreadPool::resolve_jobs(3),
            std::min(3u, ThreadPool::default_concurrency()));
  EXPECT_EQ(ThreadPool::resolve_jobs(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_jobs(0), ThreadPool::default_concurrency());
  EXPECT_EQ(ThreadPool::resolve_jobs(-5), ThreadPool::default_concurrency());
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);
}

TEST(ErrorTest, CheckMacroThrowsWithLocation) {
  try {
    MCRTL_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_util.cpp"), std::string::npos);
  }
}

// ---- order statistics (util/stats.hpp) -------------------------------------

TEST(RunStatsTest, EmptySampleIsAllZerosNotNaN) {
  const RunStats s = RunStats::from_samples({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.pct50, 0.0);
  EXPECT_EQ(s.pct99, 0.0);
  EXPECT_FALSE(std::isnan(s.mean));
  EXPECT_FALSE(std::isnan(s.stddev));
}

TEST(RunStatsTest, SingleSampleHasZeroSpreadAndNoNaN) {
  const RunStats s = RunStats::from_samples({3.5});
  EXPECT_EQ(s.n, 1u);
  EXPECT_EQ(s.min, 3.5);
  EXPECT_EQ(s.max, 3.5);
  EXPECT_EQ(s.mean, 3.5);
  // n-1 denominator must not divide by zero at n == 1.
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_FALSE(std::isnan(s.stddev));
  // Every percentile of a single-bucket sample is that sample.
  EXPECT_EQ(s.pct50, 3.5);
  EXPECT_EQ(s.pct90, 3.5);
  EXPECT_EQ(s.pct99, 3.5);
}

TEST(RunStatsTest, NearestRankPercentileOfTwoSamples) {
  const RunStats s = RunStats::from_samples({1.0, 2.0});
  // Nearest rank: ceil(0.5 * 2) = 1 -> first sample; ceil(0.99 * 2) = 2 ->
  // the max, never an interpolated value between the two.
  EXPECT_EQ(s.pct50, 1.0);
  EXPECT_EQ(s.pct90, 2.0);
  EXPECT_EQ(s.pct99, 2.0);
  EXPECT_EQ(s.max, 2.0);
}

TEST(RunStatsTest, PercentileDegenerateQuantiles) {
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0};
  // A q so small the rank rounds to zero still indexes the first sample.
  EXPECT_EQ(RunStats::percentile(sorted, 1e-9), 1.0);
  EXPECT_EQ(RunStats::percentile(sorted, 1.0), 4.0);
  EXPECT_EQ(RunStats::percentile({}, 0.5), 0.0);
}

TEST(SampleStatsTest, ZeroAndOneSampleHaveNoNaN) {
  const sim::SampleStats none = sim::sample_stats({});
  EXPECT_EQ(none.n, 0u);
  EXPECT_EQ(none.mean, 0.0);
  EXPECT_EQ(none.stddev, 0.0);
  EXPECT_EQ(none.ci95, 0.0);
  EXPECT_FALSE(std::isnan(none.mean));

  const sim::SampleStats one = sim::sample_stats({7.25});
  EXPECT_EQ(one.n, 1u);
  EXPECT_EQ(one.mean, 7.25);
  EXPECT_EQ(one.stddev, 0.0);
  EXPECT_EQ(one.ci95, 0.0);
  EXPECT_FALSE(std::isnan(one.stddev));
  EXPECT_FALSE(std::isnan(one.ci95));
}

TEST(SampleStatsTest, TwoSamplesMatchClosedForm) {
  const sim::SampleStats s = sim::sample_stats({1.0, 3.0});
  EXPECT_EQ(s.n, 2u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  // Sample stddev with n-1 denominator: sqrt(((1-2)^2 + (3-2)^2) / 1).
  EXPECT_DOUBLE_EQ(s.stddev, std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(s.ci95, 1.96 * std::sqrt(2.0) / std::sqrt(2.0));
}

}  // namespace
}  // namespace mcrtl
