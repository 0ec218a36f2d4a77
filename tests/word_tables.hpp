// Test-side helpers for sim::WordTable, the flat stream/sample layout: cut
// a prefix of a stream, copy a row out for gtest comparisons, and expect
// the stream-width error.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace mcrtl::fixtures {

/// The first `n` rows of `t`.
inline sim::WordTable prefix(const sim::WordTable& t, std::size_t n) {
  sim::WordTable p(n, t.words());
  std::copy_n(t.values().begin(), n * t.words(), p.values().begin());
  return p;
}

/// Row `r` of `t` as a vector (comparable, printable, and accepted by
/// dfg::Interpreter::run).
inline std::vector<std::uint64_t> row(const sim::WordTable& t,
                                      std::size_t r) {
  return {t[r].begin(), t[r].end()};
}

/// Runs `fn` and expects the stream-width error of check_stream_width(),
/// word for word.
template <typename Fn>
void expect_width_error(Fn&& fn, std::size_t expected, std::size_t got) {
  try {
    fn();
    ADD_FAILURE() << "a stream of " << got << " inputs was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "expected " + std::to_string(expected) +
                  " inputs per computation, got " + std::to_string(got));
  }
}

}  // namespace mcrtl::fixtures
