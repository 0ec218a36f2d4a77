#include "sim/stimulus.hpp"

#include <algorithm>

#include "util/bits.hpp"

namespace mcrtl::sim {

namespace {
// The xoshiro seeder, reused so stream-seed derivation shares the Rng's
// avalanche properties (nearby base seeds -> uncorrelated stream seeds).
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

std::vector<std::uint64_t> stream_seeds(std::uint64_t seed,
                                        std::size_t streams) {
  std::vector<std::uint64_t> seeds(streams);
  std::uint64_t state = seed;
  for (auto& s : seeds) s = splitmix64(state);
  return seeds;
}

std::uint64_t stream_seed(std::uint64_t seed, std::size_t streams,
                          std::size_t s) {
  return streams == 1 ? seed : stream_seeds(seed, s + 1)[s];
}

std::vector<InputStream> uniform_streams(std::uint64_t seed,
                                         std::size_t streams,
                                         std::size_t num_inputs,
                                         std::size_t computations,
                                         unsigned width) {
  const auto seeds = stream_seeds(seed, streams);
  std::vector<InputStream> bundle;
  bundle.reserve(streams);
  for (std::uint64_t s : seeds) {
    Rng rng(s);
    bundle.push_back(uniform_stream(rng, num_inputs, computations, width));
  }
  return bundle;
}

InputStream uniform_stream(Rng& rng, std::size_t num_inputs,
                           std::size_t computations, unsigned width) {
  InputStream s(computations, num_inputs);
  fill_uniform(rng, s, width);
  return s;
}

void fill_uniform(Rng& rng, InputStream& stream, unsigned width) {
  for (auto& w : stream.values()) w = rng.next_bits(width);
}

InputStream correlated_stream(Rng& rng, std::size_t num_inputs,
                              std::size_t computations, unsigned width,
                              double flip_prob) {
  InputStream s(computations, num_inputs);
  std::vector<std::uint64_t> prev(num_inputs);
  for (auto& w : prev) w = rng.next_bits(width);
  for (std::size_t c = 0; c < computations; ++c) {
    const auto vec = s[c];
    for (std::size_t i = 0; i < num_inputs; ++i) {
      std::uint64_t flips = 0;
      for (unsigned b = 0; b < width; ++b) {
        if (rng.next_bool(flip_prob)) flips |= std::uint64_t{1} << b;
      }
      prev[i] ^= flips;
      vec[i] = prev[i];
    }
  }
  return s;
}

InputStream constant_stream(Rng& rng, std::size_t num_inputs,
                            std::size_t computations, unsigned width) {
  std::vector<std::uint64_t> fixed(num_inputs);
  for (auto& w : fixed) w = rng.next_bits(width);
  InputStream s(computations, num_inputs);
  for (std::size_t c = 0; c < computations; ++c) {
    std::copy(fixed.begin(), fixed.end(), s[c].begin());
  }
  return s;
}

InputStream ramp_stream(std::size_t num_inputs, std::size_t computations,
                        unsigned width) {
  InputStream s(computations, num_inputs);
  for (std::size_t c = 0; c < computations; ++c) {
    for (std::size_t i = 0; i < num_inputs; ++i) {
      s[c][i] = truncate(c * (i + 1), width);
    }
  }
  return s;
}

}  // namespace mcrtl::sim
