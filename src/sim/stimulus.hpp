// Stimulus generation for power simulation.
//
// The paper computes power "by simulating the circuit with a large number of
// random inputs". Uniform random words are the default; correlated and
// low-activity streams are provided for sensitivity studies (real DSP data
// has temporal correlation, which lowers switching activity uniformly across
// design styles).
#pragma once

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace mcrtl::sim {

/// Uniform i.i.d. random words (the paper's protocol).
InputStream uniform_stream(Rng& rng, std::size_t num_inputs,
                           std::size_t computations, unsigned width);

/// Overwrite every word of an already shaped stream with uniform random
/// words, drawn in uniform_stream()'s order: uniform_stream() is this on a
/// fresh computations × num_inputs stream. Lets a caller allocate a stream
/// on one thread and fill it on another.
void fill_uniform(Rng& rng, InputStream& stream, unsigned width);

/// Independent per-stream seeds for a Monte-Carlo bundle, derived from one
/// base seed with splitmix64 (the same scheme Rng uses to expand its own
/// state, so nearby base seeds still give uncorrelated streams). Element s
/// seeds stream s; the whole bundle is a pure function of `seed`.
std::vector<std::uint64_t> stream_seeds(std::uint64_t seed,
                                        std::size_t streams);

/// The seed stream s of a stimulus of `streams` streams drawn from `seed`
/// is generated with: `seed` itself for a single stream (the paper
/// protocol's Rng(seed)), else stream_seeds(seed, streams)[s] — which
/// depends on s alone, so stream 0 of every bundle is the same. explore(),
/// search()'s prefix rungs and core::uniform_stimulus() all draw their
/// streams this way.
std::uint64_t stream_seed(std::uint64_t seed, std::size_t streams,
                          std::size_t s);

/// A bundle of `streams` independent uniform streams for the bit-sliced
/// kernel: element s is uniform_stream() driven by an Rng seeded with
/// stream_seeds(seed, streams)[s]. Stream s's contents depend only on
/// (seed, s, num_inputs, computations, width) — not on how many other
/// streams ride in the bundle — so one stream can be replayed alone
/// through the scalar kernel for differential checking.
std::vector<InputStream> uniform_streams(std::uint64_t seed,
                                         std::size_t streams,
                                         std::size_t num_inputs,
                                         std::size_t computations,
                                         unsigned width);

/// First-order correlated stream: each word is the previous word with each
/// bit flipped with probability `flip_prob` (0.5 = uniform, 0 = constant).
InputStream correlated_stream(Rng& rng, std::size_t num_inputs,
                              std::size_t computations, unsigned width,
                              double flip_prob);

/// All computations get the same constant words (zero dynamic input power;
/// isolates clock/control power).
InputStream constant_stream(Rng& rng, std::size_t num_inputs,
                            std::size_t computations, unsigned width);

/// Slow ramp: input i counts up by i+1 each computation (low, structured
/// activity).
InputStream ramp_stream(std::size_t num_inputs, std::size_t computations,
                        unsigned width);

}  // namespace mcrtl::sim
