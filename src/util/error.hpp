// Error reporting helpers.
//
// MCRTL reports unrecoverable misuse (malformed IR, violated preconditions)
// via exceptions derived from `mcrtl::Error`; recoverable conditions are
// reported through return values. The MCRTL_CHECK macro is used for
// invariants that guard against internal logic errors: unlike `assert` it is
// active in all build types, because a silently corrupted netlist would
// invalidate every downstream power number.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace mcrtl {

/// Base class of all exceptions thrown by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an IR structure fails validation (dangling IDs, width
/// mismatches, cyclic data dependencies, ...).
class ValidationError : public Error {
 public:
  explicit ValidationError(const std::string& what) : Error(what) {}
};

/// Thrown when a synthesis step cannot satisfy its constraints.
class SynthesisError : public Error {
 public:
  explicit SynthesisError(const std::string& what) : Error(what) {}
};

/// Thrown when a cooperative deadline expires (e.g. the explorer's
/// per-point --point-timeout, checked inside the simulation loop). A
/// deadline expiry is quarantinable like any other point failure.
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file, int line,
                                      const std::string& msg) {
  std::ostringstream os;
  os << "MCRTL_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace mcrtl

#define MCRTL_CHECK(expr)                                                \
  do {                                                                   \
    if (!(expr)) ::mcrtl::detail::check_failed(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define MCRTL_CHECK_MSG(expr, msg)                                       \
  do {                                                                   \
    if (!(expr)) {                                                       \
      std::ostringstream mcrtl_os_;                                      \
      mcrtl_os_ << msg;                                                  \
      ::mcrtl::detail::check_failed(#expr, __FILE__, __LINE__, mcrtl_os_.str()); \
    }                                                                    \
  } while (0)
