// The host a BENCH_*.json was measured on: its "host" object records the
// logical CPU count, the CPU model and the build type next to the timings.
// The keys are informational; bench_diff never compares them.
#pragma once

#include <fstream>
#include <string>
#include <thread>

namespace mcrtl::bench {

/// The first "model name" of /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model = line.substr(line.find_first_not_of(' ', colon + 1));
    for (char& c : model) {
      if (c == '"' || c == '\\') c = ' ';
    }
    return model;
  }
  return "unknown";
}

/// `"host": {...}`, for the top level of a BENCH_*.json object.
inline std::string host_json() {
  return "\"host\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + cpu_model() + "\", \"build_type\": \"" +
         MCRTL_BUILD_TYPE + "\"}";
}

}  // namespace mcrtl::bench
