// bench_e2e: end-to-end benchmark of raqlet, query text to result rows.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   bench_e2e --selftest
//
// Prints its tables first and, as the last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. See README.md for the workloads and metrics.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

// Taken during static initialization, before main: set-up time is counted
// from the start of the process.
const bench::Clock::time_point kProcessStart = bench::Clock::now();

int Usage(const char* why) {
  std::cerr << "bench_e2e: " << why << "\n"
            << "usage: bench_e2e --workload "
               "interactive_reads|recursive_analytics|delta_churn "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n"
               "       bench_e2e --selftest\n";
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunConfig config;
  config.process_start = kProcessStart;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") return bench::RunSelfTest(std::cout) == 0 ? 0 : 1;
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      unsigned long seed = std::strtoul(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
      config.seed = static_cast<unsigned>(seed);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0) || config.seconds > 600) {
        return Usage("--seconds takes a number in (0, 600]");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (arg == "--out") {
      config.out_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!bench::IsWorkload(config.workload)) return Usage("unknown workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  bench::RunOutput out;
  if (!bench::RunWorkload(config, &out, std::cout)) return 1;

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const bench::Metric& m = out.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
