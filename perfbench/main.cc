// cobra_perfbench: one workload per process.
//
//   cobra_perfbench --workload broadcast|archive|live|mil --seed N
//                   --seconds S --trace 0|1
//
// Prints one JSON object as its last line: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones,
// with --trace 1 the per-layer ones of the workload's layers.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  perfbench::RunResult result;
  if (options.workload == "broadcast") {
    result = perfbench::RunBroadcast(options);
  } else if (options.workload == "archive") {
    result = perfbench::RunArchive(options);
  } else if (options.workload == "live") {
    result = perfbench::RunLive(options);
  } else if (options.workload == "mil") {
    result = perfbench::RunMil(options);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  // A workload that failed in set-up attempted nothing yet; the failed
  // set-up is its one operation.
  if (result.attempted == 0) result.attempted = 1;
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  return 0;
}
