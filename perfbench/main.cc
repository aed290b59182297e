// Benchmark binary: runs one workload in this process and prints its
// metrics. Usage:
//   perfbench --workload <paper-kernels|service-openloop|cpux-ops>
//             --seed <n> --seconds <s> --trace <0|1>
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1). Exits non-zero when an
// output check, the exactness check, or an operation fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  perfbench::Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  // The workload fixes its backends itself; a backend override in the
  // environment would silently change what the service runs.
  unsetenv("GPUJOIN_BACKEND");

  perfbench::Report report(config);
  if (!perfbench::RunWorkload(report)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  return report.Finish();
}
