// perfbench_tool — the compiled half of the benchmark (perfbench/run.py
// is the other): input generation, output oracles, the cousinsd load
// generator and the traced in-process re-drive of each workload.
//
//   perfbench_tool gen yule|bootstrap ...        (gen.cc)
//   perfbench_tool oracle-frequent <forest> ...  (oracle.cc)
//   perfbench_tool check-consensus <forest> ...  (oracle.cc)
//   perfbench_tool feed ...                      (feed.cc)
//   perfbench_tool trace ...                     (trace.cc)
//   perfbench_tool simd-tier
//
// Errors print to stderr and exit 1.
#include <cstdio>
#include <exception>
#include <string>

#include "common.h"
#include "core/kernel_dispatch.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_tool gen|oracle-frequent|check-consensus|"
                 "feed|trace|simd-tier ...\n");
    return 2;
  }
  const std::string command = argv[1];
  const perfbench::Args args(argv + 2, argv + argc);
  try {
    if (command == "gen") return perfbench::RunGen(args);
    if (command == "oracle-frequent") return perfbench::RunOracleFrequent(args);
    if (command == "check-consensus") return perfbench::RunCheckConsensus(args);
    if (command == "feed") return perfbench::RunFeed(args);
    if (command == "trace") return perfbench::RunTrace(args);
    if (command == "simd-tier") {
      // The tier the fold kernels resolve to on this CPU under the
      // environment's COUSINS_SIMD setting.
      std::printf("%s\n", cousins::SimdTierName(cousins::ActiveSimdTier()));
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_tool %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_tool: unknown command '%s'\n",
               command.c_str());
  return 2;
}
