// The benchmark's workloads. Each takes its inputs from the seed alone, runs a
// closed loop for `seconds`, checks every output, and fills a RunResult.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct WorkloadArgs {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmp_dir;    // fresh per run: the Unix socket and spill segments live here
  std::string span_file;  // where a traced run writes its spans
};

RunResult RunSolverFleet(const WorkloadArgs& args);
RunResult RunSolverBudget(const WorkloadArgs& args);
RunResult RunQueensSearch(const WorkloadArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
