// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <solver_fleet|solver_budget|queens_search> --seed <n>
//             --seconds <s> --trace <0|1> --tmp <fresh dir> [--span-file <path>]
//
// Output, one JSON object per line on stdout: the host context, a report
// (every metric by name and unit, sample counts, fail ratio, verdict digest,
// and with --trace 1 the tracing overhead), and last the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end (--trace 0) or per-layer (--trace 1)
// metrics the workload reaches; run.py orders them as BENCHMARK.json declares.
// Exits 1 when any output check fails, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string PairsJson(const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string out = "{";
  for (size_t i = 0; i < pairs.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(pairs[i].first) + ": " +
           JsonString(pairs[i].second);
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <solver_fleet|solver_budget|queens_search> "
               "--seed <n> --seconds <s> --trace <0|1> --tmp <dir> [--span-file <path>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  WorkloadArgs args;
  bool trace = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--tmp") {
      args.tmp_dir = value;
    } else if (flag == "--span-file") {
      args.span_file = value;
    } else {
      return Usage();
    }
  }
  RunResult (*run)(const WorkloadArgs&) = nullptr;
  if (workload == "solver_fleet") {
    run = &RunSolverFleet;
  } else if (workload == "solver_budget") {
    run = &RunSolverBudget;
  } else if (workload == "queens_search") {
    run = &RunQueensSearch;
  }
  if (run == nullptr || !have_seed || !(args.seconds > 0) || args.tmp_dir.empty() ||
      (trace && args.span_file.empty())) {
    return Usage();
  }

  auto context = HostContext();
  context.insert(context.end(), {{"workload", workload},
                                 {"seed", std::to_string(args.seed)},
                                 {"seconds", JsonNumber(args.seconds)},
                                 {"trace", trace ? "1" : "0"}});
  std::printf("{\"context\": %s}\n", PairsJson(context).c_str());
  std::fflush(stdout);

  // End-to-end metrics always come from an untraced pass. A traced run then
  // repeats the workload with spans on; the difference is the tracing overhead.
  const std::string tmp_root = args.tmp_dir;
  args.trace = false;
  args.tmp_dir = tmp_root + "/untraced";
  RunResult result = run(args);
  std::vector<Metric> per_layer;
  std::vector<Metric> report = result.end_to_end;
  report.insert(report.end(), result.report.begin(), result.report.end());

  if (trace) {
    args.trace = true;
    args.tmp_dir = tmp_root + "/traced";
    RunResult traced = run(args);
    for (const Metric& m : traced.end_to_end) {
      if (const Metric* base = result.Find(m.name)) {
        report.push_back({"trace_overhead." + m.name, m.value - base->value, m.unit});
      }
    }
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    result.correct = result.correct && traced.correct;
    result.errors.insert(result.errors.end(), traced.errors.begin(), traced.errors.end());
    result.notes.insert(result.notes.end(), traced.notes.begin(), traced.notes.end());
    per_layer = traced.per_layer;
  }
  report.push_back({"fail_ratio",
                    result.attempted > 0 ? static_cast<double>(result.failed) /
                                               static_cast<double>(result.attempted)
                                         : 1.0,
                    "ratio"});
  if (trace) {
    report.insert(report.end(), per_layer.begin(), per_layer.end());
  }

  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  const bool correct = result.correct && result.attempted > 0;
  std::printf("{\"report\": {\"workload\": %s, \"metrics\": %s, \"notes\": %s}}\n",
              JsonString(workload).c_str(), MetricsJson(report).c_str(),
              PairsJson(result.notes).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(trace ? per_layer : result.end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
