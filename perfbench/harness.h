// perfbench harness: the pieces every workload shares — percentiles, the
// in-memory span log and its self-time arithmetic, the SAT model check,
// process counters, host context, and the result record perfbench prints.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/session.h"
#include "src/snapshot/page_store.h"
#include "src/solver/lit.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear interpolation between closest ranks (numpy's default), q in [0, 1].
// Returns 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

// The quantile every end-to-end timing reports (a rate reports 1 - this).
// On a shared host, kernel paths (faults, mprotect, mmap) run up to ~1.8x
// slower while a CPU's neighbours are busy, in episodes that cover anything
// from a few samples to whole runs. That interference only adds time, so a
// median or mean follows the host; the least-disturbed tenth of many samples
// follows the program.
constexpr double kLeastDisturbed = 0.10;

// One timed interval at a layer boundary. `name` is "<layer>.<call>"; spans of
// one request share `id`; `parent` indexes the enclosing span in the same log
// (-1 for a request's root span).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Spans of one client thread, kept in memory until the run ends. A disabled
// log records nothing, so an untraced run pays no clock reads for it.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  // Returns the span's index (-1 when disabled); end_ns may be set later.
  int Add(const char* name, uint64_t id, int parent, int64_t start_ns, int64_t end_ns = 0);
  void SetEnd(int index, int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Runs fn() inside a span named `name` when the log is enabled.
template <typename Fn>
auto Timed(SpanLog& log, const char* name, uint64_t id, int parent, Fn&& fn) {
  if (!log.enabled()) {
    return fn();
  }
  const int64_t start = NowNs();
  auto result = fn();
  log.Add(name, id, parent, start, NowNs());
  return result;
}

// Self time of each span: its duration minus the part of its interval that
// its children cover (children clipped to the parent, overlaps counted once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// "<layer>.<call>" -> "<layer>".
std::string LayerOf(const char* span_name);

// Sums self time by span name over `spans`, into `by_name` (nanoseconds).
void AddSelfTimes(const std::vector<Span>& spans, std::map<std::string, int64_t>* by_name);

// Folds per-name self times into per-layer totals.
std::map<std::string, int64_t> ByLayer(const std::map<std::string, int64_t>& by_name);

// Durations (microseconds) of the spans named `name`.
std::vector<double> SpanDurationsUs(const std::vector<Span>& spans, const char* name);

// Writes every log's spans as Chrome trace-event JSON (one tid per log).
bool WriteSpanFile(const std::string& path, const std::vector<const SpanLog*>& logs);

// SAT model check: bit v of `model_bits` (LSB-first) is variable v's value;
// a literal is true when the bit differs from its sign. Variables beyond the
// model read as false.
bool ModelLitTrue(const std::vector<uint8_t>& model_bits, lw::Lit lit);
bool ModelSatisfies(const std::vector<uint8_t>& model_bits,
                    const std::vector<std::vector<lw::Lit>>& clauses);

// FNV-1a, folded one 64-bit word at a time (the verdict digest).
struct Digest {
  uint64_t value = 0xcbf29ce484222325ull;
  void Mix(uint64_t word);
  std::string Hex() const;
};

// Process counters from getrusage(RUSAGE_SELF).
struct ProcCounters {
  double user_s = 0;
  double sys_s = 0;
  uint64_t minor_faults = 0;
  uint64_t ctx_switches = 0;  // voluntary + involuntary
};
ProcCounters ReadProcCounters();
ProcCounters operator-(const ProcCounters& a, const ProcCounters& b);

// Peak resident set size (VmHWM) in MiB; 0 when /proc is unreadable.
double PeakRssMib();
// Restarts VmHWM from the current RSS (clear_refs "5"); without it, the peak
// stays the process's lifetime peak.
void ResetPeakRss();

int OnlineCpus();

// Host context stamped on every result: nproc, build type, compiler, kernel,
// and the soft-dirty capability probe.
std::vector<std::pair<std::string, std::string>> HostContext();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run produced. `end_to_end` and `per_layer` hold the
// declared metrics the workload reaches (BENCHMARK.json lists them; run.py
// checks names and units); `report` holds the rest of what a run states
// (sample counts, fail ratio, workload-specific rates, overhead).
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> report;
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<std::string> errors;

  void Fail(const std::string& error);
  // Counts one attempted operation; a false `ok` counts it failed too.
  void Count(bool ok, const std::string& error_if_failed = "");
  const Metric* Find(const std::string& name) const;
};

// Snapshot-layer counters summed over sessions or jobs (SessionStats deltas).
struct SnapshotTotals {
  uint64_t snapshots = 0;
  uint64_t restores = 0;
  uint64_t snapshot_ns = 0;
  uint64_t restore_ns = 0;
  uint64_t pages_materialized = 0;
  uint64_t pages_restored = 0;
  uint64_t restore_mprotect_calls = 0;

  void Add(const lw::SessionStats& after, const lw::SessionStats& before = {});
  void Merge(const SnapshotTotals& other);
};

// Per-layer metrics the workloads share. Store counters are `after - before`;
// peaks are sampled by the caller. Self times are per `operations`.
void AddSnapshotMetrics(const SnapshotTotals& totals, RunResult* result);
void AddStoreMetrics(const lw::PageStore::Stats& before, const lw::PageStore::Stats& after,
                     uint64_t peak_live_bytes, uint64_t peak_resident_bytes, RunResult* result);
void AddProcMetrics(const ProcCounters& proc, RunResult* result);
void AddSelfTimeMetrics(const std::map<std::string, int64_t>& self_ns_by_name, double operations,
                        RunResult* result);

// JSON text helpers (numbers keep every significant digit).
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);
std::string MetricsJson(const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
