// queens_search: the paper's primitive on its own. One in-process
// BacktrackSession runs Figure 1's n-queens guest with DFS at N=11 in an
// 8 MiB arena, enumerating all 2680 solutions, again and again until the run
// time is up. Each guess dirties one or two pages and is followed by about
// ten restores, so fixed per-call costs dominate: ucontext switch, fault,
// mprotect, map update and release.
//
// The seed permutes the order in which each column's rows are tried. The
// search tree, and so the work and the solution count, are the same for
// every seed; only the visiting order changes.
//
// Extension latency is timed by the guest itself: from its sys_guess or
// sys_guess_fail call to the next return from sys_guess, i.e. what one
// extension costs the program that asked for it. Samples are windows of
// kWindow consecutive extensions: their mean latency, and their rate
// (extensions per second of the window's wall time).
//
// The workload is one thread whose time goes mostly to kernel paths, which a
// busy neighbour on the host slows per CPU (see kLeastDisturbed). The thread
// moves to the next CPU before every enumeration, so a run samples every CPU
// instead of sitting on one that happens to be disturbed. Set-up and window
// latency report their kLeastDisturbed quantile, window rates the
// complementary one, and the p90 of window latency is the tail.

#include <sched.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/backtrack.h"
#include "src/util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kN = 11;
constexpr uint64_t kSolutions = 2680;  // all solutions of 11-queens
constexpr size_t kArenaBytes = 8u << 20;
constexpr int kSetupRepeats = 16;  // timed session starts before each enumeration
constexpr uint32_t kWindow = 1024;
constexpr size_t kMaxWindows = 1u << 18;  // ~1.8k windows per enumeration

// Host memory the guest writes. It lies outside the arena, so restores leave
// it alone; the guest runs on the session's thread, one extension at a time.
struct GuestProbe {
  int order[kN][kN] = {};       // order[c][v]: the row tried as value v in column c
  int64_t mark_ns = 0;          // the guest's latest sys_guess / sys_guess_fail call
  int64_t window_start_ns = 0;  // when the open window began
  int64_t window_ns = 0;        // latency summed over the open window
  uint32_t window_count = 0;
  // Per closed window: mean extension latency, and extensions per second.
  // Capacity is reserved, so the guest never allocates.
  std::vector<double> window_us;
  std::vector<double> window_rate;
};
GuestProbe* g_probe = nullptr;

struct Board {
  int col[kN] = {};
  int row[kN] = {};
  int ld[2 * kN] = {};
  int rd[2 * kN] = {};
};

int TimedGuess(int n) {
  g_probe->mark_ns = NowNs();
  const int v = lw::sys_guess(n);
  GuestProbe& p = *g_probe;
  const int64_t now = NowNs();
  p.window_ns += now - p.mark_ns;
  if (++p.window_count == kWindow) {
    if (p.window_us.size() < kMaxWindows) {
      p.window_us.push_back(static_cast<double>(p.window_ns) / 1e3 / kWindow);
      p.window_rate.push_back(kWindow * 1e9 / static_cast<double>(now - p.window_start_ns));
    }
    p.window_start_ns = now;
    p.window_ns = 0;
    p.window_count = 0;
  }
  return v;
}

[[noreturn]] void TimedFail() {
  g_probe->mark_ns = NowNs();
  lw::sys_guess_fail();
}

// Figure 1, with the seed's row order.
void QueensGuest(void*) {
  auto* session = static_cast<lw::BacktrackSession*>(lw::CurrentExecutor());
  Board* b = lw::GuestNew<Board>(session->heap());
  if (lw::sys_guess_strategy(lw::StrategyKind::kDfs)) {
    for (int c = 0; c < kN; ++c) {
      const int r = g_probe->order[c][TimedGuess(kN)];
      if (b->row[r] || b->ld[r + c] || b->rd[kN + r - c]) {
        TimedFail();
      }
      b->col[c] = r;
      b->row[r] = c + 1;
      b->ld[r + c] = 1;
      b->rd[kN + r - c] = 1;
    }
    lw::sys_note_solution();
    TimedFail();
  }
}

// Moves the calling thread round robin over the CPUs it may run on, and
// restores its affinity when done.
class CpuRotation {
 public:
  CpuRotation() { have_ = sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0; }
  ~CpuRotation() {
    if (have_) {
      sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void Next() {
    for (int i = 0; have_ && i < CPU_SETSIZE; ++i) {
      cpu_ = (cpu_ + 1) % CPU_SETSIZE;
      if (CPU_ISSET(cpu_, &allowed_)) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu_, &one);
        sched_setaffinity(0, sizeof(one), &one);
        return;
      }
    }
  }

 private:
  cpu_set_t allowed_{};
  bool have_ = false;
  int cpu_ = -1;
};

lw::SessionOptions QueensOptions() {
  lw::SessionOptions options;
  options.arena_bytes = kArenaBytes;
  options.output = [](std::string_view) {};
  return options;
}

}  // namespace

RunResult RunQueensSearch(const WorkloadArgs& args) {
  RunResult result;
  auto probe = std::make_unique<GuestProbe>();
  lw::Rng rng(args.seed);
  for (auto& order : probe->order) {
    for (int v = 0; v < kN; ++v) {
      order[v] = v;
    }
    for (int v = kN - 1; v > 0; --v) {
      std::swap(order[v], order[rng.Below(static_cast<uint64_t>(v) + 1)]);
    }
  }
  probe->window_us.reserve(kMaxWindows);
  probe->window_rate.reserve(kMaxWindows);
  g_probe = probe.get();
  CpuRotation cpus;

  SpanLog log(args.trace);
  std::vector<double> setup_s;
  std::vector<double> extend_rate;  // per enumeration, for the record
  double enumerations_s = 0;        // session start to search end, summed
  uint64_t guesses = 0;
  uint64_t extensions = 0;
  uint64_t restores = 0;
  SnapshotTotals snapshot_totals;
  lw::PageStore::Stats store_last;
  uint64_t peak_live = 0;
  uint64_t peak_resident = 0;
  int64_t run_ns = 0;
  std::optional<Digest> digest;  // identical for every enumeration of a seed
  const ProcCounters proc_before = ReadProcCounters();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  for (uint64_t id = 0; id == 0 || NowNs() < deadline; ++id) {
    cpus.Next();
    // Set-up, starting a session (arena, heap, engine, store), is timed
    // before every enumeration, so its samples spread over the whole run and
    // every CPU.
    for (int i = 0; i < kSetupRepeats; ++i) {
      const int64_t setup_start = NowNs();
      lw::BacktrackSession started(QueensOptions());
      setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);
    }
    const int64_t created = NowNs();
    const int root = log.Add("client.enumerate", id, -1, created);
    auto session = Timed(log, "core.session_create", id, root, [] {
      return std::make_unique<lw::BacktrackSession>(QueensOptions());
    });
    const int64_t run_start = NowNs();
    probe->window_start_ns = run_start;  // windows do not straddle enumerations
    probe->window_ns = 0;
    probe->window_count = 0;
    const lw::Status status = session->Run(&QueensGuest, nullptr);
    const int64_t run_end = NowNs();
    run_ns += run_end - run_start;
    const lw::SessionStats& s = session->stats();
    const int run = log.Add("core.run", id, root, run_start, run_end);
    // Measured durations from the session's timers, placed back to back.
    log.Add("snapshot.restore", id, run, run_start, run_start + static_cast<int64_t>(s.restore_ns));
    log.Add("snapshot.snapshot", id, run, run_start + static_cast<int64_t>(s.restore_ns),
            run_start + static_cast<int64_t>(s.restore_ns + s.snapshot_ns));
    log.SetEnd(root, NowNs());

    result.Count(status.ok() && s.solutions == kSolutions,
                 "enumeration: " + status.ToString() + ", " + std::to_string(s.solutions) +
                     " solutions, expected " + std::to_string(kSolutions));
    Digest verdicts;
    verdicts.Mix(s.solutions);
    verdicts.Mix(s.guesses);
    verdicts.Mix(s.extensions_evaluated);
    result.Count(!digest || digest->value == verdicts.value,
                 "enumeration " + std::to_string(id) + " digest " + verdicts.Hex() +
                     " differs from the first's");
    digest = digest.value_or(verdicts);
    const double enumeration_s = static_cast<double>(run_end - created) / 1e9;
    enumerations_s += enumeration_s;
    extend_rate.push_back(static_cast<double>(s.extensions_evaluated) / enumeration_s);

    guesses += s.guesses;
    extensions += s.extensions_evaluated;
    restores += s.restores;
    snapshot_totals.Add(s);
    // Each enumeration has a private store; its counters are per enumeration.
    store_last = session->store().stats();
    peak_live = std::max(peak_live, store_last.peak_live_bytes);
    peak_resident = std::max(peak_resident, store_last.bytes_resident());
  }
  const ProcCounters proc = ReadProcCounters() - proc_before;
  g_probe = nullptr;

  result.notes.push_back({"verdict_digest", digest->Hex()});
  result.notes.push_back(
      {"verdict_digest_covers", "solutions, guesses and extensions of an enumeration"});

  std::string by_enumeration;
  for (double r : extend_rate) {
    by_enumeration += (by_enumeration.empty() ? "" : " ") + JsonNumber(r);
  }
  result.notes.push_back({"extends_per_s_by_enumeration", by_enumeration});
  result.end_to_end = {
      {"setup_s", Percentile(setup_s, kLeastDisturbed), "s"},
      {"extend_us", Percentile(probe->window_us, kLeastDisturbed), "us"},
      {"extend_p90_us", Percentile(probe->window_us, 0.90), "us"},
      {"extends_per_s", Percentile(probe->window_rate, 1 - kLeastDisturbed), "1/s"},
      {"peak_rss_mib", PeakRssMib(), "MiB"},
  };
  // The same quantities as plain medians and means, for the record.
  result.report = {
      {"setup_p50_s", Median(setup_s), "s"},
      {"extend_p50_us", Median(probe->window_us), "us"},
      {"extend_p99_us", Percentile(probe->window_us, 0.99), "us"},
      {"extends_per_s_mean", static_cast<double>(extensions) / enumerations_s, "1/s"},
      {"guesses_per_s", static_cast<double>(guesses) / enumerations_s, "1/s"},
      {"setup_samples", static_cast<double>(setup_s.size()), "count"},
      {"extend_windows", static_cast<double>(probe->window_us.size()), "count"},
      {"enumerations", static_cast<double>(extend_rate.size()), "count"},
  };
  if (!args.trace) {
    return result;
  }

  if (!WriteSpanFile(args.span_file, {&log})) {
    result.Fail("cannot write span file " + args.span_file);
  }
  result.notes.push_back({"span_file", args.span_file});
  AddSnapshotMetrics(snapshot_totals, &result);
  const uint64_t core_ns =
      static_cast<uint64_t>(std::max<int64_t>(0, run_ns - static_cast<int64_t>(
                                                           snapshot_totals.snapshot_ns +
                                                           snapshot_totals.restore_ns)));
  const double per_guess = 1.0 / static_cast<double>(std::max<uint64_t>(1, guesses));
  result.per_layer.push_back({"core.self_ns_per_guess", core_ns * per_guess, "ns"});
  result.per_layer.push_back({"core.restores_per_guess", restores * per_guess, "count"});
  AddStoreMetrics({}, store_last, peak_live, peak_resident, &result);
  AddProcMetrics(proc, &result);
  std::map<std::string, int64_t> self_ns;
  AddSelfTimes(log.spans(), &self_ns);
  AddSelfTimeMetrics(self_ns, static_cast<double>(guesses), &result);
  return result;
}

}  // namespace perfbench
