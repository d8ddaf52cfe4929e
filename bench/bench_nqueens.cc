// E1 — the paper's §5 evaluation sentence, as a bench:
//
//   "When applied to toy applications like n-queens, our prototype performs
//    (as expected) substantially worse than a hand-coded implementation, but
//    better than a Prolog implementation running on XSB."
//
// Rows (all count *all* solutions of N-queens):
//   HandCoded     — recursive bitmask backtracker (the lower bound)
//   Lwsnap        — Figure 1's program on the CoW snapshot engine
//   LwsnapFullCopy— same guest, classic whole-arena checkpoint mode [14]
//   Fork          — same guest on the fork/wait/exit strawman of §3
//   Prolog        — n-queens on lwprolog (the XSB stand-in)
//
// Expected shape: HandCoded ≪ Lwsnap < Prolog, Fork slowest per state, and
// FullCopy ≫ CoW as the arena grows.

#include <benchmark/benchmark.h>

#include <string>

#include "src/core/backtrack.h"
#include "src/prolog/machine.h"

namespace {

// --- hand-coded baseline ---

int HandCodedCount(int n) {
  // Bitmask DFS; undo is a register pop — the cheapest possible backtracking.
  struct Rec {
    static int Go(int n, int row, uint32_t cols, uint32_t ld, uint32_t rd) {
      if (row == n) {
        return 1;
      }
      int solutions = 0;
      uint32_t free = ~(cols | ld | rd) & ((1u << n) - 1);
      while (free != 0) {
        uint32_t bit = free & (0u - free);
        free -= bit;
        solutions += Go(n, row + 1, cols | bit, (ld | bit) << 1, (rd | bit) >> 1);
      }
      return solutions;
    }
  };
  return Rec::Go(n, 0, 0, 0, 0);
}

void BM_HandCoded(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int solutions = 0;
  for (auto _ : state) {
    solutions = HandCodedCount(n);
    benchmark::DoNotOptimize(solutions);
  }
  state.counters["solutions"] = solutions;
}
BENCHMARK(BM_HandCoded)->Arg(6)->Arg(7)->Arg(8);

// --- the Figure 1 guest (shared by the snapshot engines and fork engine) ---

struct Board {
  int n = 0;
  int col[16] = {};
  int row[16] = {};
  int ld[32] = {};
  int rd[32] = {};
};

void NQueensBody(Board* b) {
  const int n = b->n;
  for (int c = 0; c < n; ++c) {
    int r = lw::sys_guess(n);
    if (b->row[r] || b->ld[r + c] || b->rd[n + r - c]) {
      lw::sys_guess_fail();
    }
    b->col[c] = r;
    b->row[r] = c + 1;
    b->ld[r + c] = 1;
    b->rd[n + r - c] = 1;
  }
  lw::sys_note_solution();
}

void SnapshotGuest(void* arg) {
  int n = *static_cast<int*>(arg);
  auto* session = static_cast<lw::BacktrackSession*>(lw::CurrentExecutor());
  Board* board = lw::GuestNew<Board>(session->heap());
  board->n = n;
  if (lw::sys_guess_strategy(lw::StrategyKind::kDfs)) {
    NQueensBody(board);
    lw::sys_guess_fail();
  }
}

void RunSnapshotBench(benchmark::State& state, lw::SnapshotMode mode,
                      uint32_t hot_page_limit = lw::kUnlimitedHotPages) {
  int n = static_cast<int>(state.range(0));
  uint64_t solutions = 0;
  uint64_t snapshots = 0;
  uint64_t restores = 0;
  for (auto _ : state) {
    lw::SessionOptions options;
    options.arena_bytes = 8ull << 20;
    options.snapshot_mode = mode;
    options.hot_page_limit = hot_page_limit;
    options.output = [](std::string_view) {};
    lw::BacktrackSession session(options);
    lw::Status status = session.Run(&SnapshotGuest, &n);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    solutions = session.stats().solutions;
    snapshots = session.stats().snapshots;
    restores = session.stats().restores;
  }
  state.counters["solutions"] = static_cast<double>(solutions);
  state.counters["snapshots"] = static_cast<double>(snapshots);
  state.counters["restores"] = static_cast<double>(restores);
}

void BM_Lwsnap(benchmark::State& state) { RunSnapshotBench(state, lw::SnapshotMode::kCow); }
BENCHMARK(BM_Lwsnap)->Arg(6)->Arg(7)->Arg(8)->Unit(benchmark::kMillisecond);

// Ablation: hot-page prediction off — every restore pays the full
// SIGSEGV + 2×mprotect protocol (how much the userspace fault path costs).
void BM_LwsnapNoHotPages(benchmark::State& state) {
  RunSnapshotBench(state, lw::SnapshotMode::kCow, /*hot_page_limit=*/0);
}
BENCHMARK(BM_LwsnapNoHotPages)->Arg(6)->Arg(7)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_LwsnapFullCopy(benchmark::State& state) {
  RunSnapshotBench(state, lw::SnapshotMode::kFullCopy);
}
BENCHMARK(BM_LwsnapFullCopy)->Arg(6)->Arg(7)->Iterations(1)->Unit(benchmark::kMillisecond);

// --- fork strawman ---

struct ForkBoard {
  int n = 0;
};

void ForkGuest(void* arg) {
  // Fork children share the parent's memory image at fork time, so plain
  // locals work — each child's writes are private.
  Board board;
  board.n = static_cast<ForkBoard*>(arg)->n;
  if (lw::sys_guess_strategy(lw::StrategyKind::kDfs)) {
    NQueensBody(&board);
    lw::sys_guess_fail();
  }
}

void BM_Fork(benchmark::State& state) {
  ForkBoard arg{static_cast<int>(state.range(0))};
  uint64_t forks = 0;
  uint64_t solutions = 0;
  for (auto _ : state) {
    lw::ForkSessionOptions options;
    options.output = [](std::string_view) {};
    lw::ForkSession session(options);
    lw::Status status = session.Run(&ForkGuest, &arg);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    forks = session.stats().forks;
    solutions = session.stats().solutions;
  }
  state.counters["solutions"] = static_cast<double>(solutions);
  state.counters["forks"] = static_cast<double>(forks);
}
BENCHMARK(BM_Fork)->Arg(6)->Iterations(1)->Unit(benchmark::kMillisecond);

// --- Prolog comparison point ---

constexpr char kQueensProgram[] = R"(
range(N, N, [N]) :- !.
range(M, N, [M|T]) :- M < N, M1 is M + 1, range(M1, N, T).
select_(X, [X|T], T).
select_(X, [H|T], [H|R]) :- select_(X, T, R).
attack(X, Xs) :- attack_(X, 1, Xs).
attack_(X, N, [Y|_]) :- X =:= Y + N.
attack_(X, N, [Y|_]) :- X =:= Y - N.
attack_(X, N, [_|Ys]) :- N1 is N + 1, attack_(X, N1, Ys).
queens_(Unplaced, Placed, Qs) :-
  select_(Q, Unplaced, Rest), \+ attack(Q, Placed), queens_(Rest, [Q|Placed], Qs).
queens_([], Qs, Qs).
queens(N, Qs) :- range(1, N, Ns), queens_(Ns, [], Qs).
)";

void BM_Prolog(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::string query = "queens(" + std::to_string(n) + ", Qs).";
  uint64_t solutions = 0;
  uint64_t inferences = 0;
  for (auto _ : state) {
    lw::PrologMachine machine;
    if (!machine.Consult(kQueensProgram).ok()) {
      state.SkipWithError("consult failed");
      return;
    }
    auto count = machine.Query(query);
    if (!count.ok()) {
      state.SkipWithError(count.status().ToString().c_str());
      return;
    }
    solutions = *count;
    inferences = machine.stats().inferences;
  }
  state.counters["solutions"] = static_cast<double>(solutions);
  state.counters["inferences"] = static_cast<double>(inferences);
}
BENCHMARK(BM_Prolog)->Arg(6)->Arg(7)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
