// SolverService tests: the §3.2 multi-path incremental solver — root solving,
// chained increments, *branching* the same parent into divergent constraint
// sets (the snapshot-tree payoff), model extraction, and lifecycle errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/solver/cnf.h"
#include "src/solver/service.h"
#include "src/util/rng.h"

namespace lw {
namespace {

SolverServiceOptions SmallArena() {
  SolverServiceOptions options;
  options.tuning.arena_bytes = 16ull << 20;
  return options;
}

TEST(SolverServiceTest, RootSolve) {
  SolverService service(SmallArena());
  Cnf base;
  base.AddDimacsClause({1, 2});
  base.AddDimacsClause({-1, 2});
  auto outcome = service.SolveRoot(base);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->result.IsTrue());
  EXPECT_TRUE(SolverService::ModelBit(*outcome, 1));  // var 2 (0-based 1) forced true
}

TEST(SolverServiceTest, RootTwiceIsError) {
  SolverService service(SmallArena());
  Cnf base;
  base.AddDimacsClause({1});
  ASSERT_TRUE(service.SolveRoot(base).ok());
  EXPECT_EQ(service.SolveRoot(base).status().code(), ErrorCode::kBadState);
}

TEST(SolverServiceTest, ExtendBeforeRootIsError) {
  SolverService service(SmallArena());
  EXPECT_EQ(service.Extend(Checkpoint(), {}).status().code(), ErrorCode::kBadState);
}

TEST(SolverServiceTest, IncrementalChain) {
  // p: (a ∨ b); q1: ¬a; q2: ¬b — p ∧ q1 SAT, p ∧ q1 ∧ q2 UNSAT.
  SolverService service(SmallArena());
  Cnf base;
  base.AddDimacsClause({1, 2});
  auto root = service.SolveRoot(base);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(root->result.IsTrue());

  auto step1 = service.Extend(root->token, {{MakeLit(0, true)}});  // ¬a
  ASSERT_TRUE(step1.ok());
  ASSERT_TRUE(step1->result.IsTrue());
  EXPECT_FALSE(SolverService::ModelBit(*step1, 0));
  EXPECT_TRUE(SolverService::ModelBit(*step1, 1));

  auto step2 = service.Extend(step1->token, {{MakeLit(1, true)}});  // ¬b
  ASSERT_TRUE(step2.ok());
  EXPECT_TRUE(step2->result.IsFalse());
}

TEST(SolverServiceTest, BranchingSameParent) {
  // The §3.2 killer feature: extend the *same* solved problem p with divergent
  // constraints; each branch sees p's state, not its sibling's.
  SolverService service(SmallArena());
  Cnf base;
  base.AddDimacsClause({1, 2});
  auto root = service.SolveRoot(base);
  ASSERT_TRUE(root.ok());

  auto left = service.Extend(root->token, {{MakeLit(0, true)}});   // ¬a → b
  auto right = service.Extend(root->token, {{MakeLit(1, true)}});  // ¬b → a
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  ASSERT_TRUE(left->result.IsTrue());
  ASSERT_TRUE(right->result.IsTrue());
  EXPECT_TRUE(SolverService::ModelBit(*left, 1));
  EXPECT_TRUE(SolverService::ModelBit(*right, 0));

  // The sibling's ¬a must not leak into the right branch.
  auto right_deeper = service.Extend(right->token, {{MakeLit(0)}});  // assert a again: fine
  ASSERT_TRUE(right_deeper.ok());
  EXPECT_TRUE(right_deeper->result.IsTrue());

  // But the left branch plus `a` is UNSAT (it committed to ¬a).
  auto left_deeper = service.Extend(left->token, {{MakeLit(0)}});
  ASSERT_TRUE(left_deeper.ok());
  EXPECT_TRUE(left_deeper->result.IsFalse());
}

TEST(SolverServiceTest, UnsatBranchStaysExtensible) {
  // Even an UNSAT node parks a checkpoint; extending it stays UNSAT (the
  // solver is permanently unsatisfiable) and must not crash the service.
  SolverService service(SmallArena());
  Cnf base;
  base.AddDimacsClause({1});
  auto root = service.SolveRoot(base);
  ASSERT_TRUE(root.ok());
  auto bad = service.Extend(root->token, {{MakeLit(0, true)}});
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(bad->result.IsFalse());
  auto worse = service.Extend(bad->token, {{MakeLit(5)}});
  ASSERT_TRUE(worse.ok());
  EXPECT_TRUE(worse->result.IsFalse());
}

TEST(SolverServiceTest, NewVariablesInIncrement) {
  SolverService service(SmallArena());
  Cnf base;
  base.AddDimacsClause({1});
  auto root = service.SolveRoot(base);
  ASSERT_TRUE(root.ok());
  // Increment mentions vars far beyond the base problem.
  auto extended = service.Extend(root->token, {{MakeLit(40), MakeLit(41)}, {MakeLit(41, true)}});
  ASSERT_TRUE(extended.ok());
  ASSERT_TRUE(extended->result.IsTrue());
  EXPECT_TRUE(SolverService::ModelBit(*extended, 40));
}

TEST(SolverServiceTest, ReleaseDropsStoreLiveBytes) {
  // A released token with no descendants must actually return its snapshot's
  // private pages to the store — the refcount chain from checkpoint map to
  // blob is load-bearing, and a leak here would silently pin every solved
  // problem forever.
  Rng rng(4242);
  Cnf base = RandomKSat(&rng, 60, 200, 3);
  auto store = std::make_shared<PageStore>();
  SolverServiceOptions options = SmallArena();
  options.tuning.store = store;
  SolverService service(options);
  auto root = service.SolveRoot(base);
  ASSERT_TRUE(root.ok());

  // Two divergent extensions of the root; the session's live state tracks the
  // most recent (right), so left's snapshot is parked with private pages.
  Cnf q_left = RandomKSat(&rng, 60, 12, 3);
  Cnf q_right = RandomKSat(&rng, 60, 12, 3);
  auto left = service.Extend(
      root->token, std::vector<std::vector<Lit>>(q_left.clauses.begin(), q_left.clauses.end()));
  ASSERT_TRUE(left.ok());
  auto right = service.Extend(
      root->token, std::vector<std::vector<Lit>>(q_right.clauses.begin(), q_right.clauses.end()));
  ASSERT_TRUE(right.ok());

  uint64_t live_before = store->stats().bytes_live();
  ASSERT_TRUE(service.Release(left->token).ok());
  EXPECT_LT(store->stats().bytes_live(), live_before);

  // The surviving branch is untouched by the release.
  auto deeper = service.Extend(right->token, {{MakeLit(0), MakeLit(1)}});
  EXPECT_TRUE(deeper.ok());
}

TEST(SolverServiceTest, ReleaseErrorPaths) {
  SolverService service(SmallArena());
  Cnf base;
  base.AddDimacsClause({1});
  auto root = service.SolveRoot(base);
  ASSERT_TRUE(root.ok());
  // Releasing a parent with a live descendant is clean; the descendant stays
  // extensible (its snapshot chain pins the shared pages).
  auto child = service.Extend(root->token, {{MakeLit(3)}});
  ASSERT_TRUE(child.ok());
  EXPECT_TRUE(service.Release(root->token).ok());
  EXPECT_FALSE(root->token.valid());
  auto grandchild = service.Extend(child->token, {{MakeLit(4)}});
  ASSERT_TRUE(grandchild.ok());
  EXPECT_TRUE(grandchild->result.IsTrue());

  // Double release: the handle was consumed; a second release (and a resume
  // through it) are clean errors, not UB.
  EXPECT_EQ(service.Release(root->token).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(service.Extend(root->token, {{MakeLit(5)}}).status().code(),
            ErrorCode::kInvalidArgument);
  // An empty handle never reaches the session either.
  Checkpoint empty;
  EXPECT_EQ(service.Release(empty).code(), ErrorCode::kInvalidArgument);
}

TEST(SolverServiceTest, HandleFromAnotherServiceIsRejected) {
  // The typed-handle payoff: a checkpoint is service-affine, and using it on
  // a different service is a clean InvalidArgument — with raw uint64 tokens
  // this was silent UB (the token would alias an unrelated snapshot).
  SolverService first(SmallArena());
  SolverService second(SmallArena());
  Cnf base;
  base.AddDimacsClause({1, 2});
  auto a = first.SolveRoot(base);
  auto b = second.SolveRoot(base);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(second.Extend(a->token, {{MakeLit(0)}}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(second.Release(a->token).code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(a->token.valid());  // the failed calls left the handle intact
  auto still = first.Extend(a->token, {{MakeLit(0)}});
  EXPECT_TRUE(still.ok());
}

TEST(SolverServiceTest, ResumeAfterReleaseThroughCloneFails) {
  SolverService service(SmallArena());
  Cnf base;
  base.AddDimacsClause({1, 2});
  auto root = service.SolveRoot(base);
  ASSERT_TRUE(root.ok());
  Checkpoint clone = root->token.Clone();
  EXPECT_TRUE(service.Release(root->token).ok());
  // The clone still pins the snapshot; releasing the last reference frees it.
  EXPECT_TRUE(service.Extend(clone, {{MakeLit(0)}}).ok());
  EXPECT_TRUE(service.Release(clone).ok());
  // All references gone: a stale copy of neither handle can exist (move-only),
  // and the service API can no longer reach the snapshot.
}

TEST(SolverServiceTest, MalformedEncodedRequestIsRejectedCleanly) {
  // Guest-side decoder hardening: forged counts/lengths must surface as
  // InvalidArgument and leave the parent pristine, not truncate into a
  // half-applied increment or overflow the mailbox read.
  SolverService service(SmallArena());
  Cnf base;
  base.AddDimacsClause({1, 2});
  auto root = service.SolveRoot(base);
  ASSERT_TRUE(root.ok());

  // Claims 2^32-1 clauses but carries none.
  uint32_t huge_count = 0xFFFFFFFFu;
  auto bad1 = service.ExtendEncoded(root->token, &huge_count, sizeof(huge_count));
  EXPECT_EQ(bad1.status().code(), ErrorCode::kInvalidArgument);

  // One clause claiming 2^30 literals with a 4-byte body.
  uint32_t bad2_words[3] = {1, 1u << 30, 7};
  auto bad2 = service.ExtendEncoded(root->token, bad2_words, sizeof(bad2_words));
  EXPECT_EQ(bad2.status().code(), ErrorCode::kInvalidArgument);

  // A literal whose variable exceeds the wire cap.
  uint32_t bad3_words[3] = {1, 1, (kMaxSolverWireVar + 1) << 1};
  auto bad3 = service.ExtendEncoded(root->token, bad3_words, sizeof(bad3_words));
  EXPECT_EQ(bad3.status().code(), ErrorCode::kInvalidArgument);

  // Truncated request (half a header).
  uint8_t stub[2] = {1, 0};
  auto bad4 = service.ExtendEncoded(root->token, stub, sizeof(stub));
  EXPECT_EQ(bad4.status().code(), ErrorCode::kInvalidArgument);

  // The parent survived every rejected increment and still extends cleanly.
  auto good = service.Extend(root->token, {{MakeLit(0)}});
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->result.IsTrue());
}

TEST(SolverServiceTest, EncoderRejectsOversizedIncrements) {
  SolverServiceOptions options = SmallArena();
  options.tuning.mailbox_bytes = 256;
  SolverService service(options);
  Cnf base;
  base.AddDimacsClause({1});
  ASSERT_TRUE(service.SolveRoot(base).ok());
  auto root_again = service.SolveRoot(base);
  EXPECT_EQ(root_again.status().code(), ErrorCode::kBadState);

  // 100 clauses * 8 bytes > 256-byte mailbox: the encoder refuses up front.
  std::vector<std::vector<Lit>> big(100, std::vector<Lit>{MakeLit(1)});
  std::vector<uint8_t> encoded;
  EXPECT_EQ(EncodeSolverRequest(big, options.tuning.mailbox_bytes, &encoded).code(),
            ErrorCode::kInvalidArgument);
  // Unbounded encode works and reports the true size.
  ASSERT_TRUE(EncodeSolverRequest(big, 0, &encoded).ok());
  EXPECT_EQ(encoded.size(), 4u + 100u * 8u);
  // A literal over the wire cap is rejected at encode time too.
  std::vector<std::vector<Lit>> forged = {{MakeLit(static_cast<Var>(kMaxSolverWireVar + 1))}};
  EXPECT_EQ(EncodeSolverRequest(forged, 0, &encoded).code(), ErrorCode::kInvalidArgument);
}

TEST(SolverServiceTest, ModelBitBoundsChecked) {
  SolverService service(SmallArena());
  Cnf base;
  base.AddDimacsClause({1});
  auto root = service.SolveRoot(base);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(root->result.IsTrue());
  EXPECT_EQ(root->num_vars, 1u);
  EXPECT_TRUE(SolverService::ModelBit(*root, 0));
  // Out-of-range and negative variables read false, never out of bounds.
  EXPECT_FALSE(SolverService::ModelBit(*root, 1));
  EXPECT_FALSE(SolverService::ModelBit(*root, 1 << 20));
  EXPECT_FALSE(SolverService::ModelBit(*root, -1));
}

TEST(SolverServiceTest, TwoServicesShareOneStore) {
  // N solver services over one injected store (the paper's many-clients
  // picture): clause arenas and watch lists of the same base problem are
  // byte-identical pure data, so the second service's root solve dedups
  // against the first's resident pages.
  Rng rng(2026);
  Cnf base = RandomKSat(&rng, 300, 1200, 3);
  auto store = std::make_shared<PageStore>();
  SolverServiceOptions options;
  options.tuning.arena_bytes = 16ull << 20;
  options.tuning.store = store;
  SolverService first(options);
  SolverService second(options);

  auto a = first.SolveRoot(base);
  ASSERT_TRUE(a.ok());
  uint64_t cross_after_first = store->stats().cross_session_dedup_hits;
  auto b = second.SolveRoot(base);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->result.IsTrue(), b->result.IsTrue());
  EXPECT_GT(store->stats().cross_session_dedup_hits, cross_after_first);

  // Both services stay independently extensible on the shared substrate.
  auto ea = first.Extend(a->token, {{MakeLit(0)}});
  auto eb = second.Extend(b->token, {{MakeLit(0, true)}});
  ASSERT_TRUE(ea.ok());
  ASSERT_TRUE(eb.ok());
}

TEST(SolverServiceTest, RandomThreeSatIncrementalMatchesScratch) {
  // Solve p, extend with q, and cross-check the SAT/UNSAT verdict against a
  // from-scratch solve of p ∧ q.
  Rng rng(1234);
  Cnf p = RandomKSat(&rng, 60, 240, 3);
  SolverService service(SmallArena());
  auto root = service.SolveRoot(p);
  ASSERT_TRUE(root.ok());
  ASSERT_FALSE(root->result.IsUndef());

  for (int round = 0; round < 5; ++round) {
    Cnf q = RandomKSat(&rng, 60, 10, 3);
    std::vector<std::vector<Lit>> increment(q.clauses.begin(), q.clauses.end());
    auto extended = service.Extend(root->token, increment);
    ASSERT_TRUE(extended.ok());

    Solver scratch;
    Cnf combined = p;
    for (const auto& clause : q.clauses) {
      combined.clauses.push_back(clause);
    }
    scratch.EnsureVars(combined.num_vars);
    for (const auto& clause : combined.clauses) {
      scratch.AddClause(clause.data(), static_cast<uint32_t>(clause.size()));
    }
    LBool want = scratch.Solve();
    ASSERT_FALSE(want.IsUndef());
    EXPECT_EQ(extended->result.IsTrue(), want.IsTrue()) << "round " << round;

    // When SAT, the reported model must satisfy the combined formula.
    if (extended->result.IsTrue()) {
      std::vector<bool> model(combined.num_vars);
      for (Var v = 0; v < combined.num_vars; ++v) {
        model[v] = SolverService::ModelBit(*extended, v);
      }
      EXPECT_TRUE(combined.IsSatisfiedBy(model));
    }
  }
}

TEST(SolverServiceTest, DeepChainReusesWork) {
  // A long chain of small increments: every step's conflict count is the
  // *cumulative* solver total, so steps should add few conflicts each once the
  // base problem is solved (the incremental claim of §2).
  Rng rng(777);
  Cnf p = RandomKSat(&rng, 100, 400, 3);
  SolverService service(SmallArena());
  auto node = service.SolveRoot(p);
  ASSERT_TRUE(node.ok());
  ASSERT_FALSE(node->result.IsUndef());
  uint64_t base_conflicts = node->conflicts;

  uint64_t total_added = 0;
  int steps = 0;
  Checkpoint cur = std::move(node->token);
  for (int round = 0; round < 8; ++round) {
    Cnf q = RandomKSat(&rng, 100, 4, 3);
    std::vector<std::vector<Lit>> increment(q.clauses.begin(), q.clauses.end());
    auto next = service.Extend(cur, increment);
    ASSERT_TRUE(next.ok());
    if (next->result.IsFalse()) {
      break;
    }
    total_added += next->conflicts - base_conflicts;
    base_conflicts = next->conflicts;
    cur = std::move(next->token);
    ++steps;
  }
  if (steps > 0) {
    // Average per-step conflicts well below a scratch solve of the base.
    EXPECT_LT(total_added / static_cast<uint64_t>(steps), 2000u);
  }
}

// Engine parity on the §3.2 workload shape: ~200 branching extends off one
// solved root (each from the root or a recent token), replayed on the CoW
// engine and on the full-copy baseline. Verdicts, models and conflict counts
// must be identical; on CoW the uncapped hot set must absorb the solver's
// steady write set, so warm extends take at most one write fault on average.
struct ExtendRecord {
  uint8_t result = 0;
  uint32_t num_vars = 0;
  uint64_t conflicts = 0;
  std::vector<uint8_t> model_bits;
  uint64_t cow_faults = 0;  // write faults this extend took
};

// Random graph 3-coloring: var 3*node + color. Easy to solve, yet its watch
// lists and trail spread each extend's writes over more than 100 pages.
constexpr int kColorNodes = 400;

Cnf RandomThreeColoring(Rng* rng, int nodes, int edges) {
  Cnf cnf;
  for (int v = 0; v < nodes; ++v) {
    cnf.AddDimacsClause({3 * v + 1, 3 * v + 2, 3 * v + 3});
    for (int a = 1; a <= 3; ++a) {
      for (int b = a + 1; b <= 3; ++b) {
        cnf.AddDimacsClause({-(3 * v + a), -(3 * v + b)});
      }
    }
  }
  for (int e = 0; e < edges; ++e) {
    const int u = static_cast<int>(rng->Below(nodes));
    const int v = static_cast<int>(rng->Below(nodes));
    for (int c = 1; c <= 3 && u != v; ++c) {
      cnf.AddDimacsClause({-(3 * u + c), -(3 * v + c)});
    }
  }
  return cnf;
}

std::vector<ExtendRecord> RunBranchingExtends(SnapshotMode mode) {
  Rng rng(9001);
  const Cnf base = RandomThreeColoring(&rng, kColorNodes, 800);
  SolverServiceOptions options = SmallArena();
  options.tuning.snapshot_mode = mode;
  SolverService service(options);
  auto root = service.SolveRoot(base);
  EXPECT_TRUE(root.ok());
  if (!root.ok()) {
    return {};
  }
  std::vector<Checkpoint> window;  // recent tokens, oldest first
  std::vector<ExtendRecord> records;
  for (int step = 0; step < 200; ++step) {
    const Checkpoint& parent =
        window.empty() || rng.Below(4) == 0 ? root->token : window[rng.Below(window.size())];
    std::vector<std::vector<Lit>> q;
    for (uint64_t n = rng.Range(1, 3); n > 0; --n) {
      // "node v has color c"
      q.push_back({MakeLit(static_cast<Var>(3 * rng.Below(kColorNodes) + rng.Below(3)))});
    }
    const uint64_t faults_before = service.session_stats().cow_faults;
    auto outcome = service.Extend(parent, q);
    EXPECT_TRUE(outcome.ok()) << "step " << step;
    if (!outcome.ok()) {
      return records;
    }
    ExtendRecord record;
    record.result = outcome->result.raw();
    record.num_vars = outcome->num_vars;
    record.conflicts = outcome->conflicts;
    record.model_bits = outcome->model_bits;
    record.cow_faults = service.session_stats().cow_faults - faults_before;
    records.push_back(std::move(record));
    window.push_back(std::move(outcome->token));
    if (window.size() > 16) {
      window.erase(window.begin());
    }
  }
  return records;
}

TEST(SolverServiceTest, BranchingExtendsMatchFullCopyWithFewFaults) {
  const std::vector<ExtendRecord> cow = RunBranchingExtends(SnapshotMode::kCow);
  const std::vector<ExtendRecord> full = RunBranchingExtends(SnapshotMode::kFullCopy);
  ASSERT_EQ(cow.size(), 200u);
  ASSERT_EQ(full.size(), cow.size());
  for (size_t i = 0; i < cow.size(); ++i) {
    EXPECT_EQ(cow[i].result, full[i].result) << "extend " << i;
    EXPECT_EQ(cow[i].num_vars, full[i].num_vars) << "extend " << i;
    EXPECT_EQ(cow[i].conflicts, full[i].conflicts) << "extend " << i;
    EXPECT_EQ(cow[i].model_bits, full[i].model_bits) << "extend " << i;
    EXPECT_EQ(full[i].cow_faults, 0u);  // full copy never write-protects
  }
  // The stream must exercise both verdicts and real search.
  size_t sat = 0;
  uint64_t max_conflicts = 0;
  for (const ExtendRecord& record : cow) {
    sat += record.result == kTrue.raw() ? 1 : 0;
    max_conflicts = std::max(max_conflicts, record.conflicts);
  }
  EXPECT_GT(sat, 20u);
  EXPECT_LT(sat, cow.size() - 20);
  EXPECT_GT(max_conflicts, 0u);
  // Cold, an extend faults on its whole write set (>100 pages, beyond the old
  // 64-page cap). Once warm (pages go hot after 4 dirty snapshots) extends
  // take at most one fault on average and most take none: what still faults
  // is growth (learnt clauses) and pages touched too rarely to stay hot.
  EXPECT_GT(cow[0].cow_faults, 100u);
  constexpr size_t kWarm = 20;
  uint64_t warm_faults = 0;
  size_t fault_free = 0;
  for (size_t i = kWarm; i < cow.size(); ++i) {
    warm_faults += cow[i].cow_faults;
    fault_free += cow[i].cow_faults == 0 ? 1 : 0;
  }
  EXPECT_LE(warm_faults, cow.size() - kWarm);
  EXPECT_GT(fault_free, (cow.size() - kWarm) / 2);
}

}  // namespace
}  // namespace lw
