// SnapshotEngine: the pluggable snapshot substrate behind BacktrackSession.
//
// The paper's thesis is that lightweight snapshot/restore is a *system-level
// service* shared by many search workloads; the session (search orchestration:
// guess/fail/yield, strategies, checkpoints) and the snapshot mechanics (how an
// address-space image is captured and reinstated) are separate concerns. This
// interface is the seam: the session drives the search graph and calls the
// engine exactly twice per extension — Materialize at a guess point, Restore
// before resuming a sibling — plus a byte-budget hook after each guess.
//
// Backends (see DESIGN.md for the layering and trade-off discussion):
//   * CowEngine         — page-granular copy-on-write via mprotect/SIGSEGV (the
//                         paper's design; the host MMU stands in for Dune's
//                         nested pages), with hot-page prediction that lifts
//                         persistently dirty pages out of the fault path.
//   * FullCopyEngine    — classic whole-arena checkpointing [libckpt]: cost is
//                         proportional to arena size, independent of the write
//                         set. The baseline the paper argues against.
//   * IncrementalCopyEngine — fault-free incremental checkpointing: no mprotect
//                         traffic at all; a per-snapshot content scan feeds a
//                         DirtyTracker and only flagged pages are memcpy'd.
//                         Reads ∝ arena, copies ∝ delta — the middle point of
//                         the design space for fault-cost-dominated hosts.
//   * SoftDirtyEngine   — kernel-assisted dirty tracking: the kernel's
//                         soft-dirty PTE bits (/proc/self/pagemap +
//                         clear_refs) yield the exact dirty set with no
//                         SIGSEGV faults and no content scan. Needs kernel
//                         support — probe SoftDirtyTracker::Supported() first.
//   * AdaptiveEngine    — meta-engine that re-picks the cheapest of the four
//                         mechanisms per checkpoint from an online dirty-rate
//                         estimate and the bench_crossover cost model.
//
// Future backends (compressed blobs, remote/disaggregated pools) implement
// this interface without touching the scheduler. Parallel materialization is
// not a backend but a cross-cutting layer: every engine's publish loop routes
// through MaterializeContext/ParallelMaterializer (below), so any backend —
// current or future — can fan its page publishing out over a session-owned
// worker team while keeping snapshot structure bit-identical to serial.
//
// SIGSEGV-protocol invariant: only engines whose NeedsSignalProtocol() returns
// true (CoW, and Adaptive because it may arm CoW) may ever write-protect guest
// pages, and the process-wide SIGSEGV handler plus per-thread sigaltstacks are
// installed lazily by GuestArena::SetCowEnabled(true) — constructing an arena
// or running a fault-free engine leaves the process signal disposition
// untouched. Sessions gate EnsureThreadSignalStack on NeedsSignalProtocol(),
// so a fleet of fault-free sessions never pays (or perturbs) signal state.

#ifndef LWSNAP_SRC_SNAPSHOT_ENGINE_H_
#define LWSNAP_SRC_SNAPSHOT_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/search_graph.h"
#include "src/snapshot/budget_policy.h"
#include "src/snapshot/page_map.h"
#include "src/snapshot/page_store.h"

namespace lw {

class GuestArena;
class ParallelMaterializer;

// Per-materialize options threaded from the session through the engine seam.
// `parallel` non-null routes the engine's publish loops (and the incremental
// engine's content scan) through the session-owned worker team — see
// src/snapshot/parallel_materializer.h for the determinism contract; the
// snapshot structure produced is bit-identical to a serial materialize. Null
// (the default) keeps everything on the calling thread. Engine-side protocol
// state — the CoW SIGSEGV/mprotect machinery, hot-page prediction, the dirty
// tracker, the map itself — is only ever touched on the session thread.
struct MaterializeContext {
  ParallelMaterializer* parallel = nullptr;
};

// Per-restore options threaded from the session through the engine seam —
// Restore's mirror of MaterializeContext (restore runs once per backtrack, so
// it deserves the same fan-out the materialize path got). `parallel` non-null
// routes every engine's restore copy loop over the session-owned worker team:
// workers memcmp/memcpy disjoint pages of the parked arena from the
// internally synchronized store, so end-state memory is byte-identical to a
// serial restore by construction. Protection changes, tracker clears, and
// cur_map_ adoption stay on the session thread (the same determinism contract
// as materialization). Null (the default) keeps everything on the caller.
struct RestoreContext {
  ParallelMaterializer* parallel = nullptr;
};

enum class SnapshotMode {
  kCow,
  kFullCopy,
  kIncremental,
  kSoftDirty,  // kernel soft-dirty bits; requires SoftDirtyTracker::Supported()
  kAdaptive,   // per-checkpoint mechanism selection over the four above
};

const char* SnapshotModeName(SnapshotMode mode);

// How the most recent Materialize discovered its dirty set. Engines record
// this in stats->dirty_source so benches and ablations are self-describing
// (and so tests can assert, e.g., that SoftDirtyEngine never scanned).
enum class DirtySource : uint8_t {
  kFaults,         // SIGSEGV/mprotect write faults (CoW)
  kScan,           // full-arena content scan (incremental)
  kKernelPagemap,  // soft-dirty bits read from /proc/self/pagemap
  kFull,           // no dirty detection: whole arena republished
};

const char* DirtySourceName(DirtySource source);

// Counters owned by the snapshot substrate. SessionStats inherits these so the
// session's stats block reports engine behaviour alongside search behaviour.
struct SnapshotEngineStats {
  uint64_t pages_materialized = 0;
  uint64_t pages_restored = 0;
  uint64_t hot_promotions = 0;
  uint64_t hot_demotions = 0;
  uint64_t hot_unchanged_skips = 0;  // hot pages found byte-identical at snapshot
  // Store-side counters mirrored at the end of each Materialize. With a shared
  // store these are store-wide totals (all sessions), not per-session deltas.
  uint64_t zero_dedup_hits = 0;           // publishes collapsed to the canonical zero blob
  uint64_t content_dedup_hits = 0;        // publishes collapsed to an existing nonzero blob
  uint64_t cross_session_dedup_hits = 0;  // ...first published by a different session
  uint64_t compressed_blobs = 0;          // blobs currently in the cold-compressed tier
  uint64_t incr_pages_scanned = 0;  // incremental engine: pages memcmp'd
  uint64_t incr_pages_copied = 0;   // incremental engine: pages actually copied
  // Dirty-set provenance: how the latest Materialize found its delta, plus
  // per-source materialize counts (the adaptive engine mixes sources over a
  // session's lifetime; fixed engines bump exactly one of these).
  DirtySource dirty_source = DirtySource::kFull;
  uint64_t materializes_by_faults = 0;
  uint64_t materializes_by_scan = 0;
  uint64_t materializes_by_pagemap = 0;
  uint64_t materializes_by_full = 0;
  uint64_t pagemap_entries_read = 0;  // soft-dirty: 8-byte pagemap entries read
  uint64_t soft_dirty_clears = 0;     // soft-dirty: process-wide clear_refs writes
  uint64_t adaptive_switches = 0;     // adaptive: mechanism changes between checkpoints
  // Restore-side provenance: syscall coalescing and skip accounting, so tests
  // and benches can assert the mprotect reduction instead of inferring it
  // from timings. Only the engines that write-protect guest pages (CoW, and
  // adaptive while the faults mechanism is armed) ever issue restore-side
  // mprotect calls; for them every restore costs exactly two calls per
  // coalesced run (batch-unprotect + batch-reprotect), so
  // restore_mprotect_calls == 2 × restore_runs_coalesced by construction.
  uint64_t restore_mprotect_calls = 0;  // mprotect syscalls issued by restores
  uint64_t restore_runs_coalesced = 0;  // contiguous page runs those calls covered
  // Address-space traffic mirrored from the arena by the session: every CoW
  // write fault taken and every mprotect issued (fault handler, materialize
  // reprotects, hot-page demotions and restores alike). Both take the
  // process-wide mmap lock, so in a fleet they are the shared-resource cost.
  uint64_t cow_faults = 0;
  uint64_t mprotect_calls = 0;
  // Tracked restore candidates (CoW hot pages, soft-dirty write-set pages)
  // memcmp'd and found already byte-identical — copies saved. Full-arena
  // compare loops (incremental/scan restores) are not counted here;
  // incr_pages_scanned covers those.
  uint64_t pages_restore_skipped = 0;
  // Release-side provenance (store-wide totals, like the dedup counters):
  // shard-batched reclamation through PageStore::ReleaseBatch — batches
  // issued, blobs recycled under batched shard holds, and the shard-lock
  // acquisitions those holds cost (≤ shards touched per batch, vs one lock
  // per dying blob on the per-ref path).
  uint64_t release_batches = 0;
  uint64_t blobs_recycled_batched = 0;
  uint64_t release_shard_locks = 0;
  // Spill-tier provenance (store-wide totals): blobs whose payload currently
  // lives on disk, their payload bytes, disk → RAM fault-backs, and spill
  // segment files reclaimed by compaction.
  uint64_t spilled_blobs = 0;
  uint64_t spill_bytes = 0;
  uint64_t faultbacks = 0;
  uint64_t spill_segments_compacted = 0;
  uint64_t snapshot_ns = 0;
  uint64_t restore_ns = 0;
};

class SnapshotEngine {
 public:
  // Everything an engine is allowed to touch. The arena is the live guest
  // memory (and, for CoW, the protection/dirty machinery); the store is where
  // immutable page blobs live — possibly shared with other sessions' engines;
  // stats is the shared counter block. `owner` tags this engine's publishes so
  // the store can attribute cross-session dedup hits.
  struct Env {
    GuestArena* arena = nullptr;
    PageStore* store = nullptr;
    SnapshotEngineStats* stats = nullptr;
    PageMapKind page_map_kind = PageMapKind::kRadix;
    uint32_t hot_page_limit = 0;  // CoW only; other engines ignore it
    uint32_t owner = 0;           // PageStore owner id (see PageStore::RegisterOwner)
  };

  explicit SnapshotEngine(const Env& env);
  // Teardown drains the current map through PageStore::ReleaseBatch: spine
  // nodes shared with still-live snapshots are dropped by refcount, and the
  // uniquely-owned refs reclaim under batched shard holds.
  virtual ~SnapshotEngine();

  SnapshotEngine(const SnapshotEngine&) = delete;
  SnapshotEngine& operator=(const SnapshotEngine&) = delete;

  virtual SnapshotMode mode() const = 0;
  const char* name() const { return SnapshotModeName(mode()); }

  // Captures the live arena image into snap.map (sharing the engine's current
  // map; the snapshot becomes immutable from this point on). Called with the
  // guest parked, so the page image exactly matches the saved registers.
  // `ctx` optionally supplies the session's parallel-materialize worker team;
  // the serial overload forwards an empty context.
  virtual void Materialize(Snapshot& snap, const MaterializeContext& ctx) = 0;
  void Materialize(Snapshot& snap) { Materialize(snap, MaterializeContext{}); }

  // Rebuilds live arena memory to byte-equality with snap.map and adopts it as
  // the current map. `ctx` optionally supplies the session's worker team (the
  // same team Materialize fans out over); the serial overload forwards an
  // empty context. End-state memory is byte-identical either way.
  virtual void Restore(const Snapshot& snap, const RestoreContext& ctx) = 0;
  void Restore(const Snapshot& snap) { Restore(snap, RestoreContext{}); }

  // Called immediately before control transfers into the guest. Engines that
  // arm per-resume tracking state hook here; the built-in engines keep their
  // invariants across resumes and do nothing.
  virtual void OnGuestResume() {}

  // True iff this engine may write-protect guest pages and rely on the
  // SIGSEGV/mprotect protocol (see the invariant note at the top of this
  // file). Sessions and the parallel materializer skip sigaltstack/handler
  // installation entirely when this is false — fault-free engines must not
  // perturb process signal state.
  virtual bool NeedsSignalProtocol() const { return false; }

  // Host bytes consumed by engine-side bookkeeping (current map structure,
  // prediction tables, trackers) — excludes page blobs and snapshot maps.
  virtual size_t StructureBytes() const;

  // Post-materialize budget hook: the shared ByteBudgetPolicy runs
  // evict → compress → spill → drop against the store until live bytes fit `budget`
  // (`evict` returns false when nothing is evictable; `budget == 0` means
  // unbounded). Engines may override to weigh structure bytes or dedup
  // savings differently.
  virtual void EnforceByteBudget(uint64_t budget, const std::function<bool()>& evict);

  const PageMap& current_map() const { return cur_map_; }

 protected:
  // Publishes one live page through the shared store with this engine's owner
  // tag (the single choke point for dedup accounting).
  PageRef PublishPage(const void* src) { return env_.store->Publish(src, env_.owner); }

  // Runs fn(slot) for every slot in [0, count): serially when ctx carries no
  // team, otherwise on ctx.parallel's workers. This is the choke point every
  // engine's publish loop routes through; fn must write only its own slot's
  // outputs (disjoint entries of an engine-owned PageRef/flag table) so the
  // caller can assemble the map serially, in slot order, afterwards. Engine
  // slot work cannot fail, so an error here is an invariant violation.
  void RunSlots(const MaterializeContext& ctx, size_t count,
                const std::function<Status(size_t)>& fn);
  // Restore-side twin: identical contract, team taken from the RestoreContext.
  void RunSlots(const RestoreContext& ctx, size_t count,
                const std::function<Status(size_t)>& fn);

  // Shared restore tail for engines that write-protect guest pages (CoW, and
  // adaptive while the faults mechanism is armed). The caller fills
  // restore_pages_ (sorted, unique, non-guard page indices) and restore_refs_
  // (the matching snapshot blobs, same order); this coalesces the pages into
  // contiguous runs, batch-unprotects each run with one mprotect, fans the
  // memcpys out over ctx's team (or runs them serially), then batch-reprotects
  // the same runs — exactly 2 syscalls per run instead of 2 per page. Because
  // every touched page is writable before any worker starts, no SIGSEGV can
  // fire off the session thread. Bumps restore_mprotect_calls /
  // restore_runs_coalesced and returns the number of pages copied.
  uint64_t RestoreProtectedSet(const RestoreContext& ctx);

  // Bytes held by the reusable restore scratch tables below (counted into
  // StructureBytes so capacity retained across restores is visible).
  size_t RestoreScratchBytes() const;

  // Mirrors store-level dedup/compression accounting into the shared stats
  // block (called by engines at the end of Materialize).
  void SyncStoreStats();

  Env env_;
  PageMap cur_map_;
  ByteBudgetPolicy budget_policy_;

  // Reusable restore slot tables: page index -> blob to copy in, plus a
  // per-slot outcome flag for CopyToIfDifferent fan-outs (workers write
  // disjoint slots; the session thread reduces afterwards). Kept as members so
  // restore-heavy workloads stop paying per-restore allocation.
  std::vector<uint32_t> restore_pages_;
  std::vector<PageRef> restore_refs_;
  std::vector<uint8_t> restore_flags_;
  std::vector<std::pair<uint32_t, uint32_t>> restore_runs_;  // (first page, count)

 private:
  // Common slot-loop body behind both RunSlots overloads.
  void RunSlotsOn(ParallelMaterializer* team, size_t count,
                  const std::function<Status(size_t)>& fn);
};

// Builds the engine for `mode` and establishes its arena invariant (protection
// state, initial current map). Call before any guest code runs in the arena.
std::unique_ptr<SnapshotEngine> MakeSnapshotEngine(SnapshotMode mode, const SnapshotEngine::Env& env);

}  // namespace lw

#endif  // LWSNAP_SRC_SNAPSHOT_ENGINE_H_
