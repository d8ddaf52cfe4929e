#include "src/snapshot/cow_engine.h"

#include <algorithm>
#include <cstring>

#include "src/core/arena.h"

namespace lw {

CowEngine::CowEngine(const Env& env) : SnapshotEngine(env) {
  GuestArena& arena = *env_.arena;
  // Establish the CoW invariant: memory is all-zero, the current map says
  // all-zero, nothing is dirty, everything is protected. Guard pages stay
  // unmapped from the snapshot's point of view (invalid refs; never dirtied,
  // never restored).
  PageRef zero = env_.store->ZeroPage();
  for (uint32_t page = 0; page < arena.num_pages(); ++page) {
    if (!arena.InGuard(page)) {
      cur_map_.Set(page, zero);
    }
  }
  // Enabling CoW installs the SIGSEGV handler + sigaltstack (first time) and
  // protects everything; if the arena was already in CoW mode, re-establish
  // the protocol invariant explicitly.
  if (arena.cow_enabled()) {
    arena.ProtectAll();
  } else {
    arena.SetCowEnabled(true);
  }

  hot_.assign(arena.num_pages(), 0);
  dirty_streak_.assign(arena.num_pages(), 0);
  clean_streak_.assign(arena.num_pages(), 0);
  // The limit defaults to "uncapped" (SessionOptions::hot_page_limit); the
  // hot set can never outgrow the arena.
  hot_pages_.reserve(std::min<size_t>(env_.hot_page_limit, arena.num_pages()));
}

void CowEngine::Materialize(Snapshot& snap, const MaterializeContext& ctx) {
  GuestArena& arena = *env_.arena;
  SnapshotEngineStats& stats = *env_.stats;

  // Hot pages first: they are permanently writable, so the dirty set does not
  // know about them — memcmp against the current blob and republish only on a
  // real change. A long unchanged streak demotes the page back into the CoW
  // protocol. The memcmp + publish per hot page is slot work (workers fill
  // disjoint hot_refs_ entries); the streak/demotion bookkeeping — and every
  // mprotect — is applied serially afterwards on the session thread. Demoted
  // pages are collected and re-protected in coalesced runs: a phase change
  // can demote hundreds of pages at once.
  constexpr uint8_t kHotDemoteAfter = 16;
  hot_refs_.resize(hot_pages_.size());
  RunSlots(ctx, hot_pages_.size(), [this, &arena](size_t slot) {
    uint32_t page = hot_pages_[slot];
    const PageRef cur = cur_map_.Get(page);
    if (!cur.EqualsPage(arena.PageAddr(page))) {
      hot_refs_[slot] = PublishPage(arena.PageAddr(page));
    }
    return OkStatus();
  });
  size_t hot_kept = 0;
  demoted_.clear();
  for (size_t idx = 0; idx < hot_pages_.size(); ++idx) {
    uint32_t page = hot_pages_[idx];
    if (hot_refs_[idx].valid()) {
      cur_map_.Set(page, std::move(hot_refs_[idx]));
      ++stats.pages_materialized;
      clean_streak_[page] = 0;
      hot_pages_[hot_kept++] = page;
    } else if (++clean_streak_[page] >= kHotDemoteAfter) {
      hot_[page] = 0;
      demoted_.push_back(page);
      ++stats.hot_demotions;
    } else {
      ++stats.hot_unchanged_skips;
      hot_pages_[hot_kept++] = page;
    }
  }
  hot_pages_.resize(hot_kept);
  hot_refs_.clear();
  std::sort(demoted_.begin(), demoted_.end());  // hot_pages_ is in promotion order
  arena.ProtectPages(demoted_.data(), static_cast<uint32_t>(demoted_.size()));

  // Dirty set: the SIGSEGV protocol that built it ran on the session thread;
  // only the post-fault page publishing fans out. Dirty pages stay writable
  // until the reprotect below, and the guest is parked, so workers read a
  // stable image.
  const DirtyTracker& dirty = arena.dirty();
  constexpr uint8_t kHotPromoteAfter = 4;
  dirty_refs_.resize(dirty.count());
  RunSlots(ctx, dirty.count(), [this, &arena, &dirty](size_t slot) {
    dirty_refs_[slot] = PublishPage(arena.PageAddr(dirty.pages()[slot]));
    return OkStatus();
  });
  for (uint32_t i = 0; i < dirty.count(); ++i) {
    uint32_t page = dirty.pages()[i];
    cur_map_.Set(page, std::move(dirty_refs_[i]));
    // Promotion: a page taking a CoW fault snapshot after snapshot is cheaper
    // to treat as always-dirty.
    if (dirty_streak_[page] < 255) {
      ++dirty_streak_[page];
    }
    if (dirty_streak_[page] >= kHotPromoteAfter && hot_[page] == 0 &&
        hot_pages_.size() < env_.hot_page_limit) {
      hot_[page] = 1;
      clean_streak_[page] = 0;
      hot_pages_.push_back(page);
      ++stats.hot_promotions;
    }
  }
  stats.pages_materialized += dirty.count();
  stats.dirty_source = DirtySource::kFaults;
  ++stats.materializes_by_faults;
  dirty_refs_.clear();
  arena.ReprotectDirty(hot_pages_.empty() ? nullptr : hot_.data());

  snap.map = cur_map_;  // flat: vector copy; radix: O(1) root share
  SyncStoreStats();
}

void CowEngine::Restore(const Snapshot& snap, const RestoreContext& ctx) {
  GuestArena& arena = *env_.arena;
  SnapshotEngineStats& stats = *env_.stats;
  uint64_t restored = 0;

  // Hot pages are writable and fault-free, so their live contents are
  // unknowable without a compare — memcmp each against the target blob and
  // copy only on divergence (an unchanged hot page is the common case on the
  // workloads that promoted it). The compare+copy per page is slot work;
  // workers record outcomes in disjoint restore_flags_ slots and the session
  // thread reduces the counters afterwards.
  hot_refs_.resize(hot_pages_.size());
  for (size_t slot = 0; slot < hot_pages_.size(); ++slot) {
    hot_refs_[slot] = snap.map.Get(hot_pages_[slot]);
    LW_CHECK_MSG(hot_refs_[slot].valid(), "restoring a page the snapshot does not cover");
  }
  restore_flags_.assign(hot_pages_.size(), 0);
  RunSlots(ctx, hot_pages_.size(), [this, &arena](size_t slot) {
    if (hot_refs_[slot].CopyToIfDifferent(arena.PageAddr(hot_pages_[slot]))) {
      restore_flags_[slot] = 1;
    }
    return OkStatus();
  });
  for (size_t slot = 0; slot < hot_pages_.size(); ++slot) {
    if (restore_flags_[slot] != 0) {
      ++restored;
    } else {
      ++stats.pages_restore_skipped;
    }
  }
  hot_refs_.clear();

  // Protected restore set: dirty pages (live memory diverged from cur_map_;
  // always restored) plus clean pages where the two immutable maps disagree.
  // Dirty order is fault order, so sort before run coalescing; the two sources
  // are disjoint by construction (the Diff arm excludes dirty and hot pages),
  // and hot pages never fault, so the set is unique.
  DirtyTracker& dirty = arena.dirty();
  restore_pages_.assign(dirty.pages(), dirty.pages() + dirty.count());
  cur_map_.Diff(snap.map, [this, &dirty](uint32_t page, const PageRef& /*mine*/,
                                         const PageRef& /*theirs*/) {
    if (!dirty.IsDirty(page) && hot_[page] == 0) {
      restore_pages_.push_back(page);
    }
  });
  std::sort(restore_pages_.begin(), restore_pages_.end());
  restore_refs_.resize(restore_pages_.size());
  for (size_t i = 0; i < restore_pages_.size(); ++i) {
    restore_refs_[i] = snap.map.Get(restore_pages_[i]);
    LW_CHECK_MSG(restore_refs_[i].valid(), "restoring a page the snapshot does not cover");
  }
  // Batch-unprotect the coalesced runs, fan the memcpys out, batch-reprotect:
  // 2 mprotect per run instead of 2 per page (dirty pages were already
  // writable, so widening the unprotect over them only improves coalescing;
  // the reprotect re-establishes the protocol invariant for the whole set).
  restored += RestoreProtectedSet(ctx);
  restore_pages_.clear();
  restore_refs_.clear();

  dirty.Clear();
  cur_map_ = snap.map;
  stats.pages_restored += restored;
}

size_t CowEngine::StructureBytes() const {
  return SnapshotEngine::StructureBytes() + hot_.capacity() + dirty_streak_.capacity() +
         clean_streak_.capacity() +
         (hot_pages_.capacity() + demoted_.capacity()) * sizeof(uint32_t) +
         (hot_refs_.capacity() + dirty_refs_.capacity()) * sizeof(PageRef);
}

}  // namespace lw
