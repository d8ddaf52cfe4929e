// CowEngine: the paper's snapshot design — page-granular copy-on-write driven
// by mprotect/SIGSEGV (the host MMU standing in for Dune's nested page tables),
// plus hot-page prediction.
//
// Protocol invariant between engine operations: every non-guard page is
// read-protected unless it is in the arena's dirty set or predicted hot. A
// guest write to a protected page faults; the handler marks it dirty and grants
// write access. Materialize publishes exactly the dirty set (plus changed hot
// pages) and re-protects; Restore copies exactly the pages where live memory
// diverges from the target map (dirty set + hot pages + map diff).
//
// Hot-page prediction: a page dirtied in enough snapshots is left permanently
// writable; snapshots memcmp it and restores compare-and-copy it eagerly,
// skipping the SIGSEGV + 2×mprotect round trip that dominates fine-grained
// workloads. A long unchanged streak demotes the page back into the protocol.
// The set is uncapped by default (SessionOptions::hot_page_limit): promotion
// and demotion alone bound it to the session's steady write set, so a
// steady-state extension takes no faults and no mprotect calls — in a fleet
// those take the process-wide mmap lock every sibling session contends on.

#ifndef LWSNAP_SRC_SNAPSHOT_COW_ENGINE_H_
#define LWSNAP_SRC_SNAPSHOT_COW_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/snapshot/engine.h"

namespace lw {

class CowEngine : public SnapshotEngine {
 public:
  explicit CowEngine(const Env& env);

  SnapshotMode mode() const override { return SnapshotMode::kCow; }
  using SnapshotEngine::Materialize;
  void Materialize(Snapshot& snap, const MaterializeContext& ctx) override;
  using SnapshotEngine::Restore;
  void Restore(const Snapshot& snap, const RestoreContext& ctx) override;
  size_t StructureBytes() const override;
  bool NeedsSignalProtocol() const override { return true; }

  size_t hot_page_count() const { return hot_pages_.size(); }

 private:
  // Prediction state (see SessionOptions::hot_page_limit).
  std::vector<uint8_t> hot_;           // page -> currently hot
  std::vector<uint8_t> dirty_streak_;  // page -> saturating dirty-snapshot count
  std::vector<uint8_t> clean_streak_;  // hot page -> consecutive unchanged snapshots
  std::vector<uint32_t> hot_pages_;    // dense list of hot pages
  std::vector<uint32_t> demoted_;      // scratch: pages demoted by this materialize

  // Slot-indexed publish results, filled (possibly by the worker team) before
  // the serial map/prediction update; cleared after every materialize.
  std::vector<PageRef> hot_refs_;    // hot slot -> new blob, invalid = unchanged
  std::vector<PageRef> dirty_refs_;  // dirty slot -> new blob
};

}  // namespace lw

#endif  // LWSNAP_SRC_SNAPSHOT_COW_ENGINE_H_
