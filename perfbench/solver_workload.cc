// The solver workloads: a search procedure branching many near-identical Extends
// off one shared solved root (the bisection-dedup request shape).
//
//   solver_fleet   4 tenants -> Unix socket -> CheckpointDaemon (4 services).
//                  The traced run replays the identical request stream through
//                  an in-process ServicePool, so the transport's cost is a
//                  subtraction and the layers behind the socket get spans.
//   solver_budget  2 clients -> ServicePool<SolverService> (2 services), a
//                  256-token window under a snapshot byte budget far below
//                  the live set, with the spill tier enabled.
//
// Every client runs a closed loop with one request outstanding: a search
// procedure needs a verdict before it picks its next branch.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/net/client.h"
#include "src/service/daemon.h"
#include "src/service/pool.h"
#include "src/solver/cnf.h"
#include "src/solver/service.h"
#include "src/util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Base problem: 3-coloring of a random 600-node, 1000-edge graph (~5.4k
// clauses, ~70 KB encoded — above the default 64 KiB mailbox).
constexpr int kNodes = 600;
constexpr int kEdges = 1000;
constexpr int kColors = 3;
constexpr size_t kMailboxBytes = 256u << 10;
// Extends per client folded into the per-seed verdict digest and into
// solver.conflicts_per_extend: a fixed prefix, so both repeat exactly for a
// seed however many extends a timed run completes.
constexpr uint64_t kDigestPrefix = 64;

struct Reply {
  lw::LBool result = lw::kUndef;
  uint64_t token = 0;
  uint64_t conflicts = 0;
  std::vector<uint8_t> model_bits;
};

// Where a backend call records its spans and, in-process, the snapshot
// counters of its job.
struct Call {
  SpanLog* log;
  uint64_t id;
  int parent;
  SnapshotTotals* counters;
};

class Backend {
 public:
  virtual ~Backend() = default;
  // Solves `request` from each client's pristine root, all clients at once.
  virtual std::vector<lw::Result<Reply>> SolveRoots(const std::vector<uint8_t>& request) = 0;
  virtual lw::Result<Reply> Extend(int client, uint64_t parent,
                                   const std::vector<uint8_t>& request, const Call& call) = 0;
  virtual lw::Status Release(int client, uint64_t token, const Call& call) = 0;
  virtual lw::PageStore::Stats StoreStats() const = 0;
};

// --- remote: tenants over a Unix socket ------------------------------------

class RemoteBackend final : public Backend {
 public:
  static lw::Result<std::unique_ptr<RemoteBackend>> Start(const std::string& socket_path,
                                                          int clients) {
    lw::CheckpointDaemonOptions options;
    options.num_services = clients;
    options.service.tuning.mailbox_bytes = kMailboxBytes;
    auto daemon = lw::CheckpointDaemon::StartUnix(socket_path, options);
    if (!daemon.ok()) {
      return daemon.status();
    }
    std::unique_ptr<RemoteBackend> backend(new RemoteBackend(std::move(*daemon)));
    for (int i = 0; i < clients; ++i) {
      auto client = lw::RemoteCheckpointClient::ConnectUnix(socket_path);
      if (!client.ok()) {
        return client.status();
      }
      auto session = (*client)->OpenSession();
      if (!session.ok()) {
        return session.status();
      }
      backend->clients_.push_back(std::move(*client));
      backend->sessions_.push_back(*session);
    }
    return backend;
  }

  ~RemoteBackend() override { Stop(); }

  std::vector<lw::Result<Reply>> SolveRoots(const std::vector<uint8_t>& request) override {
    std::vector<lw::Result<uint64_t>> sent;
    for (size_t i = 0; i < clients_.size(); ++i) {
      sent.push_back(clients_[i]->SendSolveRootEncoded(sessions_[i], request.data(),
                                                       request.size()));
    }
    std::vector<lw::Result<Reply>> out;
    for (size_t i = 0; i < clients_.size(); ++i) {
      out.push_back(sent[i].ok() ? ToReply(clients_[i]->WaitOutcome(*sent[i]))
                                 : lw::Result<Reply>(sent[i].status()));
    }
    return out;
  }

  lw::Result<Reply> Extend(int client, uint64_t parent, const std::vector<uint8_t>& request,
                           const Call& call) override {
    auto& tenant = *clients_[static_cast<size_t>(client)];
    const uint32_t session = sessions_[static_cast<size_t>(client)];
    auto id = Timed(*call.log, "net.send", call.id, call.parent, [&] {
      return tenant.SendExtendEncoded(session, parent, request.data(), request.size());
    });
    if (!id.ok()) {
      return id.status();
    }
    return ToReply(Timed(*call.log, "net.wait", call.id, call.parent,
                         [&] { return tenant.WaitOutcome(*id); }));
  }

  lw::Status Release(int client, uint64_t token, const Call& call) override {
    return Timed(*call.log, "net.release", call.id, call.parent, [&] {
      return clients_[static_cast<size_t>(client)]->Release(
          sessions_[static_cast<size_t>(client)], token);
    });
  }

  lw::PageStore::Stats StoreStats() const override { return daemon_->store()->stats(); }

  // Sum of TenantStats.jobs_executed over the tenants.
  lw::Result<uint64_t> TenantJobs() {
    uint64_t jobs = 0;
    for (auto& client : clients_) {
      auto stats = client->TenantStats();
      if (!stats.ok()) {
        return stats.status();
      }
      jobs += stats->jobs_executed;
    }
    return jobs;
  }

  // Disconnects every tenant, then stops the daemon; returns its final stats.
  lw::CheckpointDaemon::Stats Stop() {
    clients_.clear();
    daemon_->Stop();
    return daemon_->stats();
  }

 private:
  explicit RemoteBackend(std::unique_ptr<lw::CheckpointDaemon> daemon)
      : daemon_(std::move(daemon)) {}

  static lw::Result<Reply> ToReply(lw::Result<lw::RemoteOutcome> outcome) {
    if (!outcome.ok()) {
      return outcome.status();
    }
    Reply reply;
    reply.result = outcome->result;
    reply.token = outcome->token;
    reply.conflicts = outcome->conflicts;
    reply.model_bits = std::move(outcome->model_bits);
    return reply;
  }

  std::unique_ptr<lw::CheckpointDaemon> daemon_;
  std::vector<std::unique_ptr<lw::RemoteCheckpointClient>> clients_;
  std::vector<uint32_t> sessions_;
};

// --- in-process: ServicePool<SolverService>, client i on service i ---------

class PoolBackend final : public Backend {
 public:
  // Boots every service from an empty root, as CheckpointDaemon does, so a
  // request stream replayed here meets exactly the solver state it met there.
  static lw::Result<std::unique_ptr<PoolBackend>> Start(int clients,
                                                        std::shared_ptr<lw::PageStore> store,
                                                        uint64_t budget_bytes) {
    lw::ServicePoolOptions<lw::SolverService> options;
    options.num_services = clients;
    options.store = std::move(store);
    options.service.tuning.mailbox_bytes = kMailboxBytes;
    options.service.tuning.snapshot_byte_budget = budget_bytes;
    std::unique_ptr<PoolBackend> backend(new PoolBackend(std::move(options)));
    std::vector<std::future<lw::Result<lw::SolverService::Outcome>>> boots;
    for (int i = 0; i < clients; ++i) {
      boots.push_back(backend->pool_.Submit(
          i, [](lw::SolverService& s) { return s.SolveRoot(lw::Cnf{}); }));
    }
    for (auto& boot : boots) {
      auto outcome = boot.get();
      if (!outcome.ok()) {
        return outcome.status();
      }
      backend->roots_.push_back(std::move(outcome->token));
    }
    backend->tokens_.resize(static_cast<size_t>(clients));
    return backend;
  }

  std::vector<lw::Result<Reply>> SolveRoots(const std::vector<uint8_t>& request) override {
    std::vector<std::future<lw::Result<lw::SolverService::Outcome>>> pending;
    for (size_t i = 0; i < roots_.size(); ++i) {
      const lw::Checkpoint* root = &roots_[i];
      pending.push_back(pool_.Submit(static_cast<int>(i), [root, &request](lw::SolverService& s) {
        return s.ExtendEncoded(*root, request.data(), request.size());
      }));
    }
    std::vector<lw::Result<Reply>> out;
    for (size_t i = 0; i < pending.size(); ++i) {
      out.push_back(Keep(static_cast<int>(i), pending[i].get()));
    }
    return out;
  }

  lw::Result<Reply> Extend(int client, uint64_t parent, const std::vector<uint8_t>& request,
                           const Call& call) override {
    auto& tokens = tokens_[static_cast<size_t>(client)];
    auto it = tokens.find(parent);
    if (it == tokens.end()) {
      return lw::NotFound("unknown parent token");
    }
    // The client blocks on the future, so the parent handle and the request
    // outlive the job.
    const lw::Checkpoint* parent_handle = &it->second;
    const bool traced = call.log->enabled();
    const int64_t submitted = traced ? NowNs() : 0;
    ExtendJob job = pool_.Submit(client, [parent_handle, &request, traced](lw::SolverService& s) {
                           ExtendJob out;
                           if (!traced) {
                             out.outcome = s.ExtendEncoded(*parent_handle, request.data(),
                                                           request.size());
                             return out;
                           }
                           const lw::SessionStats before = s.session_stats();
                           out.start_ns = NowNs();
                           out.outcome = s.ExtendEncoded(*parent_handle, request.data(),
                                                         request.size());
                           out.end_ns = NowNs();
                           out.counters.Add(s.session_stats(), before);
                           return out;
                         }).get();
    if (traced) {
      const int roundtrip = call.log->Add("pool.roundtrip", call.id, call.parent, submitted, NowNs());
      call.log->Add("pool.queue_wait", call.id, roundtrip, submitted, job.start_ns);
      const int extend =
          call.log->Add("service.extend", call.id, roundtrip, job.start_ns, job.end_ns);
      // The session times its restores and snapshots but not where they fall
      // inside the call: these two spans carry measured durations, placed
      // back to back at the start of service.extend.
      const int64_t restored = job.start_ns + static_cast<int64_t>(job.counters.restore_ns);
      call.log->Add("snapshot.restore", call.id, extend, job.start_ns, restored);
      call.log->Add("snapshot.snapshot", call.id, extend, restored,
                    restored + static_cast<int64_t>(job.counters.snapshot_ns));
      call.counters->Merge(job.counters);
    }
    return Keep(client, std::move(job.outcome));
  }

  lw::Status Release(int client, uint64_t token, const Call& call) override {
    auto& tokens = tokens_[static_cast<size_t>(client)];
    auto it = tokens.find(token);
    if (it == tokens.end()) {
      return lw::NotFound("unknown token");
    }
    const bool traced = call.log->enabled();
    const int64_t submitted = traced ? NowNs() : 0;
    ReleaseJob job = pool_.Submit(client, [handle = std::move(it->second),
                                           traced](lw::SolverService& s) mutable {
                           ReleaseJob out;
                           out.start_ns = traced ? NowNs() : 0;
                           out.status = s.Release(handle);
                           out.end_ns = traced ? NowNs() : 0;
                           return out;
                         }).get();
    tokens.erase(it);
    if (traced) {
      const int roundtrip = call.log->Add("pool.roundtrip", call.id, call.parent, submitted, NowNs());
      call.log->Add("pool.queue_wait", call.id, roundtrip, submitted, job.start_ns);
      call.log->Add("service.release", call.id, roundtrip, job.start_ns, job.end_ns);
    }
    return job.status;
  }

  lw::PageStore::Stats StoreStats() const override { return pool_.store()->stats(); }

 private:
  struct ExtendJob {
    lw::Result<lw::SolverService::Outcome> outcome{lw::Status(lw::ErrorCode::kInternal)};
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    SnapshotTotals counters;
  };
  struct ReleaseJob {
    lw::Status status;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit PoolBackend(lw::ServicePoolOptions<lw::SolverService> options)
      : pool_(std::move(options)) {}

  // Files the outcome's handle under a fresh client-local token.
  lw::Result<Reply> Keep(int client, lw::Result<lw::SolverService::Outcome> outcome) {
    if (!outcome.ok()) {
      return outcome.status();
    }
    auto& tokens = tokens_[static_cast<size_t>(client)];
    Reply reply;
    reply.result = outcome->result;
    reply.token = ++next_token_;
    reply.conflicts = outcome->conflicts;
    reply.model_bits = std::move(outcome->model_bits);
    tokens.emplace(reply.token, std::move(outcome->token));
    return reply;
  }

  lw::ServicePool<lw::SolverService> pool_;
  std::vector<lw::Checkpoint> roots_;
  // Per client; only that client's thread touches its map.
  std::vector<std::map<uint64_t, lw::Checkpoint>> tokens_;
  std::atomic<uint64_t> next_token_{0};
};

// --- the request generator and output checks -------------------------------

// The clauses a token's problem adds to the base: its own units plus its
// ancestors'.
struct PathNode {
  std::shared_ptr<const PathNode> parent;
  std::vector<std::vector<lw::Lit>> units;
  uint64_t conflicts = 0;
};

struct LiveToken {
  uint64_t token = 0;
  std::shared_ptr<const PathNode> path;
};

bool SatisfiesPath(const std::vector<uint8_t>& model, const lw::Cnf& base, const PathNode* node) {
  if (!ModelSatisfies(model, base.clauses)) {
    return false;
  }
  for (; node != nullptr; node = node->parent.get()) {
    if (!ModelSatisfies(model, node->units)) {
      return false;
    }
  }
  return true;
}

struct Shape {
  int clients = 0;
  size_t window = 0;  // live tokens a client keeps besides its root
};

struct ClientRun {
  explicit ClientRun(bool trace) : log(trace) {}
  SpanLog log;
  RunResult checks;
  std::vector<double> extend_us;
  uint64_t extends = 0;
  uint64_t sat = 0;
  uint64_t prefix_extends = 0;
  uint64_t prefix_conflicts = 0;
  Digest prefix_digest;
  Digest full_digest;
  SnapshotTotals counters;
  int64_t end_ns = 0;
  std::deque<LiveToken> window;
};

// One client's closed loop. Stops at `deadline_ns` or after `max_extends`.
void DriveClient(Backend& backend, int client, uint64_t seed, const lw::Cnf& base,
                 const Shape& shape, const LiveToken& root, int64_t deadline_ns,
                 uint64_t max_extends, ClientRun* run) {
  lw::Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(client) + 1);
  std::vector<uint8_t> request;
  for (uint64_t step = 0; step < max_extends && NowNs() < deadline_ns; ++step) {
    const uint64_t id = (static_cast<uint64_t>(client) << 40) | step;
    const int step_span = run->log.Add("client.step", id, -1, run->log.enabled() ? NowNs() : 0);

    // The parent is the root with probability 1/4, else uniform over the window.
    const bool from_root = rng.Below(4) == 0 || run->window.empty();
    const LiveToken parent =
        from_root ? root : run->window[static_cast<size_t>(rng.Below(run->window.size()))];
    auto node = std::make_shared<PathNode>();
    node->parent = parent.path;
    const uint64_t units = 1 + rng.Below(3);
    for (uint64_t u = 0; u < units; ++u) {
      const auto v = static_cast<lw::Var>(rng.Below(kNodes));
      const auto c = static_cast<lw::Var>(rng.Below(kColors));
      node->units.push_back({lw::MakeLit(v * kColors + c)});  // "node v has color c"
    }

    const int64_t start = NowNs();
    const int extend_span = run->log.Add("client.extend", id, step_span, start);
    Call call{&run->log, id, extend_span, &run->counters};
    lw::Status encoded = Timed(run->log, "service.encode", id, extend_span, [&] {
      return lw::EncodeSolverRequest(node->units, kMailboxBytes, &request);
    });
    lw::Result<Reply> reply =
        encoded.ok() ? backend.Extend(client, parent.token, request, call) : encoded;
    const int64_t end = NowNs();
    run->log.SetEnd(extend_span, end);
    run->extend_us.push_back(static_cast<double>(end - start) / 1e3);
    ++run->extends;

    const int check_span = run->log.Add("client.check", id, step_span, end);
    bool ok = reply.ok() && (reply->result.IsTrue() || reply->result.IsFalse());
    std::string error = reply.ok() ? "extend returned no verdict" : reply.status().ToString();
    if (ok && reply->result.IsTrue() && !SatisfiesPath(reply->model_bits, base, node.get())) {
      ok = false;
      error = "SAT model violates the base problem or a clause on its path";
    }
    run->checks.Count(ok, "extend: " + error);
    if (!ok) {
      run->log.SetEnd(check_span, NowNs());
      run->log.SetEnd(step_span, NowNs());
      continue;
    }
    const uint64_t conflicts =
        reply->conflicts >= parent.path->conflicts ? reply->conflicts - parent.path->conflicts : 0;
    node->conflicts = reply->conflicts;
    for (Digest* digest : {&run->full_digest, step < kDigestPrefix ? &run->prefix_digest : nullptr}) {
      if (digest != nullptr) {
        digest->Mix(step);
        digest->Mix(reply->result.raw());
        digest->Mix(reply->conflicts);
      }
    }
    if (step < kDigestPrefix) {
      ++run->prefix_extends;
      run->prefix_conflicts += conflicts;
    }
    run->log.SetEnd(check_span, NowNs());

    // SAT children join the window (the oldest leaves once it is full);
    // UNSAT children are pruned at once, as a search procedure would.
    const int release_span = run->log.Add("client.release", id, step_span, NowNs());
    call.parent = release_span;
    uint64_t to_release = reply->token;
    if (reply->result.IsTrue()) {
      ++run->sat;
      run->window.push_back(LiveToken{reply->token, std::move(node)});
      to_release = 0;
      if (run->window.size() > shape.window) {
        to_release = run->window.front().token;
        run->window.pop_front();
      }
    }
    if (to_release != 0) {
      lw::Status released = backend.Release(client, to_release, call);
      run->checks.Count(released.ok(), "release: " + released.ToString());
    }
    run->log.SetEnd(release_span, NowNs());
    run->log.SetEnd(step_span, NowNs());
  }
  run->end_ns = NowNs();
}

struct StoreSample {
  uint64_t peak_live = 0;
  uint64_t peak_resident = 0;
};

// Polls store residency while the clients run (traced runs only).
class StoreSampler {
 public:
  explicit StoreSampler(const Backend& backend)
      : thread_([this, &backend] {
          while (!stop_.load()) {
            Sample(backend);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
          Sample(backend);
        }) {}
  ~StoreSampler() { Finish(); }
  StoreSampler(const StoreSampler&) = delete;
  StoreSampler& operator=(const StoreSampler&) = delete;

  StoreSample Finish() {
    stop_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
    return sample_;
  }

 private:
  void Sample(const Backend& backend) {
    const lw::PageStore::Stats s = backend.StoreStats();
    sample_.peak_live = std::max(sample_.peak_live, s.bytes_live());
    sample_.peak_resident = std::max(sample_.peak_resident, s.bytes_resident());
  }

  std::atomic<bool> stop_{false};
  StoreSample sample_;
  std::thread thread_;
};

// What one measured phase of closed-loop clients produced.
struct Phase {
  std::vector<std::unique_ptr<ClientRun>> runs;
  double wall_s = 0;
  ProcCounters proc;
  lw::PageStore::Stats store_before;
  lw::PageStore::Stats store_after;
  StoreSample store_peak;
};

Phase RunClients(Backend& backend, uint64_t seed, const lw::Cnf& base, const Shape& shape,
                 const std::vector<LiveToken>& roots, double seconds,
                 const std::vector<uint64_t>& max_extends, bool trace) {
  Phase phase;
  for (int i = 0; i < shape.clients; ++i) {
    phase.runs.push_back(std::make_unique<ClientRun>(trace));
  }
  phase.store_before = backend.StoreStats();
  std::unique_ptr<StoreSampler> sampler;
  if (trace) {
    sampler = std::make_unique<StoreSampler>(backend);
  }
  const ProcCounters proc_before = ReadProcCounters();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int i = 0; i < shape.clients; ++i) {
    threads.emplace_back([&, i] {
      DriveClient(backend, i, seed, base, shape, roots[static_cast<size_t>(i)], deadline,
                  max_extends[static_cast<size_t>(i)], phase.runs[static_cast<size_t>(i)].get());
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  int64_t end = start;
  for (const auto& run : phase.runs) {
    end = std::max(end, run->end_ns);
  }
  phase.wall_s = static_cast<double>(end - start) / 1e9;
  phase.proc = ReadProcCounters() - proc_before;
  if (sampler) {
    phase.store_peak = sampler->Finish();
  }
  phase.store_after = backend.StoreStats();
  return phase;
}

// Releases what the clients still hold (outside the measured phase).
void ReleaseLeftovers(Backend& backend, Phase& phase, const std::vector<LiveToken>& roots,
                      RunResult* result) {
  SpanLog off(false);
  SnapshotTotals unused;
  Call call{&off, 0, -1, &unused};
  for (size_t i = 0; i < phase.runs.size(); ++i) {
    std::vector<uint64_t> tokens{roots[i].token};
    for (const LiveToken& live : phase.runs[i]->window) {
      tokens.push_back(live.token);
    }
    phase.runs[i]->window.clear();
    for (uint64_t token : tokens) {
      lw::Status released = backend.Release(static_cast<int>(i), token, call);
      result->Count(released.ok(), "release: " + released.ToString());
    }
  }
}

// Solves the base on every client; checks each root model.
std::vector<LiveToken> SolveRoots(Backend& backend, const lw::Cnf& base,
                                  const std::vector<uint8_t>& request, RunResult* result) {
  std::vector<LiveToken> roots;
  for (auto& reply : backend.SolveRoots(request)) {
    const bool ok = reply.ok() && reply->result.IsTrue() &&
                    ModelSatisfies(reply->model_bits, base.clauses);
    result->Count(ok, reply.ok() ? "root: base problem not solved SAT with a valid model"
                                 : "root: " + reply.status().ToString());
    auto path = std::make_shared<PathNode>();
    path->conflicts = reply.ok() ? reply->conflicts : 0;
    roots.push_back(LiveToken{reply.ok() ? reply->token : 0, std::move(path)});
  }
  return roots;
}

bool MakeDir(const std::string& path) { return mkdir(path.c_str(), 0700) == 0 || errno == EEXIST; }

struct SolverWorkload {
  bool remote;
  Shape shape;
  uint64_t budget_bytes;  // store-wide snapshot byte budget (0 = none)
  // An untraced run is this many rounds, each with a fresh set-up and an
  // equal share of the measured time. A round must be long enough to fill
  // the window and reach the workload's steady state.
  int rounds;
};

// Set-ups timed per untraced round: the round's own, and this many minus one
// more that are torn down at once, so a run has many set-up samples.
constexpr int kSetupsPerRound = 4;

lw::Result<std::unique_ptr<Backend>> StartBackend(const SolverWorkload& w, int clients,
                                                  const std::string& dir) {
  if (!MakeDir(dir)) {
    return lw::IoError("cannot create " + dir);
  }
  if (w.remote) {
    auto backend = RemoteBackend::Start(dir + "/daemon.sock", clients);
    if (!backend.ok()) {
      return backend.status();
    }
    return std::unique_ptr<Backend>(std::move(*backend));
  }
  lw::PageStoreOptions store_options;
  store_options.background_compaction = true;  // as ServicePool's default store
  store_options.spill_dir = dir + "/spill";
  auto backend = PoolBackend::Start(clients, std::make_shared<lw::PageStore>(store_options),
                                    w.budget_bytes);
  if (!backend.ok()) {
    return backend.status();
  }
  return std::unique_ptr<Backend>(std::move(*backend));
}

void Absorb(const RunResult& part, const std::string& prefix, RunResult* result) {
  result->attempted += part.attempted;
  result->failed += part.failed;
  for (const auto& e : part.errors) {
    result->Fail(prefix + e);
  }
}

// Span durations and self times gathered from traced client logs.
struct TraceTotals {
  std::map<std::string, std::vector<double>> durations_us;  // by span name
  std::map<std::string, int64_t> self_ns;                   // by span name
  SnapshotTotals counters;
  std::vector<const SpanLog*> logs;

  // Takes the spans named in `names` (all when empty) from every client.
  void Collect(const Phase& phase, const std::vector<std::string>& names) {
    for (const auto& run : phase.runs) {
      logs.push_back(&run->log);
      std::map<std::string, int64_t> self;
      AddSelfTimes(run->log.spans(), &self);
      for (const auto& [name, ns] : self) {
        if (names.empty() || std::find(names.begin(), names.end(), name) != names.end()) {
          self_ns[name] += ns;
          auto d = SpanDurationsUs(run->log.spans(), name.c_str());
          auto& out = durations_us[name];
          out.insert(out.end(), d.begin(), d.end());
        }
      }
      counters.Merge(run->counters);
    }
  }
  double MedianUs(const char* name) const {
    auto it = durations_us.find(name);
    return it == durations_us.end() ? 0 : Median(it->second);
  }
};

// Per-layer metrics of a traced round. solver_fleet first replays the
// identical request stream in-process: the layers behind the socket get spans
// there, and the transport becomes a subtraction.
void AddTracedMetrics(const SolverWorkload& w, const WorkloadArgs& args, const lw::Cnf& base,
                      const std::vector<uint8_t>& base_request, const Shape& shape,
                      const Phase& phase, uint64_t tenant_jobs, uint64_t dropped,
                      RunResult* result) {
  TraceTotals trace;
  trace.Collect(phase, {});
  uint64_t prefix_extends = 0;
  uint64_t prefix_conflicts = 0;
  std::vector<uint64_t> steps;
  for (const auto& run : phase.runs) {
    prefix_extends += run->prefix_extends;
    prefix_conflicts += run->prefix_conflicts;
    steps.push_back(run->extends);
  }
  Phase replay;
  if (w.remote) {
    RunResult replay_checks;
    auto pool = PoolBackend::Start(shape.clients, nullptr, 0);
    if (!pool.ok()) {
      replay_checks.Count(false, "set-up: " + pool.status().ToString());
    } else {
      std::vector<LiveToken> roots = SolveRoots(**pool, base, base_request, &replay_checks);
      if (replay_checks.correct) {
        replay = RunClients(**pool, args.seed, base, shape, roots, 1e9, steps, true);
        ReleaseLeftovers(**pool, replay, roots, &replay_checks);
        for (size_t i = 0; i < replay.runs.size(); ++i) {
          Absorb(replay.runs[i]->checks, "", &replay_checks);
          replay_checks.Count(
              replay.runs[i]->full_digest.value == phase.runs[i]->full_digest.value,
              "remote and in-process verdicts differ for client " + std::to_string(i));
        }
        trace.Collect(replay, {"pool.roundtrip", "pool.queue_wait", "service.extend",
                               "service.release", "snapshot.restore", "snapshot.snapshot"});
      }
    }
    Absorb(replay_checks, "replay: ", result);
  }
  if (!WriteSpanFile(args.span_file, trace.logs)) {
    result->Fail("cannot write span file " + args.span_file);
  }
  result->notes.push_back({"span_file", args.span_file});

  auto add = [result](const std::string& name, double value, const char* unit) {
    result->per_layer.push_back({name, value, unit});
  };
  add("net.transport_us",
      w.remote ? trace.MedianUs("net.wait") - trace.MedianUs("service.extend") : 0, "us");
  add("net.send_us", trace.MedianUs("net.send"), "us");
  add("service.encode_us", trace.MedianUs("service.encode"), "us");
  add("pool.queue_wait_us", trace.MedianUs("pool.queue_wait"), "us");
  add("service.extend_us", trace.MedianUs("service.extend"), "us");
  add("service.release_us", trace.MedianUs("service.release"), "us");
  add("daemon.jobs_executed", static_cast<double>(tenant_jobs), "count");
  add("daemon.connections_dropped", static_cast<double>(dropped), "count");
  add("solver.conflicts_per_extend",
      prefix_extends > 0 ? static_cast<double>(prefix_conflicts) / prefix_extends : 0, "count");
  AddSnapshotMetrics(trace.counters, result);
  AddStoreMetrics(phase.store_before, phase.store_after, phase.store_peak.peak_live,
                  phase.store_peak.peak_resident, result);
  AddProcMetrics(phase.proc, result);
  AddSelfTimeMetrics(trace.self_ns,
                     static_cast<double>(std::accumulate(steps.begin(), steps.end(), uint64_t{0})),
                     result);
}

RunResult RunSolver(const SolverWorkload& w, const WorkloadArgs& args) {
  RunResult result;
  Shape shape = w.shape;
  shape.clients = std::min(shape.clients, OnlineCpus());  // never more clients than CPUs
  result.notes.push_back({"clients", std::to_string(shape.clients)});

  lw::Rng problem_rng(args.seed);
  const lw::Cnf base = lw::GraphColoring(&problem_rng, kNodes, kEdges, kColors);
  std::vector<uint8_t> base_request;
  lw::Status encoded = lw::EncodeSolverRequest(base.clauses, kMailboxBytes, &base_request);
  if (!encoded.ok() || !MakeDir(args.tmp_dir)) {
    result.Fail("set-up: " + (encoded.ok() ? "cannot create " + args.tmp_dir : encoded.ToString()));
    return result;
  }

  // An untraced run is w.rounds rounds, each with its own set-up (start the
  // daemon or pool, boot the fleet, connect, solve the roots), a measured
  // phase and a teardown. Each end-to-end timing is the kLeastDisturbed
  // quantile over set-ups or rounds; peak RSS is the median round. The tail
  // is a round's p90: its p99 rests on ~10 extends, which one stall of the
  // host can own, so p99 is reported but not an end-to-end metric. A traced
  // run is one round whose phase is kept for the per-layer analysis.
  const int rounds = args.trace ? 1 : w.rounds;
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mib;
  std::vector<double> extend_us;
  // Per round: median, p90 and p99 extend latency, and extends per second.
  std::vector<double> p50_us;
  std::vector<double> p90_us;
  std::vector<double> p99_us;
  std::vector<double> rate;
  double measured_s = 0;
  uint64_t extends = 0;
  uint64_t sat = 0;
  std::optional<Digest> digest;  // prefix verdict digest, identical in every round
  Phase phase;
  uint64_t tenant_jobs = 0;
  uint64_t dropped = 0;
  for (int round = 0; round < rounds && result.correct; ++round) {
    const std::string round_dir = args.tmp_dir + "/" + std::to_string(round);
    ResetPeakRss();
    std::unique_ptr<Backend> backend;
    std::vector<LiveToken> roots;
    for (int setup = args.trace ? kSetupsPerRound - 1 : 0; setup < kSetupsPerRound && result.correct;
         ++setup) {
      backend.reset();  // the previous set-up's teardown is not timed
      const int64_t start = NowNs();
      auto started = StartBackend(w, shape.clients, round_dir + "-" + std::to_string(setup));
      if (!started.ok()) {
        result.Count(false, "set-up: " + started.status().ToString());
        break;
      }
      backend = std::move(*started);
      roots = SolveRoots(*backend, base, base_request, &result);
      setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
      if (w.remote && setup + 1 < kSetupsPerRound) {
        dropped += static_cast<RemoteBackend*>(backend.get())->Stop().connections_dropped;
      }
    }
    if (!result.correct) {
      break;
    }

    const std::vector<uint64_t> unbounded(static_cast<size_t>(shape.clients), UINT64_MAX);
    phase = RunClients(*backend, args.seed, base, shape, roots, args.seconds / rounds, unbounded,
                       args.trace);
    peak_rss_mib.push_back(PeakRssMib());
    ReleaseLeftovers(*backend, phase, roots, &result);

    uint64_t round_extends = 0;
    Digest round_digest;
    bool digest_complete = true;
    const size_t round_first = extend_us.size();
    for (const auto& run : phase.runs) {
      extend_us.insert(extend_us.end(), run->extend_us.begin(), run->extend_us.end());
      round_extends += run->extends;
      sat += run->sat;
      round_digest.Mix(run->prefix_digest.value);
      digest_complete = digest_complete && run->prefix_extends == kDigestPrefix;
      Absorb(run->checks, "", &result);
    }
    const std::vector<double> round_us(extend_us.begin() + static_cast<ptrdiff_t>(round_first),
                                       extend_us.end());
    p50_us.push_back(Percentile(round_us, 0.50));
    p90_us.push_back(Percentile(round_us, 0.90));
    p99_us.push_back(Percentile(round_us, 0.99));
    extends += round_extends;
    measured_s += phase.wall_s;
    rate.push_back(phase.wall_s > 0 ? static_cast<double>(round_extends) / phase.wall_s : 0);
    if (digest_complete) {
      // The request stream is a function of the seed alone, so every round's
      // prefix must reach the same verdicts.
      result.Count(!digest || digest->value == round_digest.value,
                   "round " + std::to_string(round) + " verdict digest " + round_digest.Hex() +
                       " differs from round 0's");
      digest = digest.value_or(round_digest);
    }

    if (w.remote) {
      auto* remote = static_cast<RemoteBackend*>(backend.get());
      auto jobs = remote->TenantJobs();
      result.Count(jobs.ok(), "tenant stats: " + jobs.status().ToString());
      tenant_jobs = jobs.ok() ? *jobs : 0;
      // Tenants disconnect cleanly first; any drop is a fault.
      dropped += remote->Stop().connections_dropped;
    }
  }
  if (dropped != 0) {
    result.Fail("daemon dropped " + std::to_string(dropped) + " connection(s)");
  }

  auto by_round = [](const std::vector<double>& values) {
    std::string text;
    for (double v : values) {
      text += (text.empty() ? "" : " ") + JsonNumber(v);
    }
    return text;
  };
  result.notes.push_back({"extends_per_s_by_round", by_round(rate)});
  result.notes.push_back({"extend_us_by_round", by_round(p50_us)});
  result.notes.push_back({"extend_p90_us_by_round", by_round(p90_us)});
  result.notes.push_back({"extend_p99_us_by_round", by_round(p99_us)});
  result.notes.push_back({"verdict_digest", digest ? digest->Hex() : "incomplete"});
  result.notes.push_back({"verdict_digest_covers", "the first " + std::to_string(kDigestPrefix) +
                                                       " extends of each client"});
  result.end_to_end = {
      {"setup_s", Percentile(setup_s, kLeastDisturbed), "s"},
      {"extend_us", Percentile(p50_us, kLeastDisturbed), "us"},
      {"extend_p90_us", Percentile(p90_us, kLeastDisturbed), "us"},
      {"extends_per_s", Percentile(rate, 1 - kLeastDisturbed), "1/s"},
      {"peak_rss_mib", Median(peak_rss_mib), "MiB"},
  };
  result.report = {
      {"rounds", static_cast<double>(rate.size()), "count"},
      {"setup_samples", static_cast<double>(setup_s.size()), "count"},
      {"setup_p50_s", Median(setup_s), "s"},
      {"extend_samples", static_cast<double>(extend_us.size()), "count"},
      {"extend_p50_pooled_us", Percentile(extend_us, 0.50), "us"},
      {"extend_p90_pooled_us", Percentile(extend_us, 0.90), "us"},
      {"extend_p99_pooled_us", Percentile(extend_us, 0.99), "us"},
      {"extends_per_s_pooled", measured_s > 0 ? static_cast<double>(extends) / measured_s : 0,
       "1/s"},
      {"sat_ratio", extends > 0 ? static_cast<double>(sat) / static_cast<double>(extends) : 0,
       "ratio"},
  };
  if (!args.trace || !result.correct) {
    return result;
  }
  AddTracedMetrics(w, args, base, base_request, shape, phase, tenant_jobs, dropped, &result);
  return result;
}

}  // namespace

RunResult RunSolverFleet(const WorkloadArgs& args) {
  return RunSolver({true, Shape{4, 16}, 0, 10}, args);
}

RunResult RunSolverBudget(const WorkloadArgs& args) {
  return RunSolver({false, Shape{2, 256}, 1ull << 20, 5}, args);
}

}  // namespace perfbench
