#pragma once
// The quml_serve job daemon: multi-tenant admission, persistence, and
// fair-share execution over svc::ExecutionService.
//
// Lifecycle of one job:
//
//   submit(tenant, bundle)
//     -> ExecutionService::admit (routing, capacity check, error-severity QA
//        passes; defects are REJECTED with the QA-coded DiagnosticError
//        rendering, nothing persisted)
//     -> backpressure (tenant lane at its bound -> SHED, nothing persisted)
//     -> ticket minted, enqueue record appended to the JobStore
//     -> ExecutionService::enqueue on the tenant's lane of the engine's queue
//   a service worker pops it in fair-share order and runs it (retries,
//   breakers and failover all apply — the daemon inherits the whole
//   resilience layer), then fires the daemon's settle hook on that thread
//     -> settle record appended, settle callback fired
//
// A job crosses one queue and one thread pool: the service's.  The daemon
// owns no threads; it keeps only the tenant and the service handle per
// ticket, and reads status and results through the handle.
//
// Crash recovery: the constructor re-admits the store's pending set with the
// original tickets and bundles.  exec.seed rides in the bundle, so a
// replayed job reproduces its counts bit-identically.
//
// Lock order: daemon mutex_ -> service locks / store (no lock).  Settle
// hooks run on service workers with no service lock held, take mutex_, and
// invoke the settle callback with no daemon lock held, so a server can take
// its own locks freely.

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/bundle.hpp"
#include "core/result.hpp"
#include "serve/store.hpp"
#include "svc/execution_service.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace quml::serve {

/// Per-tenant scheduling weight and admission bound.
struct TenantPolicy {
  double weight = 1.0;
  /// Maximum tickets queued (not yet running) per tenant, summed over the
  /// tenant's lanes in every engine's queue; the next submit past the bound
  /// is SHED.
  std::size_t max_queued = 64;
};

struct DaemonConfig {
  /// Journal path (required).
  std::string store_path;
  /// Per-tenant overrides; unknown tenants get `default_policy`.
  std::map<std::string, TenantPolicy> tenants;
  TenantPolicy default_policy;
  /// Construct paused: admitted jobs are journaled but held in the daemon
  /// until resume() enqueues them.  Lets tests populate the backlog, destroy
  /// the daemon undrained, and assert the store replays on the next boot.
  bool start_paused = false;
  /// Compact the journal once this many settle records accumulate.
  std::size_t compact_after_settles = 256;
  /// Settled jobs kept queryable in memory (status/result).  Past the bound
  /// the oldest settled records are evicted — their tickets then read as
  /// unknown — so a long-running daemon's memory tracks its backlog, not its
  /// lifetime job count.  The settle callback always sees the full snapshot
  /// before eviction.
  std::size_t settled_retention = 4096;
  /// One worker per engine unless set: the daemon's single poll thread, not
  /// the workers, bounds its throughput, and the one worker's job still gets
  /// the whole thread budget as its OpenMP team.
  svc::ServiceConfig service = [] {
    svc::ServiceConfig config;
    config.default_workers = 1;
    return config;
  }();
};

enum class SubmitOutcome { Accepted, Rejected, Shed };
const char* to_string(SubmitOutcome outcome) noexcept;

struct SubmitReply {
  SubmitOutcome outcome = SubmitOutcome::Rejected;
  std::uint64_t ticket = 0;  ///< valid when Accepted
  std::string detail;        ///< rejection diagnostics / shed reason
};

/// Snapshot of one job, tenant-scoped.  `known` is false for tickets the
/// tenant does not own — other tenants' jobs are indistinguishable from
/// nonexistent ones.
struct JobInfo {
  bool known = false;
  std::uint64_t ticket = 0;
  std::string tenant;
  std::string status;  ///< "QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED"
  std::string engine;  ///< engine resolved at admission ("" if admission failed)
  std::string error;   ///< failure rendering for FAILED
  std::size_t attempts = 0;
  std::optional<core::ExecutionResult> result;  ///< DONE only
};

class JobDaemon {
 public:
  explicit JobDaemon(DaemonConfig config);
  ~JobDaemon();
  JobDaemon(const JobDaemon&) = delete;
  JobDaemon& operator=(const JobDaemon&) = delete;

  /// Admits, persists, and enqueues one bundle.  Never throws for program
  /// defects — they come back as Rejected with the QA-coded rendering.
  SubmitReply submit(const std::string& tenant, core::JobBundle bundle) QUML_EXCLUDES(mutex_);

  /// Tenant-scoped job snapshot (see JobInfo::known).
  JobInfo info(const std::string& tenant, std::uint64_t ticket) const QUML_EXCLUDES(mutex_);
  /// info() without the result: the view status replies and ownership
  /// checks need, which never copies a settled job's counts or metadata.
  JobInfo status(const std::string& tenant, std::uint64_t ticket) const QUML_EXCLUDES(mutex_);

  /// Blocks until the job settles (or `timeout` passes -> false).  Unknown
  /// or foreign tickets return true immediately (their info() stays unknown).
  bool wait_for(const std::string& tenant, std::uint64_t ticket,
                std::chrono::milliseconds timeout) const QUML_EXCLUDES(mutex_);

  /// Enqueues the jobs held by DaemonConfig::start_paused (idempotent).
  void resume() QUML_EXCLUDES(mutex_);

  /// Stops admitting: every later submit is SHED while queued/running work
  /// proceeds normally.  Call before drain() so a graceful shutdown only
  /// waits on the backlog present at signal time, not on sustained new load.
  void quiesce() QUML_EXCLUDES(mutex_);

  /// Blocks until every accepted job has settled.  Call quiesce() first and
  /// stop() after for a graceful (SIGTERM) shutdown; without quiesce(), new
  /// submissions keep being accepted and can extend the drain.
  void drain() QUML_EXCLUDES(mutex_);

  /// Stops accepting, abandons whatever is still queued (cancelled, with no
  /// settle record, so it replays on the next boot), and waits for running
  /// jobs to settle.  Idempotent; the destructor calls it.
  void stop() QUML_EXCLUDES(mutex_);

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t settled = 0;
    std::uint64_t replayed = 0;  ///< jobs recovered from the store at boot
    std::size_t queued = 0;      ///< accepted, not yet claimed by a worker
    std::size_t in_flight = 0;   ///< claimed, not yet settled
  };
  Stats stats() const QUML_EXCLUDES(mutex_);

  /// Fired on the settling service worker's thread, with only the callback
  /// mutex held, for every job that settles (not for the queued jobs stop()
  /// abandons to the journal).  Invocation is serialized against
  /// set_settle_callback: once set_settle_callback({}) returns, no callback
  /// is running or will run again — the unhooking handshake a Server needs
  /// before it may close its wake pipe.  `info` is the result-free view
  /// (as status() returns it); `job` is the settled service job (invalid for
  /// a replayed job that failed re-admission), so a callback copies the
  /// result only when it needs it.
  using SettleCallback = std::function<void(const JobInfo& info, const svc::JobHandle& job)>;
  void set_settle_callback(SettleCallback callback) QUML_EXCLUDES(callback_mutex_);

 private:
  struct Record {
    std::string tenant;
    /// The service job, from admission on; the single source of status,
    /// engine, attempts and result.  Invalid only for a replayed job that
    /// failed re-admission, which settled FAILED with `admission_error`.
    svc::JobHandle job;
    std::string admission_error;
  };

  const TenantPolicy& policy_for_(const std::string& tenant) const;
  /// Queues an admitted record on its tenant's lane, with the settle hook.
  void enqueue_locked_(std::uint64_t ticket, const Record& record) QUML_REQUIRES(mutex_);
  /// Service settle hook: journals the settle and fires the settle callback.
  void job_settled_(std::uint64_t ticket) QUML_EXCLUDES(mutex_, callback_mutex_);
  /// Marks a record settled: settle record, counters, retention eviction
  /// (which may erase `record` — use the returned result-free snapshot).
  JobInfo settle_locked_(std::uint64_t ticket, const Record& record) QUML_REQUIRES(mutex_);
  JobInfo info_locked_(std::uint64_t ticket, const Record& record, bool with_result) const
      QUML_REQUIRES(mutex_);

  DaemonConfig config_;

  mutable Mutex mutex_;
  mutable CondVar settled_cv_;  // any job settled
  JobStore store_ QUML_GUARDED_BY(mutex_);
  std::map<std::uint64_t, Record> records_ QUML_GUARDED_BY(mutex_);
  /// Accepted (or replayed) and not yet settled: drain()'s condition, and
  /// the jobs stop() abandons.
  std::set<std::uint64_t> unsettled_ QUML_GUARDED_BY(mutex_);
  /// Admitted while paused, in admission order; resume() enqueues them.
  std::vector<std::uint64_t> held_ QUML_GUARDED_BY(mutex_);
  /// Settle order, for retention eviction (oldest settled record first).
  std::deque<std::uint64_t> settled_order_ QUML_GUARDED_BY(mutex_);
  std::uint64_t next_ticket_ QUML_GUARDED_BY(mutex_) = 1;
  Stats counters_ QUML_GUARDED_BY(mutex_);  // queued/in_flight derived in stats()
  bool paused_ QUML_GUARDED_BY(mutex_) = false;
  bool quiescing_ QUML_GUARDED_BY(mutex_) = false;
  bool stopping_ QUML_GUARDED_BY(mutex_) = false;
  /// Never nested with mutex_ (job_settled_ releases mutex_ before taking it).
  mutable Mutex callback_mutex_;
  SettleCallback on_settle_ QUML_GUARDED_BY(callback_mutex_);

  /// Declared last, so it is destroyed first: its workers run settle hooks
  /// into every member above, and are joined while those are still alive.
  svc::ExecutionService svc_;
};

}  // namespace quml::serve
