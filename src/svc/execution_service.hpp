#pragma once
// Asynchronous, scheduler-integrated job execution service.
//
// This makes the paper's HPC analogy operational: jobs carrying cost hints
// flow into per-backend queues drained by worker pools — like Slurm jobs into
// partitions — instead of one blocking core::submit() call.  Each queue
// orders its jobs by weighted fair share over named lanes (svc/fair_share.hpp);
// in-process callers share one default lane, which is a plain FIFO.
//
//   * submit() / submit_batch() return immediately with JobIds;
//   * admit() + enqueue() split submit() in two, so a front end (the
//     quml_serve daemon) can admit synchronously, persist, then queue on a
//     tenant lane with a settle callback;
//   * handle(id) yields a JobHandle with status() / wait() / wait_for() /
//     result() / cancel();
//   * exec.engine == "auto" routes through sched::choose_backend with
//     queue_wait_us fed live from each backend's actual backlog, so the §2
//     cost-hint loop finally has real feedback (an idle backend wins over a
//     congested one with otherwise identical capabilities);
//   * every worker thread owns a private Backend instance, and each job's
//     randomness derives from its own exec.seed, so results are bit-identical
//     to serial core::submit() regardless of worker count or arrival order;
//   * one thread budget (hardware_threads()) is split between jobs running
//     side by side and the OpenMP team inside each job: before every job or
//     sweep shard its worker sizes its own team to
//     min(OpenMP cap, budget / jobs running, exec.max_parallel_threads), so a
//     job that runs alone still gets every thread.
//
// core::submit() is now a thin synchronous wrapper over the process-wide
// shared() service (submit + wait), so the blocking API remains available
// without a second execution path.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bundle.hpp"
#include "core/result.hpp"
#include "sched/scheduler.hpp"
#include "svc/resilience.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace quml::core {
class Backend;  // core/registry.hpp
}

namespace quml::svc {

/// Monotonically increasing per-service job identifier (first job is 1).
using JobId = std::uint64_t;

enum class JobStatus { Queued, Running, Done, Failed, Cancelled };

/// "QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED".
const char* to_string(JobStatus status);
inline bool is_terminal(JobStatus status) {
  return status == JobStatus::Done || status == JobStatus::Failed ||
         status == JobStatus::Cancelled;
}

/// The thread budget every service splits between its jobs:
/// std::thread::hardware_concurrency() (at least 1), read once per process.
int hardware_threads();

struct ServiceConfig {
  /// Worker threads per backend pool (pools are created lazily per engine).
  /// Half the thread budget by default, so two jobs run side by side and
  /// each gets half the budget as its OpenMP team.
  int default_workers = std::max(1, hardware_threads() / 2);
  /// Per-engine override, keyed by canonical engine name.
  std::map<std::string, int> workers_per_engine;
  /// Scoring weights for "auto" routing (sched::choose_backend).
  sched::ScoreWeights weights;
  /// Per-backend circuit-breaker tuning (svc/resilience.hpp).  Breaker state
  /// feeds capability_snapshot().health, steering "auto" routing around sick
  /// backends; inside a job it only gates *retry* attempts — the first
  /// attempt of every job is always admitted.
  BreakerConfig breaker;

  int workers_for(const std::string& engine) const {
    const auto it = workers_per_engine.find(engine);
    const int n = it != workers_per_engine.end() ? it->second : default_workers;
    return n > 0 ? n : 1;
  }
};

/// Fair-share lane of a backend queue (svc/fair_share.hpp).  The default
/// lane "" serves every in-process caller in FIFO order.
struct Lane {
  std::string name;
  double weight = 1.0;
};

/// Invoked on the worker thread, with no service lock held, once the job is
/// terminal — including a job cancelled while queued, when the worker pops
/// it.  Must not throw: an exception would escape the worker thread.
using SettleCallback = std::function<void()>;

namespace detail {
struct JobRecord;
struct SweepState;
/// True on an ExecutionService worker thread.  core::submit() checks this
/// and runs inline there: a Backend whose run() submits sub-jobs must not
/// enqueue onto the very pool its own worker is blocking (self-deadlock).
bool on_worker_thread();
}

/// Client-side view of one submitted job.  Copyable; all methods are
/// thread-safe and throw BackendError on a default-constructed handle.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return static_cast<bool>(rec_); }
  JobId id() const;
  JobStatus status() const;
  /// Canonical engine the job was routed to (resolved even for "auto").
  std::string engine() const;
  /// Full routing record when the job was submitted with engine "auto".
  std::optional<sched::Decision> decision() const;

  /// Blocks until the job reaches a terminal state.
  void wait() const;
  /// Like wait(), but gives up after `timeout`; false means still pending.
  bool wait_for(std::chrono::milliseconds timeout) const;
  /// Waits, then returns the result.  Rethrows the job's failure with its
  /// original type; throws BackendError if the job was cancelled.
  core::ExecutionResult result() const;
  /// The failure message for a FAILED job, empty otherwise (non-blocking).
  std::string error() const;
  /// Taxonomy classification of the failure (svc/resilience.hpp):
  /// Cancelled for a cancelled job, None while in flight or after success,
  /// otherwise Transient/Permanent/Deadline per classify_failure().
  ErrorKind error_kind() const;
  /// Attempts executed so far (terminal jobs only carry the final log;
  /// 0 while queued/running).  A fail-first-N job that succeeds shows N+1.
  std::size_t attempts() const;
  /// Per-attempt audit trail: engine, error message, classification.
  std::vector<Attempt> attempt_log() const;
  /// Canonical engine the job failed over to after exhausting retries on its
  /// primary engine; empty when no failover happened.  Failover is attempted
  /// only for jobs that opted into retries (exec.options.max_retries > 0).
  std::string failover_engine() const;
  /// QUEUED -> CANCELLED.  False once the job is running or terminal: a
  /// running backend is not preempted (HPC semantics — scancel on a running
  /// step waits for the step).
  bool cancel() const;

 private:
  friend class ExecutionService;
  explicit JobHandle(std::shared_ptr<detail::JobRecord> rec) : rec_(std::move(rec)) {}

  std::shared_ptr<detail::JobRecord> rec_;
};

/// Client-side view of one parameter sweep: per-binding statuses and
/// results.  Copyable; all methods are thread-safe and throw BackendError on
/// a default-constructed handle.  Binding i always runs with the seed
/// core::sweep_seed(exec.seed, i), so results are independent of how the
/// bindings were sharded across workers.
class SweepHandle {
 public:
  SweepHandle() = default;

  bool valid() const { return static_cast<bool>(state_); }
  /// Number of bindings submitted.
  std::size_t size() const;
  /// Canonical engine the sweep was routed to (resolved even for "auto").
  std::string engine() const;
  /// Full routing record when submitted with engine "auto".
  std::optional<sched::Decision> decision() const;
  /// True when the engine provided a bind-once/run-many realization; false
  /// means the per-binding bind_bundle() + run() fallback executed.
  bool plan_cached() const;

  JobStatus status(std::size_t index) const;
  /// Bindings in a terminal state (DONE + FAILED + CANCELLED).
  std::size_t completed() const;
  /// Blocks until every binding is terminal.
  void wait() const;
  bool wait_for(std::chrono::milliseconds timeout) const;
  /// Waits for binding `index`, then returns its result; rethrows its
  /// failure with the original type, throws BackendError if cancelled.
  core::ExecutionResult result(std::size_t index) const;
  /// Failure message of a FAILED binding, empty otherwise (non-blocking).
  std::string error(std::size_t index) const;
  /// Taxonomy classification of binding `index`'s failure, mirroring
  /// JobHandle::error_kind().  Bindings retry under the sweep's RetryPolicy
  /// but never fail over (the sweep was routed as one unit).
  ErrorKind error_kind(std::size_t index) const;
  /// Cancels every binding no worker has claimed yet; running bindings
  /// complete (HPC semantics).  Returns how many were cancelled.
  std::size_t cancel() const;

 private:
  friend class ExecutionService;
  explicit SweepHandle(std::shared_ptr<detail::SweepState> state) : state_(std::move(state)) {}

  std::shared_ptr<detail::SweepState> state_;
};

class ExecutionService {
 public:
  explicit ExecutionService(ServiceConfig config = {});
  ~ExecutionService();  // drains every queue, then joins the workers
  ExecutionService(const ExecutionService&) = delete;
  ExecutionService& operator=(const ExecutionService&) = delete;

  /// admit() + enqueue() on the default lane, returning immediately.
  JobId submit(core::JobBundle bundle) QUML_EXCLUDES(mutex_);

  /// Admission without queueing: resolves the engine (incl. "auto"), checks
  /// the register width against the engine's capacity, and runs the
  /// error-severity semantic analysis (analysis/passes.hpp).  Throws
  /// synchronously — BackendError for an unknown/absent engine or when
  /// "auto" finds no feasible backend, ValidationError/DiagnosticError for a
  /// defective bundle.  The returned handle reads QUEUED with id() 0 until
  /// enqueue() publishes it.
  JobHandle admit(core::JobBundle bundle) QUML_EXCLUDES(mutex_);

  /// Queues an admitted job on `lane` of its engine's queue; `on_settle`
  /// (optional) fires once the job is terminal.  Each admitted handle is
  /// enqueued at most once.  Throws BackendError after shutdown().
  JobId enqueue(const JobHandle& admitted, const Lane& lane = {},
                SettleCallback on_settle = {}) QUML_EXCLUDES(mutex_);

  /// Routes and enqueues a batch.  Unlike submit(), a bundle whose routing
  /// fails still yields a JobId: its job is born FAILED with the error
  /// attached, so one bad job cannot void the rest of the batch.  Jobs are
  /// routed in order, each seeing the backlog of its predecessors.
  std::vector<JobId> submit_batch(std::vector<core::JobBundle> bundles) QUML_EXCLUDES(mutex_);

  /// Bind-once/run-many: routes the parameterized bundle once, asks the
  /// backend to prepare a shared sweep realization (lower + transpile +
  /// fusion-plan a single time), and shards `bindings` across the engine's
  /// existing worker pool.  Each binding row holds one value per declared
  /// bundle parameter, in declaration order.  Engines without a realization
  /// fall back to core::bind_bundle() + run() per binding — same results,
  /// no plan reuse.  Routing and plan preparation run synchronously on the
  /// caller (fail-early, like submit()'s routing — for a wide register the
  /// plan's cached prefix state makes this noticeable); execution of the
  /// bindings is asynchronous.  Throws BackendError for routing errors,
  /// binding-shape mismatches, or an empty binding list.
  SweepHandle submit_sweep(core::JobBundle bundle, std::vector<std::vector<double>> bindings)
      QUML_EXCLUDES(mutex_);

  /// Handle for a submitted job; invalid handle if the id is unknown.
  JobHandle handle(JobId id) const QUML_EXCLUDES(mutex_);

  /// Drops the service's own reference to a job's record so long-lived
  /// services don't accumulate terminal jobs (handle(id) becomes invalid;
  /// already-obtained JobHandles keep working, including wait()/result() on
  /// a job still in flight).  Callers that poll by id should forget() each
  /// job once they have consumed its result.
  void forget(JobId id) QUML_EXCLUDES(mutex_);

  /// Estimated microseconds of queued + running work on `engine`'s pool
  /// (accepts aliases).  This is the live queue_wait_us feed for routing.
  double backlog_us(const std::string& engine) const QUML_EXCLUDES(mutex_);
  /// Jobs currently waiting in `engine`'s queue (accepts aliases).
  std::size_t queue_depth(const std::string& engine) const QUML_EXCLUDES(mutex_);
  /// Jobs currently waiting on `lane` across every engine's queue.
  std::size_t lane_depth(const std::string& lane) const QUML_EXCLUDES(mutex_);
  /// Registry capabilities with queue_wait_us = live backlog per backend and
  /// `health` = the engine's circuit-breaker state, so "auto" routing steers
  /// around backends whose breaker is open.
  std::vector<sched::BackendCapability> capability_snapshot() const QUML_EXCLUDES(mutex_);
  /// Circuit-breaker state of `engine`'s pool (accepts aliases; Closed for
  /// engines that have never run anything).
  CircuitBreaker::State breaker_state(const std::string& engine) const;
  /// Jobs and sweep shards running on this service's workers right now.
  int running_jobs() const { return running_.load(std::memory_order_relaxed); }

  /// Blocks until every submitted job is terminal.
  void wait_all() QUML_EXCLUDES(mutex_);
  /// Drains queues, joins workers, and rejects further submissions.
  /// Idempotent; called by the destructor.
  void shutdown() QUML_EXCLUDES(mutex_);

  /// Process-wide default instance (workers spawn on first use); the
  /// synchronous core::submit() wrapper runs through it.
  static ExecutionService& shared();

 private:
  struct BackendQueue;

  /// admit()'s body, building the routed record.  `sweep_bindings` switches
  /// the parameter pass from require-bound mode (direct submit) to
  /// binding-row checks.
  std::shared_ptr<detail::JobRecord> route(
      core::JobBundle bundle,
      const std::vector<std::vector<double>>* sweep_bindings = nullptr) QUML_EXCLUDES(mutex_);
  /// Assigns the id and, unless the record was born FAILED, pushes it onto
  /// `lane` of its engine's queue.
  JobId enqueue_record(const std::shared_ptr<detail::JobRecord>& rec, const Lane& lane,
                       SettleCallback on_settle) QUML_EXCLUDES(mutex_);
  /// Runs one routed job under its RetryPolicy (svc/resilience.hpp): retries
  /// transient failures with seeded backoff, enforces the deadline, feeds the
  /// engine's circuit breaker, and — when retries are exhausted on a
  /// transient failure and the job opted in (max_retries > 0) — fails over
  /// once via failover_once().  Never throws; failures travel in the outcome.
  RetryOutcome run_resilient(const std::shared_ptr<detail::JobRecord>& rec,
                             core::Backend& backend, std::string& failover_engine)
      QUML_EXCLUDES(mutex_);
  /// One-shot cross-engine failover: picks the best feasible non-chaos,
  /// non-open alternate from capability_snapshot() (statevector <-> MPS where
  /// width/bond admit), creates it inline on the calling worker, and reruns
  /// the job under the same policy and deadline.  Returns the alternate's
  /// canonical name ("" when no alternate fits) and extends `outcome` with
  /// the failover attempts.
  std::string failover_once(const std::shared_ptr<detail::JobRecord>& rec,
                            RetryOutcome& outcome) QUML_EXCLUDES(mutex_);
  /// Fires the job's settle callback, then releases its backlog share.
  void finish(const std::shared_ptr<detail::JobRecord>& rec, BackendQueue& queue)
      QUML_EXCLUDES(mutex_);
  void worker_loop(BackendQueue* queue) QUML_EXCLUDES(mutex_);
  /// Creates the engine's pool lazily.  Lock order across the service is
  /// strictly service mutex_ -> queue mutex -> record/sweep mutex; no path
  /// nests them any other way, and no lock is held across Backend::run.
  BackendQueue* queue_for(const std::string& canonical_engine) QUML_REQUIRES(mutex_);

  ServiceConfig config_;
  /// Jobs running across every pool; each worker reads it to size the
  /// OpenMP team of the job it is about to run.
  std::atomic<int> running_{0};
  /// Per-engine circuit breakers (internally synchronized; leaf locks, never
  /// held while taking mutex_ or a queue/record mutex).
  mutable BreakerBoard breakers_;
  /// Raised by shutdown() before the workers join: retry backoffs cut short
  /// and cooperative backends (FaultInjector hang/latency modes) unblock, so
  /// draining never waits on a retry schedule or a deliberate hang.
  std::atomic<bool> stop_flag_{false};
  mutable Mutex mutex_;  // queues_ map, records_, counters
  CondVar idle_cv_;      // signalled when outstanding_ hits 0
  std::map<std::string, std::unique_ptr<BackendQueue>> queues_ QUML_GUARDED_BY(mutex_);
  std::map<JobId, std::shared_ptr<detail::JobRecord>> records_ QUML_GUARDED_BY(mutex_);
  JobId next_id_ QUML_GUARDED_BY(mutex_) = 1;
  std::size_t outstanding_ QUML_GUARDED_BY(mutex_) = 0;
  bool stopping_ QUML_GUARDED_BY(mutex_) = false;
};

}  // namespace quml::svc
