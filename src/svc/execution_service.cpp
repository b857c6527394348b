#include "svc/execution_service.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>
#include <utility>

#include "analysis/passes.hpp"
#include "core/params.hpp"
#include "core/registry.hpp"
#include "svc/fair_share.hpp"
#include "util/errors.hpp"
#include "util/parallel.hpp"

namespace quml::svc {

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::Queued: return "QUEUED";
    case JobStatus::Running: return "RUNNING";
    case JobStatus::Done: return "DONE";
    case JobStatus::Failed: return "FAILED";
    case JobStatus::Cancelled: return "CANCELLED";
  }
  return "UNKNOWN";
}

namespace detail {

/// Shared job state.  Lock order across the service is strictly
/// service mutex -> queue mutex -> record mutex; no path takes them in any
/// other order, and no lock is held across a Backend::run call.
///
/// The fields above `mutex` are published-immutable: written by the
/// submitting thread before the record reaches the queue (enqueue_record()'s
/// critical section is the publication barrier) and never after, except
/// `bundle`, which the one worker that popped the record also releases once
/// the run is over — single-owner hand-off through the queue, so it needs no
/// lock.  It lives behind a pointer so that a settled record a handle keeps
/// alive costs its result, not an empty ~1 KiB bundle.
struct JobRecord {
  JobId id = 0;
  std::unique_ptr<core::JobBundle> bundle;
  std::string engine;  // canonical name = queue key
  std::optional<sched::Decision> decision;
  sched::JobEstimate estimate;
  double backlog_contribution_us = 0.0;
  /// Per-job retry/backoff/deadline knobs (exec.options), resolved at route
  /// time; the deadline is measured from `submitted`, so queue wait counts
  /// against the budget.
  RetryPolicy policy;
  std::uint64_t jitter_seed = 0;  // exec.seed: deterministic backoff jitter
  std::optional<int> max_parallel_threads;  // exec.max_parallel_threads: team cap
  std::chrono::steady_clock::time_point submitted{};
  /// Internal worker task (sweep shards): when set, the worker runs it with
  /// its private Backend instance instead of backend->run(bundle).  The
  /// instance is nullptr when the worker could not create its backend; the
  /// task must cope rather than assume a live engine.
  std::function<void(core::Backend*)> task;
  SettleCallback on_settle;  // set by enqueue_record

  mutable Mutex mutex;
  mutable CondVar cv;
  JobStatus status QUML_GUARDED_BY(mutex) = JobStatus::Queued;
  core::ExecutionResult result QUML_GUARDED_BY(mutex);
  std::exception_ptr failure QUML_GUARDED_BY(mutex);
  std::vector<Attempt> attempts QUML_GUARDED_BY(mutex);  // final audit trail
  std::string failover_engine QUML_GUARDED_BY(mutex);    // "" = none
};

/// The immutable inputs of one sweep: published before the first shard is
/// enqueued, read-only ever after.  Shards snapshot a shared_ptr to it under
/// the sweep mutex, so the last shard out can drop the SweepState's reference
/// (releasing the bundle/bindings/realization payload once every shard-local
/// snapshot dies) without racing a claim in flight.
struct SweepInputs {
  core::JobBundle bundle;  // template (engine resolved; used by the fallback)
  std::vector<std::vector<double>> bindings;
  std::shared_ptr<core::SweepRealization> realization;  // nullptr = fallback
  std::uint64_t base_seed = 0;
  /// Sweep-wide retry policy; bindings retry individually (no failover), and
  /// the deadline is shared — measured from the sweep's submission.
  RetryPolicy policy;
  std::chrono::steady_clock::time_point submitted{};
};

/// Shared state of one parameter sweep: the prepared inputs and per-binding
/// slots.  Workers claim bindings from `next` under the mutex, so sharding is
/// dynamic and load-balanced; per-binding seeds depend only on the index.
struct SweepState {
  // Published-immutable (set before the handle or any shard exists).
  std::string engine;  // canonical
  std::optional<sched::Decision> decision;
  bool plan_cached = false;  // snapshot of (realization != nullptr) at submit

  mutable Mutex mutex;
  mutable CondVar cv;
  std::shared_ptr<const SweepInputs> inputs QUML_GUARDED_BY(mutex);  // last shard out drops it
  std::vector<JobStatus> status QUML_GUARDED_BY(mutex);
  std::vector<core::ExecutionResult> results QUML_GUARDED_BY(mutex);
  std::vector<std::exception_ptr> failures QUML_GUARDED_BY(mutex);
  std::size_t next QUML_GUARDED_BY(mutex) = 0;      // next unclaimed binding
  std::size_t terminal QUML_GUARDED_BY(mutex) = 0;  // DONE + FAILED + CANCELLED
  std::size_t shards_live QUML_GUARDED_BY(mutex) = 0;  // runner tasks not yet exited
  std::exception_ptr session_failure QUML_GUARDED_BY(mutex);  // first open_session() failure
  bool cancelled QUML_GUARDED_BY(mutex) = false;
};

thread_local bool t_on_worker_thread = false;

bool on_worker_thread() { return t_on_worker_thread; }

}  // namespace detail

using detail::JobRecord;

namespace {

JobStatus status_of(const JobRecord& rec) {
  MutexLock lock(rec.mutex);
  return rec.status;
}

const JobRecord& require(const std::shared_ptr<JobRecord>& rec) {
  if (!rec) throw BackendError("operation on an invalid (default-constructed) JobHandle");
  return *rec;
}

}  // namespace

// --- JobHandle --------------------------------------------------------------

JobId JobHandle::id() const { return require(rec_).id; }

JobStatus JobHandle::status() const { return status_of(require(rec_)); }

std::string JobHandle::engine() const { return require(rec_).engine; }

std::optional<sched::Decision> JobHandle::decision() const { return require(rec_).decision; }

void JobHandle::wait() const {
  const JobRecord& rec = require(rec_);
  MutexLock lock(rec.mutex);
  while (!is_terminal(rec.status)) rec.cv.wait(rec.mutex);
}

bool JobHandle::wait_for(std::chrono::milliseconds timeout) const {
  const JobRecord& rec = require(rec_);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(rec.mutex);
  while (!is_terminal(rec.status))
    if (rec.cv.wait_until(rec.mutex, deadline) == std::cv_status::timeout)
      return is_terminal(rec.status);
  return true;
}

core::ExecutionResult JobHandle::result() const {
  const JobRecord& rec = require(rec_);
  MutexLock lock(rec.mutex);
  while (!is_terminal(rec.status)) rec.cv.wait(rec.mutex);
  if (rec.failure) std::rethrow_exception(rec.failure);
  if (rec.status == JobStatus::Cancelled)
    throw BackendError("job " + std::to_string(rec.id) + " was cancelled");
  return rec.result;
}

std::string JobHandle::error() const {
  const JobRecord& rec = require(rec_);
  MutexLock lock(rec.mutex);
  if (!rec.failure) return "";
  try {
    std::rethrow_exception(rec.failure);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown failure";
  }
}

ErrorKind JobHandle::error_kind() const {
  const JobRecord& rec = require(rec_);
  MutexLock lock(rec.mutex);
  if (rec.status == JobStatus::Cancelled) return ErrorKind::Cancelled;
  return classify_failure(rec.failure);
}

std::size_t JobHandle::attempts() const {
  const JobRecord& rec = require(rec_);
  MutexLock lock(rec.mutex);
  return rec.attempts.size();
}

std::vector<Attempt> JobHandle::attempt_log() const {
  const JobRecord& rec = require(rec_);
  MutexLock lock(rec.mutex);
  return rec.attempts;
}

std::string JobHandle::failover_engine() const {
  const JobRecord& rec = require(rec_);
  MutexLock lock(rec.mutex);
  return rec.failover_engine;
}

bool JobHandle::cancel() const {
  JobRecord& rec = const_cast<JobRecord&>(require(rec_));
  MutexLock lock(rec.mutex);
  if (rec.status != JobStatus::Queued) return false;
  rec.status = JobStatus::Cancelled;
  rec.cv.notify_all();
  // The record stays in its lane; the worker that pops it skips execution,
  // fires its settle callback and settles the backlog accounting (single
  // accounting path).
  return true;
}

// --- SweepHandle ------------------------------------------------------------

namespace {

using detail::SweepState;

const SweepState& require_sweep(const std::shared_ptr<SweepState>& state) {
  if (!state) throw BackendError("operation on an invalid (default-constructed) SweepHandle");
  return *state;
}

void check_index(const SweepState& state, std::size_t index) QUML_REQUIRES(state.mutex) {
  if (index >= state.status.size())
    throw BackendError("sweep binding index " + std::to_string(index) + " out of range (" +
                       std::to_string(state.status.size()) + " bindings)");
}

}  // namespace

std::size_t SweepHandle::size() const {
  const SweepState& state = require_sweep(state_);
  MutexLock lock(state.mutex);
  return state.status.size();
}

std::string SweepHandle::engine() const { return require_sweep(state_).engine; }

std::optional<sched::Decision> SweepHandle::decision() const {
  return require_sweep(state_).decision;
}

bool SweepHandle::plan_cached() const { return require_sweep(state_).plan_cached; }

JobStatus SweepHandle::status(std::size_t index) const {
  const SweepState& state = require_sweep(state_);
  MutexLock lock(state.mutex);
  check_index(state, index);
  return state.status[index];
}

std::size_t SweepHandle::completed() const {
  const SweepState& state = require_sweep(state_);
  MutexLock lock(state.mutex);
  return state.terminal;
}

void SweepHandle::wait() const {
  const SweepState& state = require_sweep(state_);
  MutexLock lock(state.mutex);
  while (state.terminal != state.status.size()) state.cv.wait(state.mutex);
}

bool SweepHandle::wait_for(std::chrono::milliseconds timeout) const {
  const SweepState& state = require_sweep(state_);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(state.mutex);
  while (state.terminal != state.status.size())
    if (state.cv.wait_until(state.mutex, deadline) == std::cv_status::timeout)
      return state.terminal == state.status.size();
  return true;
}

core::ExecutionResult SweepHandle::result(std::size_t index) const {
  const SweepState& state = require_sweep(state_);
  MutexLock lock(state.mutex);
  check_index(state, index);
  while (!is_terminal(state.status[index])) state.cv.wait(state.mutex);
  if (state.failures[index]) std::rethrow_exception(state.failures[index]);
  if (state.status[index] == JobStatus::Cancelled)
    throw BackendError("sweep binding " + std::to_string(index) + " was cancelled");
  return state.results[index];
}

std::string SweepHandle::error(std::size_t index) const {
  const SweepState& state = require_sweep(state_);
  MutexLock lock(state.mutex);
  check_index(state, index);
  if (!state.failures[index]) return "";
  try {
    std::rethrow_exception(state.failures[index]);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown failure";
  }
}

ErrorKind SweepHandle::error_kind(std::size_t index) const {
  const SweepState& state = require_sweep(state_);
  MutexLock lock(state.mutex);
  check_index(state, index);
  if (state.status[index] == JobStatus::Cancelled) return ErrorKind::Cancelled;
  return classify_failure(state.failures[index]);
}

std::size_t SweepHandle::cancel() const {
  require_sweep(state_);
  SweepState& state = *state_;
  std::size_t cancelled = 0;
  {
    MutexLock lock(state.mutex);
    state.cancelled = true;  // workers stop claiming new bindings
    for (std::size_t i = 0; i < state.status.size(); ++i) {
      if (state.status[i] != JobStatus::Queued) continue;
      state.status[i] = JobStatus::Cancelled;
      ++state.terminal;
      ++cancelled;
    }
  }
  if (cancelled > 0) state.cv.notify_all();
  return cancelled;
}

// --- ExecutionService -------------------------------------------------------

/// Per-engine fair-share queue + worker pool.  `workers` is written once
/// while the creating thread holds the service mutex (queue_for) and read
/// only by shutdown() after `stopping_` is set, which is why it sits outside
/// the queue mutex; everything the workers and producers share is guarded.
struct ExecutionService::BackendQueue {
  std::string engine;  // canonical; immutable after queue_for
  Mutex mutex;
  CondVar cv;
  FairShareQueue<std::shared_ptr<JobRecord>> lanes QUML_GUARDED_BY(mutex);
  double backlog_us QUML_GUARDED_BY(mutex) = 0.0;  // queued + running estimated work
  bool stop QUML_GUARDED_BY(mutex) = false;
  std::vector<std::thread> workers;
};

int hardware_threads() {
  static const int threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return threads;
}

ExecutionService::ExecutionService(ServiceConfig config)
    : config_(std::move(config)), breakers_(config_.breaker) {
  // Touch the registry singleton now: it outlives this service even when the
  // service itself is a static (shared()), so workers joined during static
  // destruction can never see a destroyed registry.
  (void)core::BackendRegistry::instance();
}

ExecutionService::~ExecutionService() { shutdown(); }

ExecutionService& ExecutionService::shared() {
  static ExecutionService service;
  return service;
}

namespace {

/// OpenMP team of a job that starts while `running` jobs (itself included)
/// run on the service: its share of the thread budget, capped by the
/// process's OpenMP cap and by the job's own exec.max_parallel_threads.
int team_size(int running, int omp_cap, std::optional<int> job_cap) {
  int team = std::min(omp_cap, std::max(1, hardware_threads() / running));
  if (job_cap) team = std::min(team, *job_cap);
  return team;
}

/// Semantic admission: the error-severity analysis passes run synchronously
/// on the submitting thread, so a defective bundle (out-of-range carriers,
/// unbound sweep symbols, non-unitary matrices, dead clbits) is rejected
/// with instruction-level QA diagnostics before it can occupy a queue slot.
/// `capability` is nullopt when no engine could be resolved.
void reject_defects(const core::JobBundle& bundle,
                    std::optional<sched::BackendCapability> capability,
                    const std::vector<std::vector<double>>* sweep_bindings) {
  analysis::AnalyzeOptions lint_options;
  lint_options.capability = std::move(capability);
  lint_options.bindings = sweep_bindings;
  lint_options.require_bound = sweep_bindings == nullptr;
  lint_options.resource_notes = false;  // notes can't reject; skip on the hot path
  const analysis::Report lint = analysis::analyze_bundle(bundle, lint_options);
  if (lint.has_errors())
    throw analysis::DiagnosticError("bundle '" + bundle.job_id + "' rejected at admission",
                                    lint.errors());
}

}  // namespace

std::shared_ptr<JobRecord> ExecutionService::route(
    core::JobBundle bundle, const std::vector<std::vector<double>>* sweep_bindings) {
  auto rec = std::make_shared<JobRecord>();
  auto& registry = core::BackendRegistry::instance();
  try {
    const std::string requested =
        bundle.context ? bundle.context->exec.engine : std::string();
    if (requested.empty()) throw BackendError("bundle has no exec.engine to dispatch on");
    if (requested == "auto") {
      const sched::Decision decision =
          sched::choose_backend(bundle, capability_snapshot(), config_.weights);
      rec->engine = registry.canonical(decision.backend);
      bundle.context->exec.engine = decision.backend;  // late binding resolved
      rec->decision = decision;
    } else {
      rec->engine = registry.canonical(requested);  // throws when unknown
    }
  } catch (const BackendError&) {
    // Nothing to route to, but a defective program still reports its QA
    // codes first: they are what its author has to fix.
    reject_defects(bundle, std::nullopt, sweep_bindings);
    throw;
  }

  // Reuse one estimate for the backlog feed: what this job is expected to
  // add to its pool, from cost hints alone (sched never sees the circuit).
  const sched::BackendCapability cap =
      sched::BackendCapability::from_json(registry.capabilities(rec->engine));
  // Admission-time capacity check for explicitly requested gate engines
  // ("auto" routing already rejects infeasible fleets): a register wider than
  // the engine's cap fails here, before the job ever occupies a worker, with
  // the wide alternative named when one is registered.
  const unsigned width = bundle.registers.total_width();
  if (cap.kind == "gate" && cap.num_qubits > 0 && static_cast<int>(width) > cap.num_qubits) {
    std::string message = "bundle '" + bundle.job_id + "' needs " + std::to_string(width) +
                          " qubits but engine '" + rec->engine + "' caps at " +
                          std::to_string(cap.num_qubits);
    for (const sched::BackendCapability& other : capability_snapshot())
      if (other.kind == "gate" && other.num_qubits >= static_cast<int>(width)) {
        message += "; '" + other.name + "' admits this width (" +
                   std::to_string(other.num_qubits) + " qubits)";
        break;
      }
    throw ValidationError(message);
  }
  reject_defects(bundle, cap, sweep_bindings);
  rec->estimate = sched::estimate(bundle, cap);
  rec->backlog_contribution_us = rec->estimate.feasible ? rec->estimate.duration_us : 0.0;
  const core::ExecPolicy exec = bundle.exec_policy();
  rec->policy = RetryPolicy::from_exec(exec);
  rec->jitter_seed = exec.seed;
  rec->max_parallel_threads = exec.max_parallel_threads;
  rec->submitted = std::chrono::steady_clock::now();
  rec->bundle = std::make_unique<core::JobBundle>(std::move(bundle));
  return rec;
}

ExecutionService::BackendQueue* ExecutionService::queue_for(const std::string& engine) {
  auto it = queues_.find(engine);
  if (it != queues_.end()) return it->second.get();
  auto queue = std::make_unique<BackendQueue>();
  queue->engine = engine;
  BackendQueue* raw = queue.get();
  const int workers = config_.workers_for(engine);
  raw->workers.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w)
    raw->workers.emplace_back([this, raw] { worker_loop(raw); });
  queues_.emplace(engine, std::move(queue));
  return raw;
}

JobId ExecutionService::enqueue_record(const std::shared_ptr<JobRecord>& rec, const Lane& lane,
                                      SettleCallback on_settle) {
  BackendQueue* queue = nullptr;
  {
    MutexLock lock(mutex_);
    if (stopping_) throw BackendError("ExecutionService is shut down");
    if (rec->id != 0) throw BackendError("job " + std::to_string(rec->id) + " is already queued");
    rec->on_settle = std::move(on_settle);
    rec->id = next_id_++;
    records_.emplace(rec->id, rec);
    bool born_failed = false;
    {
      MutexLock rlock(rec->mutex);
      born_failed = rec->failure != nullptr;
    }
    if (!born_failed) {
      queue = queue_for(rec->engine);
      ++outstanding_;
      // Push while still holding the service mutex (service -> queue is the
      // sanctioned nesting order): releasing it first would open a window
      // where shutdown() drains and joins the pool, and this job lands in a
      // dead queue as QUEUED forever.
      MutexLock qlock(queue->mutex);
      queue->lanes.push(lane.name, lane.weight, rec);
      queue->backlog_us += rec->backlog_contribution_us;
    }
  }
  if (queue) queue->cv.notify_one();
  return rec->id;
}

JobHandle ExecutionService::admit(core::JobBundle bundle) {
  return JobHandle(route(std::move(bundle)));
}

JobId ExecutionService::enqueue(const JobHandle& admitted, const Lane& lane,
                                SettleCallback on_settle) {
  if (!admitted.valid()) throw BackendError("enqueue of an invalid (default-constructed) JobHandle");
  return enqueue_record(admitted.rec_, lane, std::move(on_settle));
}

JobId ExecutionService::submit(core::JobBundle bundle) { return enqueue(admit(std::move(bundle))); }

std::vector<JobId> ExecutionService::submit_batch(std::vector<core::JobBundle> bundles) {
  std::vector<JobId> ids;
  ids.reserve(bundles.size());
  for (auto& bundle : bundles) {
    std::shared_ptr<JobRecord> rec;
    try {
      rec = route(std::move(bundle));
    } catch (...) {
      rec = std::make_shared<JobRecord>();
      MutexLock lock(rec->mutex);
      rec->status = JobStatus::Failed;
      rec->failure = std::current_exception();
    }
    ids.push_back(enqueue_record(rec, {}, {}));
  }
  return ids;
}

namespace {

using detail::SweepInputs;

/// Marks this shard exited; the last shard out fails any binding still
/// QUEUED (possible only when every session failed to open), so a sweep can
/// never hang in wait() with no worker left to run it.
void exit_sweep_shard(const std::shared_ptr<SweepState>& state) {
  bool notify = false;
  {
    MutexLock lock(state->mutex);
    if (--state->shards_live > 0) return;
    // Last shard out: nothing can run anymore, so drop the sweep's reference
    // to its largest payloads (bundle, bindings, realization) — once every
    // shard-local snapshot dies, a long-lived SweepHandle keeps only
    // statuses and results.
    state->inputs.reset();
    for (std::size_t i = 0; i < state->status.size(); ++i) {
      if (state->status[i] != JobStatus::Queued) continue;
      state->failures[i] =
          state->session_failure
              ? state->session_failure
              : std::make_exception_ptr(BackendError("no sweep worker session available"));
      state->status[i] = JobStatus::Failed;
      ++state->terminal;
      notify = true;
    }
  }
  if (notify) state->cv.notify_all();
}

/// One sweep shard: claims bindings from the shared state until exhausted or
/// cancelled.  Runs on a pool worker thread with that worker's private
/// Backend instance — which is nullptr when the worker could not create its
/// backend; the shard then records the condition instead of claiming work it
/// cannot run (a silent exit here would strand the sweep: see
/// SweepWorkerBackendCreationFailureFailsBindings in tests/test_svc.cpp).
void run_sweep_shard(const std::shared_ptr<SweepState>& state, core::Backend* backend,
                     CircuitBreaker* breaker, const std::atomic<bool>* stop) {
  std::shared_ptr<const SweepInputs> inputs;
  {
    MutexLock lock(state->mutex);
    inputs = state->inputs;
  }
  if (!inputs) {  // every binding already settled (late-starting shard)
    exit_sweep_shard(state);
    return;
  }
  std::unique_ptr<core::SweepSession> session;
  if (inputs->realization) {
    try {
      session = inputs->realization->open_session();
    } catch (...) {
      // A dead session must not race through the queue failing bindings a
      // healthy shard could run: record the error and bow out.  If every
      // shard dies this way, the last one out fails the leftovers.
      MutexLock lock(state->mutex);
      if (!state->session_failure) state->session_failure = std::current_exception();
      session = nullptr;
    }
    if (!session) {
      exit_sweep_shard(state);
      return;
    }
  } else if (!backend) {
    // Fallback path with no engine to run it: record why and bow out.
    {
      MutexLock lock(state->mutex);
      if (!state->session_failure)
        state->session_failure = std::make_exception_ptr(
            BackendError("sweep worker could not create backend '" + state->engine + "'"));
    }
    exit_sweep_shard(state);
    return;
  }
  for (;;) {
    std::size_t index;
    {
      MutexLock lock(state->mutex);
      if (state->cancelled || state->next >= inputs->bindings.size()) break;
      index = state->next++;
      state->status[index] = JobStatus::Running;
    }
    // Each binding runs under the sweep's RetryPolicy (per-binding jitter
    // stream = its sweep seed); bindings never fail over — the sweep was
    // routed to one engine as a unit, and the shared realization is bound to
    // it.  The deadline, measured from the sweep's submission, is shared:
    // once it passes, every remaining binding settles as Deadline instead of
    // hanging the sweep.
    const std::uint64_t seed = core::sweep_seed(inputs->base_seed, index);
    RetryOutcome outcome = run_with_retry(
        inputs->policy, seed, inputs->submitted, state->engine, breaker, stop, 0, [&] {
          if (session) return session->run_binding(inputs->bindings[index], seed);
          core::JobBundle bound = core::bind_bundle(inputs->bundle, inputs->bindings[index]);
          if (!bound.context) bound.context = core::Context{};
          bound.context->exec.seed = seed;
          return backend->run(bound);
        });
    core::ExecutionResult result = std::move(outcome.result);
    std::exception_ptr failure = outcome.failure;
    {
      MutexLock lock(state->mutex);
      state->failures[index] = failure;
      state->results[index] = std::move(result);
      state->status[index] = failure ? JobStatus::Failed : JobStatus::Done;
      ++state->terminal;
    }
    state->cv.notify_all();
  }
  exit_sweep_shard(state);
}

}  // namespace

SweepHandle ExecutionService::submit_sweep(core::JobBundle bundle,
                                           std::vector<std::vector<double>> bindings) {
  if (bindings.empty()) throw BackendError("submit_sweep needs at least one binding");
  const std::size_t width = bundle.parameters.size();
  for (const auto& row : bindings)
    if (row.size() != width)
      throw BackendError("sweep binding has " + std::to_string(row.size()) +
                         " values but the bundle declares " + std::to_string(width) +
                         " parameters");

  // Route once (resolves "auto" against the live backlog, validates the
  // engine, and lint-checks the bundle against the binding rows), then ask
  // the backend for a bind-once/run-many realization.
  auto probe = route(std::move(bundle), &bindings);
  auto inputs = std::make_shared<SweepInputs>();
  inputs->bundle = std::move(*probe->bundle);
  inputs->base_seed = inputs->bundle.exec_policy().seed;
  inputs->policy = probe->policy;
  inputs->submitted = probe->submitted;
  inputs->realization =
      core::BackendRegistry::instance().create(probe->engine)->prepare_sweep(inputs->bundle);
  const std::size_t n = bindings.size();
  inputs->bindings = std::move(bindings);

  auto state = std::make_shared<SweepState>();
  state->engine = probe->engine;
  state->decision = probe->decision;
  state->plan_cached = static_cast<bool>(inputs->realization);
  const double binding_us = probe->backlog_contribution_us;
  const std::size_t shards =
      std::min<std::size_t>(static_cast<std::size_t>(config_.workers_for(state->engine)), n);
  {
    MutexLock lock(state->mutex);
    state->inputs = std::move(inputs);
    state->status.assign(n, JobStatus::Queued);
    state->results.resize(n);
    state->failures.resize(n);
    // Set before any shard can run and exit: a shard that finishes while
    // later shards are still being enqueued must not look like the last one.
    state->shards_live = shards;
  }

  // Shard across the engine's pool: one claiming task per worker (dynamic
  // work-stealing by index, so uneven binding costs still balance).
  const double per_shard_us = binding_us * static_cast<double>(n) / static_cast<double>(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto rec = std::make_shared<JobRecord>();
    rec->engine = state->engine;
    rec->backlog_contribution_us = per_shard_us;
    rec->max_parallel_threads = probe->max_parallel_threads;
    rec->task = [this, state](core::Backend* backend) {
      run_sweep_shard(state, backend, &breakers_.breaker(state->engine), &stop_flag_);
    };
    try {
      enqueue_record(rec, {}, {});
    } catch (...) {
      // Keep the sweep's invariants if a shard cannot be enqueued (service
      // shutting down): the shards that never started must not be waited
      // for, and nothing new should be claimed.
      {
        MutexLock lock(state->mutex);
        state->cancelled = true;
        state->shards_live -= shards - s;  // this shard and the ones after it
        if (state->shards_live == 0) state->inputs.reset();
        for (std::size_t i = 0; i < state->status.size(); ++i) {
          if (state->status[i] != JobStatus::Queued) continue;
          state->status[i] = JobStatus::Cancelled;
          ++state->terminal;
        }
      }
      state->cv.notify_all();
      throw;
    }
    forget(rec->id);  // internal shard jobs are not client-visible
  }
  return SweepHandle(state);
}

JobHandle ExecutionService::handle(JobId id) const {
  MutexLock lock(mutex_);
  const auto it = records_.find(id);
  return it == records_.end() ? JobHandle() : JobHandle(it->second);
}

void ExecutionService::forget(JobId id) {
  MutexLock lock(mutex_);
  records_.erase(id);  // queues and handles hold their own shared_ptrs
}

double ExecutionService::backlog_us(const std::string& engine) const {
  const auto& registry = core::BackendRegistry::instance();
  const std::string key = registry.has(engine) ? registry.canonical(engine) : engine;
  MutexLock lock(mutex_);
  const auto it = queues_.find(key);
  if (it == queues_.end()) return 0.0;
  MutexLock qlock(it->second->mutex);
  return it->second->backlog_us;
}

std::size_t ExecutionService::queue_depth(const std::string& engine) const {
  const auto& registry = core::BackendRegistry::instance();
  const std::string key = registry.has(engine) ? registry.canonical(engine) : engine;
  MutexLock lock(mutex_);
  const auto it = queues_.find(key);
  if (it == queues_.end()) return 0;
  MutexLock qlock(it->second->mutex);
  return it->second->lanes.size();
}

std::size_t ExecutionService::lane_depth(const std::string& lane) const {
  MutexLock lock(mutex_);
  std::size_t depth = 0;
  for (const auto& entry : queues_) {
    BackendQueue& queue = *entry.second;
    MutexLock qlock(queue.mutex);
    depth += queue.lanes.depth(lane);
  }
  return depth;
}

std::vector<sched::BackendCapability> ExecutionService::capability_snapshot() const {
  std::vector<sched::BackendCapability> fleet = sched::registry_capabilities(
      [this](const std::string& name) { return backlog_us(name); });
  for (sched::BackendCapability& cap : fleet)
    cap.health = to_string(breakers_.state(cap.name));
  return fleet;
}

CircuitBreaker::State ExecutionService::breaker_state(const std::string& engine) const {
  const auto& registry = core::BackendRegistry::instance();
  const std::string key = registry.has(engine) ? registry.canonical(engine) : engine;
  return breakers_.state(key);
}

void ExecutionService::finish(const std::shared_ptr<JobRecord>& rec, BackendQueue& queue) {
  if (rec->on_settle) rec->on_settle();
  {
    MutexLock lock(queue.mutex);
    queue.backlog_us -= rec->backlog_contribution_us;
    if (queue.backlog_us < 0.0) queue.backlog_us = 0.0;  // guard FP drift
  }
  bool idle = false;
  {
    MutexLock lock(mutex_);
    idle = --outstanding_ == 0;
  }
  if (idle) idle_cv_.notify_all();
}

void ExecutionService::worker_loop(BackendQueue* queue) {
  // One Backend instance per worker: run() never races against itself, and
  // concurrent instances of the same engine must be independent (the
  // Backend concurrency contract in core/registry.hpp).
  std::unique_ptr<core::Backend> backend;
  detail::t_on_worker_thread = true;
  // The process's OpenMP cap (OMP_NUM_THREADS; 1 without OpenMP): a fresh
  // thread reads the global default, before it ever sets its own team.
  const int omp_cap = max_threads();
  for (;;) {
    std::shared_ptr<JobRecord> rec;
    {
      MutexLock lock(queue->mutex);
      while (!queue->stop && queue->lanes.empty()) queue->cv.wait(queue->mutex);
      if (queue->lanes.empty()) return;  // stop && drained
      rec = *queue->lanes.pop();
    }

    bool cancelled = false;
    {
      MutexLock lock(rec->mutex);
      if (rec->status == JobStatus::Cancelled) {
        cancelled = true;
        // A job cancelled while queued never runs: drop its payload here so
        // a long-lived handle to it doesn't pin the bundle forever.
        rec->bundle.reset();
      } else {
        rec->status = JobStatus::Running;
      }
    }
    if (cancelled) {
      finish(rec, *queue);
      continue;
    }

    // This thread's team for the whole job (retries and failover included),
    // sized by how many jobs run right now; the setting is this thread's
    // own, so the next job never inherits it.
    const int running = running_.fetch_add(1, std::memory_order_relaxed) + 1;
    set_num_threads(team_size(running, omp_cap, rec->max_parallel_threads));
    core::ExecutionResult result;
    std::exception_ptr failure;
    std::vector<Attempt> attempts;
    std::string failover;
    try {
      if (!backend) backend = core::BackendRegistry::instance().create(queue->engine);
    } catch (...) {
      failure = std::current_exception();
    }
    try {
      if (rec->task) {
        // Internal tasks (sweep shards) run even when backend creation
        // failed: the shard must settle its share of the sweep's bindings,
        // or SweepHandle::wait() would block forever on a sweep no worker
        // will ever touch again.
        rec->task(backend.get());
      } else if (!failure) {
        RetryOutcome outcome = run_resilient(rec, *backend, failover);
        result = std::move(outcome.result);
        failure = outcome.failure;
        attempts = std::move(outcome.attempts);
      }
    } catch (...) {
      failure = std::current_exception();
    }
    running_.fetch_sub(1, std::memory_order_relaxed);
    {
      MutexLock lock(rec->mutex);
      rec->failure = failure;
      rec->result = std::move(result);
      rec->attempts = std::move(attempts);
      rec->failover_engine = std::move(failover);
      rec->bundle.reset();  // release the job's largest payload
      rec->status = failure ? JobStatus::Failed : JobStatus::Done;
    }
    rec->cv.notify_all();
    finish(rec, *queue);
  }
}

RetryOutcome ExecutionService::run_resilient(const std::shared_ptr<JobRecord>& rec,
                                             core::Backend& backend,
                                             std::string& failover_engine) {
  RetryOutcome outcome = run_with_retry(
      rec->policy, rec->jitter_seed, rec->submitted, rec->engine,
      &breakers_.breaker(rec->engine), &stop_flag_, 0,
      [&] { return backend.run(*rec->bundle); });
  // Cross-engine failover is opt-in via the retry knob: a job that never
  // asked for resilience keeps the historical one-shot, one-engine
  // semantics.  Only transient exhaustion fails over — a permanent failure
  // or a blown deadline would fail anywhere.
  if (outcome.failure && outcome.kind == ErrorKind::Transient && rec->policy.max_retries > 0)
    failover_engine = failover_once(rec, outcome);
  return outcome;
}

std::string ExecutionService::failover_once(const std::shared_ptr<JobRecord>& rec,
                                            RetryOutcome& outcome) {
  const auto& registry = core::BackendRegistry::instance();
  std::string best;
  double best_score = 0.0;
  for (const sched::BackendCapability& cap : capability_snapshot()) {
    const std::string canonical =
        registry.has(cap.name) ? registry.canonical(cap.name) : cap.name;
    if (canonical == rec->engine) continue;
    // estimate() already rejects chaos backends, open breakers, wrong kinds
    // and widths the alternate cannot admit.
    const sched::JobEstimate est = sched::estimate(*rec->bundle, cap);
    if (!est.feasible) continue;
    const double score =
        config_.weights.quality_weight * est.success_prob -
        config_.weights.time_weight * std::log10(std::max(est.duration_us, 1.0));
    if (best.empty() || score > best_score) {
      best = canonical;
      best_score = score;
    }
  }
  if (best.empty()) return "";  // nothing compatible: the primary failure stands
  const int next_index = outcome.attempts.empty() ? 0 : outcome.attempts.back().index + 1;
  std::unique_ptr<core::Backend> alternate;
  try {
    alternate = registry.create(best);
  } catch (const std::exception& e) {
    outcome.attempts.push_back({next_index, best,
                                std::string("failover backend creation failed: ") + e.what(),
                                classify_failure(std::current_exception())});
    return best;  // attempted; the primary transient failure stands
  }
  // Same policy, same deadline (wall-clock budget spans engines), a
  // decorrelated jitter stream, and attempt numbering that continues the
  // primary engine's count.
  RetryOutcome alt = run_with_retry(
      rec->policy, rec->jitter_seed ^ 0x517cc1b727220a95ull, rec->submitted, best,
      &breakers_.breaker(best), &stop_flag_, next_index,
      [&] { return alternate->run(*rec->bundle); });
  for (Attempt& attempt : alt.attempts) outcome.attempts.push_back(std::move(attempt));
  outcome.result = std::move(alt.result);
  outcome.failure = alt.failure;
  outcome.kind = alt.kind;
  return best;
}

void ExecutionService::wait_all() {
  MutexLock lock(mutex_);
  while (outstanding_ != 0) idle_cv_.wait(mutex_);
}

void ExecutionService::shutdown() {
  // Raise the stop flag before draining: in-flight retry loops skip their
  // remaining backoff sleeps, and cooperative hangs (FaultInjector) throw
  // out via attempt_check_interrupt(), so the drain below is bounded by the
  // work itself, never by a retry schedule or an injected hang.
  stop_flag_.store(true, std::memory_order_relaxed);
  std::vector<BackendQueue*> queues;
  {
    MutexLock lock(mutex_);
    stopping_ = true;  // no new queues can appear past this point
    for (auto& [_, queue] : queues_) queues.push_back(queue.get());
  }
  // Idempotent: join() consumes joinability, so a destructor following an
  // explicit shutdown() finds nothing left to join.
  for (BackendQueue* queue : queues) {
    {
      MutexLock lock(queue->mutex);
      queue->stop = true;
    }
    queue->cv.notify_all();
  }
  for (BackendQueue* queue : queues)
    for (auto& worker : queue->workers)
      if (worker.joinable()) worker.join();
}

}  // namespace quml::svc

namespace quml::core {

// The historical blocking call, reimplemented as submit + wait on the
// process-wide service (declared in core/registry.hpp).  Failures propagate
// synchronously with their original exception types.  The job is forgotten
// once consumed so looping callers don't accumulate terminal records, and a
// call from inside a service worker (a backend running sub-jobs) executes
// inline — enqueueing onto the pool the worker itself is blocking would
// self-deadlock.
ExecutionResult submit(const JobBundle& bundle) {
  if (svc::detail::on_worker_thread()) {
    if (!bundle.context || bundle.context->exec.engine.empty())
      throw BackendError("bundle has no exec.engine to dispatch on");
    return BackendRegistry::instance().create(bundle.context->exec.engine)->run(bundle);
  }
  auto& service = svc::ExecutionService::shared();
  const svc::JobId id = service.submit(bundle);
  const svc::JobHandle job = service.handle(id);
  service.forget(id);
  return job.result();
}

}  // namespace quml::core
