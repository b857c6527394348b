#include "serve/daemon.hpp"

#include <exception>
#include <utility>

#include "backend/register_backends.hpp"

namespace quml::serve {

const char* to_string(SubmitOutcome outcome) noexcept {
  switch (outcome) {
    case SubmitOutcome::Accepted: return "ACCEPTED";
    case SubmitOutcome::Rejected: return "REJECTED";
    case SubmitOutcome::Shed: return "SHED";
  }
  return "?";
}

JobDaemon::JobDaemon(DaemonConfig config)
    : config_(std::move(config)), store_(config_.store_path), svc_(config_.service) {
  backend::register_builtin_backends();  // idempotent; the daemon may be first
  // Held across the replay: the first enqueued job may settle on a worker
  // while later ones are still being re-admitted.
  MutexLock lock(mutex_);
  paused_ = config_.start_paused;
  next_ticket_ = store_.next_ticket();

  // Crash recovery: every enqueued-but-unsettled job in the journal is
  // re-admitted with its original ticket and bundle.
  for (PendingJob& job : store_.pending()) {
    ++counters_.replayed;
    Record& record = records_[job.ticket];
    record.tenant = job.tenant;
    try {
      record.job = svc_.admit(std::move(job.bundle));
    } catch (const std::exception& e) {
      // A journaled job this build no longer admits (its engine is gone, a
      // new pass rejects it) settles FAILED instead of blocking the boot.
      record.admission_error = e.what();
      settle_locked_(job.ticket, record);
      continue;
    }
    unsettled_.insert(job.ticket);
    if (paused_) {
      held_.push_back(job.ticket);
    } else {
      enqueue_locked_(job.ticket, record);
    }
  }
}

JobDaemon::~JobDaemon() { stop(); }

const TenantPolicy& JobDaemon::policy_for_(const std::string& tenant) const {
  const auto it = config_.tenants.find(tenant);
  return it != config_.tenants.end() ? it->second : config_.default_policy;
}

SubmitReply JobDaemon::submit(const std::string& tenant, core::JobBundle bundle) {
  SubmitReply reply;
  if (tenant.empty()) {
    reply.outcome = SubmitOutcome::Rejected;
    reply.detail = "tenant identity required";
    MutexLock lock(mutex_);
    ++counters_.rejected;
    return reply;
  }

  // Admission, off the daemon lock: routing, the capacity check and the
  // error-severity QA passes, rendered like `quml_validate --lint` via
  // DiagnosticError.  Defective bundles never touch the store or a queue.
  svc::JobHandle job;
  try {
    job = svc_.admit(bundle);
  } catch (const std::exception& e) {
    reply.outcome = SubmitOutcome::Rejected;
    reply.detail = e.what();
    MutexLock lock(mutex_);
    ++counters_.rejected;
    return reply;
  }

  const TenantPolicy& policy = policy_for_(tenant);
  MutexLock lock(mutex_);
  if (stopping_ || quiescing_) {
    ++counters_.shed;
    reply.outcome = SubmitOutcome::Shed;
    reply.detail = "daemon is shutting down";
    return reply;
  }
  // Depth check and enqueue are serialized under mutex_, so the bound is
  // exact: concurrent worker pops only shrink the lane in between.
  std::size_t depth = svc_.lane_depth(tenant);
  for (const std::uint64_t held : held_) depth += records_.at(held).tenant == tenant ? 1 : 0;
  if (depth >= policy.max_queued) {
    ++counters_.shed;
    reply.outcome = SubmitOutcome::Shed;
    reply.detail = "tenant '" + tenant + "' queue is full (" + std::to_string(depth) + "/" +
                   std::to_string(policy.max_queued) + "); retry after the backlog drains";
    return reply;
  }
  const std::uint64_t ticket = next_ticket_;
  try {
    store_.append_enqueue(PendingJob{ticket, tenant, std::move(bundle)});  // persisted first
  } catch (const Error& e) {
    // Journal failure (e.g. disk full): the job was never accepted, and
    // the caller's thread — possibly the server's poll loop — must hear
    // that as a reply, not an exception.  The unused ticket is not burned.
    ++counters_.shed;
    reply.outcome = SubmitOutcome::Shed;
    reply.detail = std::string("job store append failed: ") + e.what();
    return reply;
  }
  ++next_ticket_;
  Record& record = records_[ticket];
  record.tenant = tenant;
  record.job = std::move(job);
  unsettled_.insert(ticket);
  ++counters_.accepted;
  if (paused_) {
    held_.push_back(ticket);
  } else {
    enqueue_locked_(ticket, record);
  }
  reply.outcome = SubmitOutcome::Accepted;
  reply.ticket = ticket;
  return reply;
}

void JobDaemon::enqueue_locked_(std::uint64_t ticket, const Record& record) {
  const svc::JobId id =
      svc_.enqueue(record.job, svc::Lane{record.tenant, policy_for_(record.tenant).weight},
                   [this, ticket] { job_settled_(ticket); });
  svc_.forget(id);  // the record's handle is the daemon's only reference
}

JobInfo JobDaemon::info_locked_(std::uint64_t ticket, const Record& record,
                                bool with_result) const {
  JobInfo info;
  info.known = true;
  info.ticket = ticket;
  info.tenant = record.tenant;
  if (!record.job.valid()) {
    info.status = svc::to_string(svc::JobStatus::Failed);
    info.error = record.admission_error;
    return info;
  }
  // Status first: the terminal fields below are written before the status
  // turns terminal, so a terminal status guarantees they are final.
  const svc::JobStatus status = record.job.status();
  info.status = svc::to_string(status);
  info.engine = record.job.engine();
  info.error = record.job.error();
  info.attempts = record.job.attempts();
  if (with_result && status == svc::JobStatus::Done) info.result = record.job.result();
  return info;
}

JobInfo JobDaemon::info(const std::string& tenant, std::uint64_t ticket) const {
  MutexLock lock(mutex_);
  const auto it = records_.find(ticket);
  if (it == records_.end() || it->second.tenant != tenant) return JobInfo{};
  return info_locked_(ticket, it->second, true);
}

JobInfo JobDaemon::status(const std::string& tenant, std::uint64_t ticket) const {
  MutexLock lock(mutex_);
  const auto it = records_.find(ticket);
  if (it == records_.end() || it->second.tenant != tenant) return JobInfo{};
  return info_locked_(ticket, it->second, false);
}

bool JobDaemon::wait_for(const std::string& tenant, std::uint64_t ticket,
                         std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mutex_);
  for (;;) {
    const auto it = records_.find(ticket);
    if (it == records_.end() || it->second.tenant != tenant) return true;
    if (unsettled_.count(ticket) == 0) return true;
    if (settled_cv_.wait_until(mutex_, deadline) == std::cv_status::timeout)
      return unsettled_.count(ticket) == 0;
  }
}

void JobDaemon::quiesce() {
  MutexLock lock(mutex_);
  quiescing_ = true;
}

void JobDaemon::resume() {
  MutexLock lock(mutex_);
  paused_ = false;
  // Enqueued under mutex_: a worker's settle hook blocks on it, so the whole
  // held backlog is in the lanes before the second job is popped.
  for (const std::uint64_t ticket : held_) enqueue_locked_(ticket, records_.at(ticket));
  held_.clear();
}

void JobDaemon::drain() {
  MutexLock lock(mutex_);
  while (!unsettled_.empty()) settled_cv_.wait(mutex_);
}

void JobDaemon::stop() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
    held_.clear();
    // Queued jobs are abandoned, not run: a cancelled job writes no settle
    // record (job_settled_), so it replays on the next boot.  Running jobs
    // cannot be cancelled; they finish and settle normally.
    for (const std::uint64_t ticket : unsettled_) records_.at(ticket).job.cancel();
  }
  svc_.shutdown();  // joins the workers once every popped job has settled
}

JobDaemon::Stats JobDaemon::stats() const {
  MutexLock lock(mutex_);
  Stats stats = counters_;
  for (const std::uint64_t ticket : unsettled_) {
    if (records_.at(ticket).job.status() == svc::JobStatus::Queued) {
      ++stats.queued;
    } else {
      ++stats.in_flight;
    }
  }
  return stats;
}

void JobDaemon::set_settle_callback(SettleCallback callback) {
  MutexLock lock(callback_mutex_);
  on_settle_ = std::move(callback);
}

void JobDaemon::job_settled_(std::uint64_t ticket) {
  JobInfo info;
  svc::JobHandle job;  // outlives the record, which retention may evict
  {
    MutexLock lock(mutex_);
    const auto it = records_.find(ticket);
    if (it == records_.end()) return;
    // Cancelled only by stop(): abandoned to the journal for the next boot.
    if (it->second.job.status() == svc::JobStatus::Cancelled) return;
    job = it->second.job;
    info = settle_locked_(ticket, it->second);
  }
  settled_cv_.notify_all();
  {
    // Serialized against set_settle_callback (see the header): holding the
    // callback mutex across the call is what makes unhooking a barrier.
    MutexLock lock(callback_mutex_);
    if (on_settle_) on_settle_(info, job);
  }
}

JobInfo JobDaemon::settle_locked_(std::uint64_t ticket, const Record& record) {
  JobInfo info = info_locked_(ticket, record, false);
  try {
    store_.append_settle(ticket, info.status);
    if (store_.settled_records() >= config_.compact_after_settles) store_.compact();
  } catch (const Error&) {
    // Journal trouble must not take the worker down; worst case the job
    // replays (deterministically) on the next boot.
  }
  unsettled_.erase(ticket);
  ++counters_.settled;
  // Retention: only the newest `settled_retention` settled records stay
  // queryable; older ones are evicted so memory tracks the backlog, not
  // the daemon's lifetime job count.
  settled_order_.push_back(ticket);
  while (settled_order_.size() > config_.settled_retention) {
    records_.erase(settled_order_.front());
    settled_order_.pop_front();
  }
  return info;
}

}  // namespace quml::serve
