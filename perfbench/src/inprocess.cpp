#include "inprocess.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "util/errors.hpp"

namespace perfbench {

using namespace quml;

namespace {
constexpr int kOutstanding = 2;
constexpr double kTolerance = 0.10;
constexpr double kMaxWarmupS = 8.0;
}  // namespace

double setup_service(const core::JobBundle& probe, std::unique_ptr<svc::ExecutionService>& service) {
  const Clock::time_point t0 = Clock::now();
  service = std::make_unique<svc::ExecutionService>();
  const svc::JobHandle handle = service->handle(service->submit(probe));
  handle.wait();
  const double setup_s = seconds_between(t0, Clock::now());
  if (handle.status() != svc::JobStatus::Done)
    throw std::runtime_error("set-up probe job failed: " + handle.error());
  return setup_s;
}

InProcessResult run_inprocess_loop(svc::ExecutionService& service,
                                   const std::vector<core::JobBundle>& pool, std::int64_t shots,
                                   const InProcessOptions& options) {
  InProcessResult result;
  LoopStats& loop = result.loop;
  struct InFlight {
    svc::JobHandle handle;
    std::uint64_t index = 0;
    int instance = 0;
    Clock::time_point submitted;
    bool timed = false;
    Tracer::Id job_span = Tracer::kNone;
  };
  Tracer* const tracer = options.tracer;
  std::deque<InFlight> in_flight;

  enum class Stage { Warmup, Timed, Draining } stage = Stage::Warmup;
  SteadyGate gate(kTolerance, 0.0, kMaxWarmupS);
  const std::size_t pass = pool.size();
  const std::size_t window = std::max<std::size_t>(pass / 3, 1);
  std::uint64_t next_job = 0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point window_start = t0;
  std::size_t window_completions = 0;
  Clock::time_point t_start{};
  Clock::time_point t_last{};

  const auto submit_next = [&] {
    const int instance = static_cast<int>(next_job % pass);
    core::JobBundle bundle = pool[static_cast<std::size_t>(instance)];  // copied before timing
    ++loop.attempted;
    InFlight job;
    job.index = next_job++;
    job.instance = instance;
    job.timed = stage == Stage::Timed;
    job.submitted = Clock::now();
    if (tracer) job.job_span = tracer->record("job", job.index, Tracer::kNone, job.submitted, {});
    try {
      ScopedSpan span(tracer, "svc.submit", job.index, job.job_span);
      job.handle = service.handle(service.submit(std::move(bundle)));
    } catch (const Error& e) {  // routing or admission refused the job
      if (tracer) tracer->end(job.job_span);
      ++loop.failed;
      if (result.errors.size() < 8) result.errors.push_back(e.what());
      return;
    }
    in_flight.push_back(std::move(job));
  };

  for (int i = 0; i < kOutstanding; ++i) submit_next();
  while (!in_flight.empty()) {
    InFlight job = std::move(in_flight.front());
    in_flight.pop_front();
    {
      ScopedSpan span(tracer, "svc.wait", job.index, job.job_span);
      job.handle.wait();
    }
    const Clock::time_point now = Clock::now();
    if (tracer) tracer->end(job.job_span);
    const svc::JobId id = job.handle.id();
    if (job.handle.status() != svc::JobStatus::Done) {
      ++loop.failed;
      if (result.errors.size() < 8) result.errors.push_back(job.handle.error());
    } else {
      const core::ExecutionResult run = job.handle.result();
      if (run.counts.total() != shots) ++result.bad_counts;
      const auto [it, first] = result.instance_counts.emplace(job.instance, run.counts);
      if (!first && it->second.map() != run.counts.map()) ++result.unstable_counts;
      if (job.timed) {
        loop.latencies_ms.push_back(ms_between(job.submitted, now));
        loop.latency_done_s.push_back(seconds_between(t_start, now));
      }
      if (stage == Stage::Warmup && ++window_completions == window) {
        if (gate.feed(window / seconds_between(window_start, now), seconds_between(t0, now), next_job)) {
          stage = Stage::Timed;
          t_start = now;
          t_last = now;
          loop.warmup_s = seconds_between(t0, now);
          loop.warmup_jobs = next_job;
        loop.warmup_rates = gate.windows();
        }
        window_start = now;
        window_completions = 0;
      } else if (stage == Stage::Timed) {
        loop.done_s.push_back(seconds_between(t_start, now));
        t_last = now;
        if (loop.done_s.size() % pass == 0 && loop.done_s.size() >= options.min_timed_jobs &&
            seconds_between(t_start, now) >= options.seconds)
          stage = Stage::Draining;
      }
    }
    service.forget(id);
    // A run whose jobs keep failing never fills a window; it still ends.
    if (seconds_between(t0, now) > kMaxWarmupS + 3 * options.seconds + 30)
      stage = Stage::Draining;
    if (stage != Stage::Draining) submit_next();
  }
  loop.window_s = seconds_between(t_start, t_last);
  return result;
}

}  // namespace perfbench
