// Resilience layer cost model: (1) the fault-free tax — identical job
// batches through the ExecutionService with and without a retry policy
// attached, where the retry wrapper (policy resolution, attempt context,
// breaker bookkeeping) must stay within noise (<1%) of the plain submit
// path; (2) recovery latency vs the backoff curve — one seeded fail-once
// job through backend::FaultInjector at increasing retry_backoff_ms, so the
// recorded baseline shows recovery time tracking the configured schedule
// rather than some hidden constant.
//
// Emits BENCH_resilience.json via bench/run_benchmarks.sh.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "algolib/qft.hpp"
#include "backend/register_backends.hpp"
#include "bench_common.hpp"
#include "core/registry.hpp"
#include "svc/execution_service.hpp"

namespace {

using namespace quml;

constexpr int kJobsPerBatch = 16;

core::JobBundle qft_job(unsigned width, std::uint64_t seed, const std::string& engine) {
  const auto reg = algolib::make_phase_register("p", width);
  core::RegisterSet regs;
  regs.add(reg);
  core::OperatorSequence seq;
  seq.ops.push_back(algolib::qft_descriptor(reg, {}));
  seq.ops.push_back(algolib::measurement_descriptor(reg));
  core::Context ctx;
  ctx.exec.engine = engine;
  ctx.exec.samples = 128;
  ctx.exec.seed = seed;
  return core::JobBundle::package(std::move(regs), std::move(seq), ctx,
                                  "res-bench-" + std::to_string(seed));
}

std::vector<core::JobBundle> batch(bool with_policy) {
  std::vector<core::JobBundle> jobs;
  jobs.reserve(kJobsPerBatch);
  for (int j = 0; j < kJobsPerBatch; ++j) {
    core::JobBundle job = qft_job(static_cast<unsigned>(4 + (j % 4)),
                                  static_cast<std::uint64_t>(j), "gate.statevector_simulator");
    if (with_policy) {
      // A full resilience policy that never fires on this healthy engine:
      // whatever this costs is the wrapper's fault-free tax.
      job.context->exec.options.set("max_retries", json::Value(static_cast<std::int64_t>(3)));
      job.context->exec.options.set("retry_backoff_ms", json::Value(5.0));
      job.context->exec.options.set("deadline_ms", json::Value(60000.0));
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void run_batches(benchmark::State& state, bool with_policy) {
  backend::register_builtin_backends();
  const std::vector<core::JobBundle> jobs = batch(with_policy);
  svc::ServiceConfig config;
  config.default_workers = 2;
  svc::ExecutionService service(config);  // steady-state pools, spawned once
  for (auto _ : state) {
    const std::vector<svc::JobId> ids = service.submit_batch(jobs);
    service.wait_all();
    for (const svc::JobId id : ids) service.forget(id);
  }
  state.SetItemsProcessed(state.iterations() * kJobsPerBatch);
  state.counters["jobs_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations() * kJobsPerBatch),
                         benchmark::Counter::kIsRate);
}

/// Plain submit path: no retry knobs, the historical one-shot semantics.
void BM_FaultFreeBaseline(benchmark::State& state) { run_batches(state, false); }
BENCHMARK(BM_FaultFreeBaseline)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Same batch with retries+deadline armed but never triggered.  Comparing
/// this against BM_FaultFreeBaseline is the <1% fault-free-overhead gate.
void BM_FaultFreeWithRetryPolicy(benchmark::State& state) { run_batches(state, true); }
BENCHMARK(BM_FaultFreeWithRetryPolicy)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Recovery latency: a job whose first attempt always fails (FaultInjector
/// fail_first_n=1), timed end to end across retry_backoff_ms in {0, 5, 20}.
/// The curve should be dominated by the configured backoff (plus ±25%
/// seeded jitter), demonstrating the schedule is real and bounded.
void BM_RecoveryLatencyVsBackoff(benchmark::State& state) {
  backend::register_builtin_backends();
  const double backoff_ms = static_cast<double>(state.range(0));
  core::JobBundle job = qft_job(4, 99, "gate.fault_injector");
  job.context->exec.options.set("max_retries", json::Value(static_cast<std::int64_t>(2)));
  job.context->exec.options.set("retry_backoff_ms", json::Value(backoff_ms));
  json::Value fault = json::Value::object();
  fault.set("fail_first_n", json::Value(static_cast<std::int64_t>(1)));
  job.context->exec.options.set("fault", std::move(fault));

  svc::ExecutionService service;
  for (auto _ : state) {
    const svc::JobId id = service.submit(job);
    const svc::JobHandle handle = service.handle(id);
    handle.wait();
    benchmark::DoNotOptimize(handle.status());
    service.forget(id);
  }
  state.counters["backoff_ms"] = backoff_ms;
}
BENCHMARK(BM_RecoveryLatencyVsBackoff)->Arg(0)->Arg(5)->Arg(20)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) { return quml::bench::run(argc, argv); }
