// ExecutionService throughput: jobs/sec of batch submission through the
// per-backend worker pools vs the serial blocking submit() loop, across
// worker counts.  The workload is a fixed mixed batch of small gate jobs
// (distinct seeds, so results stay bit-identical to serial execution) — the
// point is the dispatch architecture, not the simulator kernels, which
// bench_sim_scaling already tracks.
//
// Emits BENCH_service.json via bench/run_benchmarks.sh.

#include <benchmark/benchmark.h>

#include <vector>

#include "algolib/qft.hpp"
#include "backend/register_backends.hpp"
#include "bench_common.hpp"
#include "core/registry.hpp"
#include "svc/execution_service.hpp"

namespace {

using namespace quml;

constexpr int kJobsPerBatch = 16;

core::JobBundle qft_job(unsigned width, std::uint64_t seed) {
  const auto reg = algolib::make_phase_register("p", width);
  core::RegisterSet regs;
  regs.add(reg);
  core::OperatorSequence seq;
  seq.ops.push_back(algolib::qft_descriptor(reg, {}));
  seq.ops.push_back(algolib::measurement_descriptor(reg));
  core::Context ctx;
  ctx.exec.engine = "gate.statevector_simulator";
  ctx.exec.samples = 128;
  ctx.exec.seed = seed;
  return core::JobBundle::package(std::move(regs), std::move(seq), ctx,
                                  "svc-bench-" + std::to_string(seed));
}

std::vector<core::JobBundle> batch() {
  std::vector<core::JobBundle> jobs;
  jobs.reserve(kJobsPerBatch);
  for (int j = 0; j < kJobsPerBatch; ++j)
    jobs.push_back(qft_job(static_cast<unsigned>(4 + (j % 4)), static_cast<std::uint64_t>(j)));
  return jobs;
}

void BM_SerialSubmit(benchmark::State& state) {
  backend::register_builtin_backends();
  const std::vector<core::JobBundle> jobs = batch();
  for (auto _ : state) {
    for (const auto& job : jobs) benchmark::DoNotOptimize(core::submit(job));
  }
  state.SetItemsProcessed(state.iterations() * kJobsPerBatch);
  state.counters["jobs_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations() * kJobsPerBatch),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SerialSubmit)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ServiceBatch(benchmark::State& state) {
  backend::register_builtin_backends();
  const std::vector<core::JobBundle> jobs = batch();
  svc::ServiceConfig config;
  config.default_workers = static_cast<int>(state.range(0));
  svc::ExecutionService service(config);  // steady-state pools, spawned once
  for (auto _ : state) {
    const std::vector<svc::JobId> ids = service.submit_batch(jobs);
    service.wait_all();
    for (const svc::JobId id : ids) service.forget(id);  // steady-state memory
  }
  state.SetItemsProcessed(state.iterations() * kJobsPerBatch);
  state.counters["jobs_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations() * kJobsPerBatch),
                         benchmark::Counter::kIsRate);
  state.counters["workers"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ServiceBatch)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) { return quml::bench::run(argc, argv); }
