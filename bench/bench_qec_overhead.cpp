// EXP-QEC — paper Listing 5: the QEC context block made executable.
//
// Report: distance sweep 3..13 of the surface-code resource model (physical
// qubits per patch = 2d^2-1, so 97 at the paper's distance 7; logical error
// per round; total footprint for the 4-qubit Max-Cut program), the
// repetition-code Monte Carlo that validates exponential suppression, and
// automatic distance selection against failure budgets.
//
// Benchmarks: resource-estimation and Monte-Carlo throughput.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include <cstdio>

#include "qec/repetition.hpp"
#include "qec/surface.hpp"

using namespace quml;

namespace {

void report() {
  std::printf("=== EXP-QEC: surface-code policy binding (paper Listing 5) ===\n");
  const qec::SurfaceCodeModel model;
  const std::map<std::string, std::int64_t> qaoa_gates{
      {"h", 4}, {"cx", 8}, {"rz", 12}, {"rx", 4}, {"measure", 4}};

  std::printf("%-10s %-14s %-16s %-16s %-14s\n", "distance", "qubits/patch", "p_L per round",
              "total qubits*", "runtime us");
  for (int d = 3; d <= 13; d += 2) {
    core::QecPolicy policy;
    policy.code_family = "surface";
    policy.distance = d;
    policy.allocator = "auto";
    policy.physical_error_rate = 1e-3;
    const qec::QecResourceEstimate est = qec::estimate_resources(policy, 4, 12, qaoa_gates);
    std::printf("%-10d %-14lld %-16.3e %-16lld %-14.1f\n", d,
                static_cast<long long>(qec::SurfaceCodeModel::physical_qubits_per_patch(d)),
                est.logical_error_per_round, static_cast<long long>(est.physical_qubits),
                est.runtime_us);
  }
  std::printf("(*4-qubit QAOA program incl. routing lanes and one 15-to-1 T factory)\n\n");

  std::printf("repetition-code Monte Carlo vs analytic (p = 0.05, 10^6 trials):\n");
  std::printf("%-10s %-14s %-14s %-10s\n", "distance", "analytic", "monte carlo", "ratio to d-2");
  double previous = 0.0;
  for (int d = 3; d <= 11; d += 2) {
    const double analytic = qec::repetition_logical_error_analytic(d, 0.05);
    const double mc = qec::repetition_logical_error_mc(d, 0.05, 1000000, 42);
    std::printf("%-10d %-14.3e %-14.3e %-10.3f\n", d, analytic, mc,
                previous > 0 ? analytic / previous : 0.0);
    previous = analytic;
  }
  std::printf("(each +2 in distance suppresses the logical error by a constant factor)\n\n");

  std::printf("automatic distance selection (p = 1e-3, 4 patches, 120 rounds):\n");
  std::printf("%-14s %-10s\n", "budget", "distance");
  for (const double budget : {1e-3, 1e-6, 1e-9, 1e-12}) {
    std::printf("%-14.0e %-10d\n", budget, model.choose_distance(1e-3, 120, 4, budget));
  }
  std::printf("\n");
}

void BM_ResourceEstimate(benchmark::State& state) {
  core::QecPolicy policy;
  policy.distance = static_cast<int>(state.range(0));
  policy.physical_error_rate = 1e-3;
  const std::map<std::string, std::int64_t> gates{{"h", 100}, {"cx", 400}, {"rz", 250}};
  for (auto _ : state)
    benchmark::DoNotOptimize(qec::estimate_resources(policy, 32, 1000, gates).physical_qubits);
}
BENCHMARK(BM_ResourceEstimate)->Arg(3)->Arg(7)->Arg(13);

void BM_RepetitionMc(benchmark::State& state) {
  const std::int64_t trials = state.range(0);
  for (auto _ : state)
    benchmark::DoNotOptimize(qec::repetition_logical_error_mc(7, 0.05, trials, 42));
  state.counters["trials/s"] = benchmark::Counter(static_cast<double>(trials),
                                                  benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_RepetitionMc)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PatchAllocation(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        qec::allocate_patches(static_cast<int>(state.range(0)), 7, "auto").total_physical_qubits);
}
BENCHMARK(BM_PatchAllocation)->Arg(4)->Arg(64)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  return quml::bench::run(argc, argv, report);
}
