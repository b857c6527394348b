// EXP-ANNEAL — the annealing substrate (the neal substitute): ground-state
// probability versus sweeps and reads, schedule-shape ablation (geometric vs
// linear), and read-throughput scaling with OpenMP threads.
//
// Report shape: ground fraction rises monotonically with sweeps and
// saturates.  The schedule ablation compares geometric vs linear beta
// ladders at equal budget — which wins is instance-dependent (linear spends
// more sweeps cold, which pays off on smooth ring landscapes; geometric
// spreads temperature coverage, which helps rugged instances).

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include <cstdio>

#include "algolib/graph.hpp"
#include "algolib/ising.hpp"
#include "anneal/sampler.hpp"
#include "util/parallel.hpp"

using namespace quml;

namespace {

anneal::IsingModel maxcut_model(const algolib::Graph& graph) {
  const core::QuantumDataType reg =
      algolib::make_ising_register("s", static_cast<unsigned>(graph.n));
  return algolib::ising_model_from_descriptor(algolib::maxcut_ising_descriptor(reg, graph),
                                              static_cast<unsigned>(graph.n));
}

void report() {
  std::printf("=== EXP-ANNEAL: annealer convergence (neal substitute) ===\n");
  struct Row {
    const char* name;
    anneal::IsingModel model;
  };
  const Row rows[] = {
      {"ring-8", maxcut_model(algolib::Graph::cycle(8))},
      {"ring-16", maxcut_model(algolib::Graph::cycle(16))},
      {"cubic-16", maxcut_model(algolib::Graph::random_cubic(16, 7))},
  };
  std::printf("%-10s | ground fraction at sweeps = 1 / 10 / 100 / 1000\n", "instance");
  for (const auto& row : rows) {
    std::printf("%-10s |", row.name);
    for (const std::int64_t sweeps : {1, 10, 100, 1000}) {
      anneal::AnnealParams params;
      params.num_reads = 400;
      params.num_sweeps = sweeps;
      params.seed = 42;
      std::printf(" %.3f", anneal::SimulatedAnnealer().sample(row.model, params).ground_fraction());
    }
    std::printf("\n");
  }

  std::printf("\nschedule ablation (ring-16, 400 reads, 50 sweeps):\n");
  for (const auto schedule : {anneal::Schedule::Geometric, anneal::Schedule::Linear}) {
    anneal::AnnealParams params;
    params.num_reads = 400;
    params.num_sweeps = 50;
    params.seed = 42;
    params.schedule = schedule;
    const anneal::SampleSet set = anneal::SimulatedAnnealer().sample(rows[1].model, params);
    std::printf("  %-10s ground=%.3f mean E=%.2f\n",
                schedule == anneal::Schedule::Geometric ? "geometric" : "linear",
                set.ground_fraction(), set.mean_energy());
  }
  std::printf("\n");
}

void BM_Anneal_Sweeps(benchmark::State& state) {
  const anneal::IsingModel model = maxcut_model(algolib::Graph::cycle(16));
  anneal::AnnealParams params;
  params.num_reads = 100;
  params.num_sweeps = state.range(0);
  params.seed = 42;
  for (auto _ : state)
    benchmark::DoNotOptimize(anneal::SimulatedAnnealer().sample(model, params).total_reads());
  state.counters["spin_flips/s"] = benchmark::Counter(
      static_cast<double>(params.num_reads * params.num_sweeps * 16),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Anneal_Sweeps)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Anneal_Reads(benchmark::State& state) {
  const anneal::IsingModel model = maxcut_model(algolib::Graph::cycle(16));
  anneal::AnnealParams params;
  params.num_reads = state.range(0);
  params.num_sweeps = 100;
  params.seed = 42;
  for (auto _ : state)
    benchmark::DoNotOptimize(anneal::SimulatedAnnealer().sample(model, params).total_reads());
}
BENCHMARK(BM_Anneal_Reads)->Arg(100)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_Anneal_Threads(benchmark::State& state) {
  quml::set_num_threads(static_cast<int>(state.range(0)));
  const anneal::IsingModel model = maxcut_model(algolib::Graph::random_cubic(64, 3));
  anneal::AnnealParams params;
  params.num_reads = 512;
  params.num_sweeps = 100;
  params.seed = 42;
  for (auto _ : state)
    benchmark::DoNotOptimize(anneal::SimulatedAnnealer().sample(model, params).total_reads());
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Anneal_Threads)->Arg(1)->Arg(4)->Arg(8)->Arg(24)->Unit(benchmark::kMillisecond);

void BM_ExactSolver(benchmark::State& state) {
  const anneal::IsingModel model =
      maxcut_model(algolib::Graph::cycle(static_cast<int>(state.range(0))));
  for (auto _ : state)
    benchmark::DoNotOptimize(anneal::exact_ground_states(model).lowest().energy);
}
BENCHMARK(BM_ExactSolver)->Arg(12)->Arg(16)->Arg(20)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return quml::bench::run(argc, argv, report);
}
