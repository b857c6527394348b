// EXP-SIM — the gate substrate itself (the Aer substitute): state-vector
// kernel scaling with register width and OpenMP thread count.  This is the
// HPC baseline every gate-path experiment rests on; the report prints
// gate-application rates so regressions are visible at a glance.
//
// Benchmarks: H layer, CX/CP/SWAP/CCX chains, gate fusion (including the
// fused-vs-unfused QFT and QAOA-layer families), and sampling across
// widths/threads.  The chain and fused-family benchmarks apply a *prebuilt*
// fusion plan per iteration — matching how the engine builds the plan once
// per job and replays it across shots/trajectories; BM_FusionPlanQft tracks
// the (amortized) plan-construction cost itself.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include <cstdio>

#include "algolib/qft.hpp"
#include "backend/lowering.hpp"
#include "sim/engine.hpp"
#include "sim/fusion.hpp"
#include "util/stopwatch.hpp"
#include "util/parallel.hpp"

using namespace quml;

namespace {

sim::Circuit qft_circuit(int n) {
  sim::Circuit c(n, 0);
  std::vector<int> qubits(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) qubits[static_cast<std::size_t>(i)] = i;
  backend::append_qft(c, qubits, 0, true, false);
  return c;
}

sim::Circuit qaoa_layer_circuit(int n, int layers) {
  sim::Circuit c(n, 0);
  for (int l = 0; l < layers; ++l) {
    for (int q = 0; q < n; ++q) c.rzz(0.37 * (l + 1), q, (q + 1) % n);
    for (int q = 0; q < n; ++q) c.rx(0.21 * (l + 1), q);
  }
  return c;
}

void apply_gate_by_gate(sim::Statevector& sv, const sim::Circuit& c) {
  for (const auto& inst : c.instructions())
    if (inst.gate != sim::Gate::Barrier) sv.apply(inst);
}

sim::Circuit layered_circuit(int n, int layers) {
  sim::Circuit c(n, 0);
  for (int layer = 0; layer < layers; ++layer) {
    for (int q = 0; q < n; ++q) c.h(q);
    for (int q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  }
  return c;
}

void report() {
  std::printf("=== EXP-SIM: state-vector substrate scaling ===\n");
  std::printf("%-8s %-10s %-14s %-14s %s\n", "qubits", "threads", "wall ms", "gates/s",
              "amplitudes");
  for (const int n : {16, 20, 22}) {
    for (const int threads : {1, 8, 24}) {
      quml::set_num_threads(threads);
      const sim::Circuit c = layered_circuit(n, 4);
      Stopwatch timer;
      const sim::Statevector sv = sim::Engine().run_statevector(c);
      const double ms = timer.milliseconds();
      std::printf("%-8d %-10d %-14.1f %-14.0f %llu\n", n, threads, ms,
                  static_cast<double>(c.size()) / (ms / 1000.0),
                  static_cast<unsigned long long>(sv.dim()));
    }
  }
  quml::set_num_threads(quml::num_procs());
  std::printf("\n");
}

void BM_HLayer(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Statevector sv(n);
  const sim::Mat2 h = sim::gate_matrix_1q(sim::Gate::H, nullptr);
  for (auto _ : state) {
    for (int q = 0; q < n; ++q) sv.apply_1q(q, h);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.counters["amps/s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(1ull << n),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_HLayer)
    ->Arg(12)
    ->Arg(16)
    ->Arg(20)
    ->Arg(22)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The CX/CP chains ride the fusion pass: the whole chain is monomial /
// diagonal, so O(depth) full-state sweeps collapse into O(depth/k_struct)
// fused-block sweeps.  The plan is built once (as the engine does per job)
// and each iteration applies the same chain the old per-gate benchmark did.
void BM_CxChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Circuit c(n, 0);
  for (int q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  const auto plan = sim::fuse_unitaries(c);
  sim::Statevector sv(n);
  for (int q = 0; q < n; ++q) sv.apply_1q(q, sim::gate_matrix_1q(sim::Gate::H, nullptr));
  for (auto _ : state) {
    sim::apply_fused(sv, plan);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
}
BENCHMARK(BM_CxChain)->Arg(12)->Arg(16)->Arg(20)->Arg(22)->Unit(benchmark::kMillisecond);

void BM_CpChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Circuit c(n, 0);
  for (int q = 0; q + 1 < n; ++q) c.cp(0.37, q, q + 1);
  const auto plan = sim::fuse_unitaries(c);
  sim::Statevector sv(n);
  for (int q = 0; q < n; ++q) sv.apply_1q(q, sim::gate_matrix_1q(sim::Gate::H, nullptr));
  for (auto _ : state) {
    sim::apply_fused(sv, plan);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
}
BENCHMARK(BM_CpChain)->Arg(12)->Arg(16)->Arg(20)->Arg(22)->Unit(benchmark::kMillisecond);

// The SWAP/CCX chains stay per gate: a barrier between gates keeps every
// gate a lone op of a plan built once, so each iteration runs the kernel a
// lone gate gets (the pair walk's exchange body).
void BM_SwapChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Circuit c(n, 0);
  for (int q = 0; q + 1 < n; ++q) {
    c.swap(q, q + 1);
    c.barrier();
  }
  const auto plan = sim::fuse_unitaries(c);
  sim::Statevector sv(n);
  for (int q = 0; q < n; ++q) sv.apply_1q(q, sim::gate_matrix_1q(sim::Gate::H, nullptr));
  for (auto _ : state) {
    sim::apply_fused(sv, plan);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
}
BENCHMARK(BM_SwapChain)->Arg(12)->Arg(16)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_CcxChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Circuit c(n, 0);
  for (int q = 0; q + 2 < n; ++q) {
    c.ccx(q, q + 1, q + 2);
    c.barrier();
  }
  const auto plan = sim::fuse_unitaries(c);
  sim::Statevector sv(n);
  for (int q = 0; q < n; ++q) sv.apply_1q(q, sim::gate_matrix_1q(sim::Gate::H, nullptr));
  for (auto _ : state) {
    sim::apply_fused(sv, plan);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
}
BENCHMARK(BM_CcxChain)->Arg(12)->Arg(16)->Arg(20)->Unit(benchmark::kMillisecond);

// Dense 1q traffic (rz-h-rz per wire per layer): the fusion pass collapses
// each wire's run into one matrix, so engine throughput here measures the
// pass end to end rather than the raw kernel.
void BM_Fused1qLayers(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Circuit c(n, 0);
  for (int layer = 0; layer < 4; ++layer) {
    for (int q = 0; q < n; ++q) {
      c.rz(0.11 * (layer + 1), q);
      c.h(q);
      c.rz(-0.07 * (layer + 1), q);
    }
    for (int q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  }
  for (auto _ : state) {
    const sim::Statevector sv = sim::Engine().run_statevector(c);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.counters["gates"] = static_cast<double>(c.size());
}
BENCHMARK(BM_Fused1qLayers)->Arg(12)->Arg(16)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_QftSim(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const sim::Circuit c = qft_circuit(n);
  for (auto _ : state) {
    const sim::Statevector sv = sim::Engine().run_statevector(c);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.counters["gates"] = static_cast<double>(c.size());
}
BENCHMARK(BM_QftSim)->Arg(10)->Arg(14)->Arg(18)->Arg(20)->Unit(benchmark::kMillisecond);

// --- fused-vs-unfused families ----------------------------------------------
// The pairs share circuit construction and differ only in the execution path,
// so fused/unfused at equal width is the measured payoff of the k-qubit
// fusion pass (acceptance: fused QFT beats unfused >= 2x at 20 qubits).

void BM_QftFused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const sim::Circuit c = qft_circuit(n);
  const auto plan = sim::fuse_unitaries(c);
  for (auto _ : state) {
    sim::Statevector sv(n);
    sim::apply_fused(sv, plan);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.counters["gates"] = static_cast<double>(c.size());
  state.counters["fused_ops"] = static_cast<double>(plan.size());
}
BENCHMARK(BM_QftFused)->Arg(12)->Arg(16)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_QftUnfused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const sim::Circuit c = qft_circuit(n);
  for (auto _ : state) {
    sim::Statevector sv(n);
    apply_gate_by_gate(sv, c);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.counters["gates"] = static_cast<double>(c.size());
}
BENCHMARK(BM_QftUnfused)->Arg(12)->Arg(16)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_QaoaLayerFused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const sim::Circuit c = qaoa_layer_circuit(n, 2);
  const auto plan = sim::fuse_unitaries(c);
  for (auto _ : state) {
    sim::Statevector sv(n);
    sim::apply_fused(sv, plan);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.counters["gates"] = static_cast<double>(c.size());
  state.counters["fused_ops"] = static_cast<double>(plan.size());
}
BENCHMARK(BM_QaoaLayerFused)->Arg(12)->Arg(16)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_QaoaLayerUnfused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const sim::Circuit c = qaoa_layer_circuit(n, 2);
  for (auto _ : state) {
    sim::Statevector sv(n);
    apply_gate_by_gate(sv, c);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.counters["gates"] = static_cast<double>(c.size());
}
BENCHMARK(BM_QaoaLayerUnfused)->Arg(12)->Arg(16)->Arg(20)->Unit(benchmark::kMillisecond);

// Plan construction alone: microseconds against the milliseconds it saves
// per sweep, and it amortizes across every shot/trajectory of a job.
void BM_FusionPlanQft(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const sim::Circuit c = qft_circuit(n);
  for (auto _ : state) {
    const auto plan = sim::fuse_unitaries(c);
    benchmark::DoNotOptimize(plan.data());
  }
  state.counters["gates"] = static_cast<double>(c.size());
}
BENCHMARK(BM_FusionPlanQft)->Arg(12)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_Sampling(benchmark::State& state) {
  const int n = 16;
  sim::Circuit c(n, n);
  for (int q = 0; q < n; ++q) c.h(q);
  c.measure_all();
  const std::int64_t shots = state.range(0);
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::Engine().run_counts(c, shots, 42).size());
  state.counters["shots/s"] =
      benchmark::Counter(static_cast<double>(shots), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Sampling)
    ->Arg(1024)
    ->Arg(16384)
    ->Arg(131072)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Threads(benchmark::State& state) {
  quml::set_num_threads(static_cast<int>(state.range(0)));
  sim::Statevector sv(22);
  const sim::Mat2 h = sim::gate_matrix_1q(sim::Gate::H, nullptr);
  for (auto _ : state) {
    for (int q = 0; q < 22; ++q) sv.apply_1q(q, h);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(24)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return quml::bench::run(argc, argv, report);
}
