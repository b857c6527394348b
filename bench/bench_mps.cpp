// EXP-MPS — the matrix-product-state substrate past the statevector wall:
// widths no dense simulator on this machine can hold (up to Mps::kMaxQubits
// = 64), priced by bond dimension instead of 2^n amplitudes.
//
// Benchmarks: GHZ ladder width scaling (bond stays 2, so cost is linear in
// width — the representation's headline), bond-cap scaling on a wide QAOA
// ring from algolib/graph (the wrap-around edge exercises swap routing every
// layer; the truncation counters show what each cap discards), exact
// sampling at 64 qubits, and the engine-level end-to-end GHZ counts path the
// scheduler routes wide shallow jobs onto.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include <cstdio>

#include "algolib/graph.hpp"
#include "sim/engine.hpp"
#include "sim/mps.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

using namespace quml;

namespace {

sim::StateConfig mps_config(int max_bond_dim, double cutoff = 1e-12) {
  sim::StateConfig config;
  config.representation = sim::StateRep::Mps;
  config.mps.max_bond_dim = max_bond_dim;
  config.mps.truncation_cutoff = cutoff;
  return config;
}

sim::Circuit ghz_ladder(int n) {
  sim::Circuit c(n, 0);
  c.h(0);
  for (int q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  return c;
}

/// QAOA over a ring graph (algolib::Graph::cycle): p alternating cost/mixer
/// layers.  The n-1 -> 0 wrap edge is non-adjacent in the MPS chain, so every
/// cost layer pays one long swap route — the realistic routing tax for
/// non-linear topologies.
sim::Circuit qaoa_ring(int n, int layers) {
  const algolib::Graph graph = algolib::Graph::cycle(n);
  sim::Circuit c(n, 0);
  for (int l = 0; l < layers; ++l) {
    for (const algolib::Edge& e : graph.edges) c.rzz(0.37 * (l + 1) * e.w, e.u, e.v);
    for (int q = 0; q < n; ++q) c.rx(0.21 * (l + 1), q);
  }
  return c;
}

void report() {
  std::printf("=== EXP-MPS: matrix-product state past the 30-qubit wall ===\n");
  std::printf("%-8s %-10s %-12s %-12s %s\n", "qubits", "wall ms", "peak bond", "trunc wt",
              "circuit");
  for (const int n : {32, 48, 64}) {
    const sim::Circuit c = ghz_ladder(n);
    Stopwatch timer;
    sim::Mps mps(n, sim::MpsConfig{});
    for (const auto& inst : c.instructions()) mps.apply(inst);
    std::printf("%-8d %-10.2f %-12d %-12.2e ghz ladder\n", n, timer.milliseconds(),
                mps.peak_bond_dimension(), mps.truncation_weight());
  }
  for (const int bond : {4, 16}) {
    const sim::Circuit c = qaoa_ring(32, 4);
    Stopwatch timer;
    sim::Mps mps(32, sim::MpsConfig{bond, 1e-12});
    for (const auto& inst : c.instructions()) mps.apply(inst);
    std::printf("%-8d %-10.2f %-12d %-12.2e qaoa ring (bond cap %d)\n", 32,
                timer.milliseconds(), mps.peak_bond_dimension(), mps.truncation_weight(), bond);
  }
  std::printf("\n");
}

// GHZ ladder across widths the dense engine cannot touch: bond stays 2, so
// the representation's cost grows linearly where 2^n would have exploded.
void BM_GhzLadderWidth(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const sim::Circuit c = ghz_ladder(n);
  int peak = 0;
  for (auto _ : state) {
    sim::Mps mps(n, sim::MpsConfig{});
    for (const auto& inst : c.instructions()) mps.apply(inst);
    peak = mps.peak_bond_dimension();
    benchmark::DoNotOptimize(mps.norm());
  }
  state.counters["peak_bond"] = static_cast<double>(peak);
  state.counters["gates/s"] = benchmark::Counter(static_cast<double>(c.size()),
                                                 benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GhzLadderWidth)
    ->Arg(16)
    ->Arg(32)
    ->Arg(48)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Bond-cap scaling on the wide QAOA ring: the knob the exec.options block
// exposes (max_bond_dim), swept at fixed width/depth.  Runtime should track
// the chi^3 SVD cost until the circuit's intrinsic bond saturates below the
// cap; the truncation-weight counter records the fidelity price of the
// tighter caps.
void BM_QaoaRingBondCap(benchmark::State& state) {
  const int n = 32;
  const int bond = static_cast<int>(state.range(0));
  // Four layers: the ring light-cone needs ~2^p bond, so the intrinsic bond
  // (~16) sits above every cap but the last — each tighter cap genuinely
  // truncates, and the final point shows saturation below its cap.  (Deeper
  // sweeps read cleaner but the chi^3 cost makes them too slow for the
  // sanitizer perf-smoke legs.)
  const sim::Circuit c = qaoa_ring(n, 4);
  double trunc = 0.0;
  int peak = 0;
  for (auto _ : state) {
    sim::Mps mps(n, sim::MpsConfig{bond, 1e-12});
    for (const auto& inst : c.instructions()) mps.apply(inst);
    trunc = mps.truncation_weight();
    peak = mps.peak_bond_dimension();
    benchmark::DoNotOptimize(mps.norm());
  }
  state.counters["peak_bond"] = static_cast<double>(peak);
  state.counters["trunc_weight"] = trunc;
}
BENCHMARK(BM_QaoaRingBondCap)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Exact sampling at 64 qubits: per-shot left-to-right conditional
// contraction — the path every past-the-wall counts job pays per sample.
void BM_SampleGhz64(benchmark::State& state) {
  const std::int64_t shots = state.range(0);
  sim::Mps mps(64, sim::MpsConfig{});
  const sim::Circuit c = ghz_ladder(64);
  for (const auto& inst : c.instructions()) mps.apply(inst);
  for (auto _ : state) {
    Rng rng(7);
    const sim::BasisHistogram histogram = mps.sample_basis(shots, rng);
    benchmark::DoNotOptimize(histogram.size());
  }
  state.counters["shots/s"] = benchmark::Counter(static_cast<double>(shots),
                                                 benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SampleGhz64)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// End to end through sim::Engine (fusion plan + apply + sample + decode):
// what GateBackend actually runs when the scheduler routes a wide shallow
// job to "gate.mps_simulator".
void BM_EngineGhzCounts(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Circuit c(n, n);
  c.h(0);
  for (int q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  for (int q = 0; q < n; ++q) c.measure(q, q);
  const sim::Engine engine(mps_config(64));
  for (auto _ : state) {
    const sim::CountMap counts = engine.run_counts(c, 256, 11);
    benchmark::DoNotOptimize(counts.size());
  }
}
// 63, not 64: the counts decoder packs clbits into a 64-bit key with one
// reserved bit, so 63 clbits is the widest full-register measurement.
BENCHMARK(BM_EngineGhzCounts)->Arg(40)->Arg(63)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) { return quml::bench::run(argc, argv, report); }
