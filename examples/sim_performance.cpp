// Demonstrates the simulator's performance machinery: the gate-fusion pass
// (runs of 1q gates collapse into one matrix, diagonal runs into one diagonal
// application), the compact bit-insertion kernels behind it, and the memory
// budget that gates wide-register construction.
//
// Prints fused-vs-unfused timings and the fusion statistics for a dense
// variational-style circuit, then shows the budget arithmetic for 26..30
// qubit registers.

#include <cstdio>

#include "sim/engine.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"
#include "util/stopwatch.hpp"

using namespace quml;

namespace {

sim::Circuit dense_variational_circuit(int n, int layers) {
  sim::Circuit c(n, 0);
  for (int layer = 0; layer < layers; ++layer) {
    for (int q = 0; q < n; ++q) {
      c.rz(0.13 * (layer + 1), q);
      c.h(q);
      c.rz(-0.21 * (layer + 1), q);
      c.t(q);
    }
    for (int q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
    for (int q = 0; q + 1 < n; ++q) c.rzz(0.4, q, q + 1);
  }
  return c;
}

}  // namespace

int main() {
  std::printf("=== simulator performance: fusion + kernels + memory budget ===\n\n");

  const int n = 18;
  const sim::Circuit c = dense_variational_circuit(n, 6);

  sim::FusionStats stats;
  const auto fused = sim::fuse_unitaries(c, &stats);
  std::printf("fusion pass on a %d-qubit circuit:\n", n);
  std::printf("  gates in            %zu\n", stats.gates_in);
  std::printf("  fused ops out       %zu\n", stats.ops_out);
  std::printf("  1q gates absorbed   %zu\n", stats.fused_1q);
  std::printf("  multi-q absorbed    %zu\n", stats.fused_multiq);
  std::printf("  diagonal runs       %zu\n", stats.diag_runs);
  std::printf("  k-qubit blocks      %zu (widest %d qubits)\n\n", stats.kq_blocks,
              stats.max_block_qubits);

  // Gate by gate, each instruction as its own op: Statevector::apply_unitaries
  // itself routes through the fusion pass, so the unfused reference applies
  // each instruction explicitly.
  Stopwatch unfused_timer;
  sim::Statevector unfused(n);
  for (const auto& inst : c.instructions())
    if (inst.gate != sim::Gate::Barrier) unfused.apply(inst);
  const double unfused_ms = unfused_timer.milliseconds();

  Stopwatch fused_timer;
  sim::Statevector fused_state(n);
  sim::apply_fused(fused_state, fused);
  const double fused_ms = fused_timer.milliseconds();

  std::printf("gate-by-gate apply    %8.1f ms\n", unfused_ms);
  std::printf("fused apply           %8.1f ms   (%.2fx)\n", fused_ms,
              fused_ms > 0.0 ? unfused_ms / fused_ms : 0.0);
  std::printf("fidelity(fused, unfused) = %.12f\n\n", fused_state.fidelity(unfused));

  std::printf("memory budget: %llu bytes\n",
              static_cast<unsigned long long>(sim::Statevector::memory_budget_bytes()));
  for (int w = 26; w <= sim::Statevector::kMaxQubits; ++w) {
    const auto need = sim::Statevector::required_bytes(w);
    std::printf("  %d qubits need %12llu bytes -> %s\n", w,
                static_cast<unsigned long long>(need),
                need <= sim::Statevector::memory_budget_bytes() ? "constructible"
                                                                : "over budget");
  }
  return 0;
}
