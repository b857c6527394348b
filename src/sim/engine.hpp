#pragma once
// Shot execution engine on top of the pluggable simulation-state layer.
//
// The engine is representation-agnostic: it builds whatever SimState the
// StateConfig asks for (dense statevector by default, matrix-product state
// for wide low-entanglement circuits) and drives it through two execution
// paths, both running the generalized k-qubit gate-fusion pass (sim/fusion)
// first — adjacent gates merge into diagonal/monomial/dense blocks, so
// depth-dominated circuits pay far fewer full-state sweeps:
//  * terminal: every Measure is terminal (no later gate touches its qubit)
//    and there is no Reset — the common case, whether or not other qubits
//    keep running after a measurement.  The fused unitaries are evolved
//    once and all shots are batch-sampled from the final distribution via
//    the representation's native sampler (alias table for the statevector,
//    left-to-right conditional contraction for MPS);
//  * mid-circuit: a gate after a Measure on the same qubit, or any Reset,
//    runs per-shot trajectories with projective collapse — the unitary
//    prefix before the first measurement is evolved once and cloned into
//    each trajectory, and the segments between measurements are fused once
//    and replayed (correct, slower — the middle layer only permits
//    mid-circuit measurement behind an explicit context opt-in anyway).
//
// Fusion caps are representation-specific: the statevector takes the
// FusionOptions defaults, while MPS fuses narrow (dense cap 2, structured
// cap 4) because a k-qubit block there costs a chi^3-dominated window
// contraction, not a 2^n sweep.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/fusion.hpp"
#include "sim/sim_state.hpp"
#include "sim/statevector.hpp"
#include "util/alias_table.hpp"
#include "util/rng.hpp"

namespace quml::sim {

/// Histogram over clbit strings, keys rendered MSB-first (clbit 0 is the
/// rightmost character, matching Qiskit count keys).
using CountMap = std::map<std::string, std::int64_t>;

/// A circuit whose measurements can all be deferred to the end: its unitary
/// instructions in program order (Barriers included — they fence fusion)
/// and its `(qubit, clbit)` measurement list in program order.
struct TerminalSplit {
  std::vector<Instruction> unitaries;
  std::vector<std::pair<int, int>> measurements;
};

/// The deferred-measurement rule shared by Engine::run_counts and
/// SweepPlan.  A Measure is terminal when no later instruction other than a
/// Barrier or Measure touches its qubit; measuring commutes with every gate
/// on other qubits, so such a circuit samples once from its final state.
/// Returns nullopt when the circuit has a Reset or a non-terminal Measure
/// (those need per-shot trajectories).
std::optional<TerminalSplit> split_terminal_measurements(const Circuit& circuit);

/// Batch-samples `shots` basis indices from a prepared alias table over the
/// final distribution and maps them through the terminal `(qubit, clbit)`
/// measurement list into rendered count keys.  Used by the sweep executor
/// (sim/sweep.hpp); it draws the same stream as the statevector's
/// sample_basis, so both sample bit-identically for the same RNG.
CountMap counts_from_alias_table(const AliasTable& table,
                                 const std::vector<std::pair<int, int>>& measurements,
                                 int num_clbits, std::int64_t shots, Rng& rng);

/// Maps a basis-index histogram (a SimState::sample_basis result) through the
/// terminal `(qubit, clbit)` measurement list into rendered count keys.
CountMap counts_from_basis_histogram(const BasisHistogram& histogram,
                                     const std::vector<std::pair<int, int>>& measurements,
                                     int num_clbits);

/// Re-entrancy: Engine holds only its immutable StateConfig —
/// run_counts/run_statevector allocate everything (simulation state, fusion
/// plan, RNG streams) per call, so one Engine may be driven from many threads
/// at once and every call returns exactly the counts the same seed produces
/// single-threaded.  The svc::ExecutionService worker pools rely on this
/// (asserted by SvcSimReentrancy in tests/test_svc.cpp under the tsan preset).
class Engine {
 public:
  /// Engine over the default (statevector) representation.
  Engine() = default;
  /// Engine over the representation `config` selects.
  explicit Engine(StateConfig config) : config_(config) {}

  const StateConfig& config() const noexcept { return config_; }

  /// Fusion caps used for this engine's representation.
  FusionOptions fusion_options() const;

  /// Executes `shots` shots; all randomness derives from `seed`.
  CountMap run_counts(const Circuit& circuit, std::int64_t shots, std::uint64_t seed) const;

  /// Runs the unitary part only and returns the final state in whatever
  /// representation the engine is configured for (throws ValidationError if
  /// the circuit contains Measure/Reset).
  std::unique_ptr<SimState> run_state(const Circuit& circuit) const;

  /// Runs the unitary part only and returns the final dense statevector
  /// (throws ValidationError if the circuit contains Measure/Reset).  Always
  /// dense regardless of the engine's configured representation — callers
  /// wanting the configured representation use run_state().
  Statevector run_statevector(const Circuit& circuit) const;

 private:
  StateConfig config_{};
};

}  // namespace quml::sim
