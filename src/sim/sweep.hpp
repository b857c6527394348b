#pragma once
// Bind-once / run-many execution plans for parameterized circuits.
//
// The dominant variational workload (QAOA/VQE angle grids, anneal-schedule
// tuning) executes the *same* circuit across hundreds of parameter bindings.
// Submitting each binding as an independent job re-lowers, re-transpiles and
// re-runs the fusion pass from scratch every time and re-evolves the
// binding-independent prefix of the state.  A SweepPlan does all of that
// once:
//
//   * the (already transpiled) symbolic circuit is fused a single time at a
//     generic reference binding — a parameterized gate's structure class
//     (diagonal for rz/p/cp/crz/rzz, dense for rx/ry/u3) is the same for
//     every angle, so the fused program's *shape* is binding-invariant;
//   * each fused op records which input instructions it was composed from
//     (FusedOp::sources), so re-binding recomputes only the angle-dependent
//     tables — O(gates * 2^k) per diagonal/monomial block — without
//     re-running fusion;
//   * the maximal static prefix (every fused op before the first
//     angle-dependent one, e.g. QAOA's H wall) is evolved once at plan build
//     and memcpy'd into each run;
//   * consecutive 1q ops on distinct wires execute through the cache-blocked
//     Statevector::apply_1q_layer kernel, so an rx mixer wall pays roughly
//     one memory sweep instead of one per qubit.
//
// Sessions hold the per-thread mutable scratch (re-bound tables, working
// state); one immutable SweepPlan may be shared by any number of concurrent
// sessions, which is how svc::ExecutionService::submit_sweep shards bindings
// across a worker pool.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/engine.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"

namespace quml::sim {

/// Deterministic generic reference value for parameter slot `index`: distinct
/// irrational angles, so no symbolic block accidentally composes to an exact
/// identity (or hits a unit_phase snapping point) at plan-build time.
double sweep_reference_value(int index);
/// Reference binding vector for `count` parameters.
std::vector<double> sweep_reference_binding(int count);

class SweepPlan {
 public:
  struct Stats {
    std::size_t ops = 0;          ///< fused ops in the plan
    std::size_t dynamic_ops = 0;  ///< ops re-bound per binding
    std::size_t prefix_ops = 0;   ///< leading static ops folded into the cached prefix state
    std::size_t layer_groups = 0; ///< 1q runs executed through the cache-blocked layer kernel
    FusionStats fusion;           ///< plan-time fusion statistics
  };

  /// Builds the plan.  `circuit` may measure any qubit after its last gate
  /// (split_terminal_measurements, the engine's own rule), even while other
  /// qubits keep running; throws ValidationError for a gate after a Measure
  /// on the same qubit or a Reset (those need per-shot trajectories — use
  /// the engine per binding instead).
  explicit SweepPlan(const Circuit& circuit, FusionOptions options = {});
  ~SweepPlan();
  SweepPlan(const SweepPlan&) = delete;
  SweepPlan& operator=(const SweepPlan&) = delete;

  int num_qubits() const noexcept { return num_qubits_; }
  int num_clbits() const noexcept { return num_clbits_; }
  int num_parameters() const noexcept { return num_parameters_; }
  bool has_measurements() const noexcept { return !measurements_.empty(); }
  const Stats& stats() const noexcept { return stats_; }

  /// Per-thread execution scratch over a shared plan.  Not thread-safe
  /// itself; create one Session per worker.
  class Session {
   public:
    explicit Session(const SweepPlan& plan);

    /// Counts for one binding (values.size() >= plan.num_parameters()).
    /// Deterministic in (plan, values, shots, seed); the sampling stream
    /// matches Engine::run_counts for the same seed.
    CountMap run_counts(std::span<const double> values, std::int64_t shots, std::uint64_t seed);

    /// Final state of the unitary part under one binding (testing hook; the
    /// measurement list is ignored).
    Statevector run_statevector(std::span<const double> values);

   private:
    void bind(std::span<const double> values);
    void evolve();  // prefix/checkpoint copy + remaining steps into state_
    const FusedOp& op_at(std::size_t index, std::size_t& next_dyn) const;
    void apply_step(std::size_t step, std::size_t& next_dyn);

    const SweepPlan* plan_;
    std::vector<Instruction> program_;     // symbolic stream, params re-bound in place
    std::vector<FusedOp> rebound_;         // session copies of the dynamic ops
    std::vector<std::vector<double>> sig_; // last-bound params per dynamic op (rebind elision)
    std::vector<bool> changed_;            // per dynamic op: params moved since last run
    std::optional<Statevector> state_;
    std::vector<double> prob_;             // sampling scratch, warm across bindings
    AliasTable table_;
    // Mid-circuit checkpoint for ordered sweeps: a grid in row-major order
    // re-binds the slow axis once per row, so the state just before the
    // first fast-axis block is re-usable across the whole row.
    std::optional<Statevector> ckpt_state_;
    std::size_t ckpt_steps_ = 0;                 // steps folded into the checkpoint
    std::vector<std::vector<double>> ckpt_sig_;  // dyn-op params the checkpoint assumed
    std::vector<std::pair<int, Mat2>> layer_;    // per-run layer scratch
  };

 private:
  friend class Session;

  /// A run of plan ops executed together: `layer` groups >= 2 one-qubit ops
  /// on distinct wires for the cache-blocked layer kernel.
  struct Step {
    std::size_t begin = 0, end = 0;
    bool layer = false;
  };

  int num_qubits_ = 0;
  int num_clbits_ = 0;
  int num_parameters_ = 0;
  std::vector<Instruction> unitaries_;             // symbolic unitary stream
  std::vector<std::pair<int, int>> measurements_;  // (qubit, clbit), program order
  std::vector<FusedOp> ops_;                       // tables at the reference binding
  std::vector<std::size_t> dynamic_;               // ascending indices into ops_
  std::vector<Step> steps_;                        // execution after the prefix
  std::optional<Statevector> prefix_state_;        // |0..0> through ops_[0, prefix_ops)
  Stats stats_;
};

}  // namespace quml::sim
