#pragma once
// Generalized gate-fusion pass over the backend IR (the qulacs/Qiskit-Aer
// optimization, adapted to this engine's kernels).
//
// The pass greedily merges adjacent instructions whose combined qubit support
// stays within a cap into a single fused block, so a CX/CP/RZZ cascade pays
// one sweep over the 2^n amplitudes per *block* instead of per gate.  Blocks
// track their matrix structure exactly — diagonal ⊂ monomial (permutation
// with phases) ⊂ dense — and every merge is decided by a sweep-cost model, so
// fusion never replaces the cheap sub-path a lone gate runs on (a CP scales
// one quadrant, a CX exchanges one pair of rows) with a more expensive
// block.  Every op is one of the structure kinds below: a gate left alone is
// emitted as the op its own structure gives (fuse_gate), so the kernels are
// the only execution path.  A diagonal accumulation still commutes through
// diagonal gates (CZ/CP/CRZ/RZZ) that cannot be merged outright.
//
// Fusion is exact: matrices are composed by qubit-reindexed embedding and
// multiplication — no Euler resynthesis — so the fused program applies the
// identical unitary including global phase.

#include <cstddef>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/sim_state.hpp"

namespace quml::sim {

/// Tuning knobs of the fusion pass.  Caps are clamped to sane kernel bounds
/// (dense to [1, 8], structured to [max_qubits, Statevector::kMaxKernelQubits]).
struct FusionOptions {
  /// Support cap for *dense* fused blocks (the classic fusion k_max).  Dense
  /// application costs O(2^k) multiply-adds per amplitude, so this stays
  /// small.
  int max_qubits = 4;
  /// Support cap for *structured* blocks (diagonal / monomial), whose
  /// application costs O(1) per amplitude regardless of k — a bigger cap
  /// collapses more sweeps at no per-amplitude penalty while the 2^k tables
  /// stay L1/L2-resident.
  int max_structured_qubits = 14;

  /// Keep blocks whose accumulated matrix is exactly the identity instead of
  /// dropping them.  SweepPlan sets this: a block that happens to compose to
  /// identity at the plan's reference binding must survive so it can be
  /// re-bound to other parameter values (applying a kept identity diagonal
  /// costs one skipped sweep, nothing more).
  bool keep_identity_blocks = false;
};

/// One step of a fused program.
struct FusedOp {
  enum class Kind {
    Unitary1Q,   ///< fused 2x2 unitary on `qubit`
    Diag1Q,      ///< fused diagonal on `qubit`: amp *= d0/d1 by bit value
    UnitaryKQ,   ///< dense 2^k x 2^k unitary on `qubits` (row-major `table`)
    DiagKQ,      ///< 2^k diagonal `table` on `qubits`
    MonomialKQ,  ///< permutation `perm` with phases `table` on `qubits`
  };
  Kind kind = Kind::Unitary1Q;
  int qubit = -1;
  Mat2 u{};                        // Unitary1Q
  c64 d0{1.0, 0.0}, d1{1.0, 0.0};  // Diag1Q
  std::vector<int> qubits;         // KQ kinds: sorted ascending support
  std::vector<c64> table;          // UnitaryKQ: 2^k*2^k; DiagKQ/MonomialKQ: 2^k
  std::vector<int> perm;           // MonomialKQ: src local index per output row
  /// Indices (into the fused input program) of the instructions this op was
  /// composed from, in application order.  This is the provenance a sweep
  /// plan needs to recompute only the angle-dependent tables per binding
  /// (rebind_fused_op) without re-running the fusion pass.
  std::vector<std::int32_t> sources;
};

struct FusionStats {
  std::size_t gates_in = 0;      ///< unitary gates consumed (Barrier excluded)
  std::size_t ops_out = 0;       ///< fused ops emitted
  std::size_t fused_1q = 0;      ///< 1q gates absorbed into fused ops
  std::size_t fused_multiq = 0;  ///< multi-qubit gates absorbed into fused blocks
  std::size_t diag_runs = 0;     ///< all-diagonal fused ops emitted (1q + kq)
  std::size_t kq_blocks = 0;     ///< fused blocks spanning >= 2 qubits
  int max_block_qubits = 0;      ///< widest fused block emitted
};

/// Fuses a unitary instruction stream (Barrier flushes and is dropped; throws
/// ValidationError on Measure/Reset — the engine splits those out first).
std::vector<FusedOp> fuse_unitaries(const std::vector<Instruction>& program, int num_qubits,
                                    const FusionOptions& options, FusionStats* stats = nullptr);
/// Overload using the default FusionOptions{}.
std::vector<FusedOp> fuse_unitaries(const std::vector<Instruction>& program, int num_qubits,
                                    FusionStats* stats = nullptr);

/// Convenience overloads over a whole circuit.
std::vector<FusedOp> fuse_unitaries(const Circuit& circuit, const FusionOptions& options,
                                    FusionStats* stats = nullptr);
std::vector<FusedOp> fuse_unitaries(const Circuit& circuit, FusionStats* stats = nullptr);

/// Sets `op` to the op fuse_unitaries emits for `inst` when it fuses with
/// nothing: Unitary1Q/Diag1Q on one qubit, DiagKQ/MonomialKQ over the sorted
/// support otherwise, with empty `sources`.  The tables are assigned into
/// op's own storage, so a caller refilling one op gate after gate stops
/// allocating once they have grown.  Throws ValidationError for
/// Measure/Reset/Barrier and unbound parameters.
void fuse_gate(const Instruction& inst, FusedOp& op);

/// Applies a fused program to any representation (SimState).
void apply_fused(SimState& state, const std::vector<FusedOp>& ops);
/// Applies one fused op (the sweep executor's per-step entry point).
void apply_fused_op(SimState& state, const FusedOp& op);

/// Recomputes the numeric payload (u / d0,d1 / table / perm) of `op` by
/// re-classifying and re-composing its source instructions from `program`
/// (whose params may have been re-bound since the plan was built).  The op's
/// kind, support, and source list are fixed at plan time — valid because a
/// parameterized gate's structure class (diagonal for rz/p/cp/crz/rzz, dense
/// for rx/ry/u3) is the same for every angle.  Cost is O(sources * 2^k) for
/// diagonal/monomial blocks and O(sources * 2^3k) for dense ones.
void rebind_fused_op(FusedOp& op, const std::vector<Instruction>& program);

}  // namespace quml::sim
