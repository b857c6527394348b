#pragma once
// Dense state-vector simulation engine (the Qiskit Aer substitute).
//
// Amplitudes are stored in the computational basis with qubit i mapped to
// bit i of the index (little-endian, Qiskit convention).  Gate kernels are
// OpenMP-parallel over index strides; all parallelism is bit-reproducible
// because kernels are deterministic and sampling draws from an explicit,
// serial RNG stream.
//
// Kernel layout: one kernel per matrix structure — a 2x2 (apply_1q), a
// diagonal (apply_diag_1q / apply_diag), a permutation with phases
// (apply_monomial) and a dense matrix (apply_matrix).  There are no per-gate
// kernels: apply(const Instruction&) runs a gate as the structure op the
// fusion pass emits for it alone.  Every kernel touches only the amplitudes
// its operands select.  A k-qubit kernel iterates the dim/2^k base indices
// produced by inserting the fixed operand bits into a compact counter
// (bit-insertion indexing), in contiguous runs so the inner loops are
// branch-free and auto-vectorizable.
//
// Two private walks carry the structured kernels; each sub-path is picked
// from the support (and, for one diagonal case, the factor count) alone:
//   - The pair walk, templated on k = 1..3, drives apply_1q, apply_diag_1q,
//     the k = 2 diagonal (one quadrant scaled per non-unit factor), the
//     k = 2 dense matrix, and every monomial that is a single transposition
//     (a lone CX, CY, SWAP, CCX or CSWAP, k <= 3).  It builds no tables.
//   - The cycle walk runs every other monomial and every k >= 3 diagonal
//     not listed below, as the identity permutation.  Rephased fixed points
//     are scaled from compact (offset, factor) arrays; longer cycles rotate
//     in place.  A support whose lowest bit is >= 3 moves runs of up to
//     2^12 amplitudes per local index; a lower one walks group by group.
//   - A k >= 3 diagonal whose lowest bit is < 3 has two linear sweeps of
//     its own: a contiguous ascending support {p..p+k-1} multiplies by a
//     periodic factor table, and a scattered support with k >= 6 and at
//     least half its factors non-unit gathers each factor through two
//     lookup tables.
//   - apply_matrix for k >= 3 is the general dense gather-matvec-scatter.
#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/sim_state.hpp"
#include "util/rng.hpp"

namespace quml::sim {

class Statevector final : public SimState {
 public:
  /// Hard cap on register width (16 GiB of amplitudes at 30 qubits).  Actual
  /// construction is additionally gated by the process memory budget.
  static constexpr int kMaxQubits = 30;

  /// Hard cap on the support of one fused k-qubit kernel call: structured
  /// (diagonal/monomial) tables stay cache-resident (2^14 entries = 256 KiB
  /// of factors).  Dense matrices are additionally capped at
  /// kMaxDenseKernelQubits — a 2^14-square matrix would be 4 GiB.
  static constexpr int kMaxKernelQubits = 14;
  static constexpr int kMaxDenseKernelQubits = 12;

  /// Bytes of amplitude storage a register of `num_qubits` needs.
  static constexpr std::uint64_t required_bytes(int num_qubits) noexcept {
    return sizeof(c64) << num_qubits;
  }

  /// The amplitude-memory budget gating wide-register construction.  Defaults
  /// to 3/4 of physical RAM clamped to [1 GiB, 16 GiB]; override with
  /// set_memory_budget_bytes() or the QUML_SV_MEMORY_BUDGET_BYTES env var.
  static std::uint64_t memory_budget_bytes();
  /// Sets the budget; 0 restores the automatic default.
  static void set_memory_budget_bytes(std::uint64_t bytes);

  /// Initializes |0...0>.  Throws ValidationError beyond kMaxQubits or when
  /// the amplitudes would not fit in the memory budget.
  explicit Statevector(int num_qubits);

  const char* representation() const noexcept override { return "statevector"; }
  int num_qubits() const noexcept override { return num_qubits_; }
  /// Deep copy for per-shot trajectories (SimState contract).
  std::unique_ptr<SimState> clone() const override { return std::make_unique<Statevector>(*this); }
  std::uint64_t dim() const noexcept { return static_cast<std::uint64_t>(amps_.size()); }
  c64 amplitude(std::uint64_t index) const override { return amps_.at(index); }
  const std::vector<c64>& amplitudes() const noexcept { return amps_; }

  /// Resets to the basis state |index>.
  void set_basis_state(std::uint64_t index);

  /// Applies every unitary instruction of `circuit` (Barrier skipped; throws
  /// on Measure/Reset — collapse is the engine's job).  Routes through the
  /// gate-fusion pass, so direct statevector users pay the same collapsed
  /// sweep count as the engine; fusion composes matrices exactly, so the
  /// result is the same unitary including global phase.
  void apply_unitaries(const Circuit& circuit);

  // --- one-qubit kernels -----------------------------------------------------
  /// 2x2 unitary on qubit q: the pair walk's k = 1 butterfly.
  void apply_1q(int q, const Mat2& u) override;
  /// Diagonal 1q fast path: amp *= d0/d1 by bit value (halves with a factor
  /// of exactly 1 are skipped entirely).
  void apply_diag_1q(int q, c64 d0, c64 d1) override;
  /// Applies independent one-qubit unitaries on pairwise-distinct qubits,
  /// fusing them pairwise into k=2 dense sweeps: a gate pair tensors into a
  /// 4x4 unitary that costs the same multiply-adds as two 1q sweeps but half
  /// the state traffic, so a width-n layer (an rx mixer wall) pays ~n/2
  /// memory sweeps.  Equivalent to applying the gates one by one, in any
  /// order.  The sweep executor (sim/sweep.hpp) routes 1q runs through this.
  void apply_1q_layer(std::span<const std::pair<int, Mat2>> gates) override;

  // --- general k-qubit kernels (the fusion pass's back end) -------------------
  /// Applies a dense 2^k x 2^k unitary `u` (row-major; local bit j of the
  /// row/column index is the state of qubits[j], little-endian) to the
  /// k = qubits.size() distinct qubits, k in [1, kMaxKernelQubits].  Iterates
  /// the dim/2^k amplitude groups by bit-insertion expansion in contiguous
  /// cache-blocked runs; k == 2 takes a hand-unrolled four-pointer fast path.
  void apply_matrix(std::span<const int> qubits, const c64* u) override;
  /// Multiplies each amplitude by the 2^k diagonal `d` indexed by its local
  /// bits (ordering as apply_matrix); entries equal to exactly 1 are skipped,
  /// so k = 2 scales only its non-unit quadrants (CZ/CP touch dim/4).
  void apply_diag(std::span<const int> qubits, const c64* d) override;
  /// Applies a monomial (permutation-with-phases) unitary: the amplitude at
  /// local index m becomes phase[m] * (previous amplitude at src[m]).  `src`
  /// must be a permutation of [0, 2^k); rows with src[m] == m and phase 1 are
  /// untouched.  A single transposition on k <= 3 qubits runs on the pair
  /// walk: a plain exchange for unit phases, a 2x2 butterfly otherwise;
  /// everything else runs on the cycle walk.
  void apply_monomial(std::span<const int> qubits, const int* src, const c64* phase) override;

  // --- analysis ---------------------------------------------------------------
  double norm() const override;
  std::vector<double> probabilities() const override;
  /// probabilities() into a caller-owned buffer (resized to dim()): repeated
  /// callers — a sweep session sampling one binding after another — reuse
  /// warm pages instead of faulting in a fresh 2^n-double vector per run.
  void probabilities_into(std::vector<double>& out) const;
  /// P(qubit q = 1).
  double probability_one(int q) const;
  /// <Z_q>.
  double expectation_z(int q) const;
  /// <Z_a Z_b>.
  double expectation_zz(int a, int b) const;
  /// |<this|other>| (1 means equal up to global phase).
  double fidelity(const Statevector& other) const;

  // --- sampling and non-unitary operations --------------------------------------
  /// Batch-samples basis indices through a Walker alias table (O(1)/shot).
  /// The amplitudes are released once the table is built — the table's 12
  /// bytes per amplitude replace the state's 16, exactly the peak-memory
  /// discipline the engine's trailing path had when it scoped the
  /// statevector itself — so the state is consumed: only num_qubits()
  /// remains meaningful afterwards (SimState contract).
  BasisHistogram sample_basis(std::int64_t shots, Rng& rng) override;
  /// Projective Z measurement with collapse; returns the outcome bit.
  /// Probabilities are clamped against floating-point drift, so a
  /// near-deterministic outcome collapses cleanly instead of throwing.
  int measure_collapse(int q, Rng& rng) override;
  /// Measure-and-flip-to-zero.
  void reset_qubit(int q, Rng& rng) override;

 private:
  void check_qubit(int q) const;
  /// Validates a k-qubit kernel support (distinct, in range, k bounded);
  /// returns k.
  int check_support(std::span<const int> qubits) const;
  /// The cycle walk behind apply_monomial and apply_diag: applies the
  /// monomial (src, phase) on a validated support, where src is a known
  /// permutation (the identity for a diagonal).
  void cycle_walk(std::span<const int> qubits, const int* src, const c64* phase);

  int num_qubits_;
  std::vector<c64> amps_;
};

}  // namespace quml::sim
