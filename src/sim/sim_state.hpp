#pragma once
// Representation-neutral simulation-state interface.
//
// The middle layer's gate path used to be hard-wired to one concrete
// sim::Statevector.  SimState is the seam that breaks that monopoly: the
// fusion pass (sim/fusion) emits blocks against this interface, the engine
// (sim/engine) evolves/samples/collapses through it, and each representation
// — dense statevector (sim/statevector) or matrix product state (sim/mps) —
// implements the same fused-block kernels with its own data layout.  The
// scheduler can then treat "which representation" as a routing axis instead
// of a compile-time fact.
//
// Contract notes:
//  * Qubit i is bit i of a basis index (little-endian, the statevector
//    convention); every kernel's `u`/`d`/`perm` tables use local bit j =
//    qubits[j], exactly as documented on Statevector::apply_matrix.
//  * All apply_* payloads must be unitary.  Representations are free to
//    exploit that (an MPS applies a 1q unitary in place because it preserves
//    canonical form); feeding a non-unitary matrix is undefined.
//  * Randomness is always drawn from the caller's explicit Rng stream in a
//    documented order, so identical seeds reproduce identical outcomes per
//    representation regardless of threading.

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/circuit.hpp"
#include "util/rng.hpp"

namespace quml::sim {

/// Basis-index histogram produced by batch sampling (key: basis state, value:
/// shot count).  The engine maps it through the (qubit, clbit) measurement
/// list into rendered count strings.
using BasisHistogram = std::unordered_map<std::uint64_t, std::int64_t>;

/// Which concrete SimState a factory call builds.
enum class StateRep { Statevector, Mps };

/// "statevector" / "mps" (the capability-advertisement vocabulary).
const char* to_string(StateRep rep) noexcept;

/// Tuning knobs of the MPS representation (ignored by the statevector).
struct MpsConfig {
  /// Hard cap on every bond dimension; SVD truncation enforces it.  2^k
  /// exactly captures any k-qubit-entangled cut, so 64 is exact for GHZ
  /// ladders and shallow rings while bounding memory at
  /// O(n * 2 * max_bond_dim^2) amplitudes.
  int max_bond_dim = 64;
  /// Relative singular-value floor: after each two-site split, singular
  /// values below cutoff * sigma_max are discarded (then the kept spectrum is
  /// renormalized so the state stays a unit vector).  0 keeps everything up
  /// to max_bond_dim.
  double truncation_cutoff = 1e-12;
};

/// Factory configuration: representation choice plus its knobs.
struct StateConfig {
  StateRep representation = StateRep::Statevector;
  MpsConfig mps;
};

/// Abstract simulation state: the fused-block kernel surface plus the
/// sampling/collapse hooks the engine needs.  One SimState instance is not
/// thread-safe; clone() gives each trajectory its own copy.
class SimState {
 public:
  virtual ~SimState() = default;

  /// "statevector" or "mps" — the representation axis capability snapshots
  /// and result metadata report.
  virtual const char* representation() const noexcept = 0;
  virtual int num_qubits() const noexcept = 0;
  /// Deep copy (the trajectory path clones the shared prefix per shot).
  virtual std::unique_ptr<SimState> clone() const = 0;

  // --- fused-block kernels (sim/fusion's back end) ---------------------------
  virtual void apply_1q(int q, const Mat2& u) = 0;
  /// Diagonal 1q fast path: amp *= d0/d1 by bit value.
  virtual void apply_diag_1q(int q, c64 d0, c64 d1) = 0;
  /// Independent 1q unitaries on pairwise-distinct qubits; equivalent to
  /// applying them one by one in any order.  Default: the trivial loop;
  /// the statevector overrides with its pairwise-fused k=2 kernel.
  virtual void apply_1q_layer(std::span<const std::pair<int, Mat2>> gates);
  /// Dense 2^k x 2^k unitary `u` (row-major, local bit j = qubits[j]).
  virtual void apply_matrix(std::span<const int> qubits, const c64* u) = 0;
  /// 2^k diagonal `d` indexed by the local bits.
  virtual void apply_diag(std::span<const int> qubits, const c64* d) = 0;
  /// Monomial (permutation-with-phases) unitary: amplitude at local index m
  /// becomes phase[m] * (previous amplitude at src[m]).
  virtual void apply_monomial(std::span<const int> qubits, const int* src,
                              const c64* phase) = 0;
  /// Any unitary instruction, run as the op the fusion pass emits for it
  /// alone (sim::fuse_gate) on the kernels above: no representation has
  /// per-gate kernels.  Barrier is a no-op; Measure, Reset and unbound
  /// parameters throw ValidationError.  Callers replaying a gate many times
  /// (trajectories) build its op once instead.
  void apply(const Instruction& inst);

  // --- analysis --------------------------------------------------------------
  virtual double norm() const = 0;
  /// Amplitude of one basis state (exact; O(1) dense, O(n * chi^2) MPS).
  virtual c64 amplitude(std::uint64_t basis) const = 0;
  /// Full |amp|^2 vector — 2^n doubles, so testing/analysis widths only.
  virtual std::vector<double> probabilities() const = 0;

  // --- sampling and non-unitary hooks ---------------------------------------
  /// Batch-samples `shots` basis indices from the current distribution.
  /// Draw order per shot is representation-defined but fixed: the
  /// statevector consumes one (next_below, next_double) pair per shot via
  /// its alias table; the MPS consumes one next_double per qubit per shot
  /// (left-to-right conditional contraction).  May mutate internal layout
  /// (canonical-form moves, releasing dense amplitudes) but the sampled
  /// distribution is unchanged; treat the state as consumed afterwards.
  virtual BasisHistogram sample_basis(std::int64_t shots, Rng& rng) = 0;
  /// Projective Z measurement with collapse; returns the outcome bit.
  virtual int measure_collapse(int q, Rng& rng) = 0;
  /// Measure-and-flip-to-zero.
  virtual void reset_qubit(int q, Rng& rng) = 0;
};

/// Builds the configured representation in |0...0>.  Throws ValidationError
/// when `num_qubits` exceeds the representation's capacity (statevector:
/// kMaxQubits/memory budget; MPS: Mps::kMaxQubits).
std::unique_ptr<SimState> make_sim_state(int num_qubits, const StateConfig& config = {});

}  // namespace quml::sim
