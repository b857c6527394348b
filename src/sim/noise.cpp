#include "sim/noise.hpp"

#include "util/bits.hpp"
#include "util/errors.hpp"

namespace quml::sim {

void NoiseModel::validate() const {
  for (const double p : {depolarizing_1q, depolarizing_2q, readout_flip})
    if (p < 0.0 || p > 1.0) throw ValidationError("noise probability outside [0, 1]");
}

namespace {

/// Pauli k (1 = X, 2 = Y, 3 = Z) on qubit q is paulis[3 * q + k - 1]; k = 0
/// is the identity.
void apply_pauli(Statevector& state, const std::vector<FusedOp>& paulis, int q,
                 std::uint64_t k) {
  if (k != 0) apply_fused_op(state, paulis[3 * static_cast<std::size_t>(q) + k - 1]);
}

/// Depolarizing channel on one qubit: with probability p insert a uniformly
/// random non-identity Pauli.
void depolarize_1q(Statevector& state, const std::vector<FusedOp>& paulis, int q, double p,
                   Rng& rng) {
  if (p > 0.0 && rng.next_double() < p) apply_pauli(state, paulis, q, 1 + rng.next_below(3));
}

/// Two-qubit depolarizing channel: with probability p insert one of the 15
/// non-identity two-qubit Paulis uniformly.
void depolarize_2q(Statevector& state, const std::vector<FusedOp>& paulis, int a, int b,
                   double p, Rng& rng) {
  if (p <= 0.0 || rng.next_double() >= p) return;
  const std::uint64_t pauli = 1 + rng.next_below(15);  // 1..15, skips II
  apply_pauli(state, paulis, a, pauli & 3);
  apply_pauli(state, paulis, b, (pauli >> 2) & 3);
}

}  // namespace

CountMap NoisyEngine::run_counts(const Circuit& circuit, std::int64_t shots, std::uint64_t seed,
                                 const NoiseModel& model) const {
  model.validate();
  if (shots <= 0) throw ValidationError("shots must be positive");
  if (circuit.num_clbits() <= 0 || circuit.num_clbits() > 63)
    throw ValidationError("noisy engine needs 1..63 clbits");

  // Every gate's op, and every Pauli a channel can insert, is built once per
  // run: the shot loop only replays them.
  const std::vector<Instruction>& program = circuit.instructions();
  std::vector<FusedOp> ops(program.size());
  for (std::size_t i = 0; i < program.size(); ++i)
    if (gate_is_unitary(program[i].gate)) fuse_gate(program[i], ops[i]);
  const Gate pauli[] = {Gate::X, Gate::Y, Gate::Z};
  std::vector<FusedOp> paulis(3 * static_cast<std::size_t>(circuit.num_qubits()));
  for (std::size_t i = 0; i < paulis.size(); ++i)
    fuse_gate(Instruction{pauli[i % 3], {static_cast<int>(i / 3)}, {}, {}, {}}, paulis[i]);

  CountMap counts;
  const Rng base(seed);
  for (std::int64_t shot = 0; shot < shots; ++shot) {
    Rng rng = base.split(static_cast<std::uint64_t>(shot));
    Statevector state(circuit.num_qubits());
    std::uint64_t clbits = 0;
    bool measured = false;
    for (std::size_t i = 0; i < program.size(); ++i) {
      const Instruction& inst = program[i];
      switch (inst.gate) {
        case Gate::Barrier:
          break;
        case Gate::Measure: {
          int bit = state.measure_collapse(inst.qubits[0], rng);
          if (model.readout_flip > 0.0 && rng.next_double() < model.readout_flip) bit ^= 1;
          clbits = with_bit(clbits, static_cast<unsigned>(inst.clbits[0]), bit);
          measured = true;
          break;
        }
        case Gate::Reset:
          state.reset_qubit(inst.qubits[0], rng);
          depolarize_1q(state, paulis, inst.qubits[0], model.depolarizing_1q, rng);
          break;
        default: {
          apply_fused_op(state, ops[i]);
          if (inst.qubits.size() == 1) {
            depolarize_1q(state, paulis, inst.qubits[0], model.depolarizing_1q, rng);
          } else if (inst.qubits.size() == 2) {
            depolarize_2q(state, paulis, inst.qubits[0], inst.qubits[1], model.depolarizing_2q,
                          rng);
          } else {
            // 3q gates: apply the 2q channel pairwise (transpile first for
            // realistic targets; this keeps untranspiled circuits runnable).
            depolarize_2q(state, paulis, inst.qubits[0], inst.qubits[1], model.depolarizing_2q,
                          rng);
            depolarize_1q(state, paulis, inst.qubits[2], model.depolarizing_1q, rng);
          }
        }
      }
    }
    if (!measured) throw ValidationError("circuit contains no measurements");
    ++counts[to_bitstring(clbits, static_cast<unsigned>(circuit.num_clbits()))];
  }
  return counts;
}

}  // namespace quml::sim
