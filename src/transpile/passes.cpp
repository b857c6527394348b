#include "transpile/passes.hpp"

#include <cmath>
#include <optional>

#include "util/errors.hpp"

namespace quml::transpile {

using sim::Circuit;
using sim::Gate;
using sim::Instruction;
using sim::Mat2;

namespace {

constexpr double kPi = 3.14159265358979323846;

bool angle_zero_mod(double angle, double period) {
  return std::abs(std::remainder(angle, period)) < 1e-11;
}

/// Gates whose operand order is irrelevant.
bool is_symmetric_2q(Gate g) {
  return g == Gate::CZ || g == Gate::CP || g == Gate::SWAP || g == Gate::RZZ;
}

bool same_operands(const Instruction& a, const Instruction& b) {
  if (a.qubits.size() != b.qubits.size()) return false;
  if (a.qubits == b.qubits) return true;
  if (a.qubits.size() == 2 && is_symmetric_2q(a.gate) && a.gate == b.gate)
    return a.qubits[0] == b.qubits[1] && a.qubits[1] == b.qubits[0];
  return false;
}

/// Fixed (non-parameterized) inverse-pair table.
bool is_fixed_inverse(Gate a, Gate b) {
  switch (a) {
    case Gate::X:
    case Gate::Y:
    case Gate::Z:
    case Gate::H:
    case Gate::CX:
    case Gate::CY:
    case Gate::CZ:
    case Gate::SWAP:
    case Gate::CCX:
    case Gate::CSWAP:
      return a == b;
    case Gate::S: return b == Gate::Sdg;
    case Gate::Sdg: return b == Gate::S;
    case Gate::T: return b == Gate::Tdg;
    case Gate::Tdg: return b == Gate::T;
    case Gate::SX: return b == Gate::SXdg;
    case Gate::SXdg: return b == Gate::SX;
    default: return false;
  }
}

/// Rotation gates that merge by angle addition, with the period at which the
/// merged gate becomes trivial (identity up to *global* phase).
std::optional<double> merge_period(Gate g) {
  switch (g) {
    case Gate::RX:
    case Gate::RY:
    case Gate::RZ:
    case Gate::RZZ:
      return 2.0 * kPi;  // rotation(2π) = -I, a global phase
    case Gate::P:
    case Gate::CP:
      return 2.0 * kPi;  // exact identity at 2π
    case Gate::CRZ:
      return 4.0 * kPi;  // CRZ(2π) = controlled-(-I) is NOT trivial
    default:
      return std::nullopt;
  }
}

}  // namespace

sim::Circuit cancel_and_merge(const sim::Circuit& circuit) {
  const auto& input = circuit.instructions();
  std::vector<Instruction> work(input.begin(), input.end());
  std::vector<bool> removed(work.size(), false);
  // Per-qubit stack of indices of live instructions touching that qubit.
  std::vector<std::vector<std::size_t>> stacks(static_cast<std::size_t>(circuit.num_qubits()));

  auto top_common = [&](const Instruction& inst) -> std::optional<std::size_t> {
    std::optional<std::size_t> common;
    for (const int q : inst.qubits) {
      auto& stack = stacks[static_cast<std::size_t>(q)];
      if (stack.empty()) return std::nullopt;
      if (!common)
        common = stack.back();
      else if (*common != stack.back())
        return std::nullopt;
    }
    return common;
  };

  auto pop_from_stacks = [&](std::size_t index) {
    for (const int q : work[index].qubits) {
      auto& stack = stacks[static_cast<std::size_t>(q)];
      if (!stack.empty() && stack.back() == index) stack.pop_back();
    }
  };

  for (std::size_t i = 0; i < work.size(); ++i) {
    Instruction& inst = work[i];
    if (inst.gate == Gate::Barrier) {
      // A barrier blocks optimization across it on every qubit.
      for (auto& stack : stacks) stack.push_back(i);
      continue;
    }

    if (gate_is_unitary(inst.gate) && !inst.is_parameterized()) {
      if (const auto prev = top_common(inst)) {
        Instruction& before = work[*prev];
        if (gate_is_unitary(before.gate) && !before.is_parameterized() &&
            same_operands(before, inst) && before.qubits.size() == inst.qubits.size()) {
          // Exact inverse pair -> both vanish.
          if (before.params.empty() && inst.params.empty() &&
              is_fixed_inverse(before.gate, inst.gate) &&
              (is_symmetric_2q(before.gate) || before.qubits == inst.qubits)) {
            pop_from_stacks(*prev);
            removed[*prev] = true;
            removed[i] = true;
            continue;
          }
          // Same-axis rotations -> merge angles into the earlier one.
          if (before.gate == inst.gate && merge_period(inst.gate) &&
              (is_symmetric_2q(inst.gate) || before.qubits == inst.qubits)) {
            before.params[0] += inst.params[0];
            removed[i] = true;
            if (angle_zero_mod(before.params[0], *merge_period(inst.gate))) {
              pop_from_stacks(*prev);
              removed[*prev] = true;
            }
            continue;
          }
        }
      }
    }
    for (const int q : inst.qubits) stacks[static_cast<std::size_t>(q)].push_back(i);
  }

  Circuit out(circuit.num_qubits(), circuit.num_clbits());
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (removed[i]) continue;
    // Drop merged rotations that became trivial but weren't popped (single
    // occurrence of a zero-angle rotation in the input).  A symbolic angle is
    // never trivial: it only *happens* to be zero under one binding.
    if (gate_is_unitary(work[i].gate) && work[i].params.size() == 1 &&
        !work[i].is_parameterized()) {
      if (const auto period = merge_period(work[i].gate);
          period && angle_zero_mod(work[i].params[0], *period))
        continue;
    }
    out.push(work[i]);
  }
  return out;
}

sim::Circuit fuse_1q_runs(const sim::Circuit& circuit, const BasisSet& basis) {
  Circuit out(circuit.num_qubits(), circuit.num_clbits());
  std::vector<std::optional<Mat2>> pending(static_cast<std::size_t>(circuit.num_qubits()));

  auto flush = [&](int q) {
    auto& acc = pending[static_cast<std::size_t>(q)];
    if (!acc) return;
    synthesize_1q(*acc, q, basis, out);
    acc.reset();
  };

  for (const Instruction& inst : circuit.instructions()) {
    if (gate_is_unitary(inst.gate) && inst.qubits.size() == 1 && !inst.is_parameterized()) {
      const Mat2 m = sim::gate_matrix_1q(inst.gate, inst.params.data());
      auto& acc = pending[static_cast<std::size_t>(inst.qubits[0])];
      acc = acc ? (m * *acc) : m;  // later gate composes on the left
      continue;
    }
    if (inst.gate == Gate::Barrier) {
      for (int q = 0; q < circuit.num_qubits(); ++q) flush(q);
      out.barrier();
      continue;
    }
    // Measure and Reset flush every pending run, as a Barrier does, so no
    // gate moves past a measurement: a circuit that ends in its measurements
    // still does, and the engine samples it once instead of per shot.
    if (inst.gate == Gate::Measure || inst.gate == Gate::Reset) {
      for (int q = 0; q < circuit.num_qubits(); ++q) flush(q);
      out.push(inst);
      continue;
    }
    // A symbolic gate cannot join a resynthesized run: it fences its qubits.
    for (const int q : inst.qubits) flush(q);
    out.push(inst);
  }
  for (int q = 0; q < circuit.num_qubits(); ++q) flush(q);
  return out;
}

sim::Circuit optimize(const sim::Circuit& circuit, const BasisSet& basis, int level) {
  if (level <= 0) return circuit;
  Circuit current = cancel_and_merge(circuit);
  if (level == 1) return current;

  const int max_rounds = level >= 3 ? 5 : 1;
  for (int round = 0; round < max_rounds; ++round) {
    const std::size_t before = current.size();
    current = fuse_1q_runs(current, basis);
    current = cancel_and_merge(current);
    if (current.size() >= before) break;  // fixpoint (or no improvement)
  }
  return current;
}

}  // namespace quml::transpile
