#include "sim/sim_state.hpp"

#include "sim/fusion.hpp"
#include "sim/mps.hpp"
#include "sim/statevector.hpp"

namespace quml::sim {

const char* to_string(StateRep rep) noexcept {
  switch (rep) {
    case StateRep::Statevector: return "statevector";
    case StateRep::Mps: return "mps";
  }
  return "statevector";
}

void SimState::apply_1q_layer(std::span<const std::pair<int, Mat2>> gates) {
  for (const auto& [q, u] : gates) apply_1q(q, u);
}

void SimState::apply(const Instruction& inst) {
  if (inst.gate == Gate::Barrier) return;
  // One op per thread, refilled in place: gate-by-gate callers (the unfused
  // references) pay the gate's classification, not fresh tables per call.
  thread_local FusedOp op;
  fuse_gate(inst, op);
  apply_fused_op(*this, op);
}

std::unique_ptr<SimState> make_sim_state(int num_qubits, const StateConfig& config) {
  switch (config.representation) {
    case StateRep::Mps:
      return std::make_unique<Mps>(num_qubits, config.mps);
    case StateRep::Statevector:
      break;
  }
  return std::make_unique<Statevector>(num_qubits);
}

}  // namespace quml::sim
