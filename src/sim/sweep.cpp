#include "sim/sweep.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/errors.hpp"

namespace quml::sim {

double sweep_reference_value(int index) {
  // Distinct irrationals, far from every pi/2 multiple: the golden-angle
  // progression never lands two slots on values whose gate matrices compose
  // to an exact identity by coincidence (exact FP equality against 1.0 is
  // what the fusion pass's identity test uses).
  return 0.5772156649015329 + 0.3819660112501051 * static_cast<double>(index + 1);
}

std::vector<double> sweep_reference_binding(int count) {
  std::vector<double> values(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) values[static_cast<std::size_t>(i)] = sweep_reference_value(i);
  return values;
}

namespace {

bool is_one_qubit_kind(const FusedOp& op) {
  return op.kind == FusedOp::Kind::Unitary1Q || op.kind == FusedOp::Kind::Diag1Q;
}

Mat2 mat2_of_op(const FusedOp& op) {
  if (op.kind == FusedOp::Kind::Diag1Q) {
    Mat2 m{};
    m.m[0][0] = op.d0;
    m.m[1][1] = op.d1;
    return m;
  }
  return op.u;
}

}  // namespace

SweepPlan::SweepPlan(const Circuit& circuit, FusionOptions options)
    : num_qubits_(circuit.num_qubits()),
      num_clbits_(circuit.num_clbits()),
      num_parameters_(circuit.num_parameters()) {
  // Split the program: unitary stream + terminal measurement list.
  std::optional<TerminalSplit> split = split_terminal_measurements(circuit);
  if (!split)
    throw ValidationError(
        "sweep plans need terminal measurements and no Reset; run per-binding trajectories");
  unitaries_ = std::move(split->unitaries);
  measurements_ = std::move(split->measurements);

  // Fuse once at the generic reference binding.  keep_identity_blocks: a
  // block that composes to identity at the reference must survive so other
  // bindings can re-bind it.
  options.keep_identity_blocks = true;
  const std::vector<double> reference = sweep_reference_binding(num_parameters_);
  std::vector<Instruction> bound = unitaries_;
  for (Instruction& inst : bound) {
    bind_instruction_params(inst, reference);
    inst.symbols.clear();
  }
  ops_ = fuse_unitaries(bound, num_qubits_, options, &stats_.fusion);

  // Which ops depend on a symbolic source?
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    for (const std::int32_t s : ops_[i].sources) {
      if (unitaries_[static_cast<std::size_t>(s)].is_parameterized()) {
        dynamic_.push_back(i);
        break;
      }
    }
  }

  // Maximal static prefix: every op before the first dynamic one is evolved
  // once here and copied into each run.
  const std::size_t prefix = dynamic_.empty() ? ops_.size() : dynamic_.front();
  if (prefix > 0) {
    Statevector state(num_qubits_);
    for (std::size_t i = 0; i < prefix; ++i) apply_fused_op(state, ops_[i]);
    prefix_state_.emplace(std::move(state));
  }

  // Group the remainder into steps; runs of >= 2 one-qubit ops on distinct
  // wires become cache-blocked layer groups.
  std::size_t i = prefix;
  while (i < ops_.size()) {
    if (!is_one_qubit_kind(ops_[i])) {
      steps_.push_back({i, i + 1, false});
      ++i;
      continue;
    }
    std::uint64_t seen = 0;
    std::size_t j = i;
    while (j < ops_.size() && is_one_qubit_kind(ops_[j]) &&
           !((seen >> ops_[j].qubit) & 1ull)) {
      seen |= 1ull << ops_[j].qubit;
      ++j;
    }
    if (j - i >= 2) {
      steps_.push_back({i, j, true});
      ++stats_.layer_groups;
    } else {
      steps_.push_back({i, i + 1, false});
      j = i + 1;
    }
    i = j;
  }

  stats_.ops = ops_.size();
  stats_.dynamic_ops = dynamic_.size();
  stats_.prefix_ops = prefix;
}

SweepPlan::~SweepPlan() = default;

// --- Session -----------------------------------------------------------------

SweepPlan::Session::Session(const SweepPlan& plan) : plan_(&plan), program_(plan.unitaries_) {
  rebound_.reserve(plan.dynamic_.size());
  sig_.resize(plan.dynamic_.size());
  changed_.assign(plan.dynamic_.size(), true);
  for (const std::size_t i : plan.dynamic_) rebound_.push_back(plan.ops_[i]);
}

void SweepPlan::Session::bind(std::span<const double> values) {
  if (static_cast<int>(values.size()) < plan_->num_parameters_)
    throw ValidationError("sweep binding has " + std::to_string(values.size()) +
                          " values but the plan references " +
                          std::to_string(plan_->num_parameters_) + " parameters");
  for (Instruction& inst : program_) bind_instruction_params(inst, values);

  // Re-bind only ops whose source params actually changed (a grid sweep in
  // row-major order re-binds the slow axis once per row, not per point).
  for (std::size_t j = 0; j < rebound_.size(); ++j) {
    std::vector<double>& sig = sig_[j];
    std::vector<double> now;
    for (const std::int32_t s : rebound_[j].sources) {
      const Instruction& inst = program_[static_cast<std::size_t>(s)];
      if (inst.is_parameterized())
        now.insert(now.end(), inst.params.begin(), inst.params.end());
    }
    if (!sig.empty() && sig == now) {
      changed_[j] = false;
      continue;
    }
    rebind_fused_op(rebound_[j], program_);
    sig = std::move(now);
    changed_[j] = true;
  }
}

const FusedOp& SweepPlan::Session::op_at(std::size_t index, std::size_t& next_dyn) const {
  // dynamic_ is ascending; steps walk ops in ascending order.
  if (next_dyn < plan_->dynamic_.size() && plan_->dynamic_[next_dyn] == index)
    return rebound_[next_dyn++];
  return plan_->ops_[index];
}

void SweepPlan::Session::apply_step(std::size_t step, std::size_t& next_dyn) {
  const Step& s = plan_->steps_[step];
  if (!s.layer) {
    apply_fused_op(*state_, op_at(s.begin, next_dyn));
    return;
  }
  layer_.clear();
  for (std::size_t i = s.begin; i < s.end; ++i) {
    const FusedOp& op = op_at(i, next_dyn);
    layer_.emplace_back(op.qubit, mat2_of_op(op));
  }
  state_->apply_1q_layer(layer_);
}

void SweepPlan::Session::evolve() {
  const std::vector<Step>& steps = plan_->steps_;
  const std::vector<std::size_t>& dynamic = plan_->dynamic_;

  // First step whose dynamic ops moved since the previous run: everything
  // before it would reproduce the previous run's intermediate state.
  std::size_t first_changed = steps.size();
  {
    std::size_t j = 0;
    for (std::size_t s = 0; s < steps.size() && first_changed == steps.size(); ++s) {
      while (j < dynamic.size() && dynamic[j] < steps[s].begin) ++j;
      for (std::size_t t = j; t < dynamic.size() && dynamic[t] < steps[s].end; ++t)
        if (changed_[t]) {
          first_changed = s;
          break;
        }
    }
  }

  // A checkpoint is reusable when every dynamic op it folded in still has
  // the parameters it was taken under.
  bool ckpt_valid = ckpt_state_.has_value();
  if (ckpt_valid) {
    std::size_t covered = 0;
    for (std::size_t j = 0; j < dynamic.size(); ++j)
      if (dynamic[j] < plan_->steps_[ckpt_steps_ - 1].end) ++covered;  // ckpt_steps_ >= 1
    for (std::size_t j = 0; j < covered && ckpt_valid; ++j)
      ckpt_valid = ckpt_sig_[j] == sig_[j];
  }

  std::size_t start = 0;
  std::size_t next_dyn = 0;
  if (ckpt_valid) {
    if (state_)
      *state_ = *ckpt_state_;
    else
      state_.emplace(*ckpt_state_);
    start = ckpt_steps_;
    while (next_dyn < dynamic.size() && dynamic[next_dyn] < steps[ckpt_steps_ - 1].end)
      ++next_dyn;
  } else if (plan_->prefix_state_) {
    if (state_)
      *state_ = *plan_->prefix_state_;  // reuses the existing allocation
    else
      state_.emplace(*plan_->prefix_state_);
  } else if (state_) {
    state_->set_basis_state(0);
  } else {
    state_.emplace(plan_->num_qubits_);
  }

  // (Re)take the checkpoint just before the first step that moved, when that
  // point is strictly past the resume point (otherwise it would duplicate
  // the prefix or the existing checkpoint).
  const bool retake = first_changed > start && first_changed < steps.size() &&
                      !(ckpt_valid && ckpt_steps_ == first_changed);
  for (std::size_t s = start; s < steps.size(); ++s) {
    if (retake && s == first_changed) {
      if (ckpt_state_)
        *ckpt_state_ = *state_;
      else
        ckpt_state_.emplace(*state_);
      ckpt_steps_ = first_changed;
      ckpt_sig_.clear();
      for (std::size_t j = 0; j < dynamic.size(); ++j)
        if (dynamic[j] < steps[first_changed].begin) ckpt_sig_.push_back(sig_[j]);
    }
    apply_step(s, next_dyn);
  }
}

CountMap SweepPlan::Session::run_counts(std::span<const double> values, std::int64_t shots,
                                        std::uint64_t seed) {
  if (shots <= 0) throw ValidationError("shots must be positive");
  if (plan_->measurements_.empty())
    throw ValidationError("sweep plan circuit contains no measurements");
  if (plan_->num_clbits_ <= 0 || plan_->num_clbits_ > 63)
    throw ValidationError("sweep plans support 1..63 classical bits");
  bind(values);
  evolve();
  Rng rng(seed);
  // Warm-buffer sampling: probabilities land in the session's scratch and
  // rebuild() swaps buffers with the previous binding's table, so a long
  // sweep pays the 2^n-double allocations exactly once.
  state_->probabilities_into(prob_);
  table_.rebuild(prob_);
  return counts_from_alias_table(table_, plan_->measurements_, plan_->num_clbits_, shots, rng);
}

Statevector SweepPlan::Session::run_statevector(std::span<const double> values) {
  bind(values);
  evolve();
  return *state_;
}

}  // namespace quml::sim
