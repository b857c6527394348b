#include "sim/engine.hpp"

#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <utility>

#include "sim/fusion.hpp"
#include "util/alias_table.hpp"
#include "util/bits.hpp"
#include "util/errors.hpp"

namespace quml::sim {

namespace {

std::string render_clbits(std::uint64_t clbit_word, int num_clbits) {
  return to_bitstring(clbit_word, static_cast<unsigned>(num_clbits));
}

/// A fused unitary segment followed by one non-unitary boundary instruction
/// (Measure or Reset); the final segment of a program has no boundary.
struct Segment {
  std::vector<FusedOp> ops;
  Instruction boundary{};
  bool has_boundary = false;
};

/// Splits a circuit into fused unitary segments at Measure/Reset boundaries.
/// Fusion runs once, outside the shot loop, so every trajectory replays the
/// compact program.  A trailing unitary-only segment cannot influence any
/// recorded clbit and is dropped.
std::vector<Segment> fuse_segments(const Circuit& circuit, const FusionOptions& options) {
  std::vector<Segment> segments;
  std::vector<Instruction> pending;
  for (const auto& inst : circuit.instructions()) {
    if (inst.gate == Gate::Measure || inst.gate == Gate::Reset) {
      Segment seg;
      seg.ops = fuse_unitaries(pending, circuit.num_qubits(), options);
      seg.boundary = inst;
      seg.has_boundary = true;
      segments.push_back(std::move(seg));
      pending.clear();
    } else {
      pending.push_back(inst);  // Barrier included: it fences fusion
    }
  }
  return segments;
}

}  // namespace

std::optional<TerminalSplit> split_terminal_measurements(const Circuit& circuit) {
  // Index of the last instruction other than a Barrier or Measure on each
  // qubit: a Measure after it is terminal.
  const std::vector<Instruction>& program = circuit.instructions();
  std::vector<std::ptrdiff_t> last_gate(static_cast<std::size_t>(circuit.num_qubits()), -1);
  for (std::size_t i = 0; i < program.size(); ++i) {
    const Instruction& inst = program[i];
    if (inst.gate == Gate::Reset) return std::nullopt;
    if (inst.gate == Gate::Barrier || inst.gate == Gate::Measure) continue;
    for (const int q : inst.qubits)
      last_gate[static_cast<std::size_t>(q)] = static_cast<std::ptrdiff_t>(i);
  }
  TerminalSplit split;
  for (std::size_t i = 0; i < program.size(); ++i) {
    const Instruction& inst = program[i];
    if (inst.gate != Gate::Measure) {
      split.unitaries.push_back(inst);
      continue;
    }
    if (last_gate[static_cast<std::size_t>(inst.qubits[0])] > static_cast<std::ptrdiff_t>(i))
      return std::nullopt;
    split.measurements.emplace_back(inst.qubits[0], inst.clbits[0]);
  }
  return split;
}

CountMap counts_from_alias_table(const AliasTable& table,
                                 const std::vector<std::pair<int, int>>& measurements,
                                 int num_clbits, std::int64_t shots, Rng& rng) {
  // Histogram basis indices first (amortized O(1) per shot); clbit mapping
  // and string rendering then run once per distinct outcome, and the final
  // string-keyed CountMap re-establishes deterministic order.
  BasisHistogram basis_counts;
  for (std::int64_t shot = 0; shot < shots; ++shot)
    ++basis_counts[static_cast<std::uint64_t>(table.sample(rng))];
  return counts_from_basis_histogram(basis_counts, measurements, num_clbits);
}

CountMap counts_from_basis_histogram(const BasisHistogram& histogram,
                                     const std::vector<std::pair<int, int>>& measurements,
                                     int num_clbits) {
  CountMap counts;
  for (const auto& [basis, n] : histogram) {
    std::uint64_t clbits = 0;
    for (const auto& [q, c] : measurements)
      clbits = with_bit(clbits, static_cast<unsigned>(c), bit_at(basis, static_cast<unsigned>(q)));
    counts[render_clbits(clbits, num_clbits)] += n;
  }
  return counts;
}

FusionOptions Engine::fusion_options() const {
  if (config_.representation == StateRep::Mps) {
    // A k-qubit block on the MPS costs a chi^3-dominated window contraction
    // (plus swap routing for non-adjacent support), so fusing wide is a
    // pessimization there: keep dense blocks at 2 qubits and structured ones
    // at 4.
    FusionOptions options;
    options.max_qubits = 2;
    options.max_structured_qubits = 4;
    return options;
  }
  return {};
}

std::unique_ptr<SimState> Engine::run_state(const Circuit& circuit) const {
  if (circuit.is_parameterized())
    throw ValidationError("circuit has unbound parameters; bind() it or use sim::SweepPlan");
  std::unique_ptr<SimState> state = make_sim_state(circuit.num_qubits(), config_);
  apply_fused(*state, fuse_unitaries(circuit, fusion_options()));  // throws on Measure/Reset
  return state;
}

Statevector Engine::run_statevector(const Circuit& circuit) const {
  if (circuit.is_parameterized())
    throw ValidationError("circuit has unbound parameters; bind() it or use sim::SweepPlan");
  StateConfig dense;
  dense.representation = StateRep::Statevector;
  std::unique_ptr<SimState> state = make_sim_state(circuit.num_qubits(), dense);
  apply_fused(*state, fuse_unitaries(circuit));
  return std::move(static_cast<Statevector&>(*state));
}

CountMap Engine::run_counts(const Circuit& circuit, std::int64_t shots, std::uint64_t seed) const {
  if (circuit.is_parameterized())
    throw ValidationError("circuit has unbound parameters; bind() it or use sim::SweepPlan");
  if (shots <= 0) throw ValidationError("shots must be positive");
  if (circuit.num_clbits() <= 0)
    throw ValidationError("circuit has no classical bits to sample into");
  if (circuit.num_clbits() > 63)
    throw ValidationError("at most 63 clbits supported");

  CountMap counts;
  Rng rng(seed);
  const FusionOptions fusion = fusion_options();

  if (const std::optional<TerminalSplit> split = split_terminal_measurements(circuit)) {
    // Terminal path: evolve the fused unitaries once, then batch-sample all
    // shots via the representation's native sampler.  sample_basis is
    // allowed to consume the state (the statevector releases its amplitudes
    // once its alias table is built), so the shot loop runs against the
    // sampler's working set only.
    if (split->measurements.empty()) throw ValidationError("circuit contains no measurements");
    std::unique_ptr<SimState> state = make_sim_state(circuit.num_qubits(), config_);
    apply_fused(*state, fuse_unitaries(split->unitaries, circuit.num_qubits(), fusion));
    const BasisHistogram histogram = state->sample_basis(shots, rng);
    return counts_from_basis_histogram(histogram, split->measurements, circuit.num_clbits());
  }

  // Mid-circuit path: per-shot trajectory simulation with collapse.  The
  // unitary prefix before the first measurement is evolved once and cloned
  // into each trajectory (measurements commute with nothing that precedes
  // them, so the prefix state is shot-invariant); the remaining segments are
  // fused once and replayed per shot.
  const std::vector<Segment> segments = fuse_segments(circuit, fusion);
  bool has_measure = false;
  for (const auto& seg : segments)
    if (seg.has_boundary && seg.boundary.gate == Gate::Measure) has_measure = true;
  if (!has_measure) throw ValidationError("circuit contains no measurements");

  const std::unique_ptr<SimState> prefix = make_sim_state(circuit.num_qubits(), config_);
  apply_fused(*prefix, segments.front().ops);

  for (std::int64_t shot = 0; shot < shots; ++shot) {
    Rng shot_rng = rng.split(static_cast<std::uint64_t>(shot));
    const std::unique_ptr<SimState> state = prefix->clone();
    std::uint64_t clbits = 0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      const Segment& seg = segments[s];
      if (s > 0) apply_fused(*state, seg.ops);
      if (!seg.has_boundary) continue;
      if (seg.boundary.gate == Gate::Measure) {
        const int bit = state->measure_collapse(seg.boundary.qubits[0], shot_rng);
        clbits = with_bit(clbits, static_cast<unsigned>(seg.boundary.clbits[0]), bit);
      } else {
        state->reset_qubit(seg.boundary.qubits[0], shot_rng);
      }
    }
    ++counts[render_clbits(clbits, circuit.num_clbits())];
  }
  return counts;
}

}  // namespace quml::sim
