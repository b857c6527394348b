#include "backend/gate_backend.hpp"

#include "backend/lowering.hpp"
#include "backend/sweep.hpp"
#include "pulse/schedule.hpp"
#include "qec/surface.hpp"
#include "sim/engine.hpp"
#include "sim/mps.hpp"
#include "sim/noise.hpp"
#include "sim/qasm.hpp"
#include "transpile/transpiler.hpp"
#include "util/errors.hpp"
#include "util/stopwatch.hpp"

namespace quml::backend {

namespace {

/// Engine-level knobs from the context's exec.options block (schema-validated
/// upstream; re-checked by the Mps constructor).
sim::StateConfig state_config_for(sim::StateRep representation, const core::ExecPolicy& exec) {
  sim::StateConfig config;
  config.representation = representation;
  if (representation == sim::StateRep::Mps) {
    config.mps.max_bond_dim =
        static_cast<int>(exec.options.get_int("max_bond_dim", config.mps.max_bond_dim));
    config.mps.truncation_cutoff =
        exec.options.get_double("truncation_cutoff", config.mps.truncation_cutoff);
  }
  return config;
}

}  // namespace

std::string GateBackend::name() const {
  return representation_ == sim::StateRep::Mps ? "gate.mps_simulator"
                                               : "gate.statevector_simulator";
}

int GateBackend::max_width() const {
  if (representation_ == sim::StateRep::Mps) return sim::Mps::kMaxQubits;
  // Advertise the width this host can actually execute, not just construct:
  // the engine's peak footprint is ~2x the amplitude storage (amplitudes +
  // probabilities while building the sampler; prefix + per-shot copy on the
  // trajectory path), so size against that — otherwise the scheduler admits
  // jobs that die mid-run instead of at admission.
  int max_width = sim::Statevector::kMaxQubits;
  while (max_width > 0 &&
         2 * sim::Statevector::required_bytes(max_width) > sim::Statevector::memory_budget_bytes())
    --max_width;
  return max_width;
}

core::ExecutionResult GateBackend::run(const core::JobBundle& bundle) {
  Stopwatch timer;
  const core::Context ctx = bundle.context.value_or(core::Context{});
  const core::ExecPolicy& exec = ctx.exec;

  // 1. Lower descriptors -> logical circuit (realization hooks + readout from
  // the effective result schema; shared with the tools' fusion preview).
  const sim::Circuit logical = lower_bundle(bundle);
  if (logical.is_parameterized())
    throw BackendError("bundle '" + bundle.job_id + "' declares free parameters; submit it "
                       "through submit_sweep or bind values with core::bind_bundle first");

  // Early capacity rejection: fail before transpilation or state allocation,
  // naming the cap and the wide alternative.
  const int cap = max_width();
  if (logical.num_qubits() > cap) {
    std::string message = "circuit needs " + std::to_string(logical.num_qubits()) +
                          " qubits but engine '" + name() + "' caps at " + std::to_string(cap);
    if (representation_ != sim::StateRep::Mps)
      message += "; low-entanglement circuits this wide can run on 'gate.mps_simulator'";
    throw ValidationError(message);
  }

  const core::RegisterSet& regs = bundle.registers;
  const core::ResultSchema* schema = effective_schema(bundle.operators);
  if (!schema || schema->clbit_order.empty())  // lower_bundle validated this; guard regardless
    throw LoweringError("gate backend needs a result schema with a clbit_order");
  const std::string& readout_reg = schema->clbit_order.front().reg;

  // 2. Transpile per the context target (options realized by the helper the
  // sweep realization shares, so both paths compile identically).
  const transpile::TranspileOptions topts = transpile_options_for(exec);
  const transpile::TranspileResult transpiled = transpile::transpile(logical, topts);

  // 3. Orthogonal context services.
  json::Value services = json::Value::object();
  if (ctx.qec) {
    qec::check_logical_gate_set(*ctx.qec, logical.gate_counts());
    const qec::QecResourceEstimate estimate = qec::estimate_resources(
        *ctx.qec, logical.num_qubits(), logical.depth(), logical.gate_counts());
    services.set("qec", estimate.to_json());
  }
  if (ctx.pulse && ctx.pulse->enabled) {
    const pulse::PulseSchedule schedule = pulse::lower_to_pulse(transpiled.circuit, *ctx.pulse);
    json::Value pulse_meta = json::Value::object();
    pulse_meta.set("total_duration_ns", json::Value(schedule.total_duration_ns));
    pulse_meta.set("num_channels", json::Value(static_cast<std::int64_t>(schedule.num_channels)));
    pulse_meta.set("num_instructions",
                   json::Value(static_cast<std::int64_t>(schedule.instructions.size())));
    services.set("pulse", pulse_meta);
  }

  // 4. Execute and decode.  A `noise` context block switches to trajectory
  // sampling with the requested Pauli channels; semantics are unchanged.
  const sim::StateConfig state_config = state_config_for(representation_, exec);
  sim::CountMap raw;
  if (ctx.noise && ctx.noise->enabled) {
    if (representation_ == sim::StateRep::Mps)
      throw BackendError("noise trajectories run on the dense engine only; drop the noise "
                         "context block or use 'gate.statevector_simulator'");
    sim::NoiseModel model;
    model.depolarizing_1q = ctx.noise->depolarizing_1q;
    model.depolarizing_2q = ctx.noise->depolarizing_2q;
    model.readout_flip = ctx.noise->readout_flip;
    raw = sim::NoisyEngine().run_counts(transpiled.circuit, exec.samples, exec.seed, model);
    json::Value noise_meta = json::Value::object();
    noise_meta.set("depolarizing_1q", json::Value(model.depolarizing_1q));
    noise_meta.set("depolarizing_2q", json::Value(model.depolarizing_2q));
    noise_meta.set("readout_flip", json::Value(model.readout_flip));
    services.set("noise", noise_meta);
  } else {
    raw = sim::Engine(state_config).run_counts(transpiled.circuit, exec.samples, exec.seed);
  }

  core::ExecutionResult result;
  for (const auto& [bits, n] : raw) result.counts.add(bits, n);
  result.decoded = core::decode_counts(result.counts, *schema, regs.at(readout_reg));

  result.metadata.set("engine", json::Value(name()));
  result.metadata.set("representation", json::Value(sim::to_string(representation_)));
  if (representation_ == sim::StateRep::Mps) {
    result.metadata.set("max_bond_dim",
                        json::Value(static_cast<std::int64_t>(state_config.mps.max_bond_dim)));
    result.metadata.set("truncation_cutoff", json::Value(state_config.mps.truncation_cutoff));
  }
  result.metadata.set("shots", json::Value(exec.samples));
  result.metadata.set("seed", json::Value(static_cast<std::int64_t>(exec.seed)));
  result.metadata.set("transpile", transpile_metadata(transpiled, topts.optimization_level));
  if (services.size() > 0) result.metadata.set("services", services);
  // Optional interchange export of the realized circuit (paper §1/§6 situate
  // OpenQASM 3 as the ecosystem's assembly format).
  if (exec.options.get_bool("emit_qasm3", false))
    result.metadata.set("qasm3",
                        json::Value(sim::to_qasm3(transpiled.circuit, "quml " + bundle.job_id)));
  result.metadata.set("wall_time_ms", json::Value(timer.milliseconds()));
  return result;
}

std::shared_ptr<core::SweepRealization> GateBackend::prepare_sweep(
    const core::JobBundle& bundle) {
  // Sweep plans cache a statevector prefix per plan (sim/sweep.hpp) — the
  // MPS engine opts out, so the service's bind-per-binding fallback runs.
  if (representation_ == sim::StateRep::Mps) return nullptr;
  return make_gate_sweep_realization(bundle);
}

json::Value GateBackend::capabilities() const {
  json::Value caps = json::Value::object();
  caps.set("name", json::Value(name()));
  caps.set("kind", json::Value("gate"));
  caps.set("num_qubits", json::Value(static_cast<std::int64_t>(max_width())));
  caps.set("representation", json::Value(sim::to_string(representation_)));
  if (representation_ == sim::StateRep::Mps) {
    // Scheduler calibration (sched::estimate): per-gate times price a chi = 2
    // two-site update — 10x the dense engine's figures, since every two-qubit
    // gate pays an SVD — and scale by (chi/2)^3 with the entanglement proxy.
    // Gate error is zero (the simulation is exact until the bond cap bites;
    // truncation loss is priced by the estimator, not per gate), so quality
    // comparisons against the dense engine hinge on entanglement, as they
    // should.
    caps.set("max_bond_dim", json::Value(static_cast<std::int64_t>(sim::MpsConfig{}.max_bond_dim)));
    caps.set("oneq_time_us", json::Value(0.5));
    caps.set("twoq_time_us", json::Value(3.0));
    caps.set("oneq_error", json::Value(0.0));
    caps.set("twoq_error", json::Value(0.0));
  }
  json::Array basis;
  for (const char* g : {"sx", "rz", "cx", "x", "h", "rx", "ry", "p", "cp", "cz", "swap"})
    basis.emplace_back(g);
  caps.set("basis_gates", json::Value(std::move(basis)));
  caps.set("supports_mid_circuit_measurement", json::Value(true));
  return caps;
}

}  // namespace quml::backend
