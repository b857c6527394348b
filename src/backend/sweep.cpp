#include "backend/sweep.hpp"

#include <utility>
#include <vector>

#include "backend/lowering.hpp"
#include "core/result.hpp"
#include "sim/qasm.hpp"
#include "sim/sweep.hpp"
#include "transpile/transpiler.hpp"
#include "util/errors.hpp"
#include "util/stopwatch.hpp"

namespace quml::backend {

namespace {

class GateSweepRealization;

class GateSweepSession final : public core::SweepSession {
 public:
  explicit GateSweepSession(std::shared_ptr<const GateSweepRealization> realization);
  core::ExecutionResult run_binding(std::span<const double> values, std::uint64_t seed) override;

 private:
  std::shared_ptr<const GateSweepRealization> realization_;  // keeps the plan alive
  sim::SweepPlan::Session session_;
};

/// Immutable prepared form: lowered + transpiled + fusion-planned once.
class GateSweepRealization final : public core::SweepRealization,
                                   public std::enable_shared_from_this<GateSweepRealization> {
 public:
  GateSweepRealization(sim::Circuit transpiled, core::ResultSchema schema,
                       core::QuantumDataType qdt, core::ExecPolicy exec, json::Value tmeta)
      : plan_(transpiled),
        schema_(std::move(schema)),
        qdt_(std::move(qdt)),
        exec_(std::move(exec)),
        transpile_meta_(std::move(tmeta)) {
    if (exec_.options.get_bool("emit_qasm3", false))
      qasm3_ = sim::to_qasm3(transpiled, "quml sweep plan");
  }

  std::unique_ptr<core::SweepSession> open_session() override {
    return std::make_unique<GateSweepSession>(shared_from_this());
  }

  const sim::SweepPlan& plan() const { return plan_; }
  const core::ResultSchema& schema() const { return schema_; }
  const core::QuantumDataType& qdt() const { return qdt_; }
  const core::ExecPolicy& exec() const { return exec_; }
  const json::Value& transpile_meta() const { return transpile_meta_; }
  const std::string& qasm3() const { return qasm3_; }

 private:
  sim::SweepPlan plan_;
  core::ResultSchema schema_;
  core::QuantumDataType qdt_;
  core::ExecPolicy exec_;
  json::Value transpile_meta_;
  std::string qasm3_;
};

GateSweepSession::GateSweepSession(std::shared_ptr<const GateSweepRealization> realization)
    : realization_(std::move(realization)), session_(realization_->plan()) {}

core::ExecutionResult GateSweepSession::run_binding(std::span<const double> values,
                                                    std::uint64_t seed) {
  Stopwatch timer;
  const core::ExecPolicy& exec = realization_->exec();
  const sim::CountMap raw = session_.run_counts(values, exec.samples, seed);

  core::ExecutionResult result;
  for (const auto& [bits, n] : raw) result.counts.add(bits, n);
  result.decoded = core::decode_counts(result.counts, realization_->schema(), realization_->qdt());

  result.metadata.set("engine", json::Value("gate.statevector_simulator"));
  result.metadata.set("shots", json::Value(exec.samples));
  result.metadata.set("seed", json::Value(static_cast<std::int64_t>(seed)));
  json::Array binding;
  for (const double v : values) binding.emplace_back(v);
  result.metadata.set("binding", json::Value(std::move(binding)));
  result.metadata.set("transpile", realization_->transpile_meta());
  const sim::SweepPlan::Stats& stats = realization_->plan().stats();
  json::Value sweep = json::Value::object();
  sweep.set("plan_ops", json::Value(static_cast<std::int64_t>(stats.ops)));
  sweep.set("dynamic_ops", json::Value(static_cast<std::int64_t>(stats.dynamic_ops)));
  sweep.set("prefix_ops", json::Value(static_cast<std::int64_t>(stats.prefix_ops)));
  sweep.set("layer_groups", json::Value(static_cast<std::int64_t>(stats.layer_groups)));
  result.metadata.set("sweep", sweep);
  if (!realization_->qasm3().empty())
    result.metadata.set("qasm3", json::Value(realization_->qasm3()));
  result.metadata.set("wall_time_ms", json::Value(timer.milliseconds()));
  return result;
}

}  // namespace

std::shared_ptr<core::SweepRealization> make_gate_sweep_realization(
    const core::JobBundle& bundle) {
  const core::Context ctx = bundle.context.value_or(core::Context{});
  // Context services that need per-shot trajectories or per-run reports run
  // through the per-binding fallback instead.
  if (ctx.noise && ctx.noise->enabled) return nullptr;
  if (ctx.qec) return nullptr;
  if (ctx.pulse && ctx.pulse->enabled) return nullptr;
  const core::ExecPolicy& exec = ctx.exec;

  // Lower once; symbolic descriptor params survive as sim::Param slots.
  const sim::Circuit logical = lower_bundle(bundle);
  const core::ResultSchema* schema = effective_schema(bundle.operators);
  if (!schema || schema->clbit_order.empty())
    throw LoweringError("gate backend needs a result schema with a clbit_order");
  const std::string& readout_reg = schema->clbit_order.front().reg;

  const transpile::TranspileOptions topts = transpile_options_for(exec);

  try {
    // Transpile + plan once.  A basis that cannot carry the free symbols or
    // a circuit needing trajectories rejects here — fall back.
    const transpile::TranspileResult transpiled = transpile::transpile(logical, topts);
    return std::make_shared<GateSweepRealization>(
        transpiled.circuit, *schema, bundle.registers.at(readout_reg), exec,
        transpile_metadata(transpiled, topts.optimization_level));
  } catch (const Error&) {
    return nullptr;  // per-binding fallback handles it (or fails loudly there)
  }
}

}  // namespace quml::backend
