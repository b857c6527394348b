#include "backend/anneal_backend.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "algolib/ising.hpp"
#include "anneal/sampler.hpp"
#include "util/errors.hpp"
#include "util/stopwatch.hpp"

namespace quml::backend {

core::ExecutionResult AnnealBackend::run(const core::JobBundle& bundle) {
  Stopwatch timer;
  const core::Context ctx = bundle.context.value_or(core::Context{});

  // Locate the single ISING_PROBLEM; a trailing MEASUREMENT is tolerated
  // (annealers always read out), anything else cannot be realized here.
  const core::OperatorDescriptor* problem = nullptr;
  for (const auto& op : bundle.operators.ops) {
    if (op.rep_kind == core::rep::kIsingProblem) {
      if (problem) throw LoweringError("anneal backend expects exactly one ISING_PROBLEM");
      problem = &op;
    } else if (op.rep_kind != core::rep::kMeasurement) {
      throw LoweringError("anneal backend cannot realize rep_kind '" + op.rep_kind +
                          "'; reformulate the problem as ISING_PROBLEM");
    }
  }
  if (!problem) throw LoweringError("anneal backend needs an ISING_PROBLEM descriptor");

  const core::QuantumDataType& reg = bundle.registers.at(problem->domain_qdt);
  if (reg.encoding != core::EncodingKind::IsingSpin &&
      reg.encoding != core::EncodingKind::BoolRegister)
    throw LoweringError("ISING_PROBLEM register must be ISING_SPIN or BOOL_REGISTER");

  const anneal::IsingModel model = algolib::ising_model_from_descriptor(*problem, reg.width);

  const core::AnnealPolicy policy = ctx.anneal.value_or(core::AnnealPolicy{});
  anneal::AnnealParams params;
  params.num_reads = policy.num_reads;
  params.num_sweeps = policy.num_sweeps;
  params.beta_min = policy.beta_min;
  params.beta_max = policy.beta_max;
  params.schedule = policy.schedule == "linear" ? anneal::Schedule::Linear
                                                : anneal::Schedule::Geometric;
  params.seed = policy.seed.value_or(ctx.exec.seed);

  const anneal::SimulatedAnnealer sampler;
  const anneal::SampleSet samples = sampler.sample(model, params);

  core::ExecutionResult result;
  const core::ResultSchema schema = problem->result_schema.value_or(core::ResultSchema{});
  // Render each sample's bitstring once; the finalized set has one sample
  // per configuration, so the keys are distinct.
  std::vector<std::pair<std::string, double>> energy_of;
  energy_of.reserve(samples.samples().size());
  for (const auto& sample : samples.samples()) {
    energy_of.emplace_back(sample.bitstring(), sample.energy);
    result.counts.add(energy_of.back().first, sample.occurrences);
  }
  result.decoded = core::decode_counts(result.counts, schema, reg);
  // Attach energies to the decoded outcomes.
  std::sort(energy_of.begin(), energy_of.end());
  for (auto& outcome : result.decoded) {
    const auto it = std::lower_bound(energy_of.begin(), energy_of.end(), outcome.bitstring,
                                     [](const auto& entry, const std::string& key) { return entry.first < key; });
    if (it != energy_of.end() && it->first == outcome.bitstring) outcome.energy = it->second;
  }

  result.metadata.set("engine", json::Value(name()));
  result.metadata.set("num_reads", json::Value(params.num_reads));
  result.metadata.set("num_sweeps", json::Value(params.num_sweeps));
  const auto [beta_min, beta_max] = anneal::SimulatedAnnealer::beta_bounds(model, params);
  result.metadata.set("beta_min", json::Value(beta_min));
  result.metadata.set("beta_max", json::Value(beta_max));
  result.metadata.set("ground_energy", json::Value(samples.lowest().energy));
  result.metadata.set("mean_energy", json::Value(samples.mean_energy()));
  result.metadata.set("ground_fraction", json::Value(samples.ground_fraction()));
  result.metadata.set("wall_time_ms", json::Value(timer.milliseconds()));
  return result;
}

json::Value AnnealBackend::capabilities() const {
  json::Value caps = json::Value::object();
  caps.set("name", json::Value(name()));
  caps.set("kind", json::Value("anneal"));
  caps.set("num_qubits", json::Value(static_cast<std::int64_t>(64)));
  caps.set("rep_kinds", json::Value(json::Array{json::Value("ISING_PROBLEM")}));
  return caps;
}

}  // namespace quml::backend
