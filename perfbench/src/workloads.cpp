#include "workloads.hpp"

#include "algolib/ising.hpp"
#include "algolib/qaoa.hpp"
#include "common.hpp"
#include "serve/client.hpp"
#include "util/errors.hpp"

namespace perfbench {

using namespace quml;

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "serve_small") return Workload::ServeSmall;
  if (name == "gate_qaoa") return Workload::GateQaoa;
  if (name == "anneal_ising") return Workload::AnnealIsing;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::ServeSmall: return "serve_small";
    case Workload::GateQaoa: return "gate_qaoa";
    case Workload::AnnealIsing: return "anneal_ising";
  }
  return "?";
}

std::vector<MaxCutInstance> maxcut_instances(std::uint64_t seed) {
  static constexpr int kSizes[] = {8, 10, kMaxNodes};
  std::vector<MaxCutInstance> pool;
  for (int i = 0; i < 3 * kGraphsPerSize; ++i) {
    const int n = kSizes[i % 3];
    MaxCutInstance instance;
    // random_cubic gives up on an unlucky shuffle stream; the next salt of
    // the same seed is just as deterministic.
    for (std::uint64_t salt = 0;; ++salt) {
      try {
        instance.graph = algolib::Graph::random_cubic(
            n, mix_seed(seed, 1000 + 100 * static_cast<std::uint64_t>(i) + salt));
        break;
      } catch (const ValidationError&) {
        if (salt > 50) throw;
      }
    }
    instance.exec_seed = mix_seed(seed, 5000 + static_cast<std::uint64_t>(i)) >> 11;
    pool.push_back(std::move(instance));
  }
  return pool;
}

namespace {

/// Fixed p = 2 angles (the published fixed-angle choice for 3-regular
/// graphs); the benchmark measures cost, not angle quality.
algolib::QaoaAngles qaoa_angles() {
  algolib::QaoaAngles angles;
  angles.gammas = {0.4882, 0.8979};
  angles.betas = {0.5550, 0.2930};
  return angles;
}

core::JobBundle qaoa_bundle_with(const MaxCutInstance& instance, const std::string& engine,
                                 bool with_target, const std::string& job_id) {
  const int n = instance.graph.n;
  const core::QuantumDataType reg = algolib::make_ising_register("ising_vars", static_cast<unsigned>(n));
  core::RegisterSet regs;
  regs.add(reg);
  core::Context ctx;
  ctx.exec.engine = engine;
  ctx.exec.samples = kGateShots;
  ctx.exec.seed = instance.exec_seed;
  if (with_target) {
    ctx.exec.target.basis_gates = {"sx", "rz", "cx"};
    for (int q = 0; q < n; ++q) ctx.exec.target.coupling_map.emplace_back(q, (q + 1) % n);
    ctx.exec.options.set("optimization_level", json::Value(std::int64_t{2}));
  }
  return core::JobBundle::package(std::move(regs),
                                  algolib::qaoa_sequence(reg, instance.graph, qaoa_angles()), ctx,
                                  job_id);
}

}  // namespace

core::JobBundle qaoa_bundle(const MaxCutInstance& instance, const std::string& job_id) {
  return qaoa_bundle_with(instance, kGateEngine, true, job_id);
}

core::JobBundle qaoa_reference_bundle(const MaxCutInstance& instance) {
  return qaoa_bundle_with(instance, "gate.mps_simulator", false, "qaoa-mps-reference");
}

core::JobBundle ising_bundle(const MaxCutInstance& instance, const std::string& job_id) {
  const core::QuantumDataType reg =
      algolib::make_ising_register("ising_vars", static_cast<unsigned>(instance.graph.n));
  core::RegisterSet regs;
  regs.add(reg);
  core::OperatorSequence seq;
  seq.ops.push_back(algolib::maxcut_ising_descriptor(reg, instance.graph));
  core::Context ctx;
  ctx.exec.engine = kAnnealEngine;
  ctx.exec.samples = kAnnealReads;
  ctx.exec.seed = instance.exec_seed;
  core::AnnealPolicy policy;
  policy.num_reads = kAnnealReads;
  policy.num_sweeps = kAnnealSweeps;
  ctx.anneal = policy;
  return core::JobBundle::package(std::move(regs), std::move(seq), ctx, job_id);
}

unsigned serve_width(std::uint64_t index) { return 3 + static_cast<unsigned>(index % 3); }

std::uint64_t serve_job_seed(std::uint64_t seed, std::uint64_t index) {
  // Kept below 2^53 so the seed survives any JSON reader as an exact number.
  return mix_seed(seed, index) >> 11;
}

core::JobBundle serve_bundle(std::uint64_t seed, std::uint64_t index) {
  const unsigned width = serve_width(index);
  return serve::make_load_bundle(width, kServeShots, serve_job_seed(seed, index), kGateEngine,
                                 "serve-w" + std::to_string(width));
}

bool serve_sampled(std::uint64_t seed, std::uint64_t index) {
  return (mix_seed(seed ^ 0x5A5A5A5Aull, index) & 31u) == 0;
}

std::vector<Job> job_stream(Workload workload, std::uint64_t seed, std::size_t count) {
  std::vector<Job> jobs;
  jobs.reserve(count);
  if (workload == Workload::ServeSmall) {
    for (std::size_t j = 0; j < count; ++j)
      jobs.push_back(Job{j, kServeShots, serve_bundle(seed, j)});
    return jobs;
  }
  const std::vector<MaxCutInstance> pool = maxcut_instances(seed);
  for (std::size_t j = 0; j < count; ++j) {
    const int i = static_cast<int>(j % pool.size());
    const std::string id = "maxcut-" + std::to_string(i);
    if (workload == Workload::GateQaoa)
      jobs.push_back(Job{j, kGateShots, qaoa_bundle(pool[static_cast<std::size_t>(i)], id)});
    else
      jobs.push_back(Job{j, kAnnealReads, ising_bundle(pool[static_cast<std::size_t>(i)], id)});
  }
  return jobs;
}

}  // namespace perfbench
