#include "checks.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "algolib/ising.hpp"
#include "anneal/sampler.hpp"
#include "backend/anneal_backend.hpp"
#include "backend/gate_backend.hpp"

namespace perfbench {

using namespace quml;

void check_serve_samples(std::uint64_t seed, const std::map<std::uint64_t, core::Counts>& sampled,
                         RunReport& report) {
  if (sampled.empty()) report.fail("serve_small: no sampled job to compare");
  backend::GateBackend direct;
  std::size_t mismatched = 0;
  for (const auto& [index, counts] : sampled)
    if (direct.run(serve_bundle(seed, index)).counts.map() != counts.map()) ++mismatched;
  std::printf("  check: %zu sampled serve jobs re-run directly, %zu mismatched\n", sampled.size(),
              mismatched);
  if (mismatched > 0)
    report.fail(std::to_string(mismatched) + " serve job(s) differ from a direct GateBackend::run");
}

namespace {

/// Energy of an MSB-first readout key ('0' = spin +1) under the Max-Cut
/// Ising model of `graph` (h = 0, J = +w).
double maxcut_energy(const algolib::Graph& graph, const std::string& bits) {
  const auto spin = [&](int node) {
    return bits[bits.size() - 1 - static_cast<std::size_t>(node)] == '1' ? -1.0 : 1.0;
  };
  double energy = 0.0;
  for (const auto& edge : graph.edges) energy += edge.w * spin(edge.u) * spin(edge.v);
  return energy;
}

/// Instances whose expected cut is compared with gate.mps_simulator: every
/// graph below the widest size, plus one widest graph picked by the seed.
std::vector<int> mps_checked_instances(std::uint64_t seed, const std::vector<MaxCutInstance>& pool) {
  std::vector<int> picked;
  std::vector<int> widest;
  for (std::size_t i = 0; i < pool.size(); ++i)
    (pool[i].graph.n < kMaxNodes ? picked : widest).push_back(static_cast<int>(i));
  if (!widest.empty()) picked.push_back(widest[mix_seed(seed, 77) % widest.size()]);
  return picked;
}

/// Mean and variance of the cut value over a shot histogram.
std::pair<double, double> cut_moments(const algolib::Graph& graph, const core::Counts& counts) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& [bits, n] : counts.map()) {
    const double cut = graph.cut_value_bits(bits);
    sum += cut * static_cast<double>(n);
    sum_sq += cut * cut * static_cast<double>(n);
  }
  const double total = static_cast<double>(counts.total());
  const double mean = sum / total;
  return {mean, std::max(0.0, sum_sq / total - mean * mean)};
}

}  // namespace

void check_maxcut_instances(Workload workload, std::uint64_t seed,
                            const std::vector<MaxCutInstance>& pool,
                            const std::map<int, core::Counts>& counts, RunReport& report) {
  if (counts.size() != pool.size()) {
    report.fail("only " + std::to_string(counts.size()) + " of " + std::to_string(pool.size()) +
                " instances completed");
  }
  const auto tag = [&](int index) {
    return "instance " + std::to_string(index) + " (n=" +
           std::to_string(pool[static_cast<std::size_t>(index)].graph.n) + ")";
  };

  // The MPS references are single-threaded and slow on the widest graphs, so
  // a few threads compute them while this thread re-runs every instance.
  // Everything the helpers touch outlives them: they are joined below.
  std::vector<int> picked;
  std::map<int, core::Counts> mps_counts;
  std::vector<core::JobBundle> mps_bundles;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> helpers;
  if (workload == Workload::GateQaoa) {
    picked = mps_checked_instances(seed, pool);
    for (int index : picked) {  // bundles and result slots exist before the helpers start
      mps_bundles.push_back(qaoa_reference_bundle(pool[static_cast<std::size_t>(index)]));
      mps_counts[index];
    }
    for (int t = 0; t < 3; ++t)
      helpers.emplace_back([&] {
        for (std::size_t k; (k = next++) < picked.size();) {
          backend::GateBackend mps(sim::StateRep::Mps);
          mps_counts[picked[k]] = mps.run(mps_bundles[k]).counts;
        }
      });
  }

  for (const auto& [index, observed] : counts) {
    const MaxCutInstance& instance = pool[static_cast<std::size_t>(index)];
    if (workload == Workload::GateQaoa) {
      backend::GateBackend statevector;
      if (statevector.run(qaoa_bundle(instance, "direct")).counts.map() != observed.map())
        report.fail(tag(index) + ": counts differ from a direct GateBackend::run");
    } else {
      backend::AnnealBackend annealer;
      if (annealer.run(ising_bundle(instance, "direct")).counts.map() != observed.map())
        report.fail(tag(index) + ": counts differ from a direct AnnealBackend::run");
      const core::QuantumDataType reg =
          algolib::make_ising_register("ising_vars", static_cast<unsigned>(instance.graph.n));
      const anneal::IsingModel model = algolib::ising_model_from_descriptor(
          algolib::maxcut_ising_descriptor(reg, instance.graph), static_cast<unsigned>(instance.graph.n));
      const double exact = anneal::exact_ground_states(model).lowest().energy;
      double lowest = INFINITY;
      for (const auto& [bits, n] : observed.map())
        lowest = std::min(lowest, maxcut_energy(instance.graph, bits));
      std::printf("  check: %s lowest sampled energy %.1f, exact ground %.1f\n", tag(index).c_str(),
                  lowest, exact);
      if (std::fabs(lowest - exact) > 1e-9)
        report.fail(tag(index) + ": lowest sampled energy misses the exact ground state");
    }
  }
  for (std::thread& helper : helpers) helper.join();

  for (const auto& [index, reference] : mps_counts) {
    const auto it = counts.find(index);
    if (it == counts.end()) continue;
    const algolib::Graph& graph = pool[static_cast<std::size_t>(index)].graph;
    const auto [mean, var] = cut_moments(graph, it->second);
    const auto [ref_mean, ref_var] = cut_moments(graph, reference);
    const double tolerance = 5.0 * std::sqrt(var / static_cast<double>(it->second.total()) +
                                             ref_var / static_cast<double>(reference.total())) +
                             1e-9;
    std::printf("  check: %s expected cut %.4f vs MPS %.4f (tolerance %.4f)\n", tag(index).c_str(),
                mean, ref_mean, tolerance);
    if (std::fabs(mean - ref_mean) > tolerance)
      report.fail(tag(index) + ": expected cut disagrees with gate.mps_simulator");
  }
}

}  // namespace perfbench
