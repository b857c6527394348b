#pragma once
// The three workloads' job streams.  Everything is derived from the
// workload seed: the same seed gives the same bundles, in the same order.
//
//   serve_small   serve::make_load_bundle QFT jobs, widths rotating 3, 4, 5,
//                 128 shots, a fresh exec.seed per job.
//   gate_qaoa     Max-Cut QAOA (p = 2) on random cubic graphs, n rotating
//                 8, 10, 12; Listing 4's context generalised to n qubits
//                 (sx/rz/cx basis, ring coupling, optimization_level 2),
//                 1024 shots on gate.statevector_simulator.
//   anneal_ising  the same (graph, seed) instances as ISING_PROBLEM on
//                 anneal.simulated_annealer, 1000 reads x 250 sweeps.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "algolib/graph.hpp"
#include "core/bundle.hpp"

namespace perfbench {

enum class Workload { ServeSmall, GateQaoa, AnnealIsing };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload workload);

constexpr std::int64_t kServeShots = 128;
constexpr std::int64_t kGateShots = 1024;
constexpr std::int64_t kAnnealReads = 1000;
constexpr std::int64_t kAnnealSweeps = 250;
/// Distinct graphs per size; the Max-Cut pool holds 3x this many instances.
constexpr int kGraphsPerSize = 24;
constexpr int kMaxNodes = 12;  ///< sizes rotate 8, 10, kMaxNodes

inline constexpr const char* kGateEngine = "gate.statevector_simulator";
inline constexpr const char* kAnnealEngine = "anneal.simulated_annealer";

/// One Max-Cut instance shared by gate_qaoa and anneal_ising.
struct MaxCutInstance {
  quml::algolib::Graph graph;
  std::uint64_t exec_seed = 0;
};

/// The instance pool of a seed: sizes rotate 8, 10, 12.
std::vector<MaxCutInstance> maxcut_instances(std::uint64_t seed);

quml::core::JobBundle qaoa_bundle(const MaxCutInstance& instance, const std::string& job_id);
quml::core::JobBundle ising_bundle(const MaxCutInstance& instance, const std::string& job_id);
/// The QAOA bundle without its target block, on gate.mps_simulator: the
/// independent engine the expected-cut cross-check runs on.
quml::core::JobBundle qaoa_reference_bundle(const MaxCutInstance& instance);

/// serve_small job `index` of the stream: its width and exec.seed.
unsigned serve_width(std::uint64_t index);
std::uint64_t serve_job_seed(std::uint64_t seed, std::uint64_t index);
quml::core::JobBundle serve_bundle(std::uint64_t seed, std::uint64_t index);
/// True for the fixed seeded sample of serve_small jobs whose counts are
/// compared bit for bit against a direct backend run.
bool serve_sampled(std::uint64_t seed, std::uint64_t index);

/// A bounded replay of a workload's stream: `count` jobs from index 0.  For
/// the Max-Cut workloads the stream cycles through the instance pool.
struct Job {
  std::uint64_t index = 0;
  std::int64_t shots = 0;
  quml::core::JobBundle bundle;
};
std::vector<Job> job_stream(Workload workload, std::uint64_t seed, std::size_t count);

}  // namespace perfbench
