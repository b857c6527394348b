#pragma once
// The correctness gate every run passes before it reports.
//
//   * bit identity: counts from the service or the daemon equal a direct
//     GateBackend::run / AnnealBackend::run of the same bundle (the repo's
//     contract for a given (bundle, seed));
//   * an independent engine: each gate_qaoa instance's expected cut agrees
//     with the same bundle on gate.mps_simulator, target block removed,
//     within five standard errors of the difference of two sample means
//     (every graph below the widest size, plus one widest graph picked by
//     the seed: a 12-node MPS reference alone takes ~18 s);
//   * exact ground truth: each anneal_ising instance's lowest sampled energy
//     equals anneal::exact_ground_states.

#include <cstdint>
#include <map>

#include "common.hpp"
#include "core/result.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Re-runs each sampled serve_small job directly and compares counts.
void check_serve_samples(std::uint64_t seed, const std::map<std::uint64_t, quml::core::Counts>& sampled,
                         RunReport& report);

/// Checks the per-instance counts of a Max-Cut workload (see file comment).
void check_maxcut_instances(Workload workload, std::uint64_t seed,
                            const std::vector<MaxCutInstance>& pool,
                            const std::map<int, quml::core::Counts>& counts, RunReport& report);

}  // namespace perfbench
