#pragma once
// Gate-backend sweep realization: the bind-once/run-many fast path behind
// svc::ExecutionService::submit_sweep.
//
// prepare: lower the bundle's descriptor sequence once (symbolic angles
// survive the realization hooks), transpile once per the context target
// (symbol-preserving passes), and build one sim::SweepPlan — the fused
// execution plan whose angle-dependent blocks re-bind in O(block) per
// binding.  Each worker then opens a session and streams bindings through
// the shared plan, decoding per the bundle's result schema exactly as
// GateBackend::run would.
//
// Eligibility: the fast path requires terminal measurements (no gate after a
// Measure on the same qubit, no Reset — sim::split_terminal_measurements) and
// no noise/qec/pulse context services (those paths run per-shot trajectories or
// per-binding metadata); make_gate_sweep_realization returns nullptr for
// such bundles and the service falls back to bind_bundle() + run() per
// binding, which is always correct.

#include <memory>

#include "core/bundle.hpp"
#include "core/sweep.hpp"

namespace quml::backend {

/// Builds the prepared sweep form of `bundle` for the statevector engine, or
/// nullptr when the bundle needs the per-binding fallback.  Throws
/// LoweringError/ValidationError for bundles that are invalid outright
/// (e.g. no result schema).
std::shared_ptr<core::SweepRealization> make_gate_sweep_realization(
    const core::JobBundle& bundle);

}  // namespace quml::backend
