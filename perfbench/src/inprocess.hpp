#pragma once
// The in-process side of the benchmark: gate_qaoa and anneal_ising run
// through svc::ExecutionService with its default ServiceConfig.  One caller
// thread keeps two jobs in flight and submits the next only when the oldest
// has returned (JobHandle::wait blocks by design).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/bundle.hpp"
#include "core/result.hpp"
#include "svc/execution_service.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Constructs a fresh service and runs one probe job on it; returns the time
/// from construction until the probe's result was in hand.  The service is
/// handed back so the run can continue on it.
double setup_service(const quml::core::JobBundle& probe,
                     std::unique_ptr<quml::svc::ExecutionService>& service);

struct InProcessOptions {
  double seconds = 10.0;
  /// The timed window also holds at least this many jobs (p90 needs 100).
  std::size_t min_timed_jobs = 100;
  /// When set, each job records a "job" span with children "svc.submit"
  /// (the submit call) and "svc.wait" (the blocking wait).
  Tracer* tracer = nullptr;
};

struct InProcessResult {
  LoopStats loop;
  /// Counts of the first DONE job of each pool instance; every later job of
  /// the instance must match them exactly.
  std::map<int, quml::core::Counts> instance_counts;
  std::uint64_t bad_counts = 0;      ///< DONE results whose counts miss the shots
  std::uint64_t unstable_counts = 0;  ///< repeat runs of an instance that differed
  std::vector<std::string> errors;
};

/// Cycles through `pool` (job j runs pool[j % size]) in a closed loop with
/// two jobs outstanding.  Warm-up windows are a third of the pool, which
/// holds the same mix of sizes as the whole; the timed window ends on a whole
/// number of passes over the pool.
InProcessResult run_inprocess_loop(quml::svc::ExecutionService& service,
                                   const std::vector<quml::core::JobBundle>& pool,
                                   std::int64_t shots, const InProcessOptions& options);

}  // namespace perfbench
