#pragma once
// The traced run: per-layer metrics, the five-rung ladder, and the tracing
// overhead, all measured from outside around public calls on the workload's
// own jobs (see perfbench/README.md for the metric map).

#include <cstdint>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::ServeSmall;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string serve_binary;  ///< path of the quml_serve executable
  std::string work_dir;      ///< where journals, sockets and span files go
};

RunReport run_traced(const RunOptions& options);

}  // namespace perfbench
