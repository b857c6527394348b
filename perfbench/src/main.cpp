// perfbench — end-to-end and per-layer benchmark of the quml middle layer.
//
//   perfbench --workload serve_small|gate_qaoa|anneal_ising --seed N
//             --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR
//
// --trace 0 runs the workload's closed loop and reports its end-to-end
// metrics; --trace 1 runs the traced census and reports per-layer metrics.
// Human-readable lines go first; the last stdout line is one JSON object
// with the keys correct, attempted, failed and metrics.  The exit status is
// 0 only when every correctness check passed.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>

#include "backend/register_backends.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "inprocess.hpp"
#include "serve_client.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-ups per run; the median is reported and the last one is kept.
constexpr int kSetups = 9;

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_small|gate_qaoa|anneal_ising --seed N\n"
               "                 --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR\n");
}

RunReport run_serve_small(const RunOptions& options) {
  std::vector<double> setups;
  std::unique_ptr<DaemonProcess> daemon;
  for (int i = 0; i < kSetups; ++i) {
    daemon.reset();  // the previous daemon drains and exits first
    double setup_s = 0.0;
    daemon = std::make_unique<DaemonProcess>(options.serve_binary, options.work_dir, i, setup_s);
    setups.push_back(setup_s);
  }

  ServeLoopOptions loop_options;
  loop_options.seed = options.seed;
  loop_options.seconds = options.seconds;
  const ServeLoopResult run = run_serve_loop(daemon->socket_path(), loop_options);
  const double rss = daemon->peak_rss_mb();
  const bool clean_exit = daemon->stop();

  RunReport report;
  add_end_to_end(report, run.loop, rss, median(setups));
  if (!clean_exit) report.fail("quml_serve did not drain and exit cleanly");
  if (run.bad_counts > 0) report.fail(std::to_string(run.bad_counts) + " result(s) miss their shot total");
  for (const auto& error : run.errors) report.fail(error);
  std::printf("  cold first window: %.1f jobs/s\n", run.first_window_jobs_s);
  check_serve_samples(options.seed, run.sampled_counts, report);
  print_summary("serve_small", report, &run.loop);
  return report;
}

RunReport run_maxcut(const RunOptions& options) {
  const std::vector<MaxCutInstance> pool = maxcut_instances(options.seed);
  std::vector<quml::core::JobBundle> bundles;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const std::string id = "maxcut-" + std::to_string(i);
    bundles.push_back(options.workload == Workload::GateQaoa ? qaoa_bundle(pool[i], id)
                                                             : ising_bundle(pool[i], id));
  }
  const std::int64_t shots = options.workload == Workload::GateQaoa ? kGateShots : kAnnealReads;

  std::vector<double> setups;
  std::unique_ptr<quml::svc::ExecutionService> service;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    setups.push_back(setup_service(bundles.front(), service));
  }

  InProcessOptions loop_options;
  loop_options.seconds = options.seconds;
  const InProcessResult run = run_inprocess_loop(*service, bundles, shots, loop_options);
  const double rss = peak_rss_mb();
  service.reset();

  RunReport report;
  add_end_to_end(report, run.loop, rss, median(setups));
  if (run.bad_counts > 0) report.fail(std::to_string(run.bad_counts) + " result(s) miss their shot total");
  if (run.unstable_counts > 0)
    report.fail(std::to_string(run.unstable_counts) + " repeat run(s) of an instance changed counts");
  for (const auto& error : run.errors) report.fail(error);
  check_maxcut_instances(options.workload, options.seed, pool, run.instance_counts, report);
  print_summary(workload_name(options.workload), report, &run.loop);
  return report;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::optional<Workload> workload;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload = parse_workload(value());
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      options.seed = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      options.seconds = std::atof(value());
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = std::atoi(value());
    } else if (std::strcmp(argv[i], "--serve-bin") == 0) {
      options.serve_binary = value();
    } else if (std::strcmp(argv[i], "--work-dir") == 0) {
      options.work_dir = value();
    } else {
      usage();
      return 2;
    }
  }
  if (!workload || options.seconds <= 0.0 || options.serve_binary.empty() ||
      options.work_dir.empty() || (trace != 0 && trace != 1)) {
    usage();
    return 2;
  }
  options.workload = *workload;
  ::mkdir(options.work_dir.c_str(), 0755);

  try {
    quml::backend::register_builtin_backends();
    const RunReport report = trace == 1                              ? run_traced(options)
                             : options.workload == Workload::ServeSmall ? run_serve_small(options)
                                                                      : run_maxcut(options);
    std::printf("%s\n", report.to_json_line().c_str());
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
