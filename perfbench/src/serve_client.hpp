#pragma once
// The socket side of the benchmark: the shipped quml_serve daemon as a child
// process, and a closed-loop load generator that drives it from one thread.
//
// The generator multiplexes its connections with poll().  Each connection
// runs submit -> status -> result(wait=true) for one job at a time and sends
// the next job's submit only after the previous result arrived, so offered
// load follows the daemon's speed.  Submit frames are encoded with
// serve::encode_frame during set-up; only the exec.seed digits (and, for
// status/result, the ticket digits) are spliced in per job.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/result.hpp"
#include "tracer.hpp"

namespace perfbench {

/// A quml_serve child on a unix socket with two tenants weighted 1 and 2 and
/// the daemon's default executors and workers.  The destructor stops it
/// (SIGTERM, graceful drain) and reaps it.
class DaemonProcess {
 public:
  /// Spawns the daemon, waits for its listening line, connects and pings.
  /// `setup_s` receives the time from spawn until the pong arrived.
  DaemonProcess(const std::string& binary, const std::string& work_dir, int serial,
                double& setup_s);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  const std::string& socket_path() const noexcept { return socket_path_; }
  /// VmHWM of the child so far.
  double peak_rss_mb() const;
  /// SIGTERM, drain, reap (SIGKILL after a grace period).  True when the
  /// daemon exited with status 0.  Idempotent.
  bool stop();

 private:
  int pid_ = -1;
  int stdout_fd_ = -1;
  std::string socket_path_;
  std::string store_path_;
  bool exit_ok_ = false;
};

inline constexpr const char* kTenants[] = {"tenant-a", "tenant-b"};

struct ServeLoopOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Warm-up gives up waiting for steady windows after this long (0: time
  /// from the first window on, which is how the cold window is read).
  double max_warmup_s = 10.0;
  /// Record counts of the serve_sampled() jobs for the bit-identity check.
  bool keep_samples = true;
  /// When set, each job records a "job" span with one child per round trip
  /// ("wire.submit", "wire.status", "wire.result").
  Tracer* tracer = nullptr;
};

struct ServeLoopResult {
  LoopStats loop;
  double first_window_jobs_s = 0.0;  ///< the fresh daemon's first window
  std::map<std::uint64_t, quml::core::Counts> sampled_counts;  ///< job index -> counts
  std::uint64_t bad_counts = 0;  ///< DONE results whose counts do not sum to the shots
  std::vector<std::string> errors;
};

/// Runs the serve_small closed loop against a running daemon.
ServeLoopResult run_serve_loop(const std::string& socket_path, const ServeLoopOptions& options);

}  // namespace perfbench
