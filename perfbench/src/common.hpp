#pragma once
// Shared plumbing for the perfbench binary: clocks, order statistics, the
// process's peak resident set, and the metric table that becomes the run's
// final JSON line.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Quantile by linear interpolation between closest ranks (numpy's default).
/// Returns 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// SplitMix64: derives independent per-job seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

/// VmHWM (peak resident set) of a process in MiB; `pid` 0 means this one.
/// Returns a negative value when /proc is unreadable.
double peak_rss_mb(int pid = 0);

/// One reported number with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Outcome of one benchmark run: what the last stdout line reports.
struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Why `correct` is false (printed to stderr, never in the JSON line).
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  /// The single-line JSON object: correct, attempted, failed, metrics.
  std::string to_json_line() const;
};

/// Closed-loop bookkeeping shared by every workload.  Times are seconds
/// since the timed window opened.
struct LoopStats {
  std::uint64_t attempted = 0;  ///< every job submitted, warm-up included
  std::uint64_t failed = 0;     ///< SHED/REJECTED/FAILED/CANCELLED/transport
  double window_s = 0.0;
  double warmup_s = 0.0;
  std::uint64_t warmup_jobs = 0;
  std::vector<double> warmup_rates;  ///< jobs/s of each warm-up window
  std::vector<double> done_s;        ///< completion time of each job done inside the window
  std::vector<double> latencies_ms;  ///< timed, successful jobs only...
  std::vector<double> latency_done_s;  ///< ...and when each of them completed
  /// Slice length for the reported figures: each figure is the median of its
  /// per-slice values, so a short stall of the host moves one slice, not the
  /// run.  0 reports over the whole window.
  double slice_s = 0.0;
};

/// The three closed-loop figures of a run.
struct LoopFigures {
  double jobs_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t slices = 1;
};
LoopFigures loop_figures(const LoopStats& loop);

/// Warm-up gate.  Throughput windows are fed in as they close; the gate
/// opens once the last three windows all lie within `tolerance` of their
/// mean, at least `min_s` seconds and `min_jobs` jobs have passed.  Three
/// agreeing windows, not two, because a fresh daemon can sit in a slow (or a
/// fast) phase for a few seconds.  A warm-up that never settles opens at
/// `max_s`, so a run always ends; the caller reports how long it took.
class SteadyGate {
 public:
  SteadyGate(double tolerance, double min_s, double max_s, std::uint64_t min_jobs = 0)
      : tolerance_(tolerance), min_s_(min_s), max_s_(max_s), min_jobs_(min_jobs) {}
  /// Feeds one closed window's rate; returns true once timing may start.
  bool feed(double rate, double elapsed_s, std::uint64_t jobs);
  const std::vector<double>& windows() const { return windows_; }

 private:
  double tolerance_;
  double min_s_;
  double max_s_;
  std::uint64_t min_jobs_;
  std::vector<double> windows_;
};

/// Adds the five end-to-end metrics every workload reports.
void add_end_to_end(RunReport& report, const LoopStats& loop, double peak_rss, double setup_s);

/// Prints the human-readable summary lines (stdout) for a run.
void print_summary(const std::string& workload, const RunReport& report, const LoopStats* loop);

}  // namespace perfbench
