#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double peak_rss_mb(int pid) {
  const std::string path = pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return -1.0;
}

std::string RunReport::to_json_line() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    // A non-finite value cannot appear in JSON; report it as 0 and let the
    // correctness flag carry the failure.
    std::snprintf(value, sizeof value, "%.12g", std::isfinite(metric.value) ? metric.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

bool SteadyGate::feed(double rate, double elapsed_s, std::uint64_t jobs) {
  windows_.push_back(rate);
  if (elapsed_s >= max_s_) return true;
  if (elapsed_s < min_s_ || jobs < min_jobs_ || windows_.size() < 3) return false;
  const auto last = windows_.end() - 3;
  const double mean = (last[0] + last[1] + last[2]) / 3.0;
  return mean > 0.0 && std::all_of(last, windows_.end(), [&](double r) {
           return std::fabs(r - mean) <= tolerance_ * mean;
         });
}

LoopFigures loop_figures(const LoopStats& loop) {
  LoopFigures out;
  const auto slices = loop.slice_s > 0.0 ? static_cast<std::size_t>(loop.window_s / loop.slice_s) : 0;
  if (slices < 3) {
    out.jobs_s = loop.window_s > 0.0 ? static_cast<double>(loop.done_s.size()) / loop.window_s : 0.0;
    out.p50_ms = quantile(loop.latencies_ms, 0.50);
    out.p90_ms = quantile(loop.latencies_ms, 0.90);
    return out;
  }
  std::vector<std::size_t> done(slices, 0);
  for (double t : loop.done_s) {
    const auto k = static_cast<std::size_t>(t / loop.slice_s);
    if (k < slices) ++done[k];
  }
  std::vector<std::vector<double>> latencies(slices);
  for (std::size_t i = 0; i < loop.latencies_ms.size(); ++i) {
    const auto k = static_cast<std::size_t>(loop.latency_done_s[i] / loop.slice_s);
    if (k < slices) latencies[k].push_back(loop.latencies_ms[i]);
  }
  std::vector<double> rates, p50s, p90s;
  for (std::size_t k = 0; k < slices; ++k) {
    rates.push_back(static_cast<double>(done[k]) / loop.slice_s);
    p50s.push_back(quantile(latencies[k], 0.50));
    p90s.push_back(quantile(latencies[k], 0.90));
  }
  out.jobs_s = median(rates);
  out.p50_ms = median(p50s);
  out.p90_ms = median(p90s);
  out.slices = slices;
  return out;
}

void add_end_to_end(RunReport& report, const LoopStats& loop, double peak_rss, double setup_s) {
  const LoopFigures figures = loop_figures(loop);
  report.attempted = loop.attempted;
  report.failed = loop.failed;
  report.set("jobs_s", figures.jobs_s, "1/s");
  report.set("p50_ms", figures.p50_ms, "ms");
  report.set("p90_ms", figures.p90_ms, "ms");
  report.set("peak_rss_mb", peak_rss, "MiB");
  report.set("setup_s", setup_s, "s");
  if (loop.failed > 0) report.fail(std::to_string(loop.failed) + " job(s) failed");
  // p90 needs at least 100 samples in every slice it is read from.
  const std::size_t need = 100 * figures.slices;
  if (loop.latencies_ms.size() < need)
    report.fail("only " + std::to_string(loop.latencies_ms.size()) + " timed jobs; p90 needs " +
                std::to_string(need));
  if (peak_rss < 0.0) report.fail("peak RSS unreadable");
}

void print_summary(const std::string& workload, const RunReport& report, const LoopStats* loop) {
  std::printf("== %s ==\n", workload.c_str());
  if (loop) {
    std::printf("  warm-up       %.3f s (%llu jobs) until three throughput windows agreed\n",
                loop->warmup_s, static_cast<unsigned long long>(loop->warmup_jobs));
    std::printf("  warm-up windows (jobs/s):");
    for (double rate : loop->warmup_rates) std::printf(" %.0f", rate);
    std::printf("\n");
    std::printf("  timed window  %.3f s, %zu jobs completed, %zu latency samples, %zu slice(s)\n",
                loop->window_s, loop->done_s.size(), loop->latencies_ms.size(),
                loop_figures(*loop).slices);
  }
  std::printf("  attempted     %llu\n  failed        %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const auto& [name, metric] : report.metrics)
    std::printf("  %-28s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  std::printf("  correct       %s\n", report.correct ? "yes" : "NO");
  for (const auto& why : report.problems) std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
