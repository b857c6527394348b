// quml_serve daemon throughput: (1) wire micro-costs — frame encode/decode
// round trips in both framings and journal append+replay for the persistent
// store; (2) the headline serving number — a live daemon on a unix socket
// under a concurrent-connection sweep up to 512 sessions, each driving the
// submit/await-result loop through the load generator.  The recorded
// counters are sustained jobs/sec and p50/p99 end-to-end latency (submit ->
// result received), which is what the acceptance gate reads.
//
// Emits BENCH_serve.json via bench/run_benchmarks.sh.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"

namespace {

using namespace quml;

std::string unique_path(const char* stem, const char* suffix) {
  return std::string("/tmp/") + stem + "_" + std::to_string(::getpid()) + suffix;
}

/// One frame round trip: encode a representative submit-sized payload, feed
/// it to a fresh decoder, extract.  Framing selected by Arg (0=newline,
/// 1=length-prefixed); the payload is ~1.5 KB like a small job bundle.
void BM_FrameRoundTrip(benchmark::State& state) {
  const auto framing = state.range(0) == 0 ? serve::Framing::Newline
                                           : serve::Framing::LengthPrefixed;
  std::string payload = R"({"op":"submit","bundle":{"pad":")";
  payload.append(1400, 'x');
  payload += "\"}}";
  for (auto _ : state) {
    const std::string frame = serve::encode_frame(payload, framing);
    serve::FrameDecoder decoder;
    decoder.feed(frame);
    auto out = decoder.next();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * payload.size()));
  state.counters["frame_bytes"] = static_cast<double>(payload.size());
}
BENCHMARK(BM_FrameRoundTrip)->Arg(0)->Arg(1);

/// Journal persistence cost per accepted job: one enqueue append (the write
/// that sits on the submit path) against a store pre-loaded with `Arg`
/// records, so the number reflects steady state, not an empty file.
void BM_StoreAppendEnqueue(benchmark::State& state) {
  const std::string path = unique_path("quml_bench_store", ".ndjson");
  std::remove(path.c_str());
  serve::JobStore store(path);
  const core::JobBundle bundle = serve::make_load_bundle(3, 128, 7, "gate.statevector_simulator", "bench-store");
  std::uint64_t ticket = 0;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    store.append_enqueue({++ticket, "bench", bundle});
  }
  for (auto _ : state) {
    store.append_enqueue({++ticket, "bench", bundle});
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_StoreAppendEnqueue)->Arg(0)->Arg(1024)->Unit(benchmark::kMicrosecond);

/// Boot-time replay: reopen a journal holding `Arg` pending jobs, as a
/// crashed daemon would at startup.
void BM_StoreReplay(benchmark::State& state) {
  const std::string path = unique_path("quml_bench_replay", ".ndjson");
  std::remove(path.c_str());
  {
    serve::JobStore store(path);
    const core::JobBundle bundle = serve::make_load_bundle(3, 128, 7, "gate.statevector_simulator", "bench-store");
    for (std::int64_t t = 1; t <= state.range(0); ++t) {
      store.append_enqueue({static_cast<std::uint64_t>(t), "bench", bundle});
    }
  }
  for (auto _ : state) {
    serve::JobStore store(path);
    benchmark::DoNotOptimize(store.pending().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  std::remove(path.c_str());
}
BENCHMARK(BM_StoreReplay)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

/// The headline: a live daemon + socket server, `Arg` concurrent client
/// connections each submitting and awaiting 2 jobs.  Counters record what
/// the load generator measured inside the iteration: sustained jobs/sec
/// and p50/p99 submit->result latency.  The 256- and 512-connection rows
/// are the acceptance evidence ("hundreds of concurrent connections").
void BM_SustainedLoad(benchmark::State& state) {
  const std::string store_path = unique_path("quml_bench_serve", ".ndjson");
  const std::string socket_path = unique_path("quml_bench_serve", ".sock");
  std::remove(store_path.c_str());

  serve::DaemonConfig daemon_config;
  daemon_config.store_path = store_path;
  daemon_config.service.default_workers = 2;
  daemon_config.default_policy.max_queued = 4096;  // measuring throughput, not shedding
  serve::JobDaemon daemon(daemon_config);
  serve::ServerConfig server_config;
  server_config.unix_path = socket_path;
  server_config.max_sessions = 1024;
  serve::Server server(daemon, server_config);
  server.start();

  serve::LoadOptions load;
  load.unix_path = socket_path;
  load.connections = static_cast<int>(state.range(0));
  load.jobs_per_connection = 2;
  load.width = 3;
  load.samples = 128;

  double jobs_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t completed = 0;
  for (auto _ : state) {
    const serve::LoadReport report = serve::run_load(load);
    if (report.errors > 0 || report.completed == 0) {
      state.SkipWithError("load generation failed");
      break;
    }
    jobs_per_sec = report.jobs_per_sec;
    p50_ms = report.p50_ms;
    p99_ms = report.p99_ms;
    completed += report.completed;
  }
  server.stop();
  daemon.stop();
  std::remove(store_path.c_str());

  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.counters["connections"] = static_cast<double>(load.connections);
  state.counters["jobs_per_sec"] = jobs_per_sec;
  state.counters["p50_ms"] = p50_ms;
  state.counters["p99_ms"] = p99_ms;
}
BENCHMARK(BM_SustainedLoad)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) { return quml::bench::run(argc, argv); }
