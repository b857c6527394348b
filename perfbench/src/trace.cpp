#include "trace.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "algolib/ising.hpp"
#include "analysis/passes.hpp"
#include "anneal/sampler.hpp"
#include "backend/anneal_backend.hpp"
#include "backend/gate_backend.hpp"
#include "backend/lowering.hpp"
#include "core/registry.hpp"
#include "inprocess.hpp"
#include "json/json.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "serve_client.hpp"
#include "sim/engine.hpp"
#include "sim/fusion.hpp"
#include "svc/execution_service.hpp"
#include "tracer.hpp"
#include "transpile/transpiler.hpp"

namespace perfbench {

using namespace quml;

namespace {

/// Passes recorded over the same jobs (after one untraced warm-up pass).
constexpr int kCensusPasses = 3;
constexpr int kLadderPasses = 2;
/// Jobs replayed per workload: ten serve jobs of each width, or the first
/// six Max-Cut instances of each size.
constexpr std::size_t kServeReplayJobs = 30;
constexpr std::size_t kMaxcutReplayJobs = 18;
/// Length of each closed loop the traced run compares (untraced vs traced).
constexpr double kLoopSeconds = 4.0;

bool is_gate(const core::JobBundle& bundle) {
  return bundle.exec_policy().engine.rfind("gate.", 0) == 0;
}

/// The engine's mid-circuit rule (sim/engine.cpp): a Measure followed by a
/// non-barrier, non-measure instruction, or any Reset, forces the per-shot
/// trajectory path.
bool mid_circuit(const sim::Circuit& circuit) {
  bool seen_measure = false;
  for (const auto& inst : circuit.instructions()) {
    if (inst.gate == sim::Gate::Reset) return true;
    if (inst.gate == sim::Gate::Measure)
      seen_measure = true;
    else if (seen_measure && inst.gate != sim::Gate::Barrier)
      return true;
  }
  return false;
}

std::string frame_of(const json::Value& doc) {
  return serve::encode_frame(json::dump(doc), serve::Framing::Newline);
}

/// Median over jobs of each job's median across passes.
std::map<std::uint64_t, double> per_job_p50(const Tracer& tracer, const std::string& name) {
  std::map<std::uint64_t, std::vector<double>> all;
  for (const Span& span : tracer.spans())
    if (span.name == name) all[span.job].push_back(span.duration_us());
  std::map<std::uint64_t, double> out;
  for (auto& [job, values] : all) out[job] = median(values);
  return out;
}

double p50_us(const Tracer& tracer, const std::string& name) {
  return median(tracer.durations_us(name));
}

/// Non-time facts the census reads off each job (recorded once per job).
struct Facts {
  std::vector<double> swaps, twoq_after, fused_ops, fusion_ratio, midcircuit, per_shot_us;
  std::vector<double> wire_bytes, ns_per_update, ground_frac;
};

class TracedRun {
 public:
  explicit TracedRun(const RunOptions& options) : options_(options) {}

  RunReport run();

 private:
  void ladder(const std::vector<Job>& jobs);
  void census(Tracer* tracer, const Job& job, Facts* facts, serve::JobStore& store,
              std::uint64_t& ticket);
  double queue_wait_ms(const Tracer& loop_tracer, const std::vector<Job>& jobs);
  void check_counts(const char* where, const Job& job, const core::Counts& counts);
  void add_metrics(const std::vector<Job>& own);

  const RunOptions& options_;
  RunReport report_;
  Tracer ladder_;
  Tracer census_;     ///< the workload's own jobs
  Tracer sibling_;    ///< the sibling Max-Cut formulation (layers off this path)
  Facts own_facts_;
  Facts sibling_facts_;
  std::map<std::uint64_t, core::ExecutionResult> r1_;
  double p50_untraced_ms_ = 0.0;
  double p50_traced_ms_ = 0.0;
  double warmup_s_ = 0.0;
  double cold_jobs_s_ = 0.0;
  double queue_wait_ms_ = 0.0;
};

void TracedRun::check_counts(const char* where, const Job& job, const core::Counts& counts) {
  ++report_.attempted;
  const auto it = r1_.find(job.index);
  if (counts.total() != job.shots || (it != r1_.end() && it->second.counts.map() != counts.map())) {
    ++report_.failed;
    report_.fail(std::string(where) + ": job " + std::to_string(job.index) +
                 " counts differ from the direct backend run");
  }
}

void TracedRun::ladder(const std::vector<Job>& jobs) {
  const auto rung = [&](const char* name, auto&& call) {
    for (int pass = 0; pass <= kLadderPasses; ++pass) {
      Tracer* tracer = pass == 0 ? nullptr : &ladder_;  // pass 0 warms the rung up
      for (const Job& job : jobs) {
        core::JobBundle bundle = job.bundle;  // copied before the span opens
        ScopedSpan root(tracer, name, job.index);
        const core::Counts counts = call(tracer, root.id(), job, std::move(bundle));
        if (pass == 1) check_counts(name, job, counts);
      }
    }
  };

  // R1: a direct backend run.
  backend::GateBackend gate;
  backend::AnnealBackend annealer;
  rung("R1", [&](Tracer* tracer, Tracer::Id parent, const Job& job, core::JobBundle bundle) {
    ScopedSpan span(tracer, "backend.run", job.index, parent);
    core::ExecutionResult result = is_gate(bundle) ? gate.run(bundle) : annealer.run(bundle);
    r1_.try_emplace(job.index, result);
    return result.counts;
  });

  // R2: the synchronous core::submit wrapper (process-wide service).
  rung("R2", [&](Tracer*, Tracer::Id, const Job&, core::JobBundle bundle) {
    return core::submit(bundle).counts;
  });

  // R3: a private ExecutionService, submit plus wait.
  {
    svc::ExecutionService service;
    rung("R3", [&](Tracer* tracer, Tracer::Id parent, const Job& job, core::JobBundle bundle) {
      svc::JobHandle handle;
      {
        ScopedSpan span(tracer, "svc.submit", job.index, parent);
        handle = service.handle(service.submit(std::move(bundle)));
      }
      {
        ScopedSpan span(tracer, "svc.wait", job.index, parent);
        handle.wait();
      }
      const core::Counts counts = handle.result().counts;
      service.forget(handle.id());
      return counts;
    });
  }

  // R4: an in-process JobDaemon, submit plus wait_for.
  {
    serve::DaemonConfig config;
    config.store_path = options_.work_dir + "/ladder-" + std::to_string(::getpid()) + ".ndjson";
    std::remove(config.store_path.c_str());
    config.tenants["tenant-a"] = serve::TenantPolicy{1.0, 64};
    config.tenants["tenant-b"] = serve::TenantPolicy{2.0, 64};
    {
      serve::JobDaemon daemon(config);
      rung("R4", [&](Tracer* tracer, Tracer::Id parent, const Job& job, core::JobBundle bundle) {
        serve::SubmitReply reply;
        {
          ScopedSpan span(tracer, "daemon.submit", job.index, parent);
          reply = daemon.submit("tenant-a", std::move(bundle));
        }
        if (reply.outcome != serve::SubmitOutcome::Accepted)
          throw std::runtime_error("in-process daemon refused a job: " + reply.detail);
        {
          ScopedSpan span(tracer, "daemon.wait_for", job.index, parent);
          daemon.wait_for("tenant-a", reply.ticket, std::chrono::milliseconds(60000));
        }
        const serve::JobInfo info = daemon.info("tenant-a", reply.ticket);
        return info.result ? info.result->counts : core::Counts{};
      });
    }
    std::remove(config.store_path.c_str());
  }

  // R5: the quml_serve daemon over its socket.
  {
    double setup_s = 0.0;
    DaemonProcess daemon(options_.serve_binary, options_.work_dir, 100, setup_s);
    serve::Client client = serve::Client::connect_unix(daemon.socket_path());
    client.hello("tenant-a");
    rung("R5", [&](Tracer* tracer, Tracer::Id parent, const Job& job, core::JobBundle bundle) {
      std::uint64_t ticket = 0;
      {
        ScopedSpan span(tracer, "wire.submit", job.index, parent);
        ticket = static_cast<std::uint64_t>(client.submit(bundle).get_int("ticket", 0));
      }
      {
        ScopedSpan span(tracer, "wire.status", job.index, parent);
        client.status(ticket);
      }
      json::Value reply;
      {
        ScopedSpan span(tracer, "wire.result", job.index, parent);
        reply = client.result(ticket, true);
      }
      const json::Value* counts = reply.find("counts");
      return counts ? core::Counts::from_json(*counts) : core::Counts{};
    });
    client.close();
    if (!daemon.stop()) report_.fail("quml_serve did not drain and exit cleanly after R5");
  }
}

void TracedRun::census(Tracer* tracer, const Job& job, Facts* facts, serve::JobStore& store,
                       std::uint64_t& ticket) {
  const std::uint64_t id = job.index;
  ScopedSpan root(tracer, "census", id);
  const Tracer::Id parent = root.id();

  // Request side, in the order the daemon meets it.
  json::Value submit_doc = json::Value::object();
  submit_doc.set("op", "submit");
  submit_doc.set("bundle", job.bundle.to_json());
  const std::string payload = json::dump(submit_doc);
  std::string request_frame;
  std::optional<std::string> decoded;
  {
    ScopedSpan span(tracer, "serve.frame_request", id, parent);
    request_frame = serve::encode_frame(payload, serve::Framing::Newline);
    serve::FrameDecoder decoder;
    decoder.feed(request_frame);
    decoded = decoder.next();
  }
  if (!decoded || *decoded != payload) report_.fail("request frame did not round-trip");
  json::Value doc;
  {
    ScopedSpan span(tracer, "json.parse", id, parent);
    doc = json::parse(payload);
  }
  core::JobBundle bundle;
  {
    ScopedSpan span(tracer, "core.from_json", id, parent);
    bundle = core::JobBundle::from_json(doc.at("bundle"));
  }
  analysis::AnalyzeOptions lint;  // the daemon's admission settings
  lint.require_bound = true;
  lint.resource_notes = false;
  bool clean = false;
  {
    ScopedSpan span(tracer, "analysis.analyze", id, parent);
    clean = !analysis::analyze_bundle(bundle, lint).has_errors();
  }
  if (!clean) report_.fail("admission analysis rejected job " + std::to_string(id));
  {
    ScopedSpan span(tracer, "serve.store_append", id, parent);
    store.append_enqueue(serve::PendingJob{++ticket, "tenant-a", bundle});
  }

  // Execution side.
  const core::ExecPolicy exec = bundle.exec_policy();
  core::Counts counts;
  if (is_gate(bundle)) {
    sim::Circuit logical;
    {
      ScopedSpan span(tracer, "backend.lower", id, parent);
      logical = backend::lower_bundle(bundle);
    }
    transpile::TranspileResult transpiled;
    {
      ScopedSpan span(tracer, "transpile.transpile", id, parent);
      transpiled = transpile::transpile(logical, backend::transpile_options_for(exec));
    }
    std::vector<sim::Instruction> unitaries;
    for (const auto& inst : transpiled.circuit.instructions())
      if (inst.gate != sim::Gate::Measure && inst.gate != sim::Gate::Reset) unitaries.push_back(inst);
    sim::FusionStats stats;
    {
      ScopedSpan span(tracer, "sim.fuse", id, parent);
      sim::fuse_unitaries(unitaries, transpiled.circuit.num_qubits(), &stats);
    }
    const sim::Engine engine;
    sim::CountMap raw;
    {
      ScopedSpan span(tracer, "sim.run_counts", id, parent);
      raw = engine.run_counts(transpiled.circuit, exec.samples, exec.seed);
    }
    for (const auto& [bits, n] : raw) counts.add(bits, n);
    const core::ResultSchema* schema = backend::effective_schema(bundle.operators);
    {
      ScopedSpan span(tracer, "core.decode", id, parent);
      core::decode_counts(counts, *schema, bundle.registers.at(schema->clbit_order.front().reg));
    }
    if (facts) {
      const Clock::time_point t0 = Clock::now();
      engine.run_counts(transpiled.circuit, 1, exec.seed);
      const Clock::time_point t1 = Clock::now();
      engine.run_counts(transpiled.circuit, exec.samples, exec.seed);
      const Clock::time_point t2 = Clock::now();
      facts->per_shot_us.push_back((us_between(t1, t2) - us_between(t0, t1)) /
                                   static_cast<double>(exec.samples - 1));
      facts->swaps.push_back(static_cast<double>(transpiled.swaps_inserted));
      facts->twoq_after.push_back(static_cast<double>(transpiled.twoq_after));
      facts->fused_ops.push_back(static_cast<double>(stats.ops_out));
      facts->fusion_ratio.push_back(static_cast<double>(stats.gates_in) /
                                    static_cast<double>(std::max<std::size_t>(stats.ops_out, 1)));
      facts->midcircuit.push_back(mid_circuit(transpiled.circuit) ? 1.0 : 0.0);
    }
  } else {
    const core::OperatorDescriptor* problem = nullptr;
    for (const auto& op : bundle.operators.ops)
      if (op.rep_kind == core::rep::kIsingProblem) problem = &op;
    const core::QuantumDataType& reg = bundle.registers.at(problem->domain_qdt);
    std::optional<anneal::IsingModel> model;
    {
      ScopedSpan span(tracer, "backend.lower", id, parent);
      model.emplace(algolib::ising_model_from_descriptor(*problem, reg.width));
    }
    const core::AnnealPolicy policy = bundle.context->anneal.value_or(core::AnnealPolicy{});
    anneal::AnnealParams params;
    params.num_reads = policy.num_reads;
    params.num_sweeps = policy.num_sweeps;
    params.seed = policy.seed.value_or(exec.seed);
    anneal::SampleSet samples;
    Tracer::Id sample_span = Tracer::kNone;
    {
      ScopedSpan span(tracer, "anneal.sample", id, parent);
      sample_span = span.id();
      samples = anneal::SimulatedAnnealer().sample(*model, params);
    }
    for (const auto& sample : samples.samples()) counts.add(sample.bitstring(), sample.occurrences);
    {
      ScopedSpan span(tracer, "core.decode", id, parent);
      core::decode_counts(counts, problem->result_schema.value_or(core::ResultSchema{}), reg);
    }
    if (facts && tracer) {
      const double sample_us = tracer->spans()[static_cast<std::size_t>(sample_span)].duration_us();
      facts->ns_per_update.push_back(1e3 * sample_us /
                                     static_cast<double>(params.num_reads * params.num_sweeps * reg.width));
      const double ground = anneal::exact_ground_states(*model).lowest().energy;
      std::int64_t at_ground = 0;
      for (const auto& sample : samples.samples())
        if (std::fabs(sample.energy - ground) < 1e-9) at_ground += sample.occurrences;
      facts->ground_frac.push_back(static_cast<double>(at_ground) / static_cast<double>(params.num_reads));
    }
  }
  if (facts) check_counts("census", job, counts);

  // Reply side: the result reply as the server renders it, on R1's result.
  serve::JobInfo info;
  info.known = true;
  info.ticket = ticket;
  info.tenant = "tenant-a";
  info.status = "DONE";
  info.engine = exec.engine;
  info.attempts = 1;
  info.result = r1_.at(job.index);
  std::string reply;
  {
    ScopedSpan span(tracer, "json.dump", id, parent);
    reply = json::dump(serve::result_response(info));
  }
  std::string reply_frame;
  {
    ScopedSpan span(tracer, "serve.frame_reply", id, parent);
    reply_frame = serve::encode_frame(reply, serve::Framing::Newline);
    serve::FrameDecoder decoder;
    decoder.feed(reply_frame);
    decoded = decoder.next();
  }
  if (!decoded || *decoded != reply) report_.fail("reply frame did not round-trip");
  if (facts) {
    // All six frames of one job: submit, status and result, each both ways.
    json::Value submit_reply = json::Value::object();
    submit_reply.set("ok", true);
    submit_reply.set("op", "submit");
    submit_reply.set("ticket", ticket);
    submit_reply.set("status", "QUEUED");
    json::Value status = json::Value::object();
    status.set("op", "status");
    status.set("ticket", ticket);
    json::Value status_reply = json::Value::object();
    status_reply.set("ok", true);
    status_reply.set("op", "status");
    status_reply.set("ticket", ticket);
    status_reply.set("status", "RUNNING");
    status_reply.set("engine", exec.engine);
    status_reply.set("attempts", std::int64_t{0});
    json::Value result = json::Value::object();
    result.set("op", "result");
    result.set("ticket", ticket);
    result.set("wait", true);
    facts->wire_bytes.push_back(static_cast<double>(
        request_frame.size() + reply_frame.size() + frame_of(submit_reply).size() +
        frame_of(status).size() + frame_of(status_reply).size() + frame_of(result).size()));
  }
}

double TracedRun::queue_wait_ms(const Tracer& loop_tracer, const std::vector<Job>& jobs) {
  // Each closed-loop job's latency minus the concurrency-1 time of the same
  // job shape at the top in-process rung (R3) or, for the socket workload,
  // at R5.
  const bool serve = options_.workload == Workload::ServeSmall;
  const std::map<std::uint64_t, double> rung = per_job_p50(ladder_, serve ? "R5" : "R3");
  std::map<std::uint64_t, std::vector<double>> by_shape;
  for (const auto& [index, us] : rung) by_shape[index % (serve ? 3 : jobs.size())].push_back(us);
  std::vector<double> waits;
  for (const Span& span : loop_tracer.spans()) {
    if (span.name != "job" || span.end_us <= 0.0) continue;
    const auto it = by_shape.find(span.job % (serve ? 3 : jobs.size()));
    if (it != by_shape.end()) waits.push_back((span.duration_us() - median(it->second)) / 1e3);
  }
  return median(waits);
}

RunReport TracedRun::run() {
  const Workload workload = options_.workload;
  const bool serve = workload == Workload::ServeSmall;
  const std::vector<Job> own =
      job_stream(workload, options_.seed, serve ? kServeReplayJobs : kMaxcutReplayJobs);
  // Layers the workload's own jobs never cross are measured on the sibling
  // formulation of the same seed's Max-Cut instances.
  const std::vector<Job> sibling =
      job_stream(workload == Workload::AnnealIsing ? Workload::GateQaoa : Workload::AnnealIsing,
                 options_.seed, kMaxcutReplayJobs);

  std::printf("traced run: %s, seed %llu\n", workload_name(workload),
              static_cast<unsigned long long>(options_.seed));
  ladder(own);

  // Sibling jobs need their own direct results for the reply-side stages.
  std::map<std::uint64_t, core::ExecutionResult> own_r1 = std::move(r1_);
  r1_.clear();
  {
    backend::GateBackend gate;
    backend::AnnealBackend annealer;
    for (const Job& job : sibling)
      r1_.emplace(job.index, is_gate(job.bundle) ? gate.run(job.bundle) : annealer.run(job.bundle));
  }
  const std::string store_path =
      options_.work_dir + "/census-" + std::to_string(::getpid()) + ".ndjson";
  std::remove(store_path.c_str());
  {
    serve::JobStore store(store_path);
    std::uint64_t ticket = 0;
    for (int pass = 0; pass <= kCensusPasses; ++pass)
      for (const Job& job : sibling)
        census(pass == 0 ? nullptr : &sibling_, job, pass == 1 ? &sibling_facts_ : nullptr,
               store, ticket);
    r1_ = std::move(own_r1);
    // The store is warm by now: its appends are timed on the own jobs.
    for (int pass = 0; pass <= kCensusPasses; ++pass)
      for (const Job& job : own)
        census(pass == 0 ? nullptr : &census_, job, pass == 1 ? &own_facts_ : nullptr, store, ticket);
  }
  std::remove(store_path.c_str());

  // JobDaemon::submit on a warm in-process daemon, each job settled before
  // the next so the tenant lane never fills.
  {
    serve::DaemonConfig config;
    config.store_path = options_.work_dir + "/submit-" + std::to_string(::getpid()) + ".ndjson";
    std::remove(config.store_path.c_str());
    {
      serve::JobDaemon daemon(config);
      for (int pass = 0; pass <= kCensusPasses; ++pass) {
        for (const Job& job : own) {
          core::JobBundle bundle = job.bundle;
          serve::SubmitReply reply;
          {
            ScopedSpan span(pass == 0 ? nullptr : &census_, "serve.daemon_submit", job.index);
            reply = daemon.submit("tenant-a", std::move(bundle));
          }
          if (reply.outcome != serve::SubmitOutcome::Accepted)
            throw std::runtime_error("in-process daemon refused a job: " + reply.detail);
          daemon.wait_for("tenant-a", reply.ticket, std::chrono::milliseconds(60000));
        }
      }
    }
    std::remove(config.store_path.c_str());
  }

  // The workload's closed loop, untraced then traced on the same daemon or
  // service, for the tracing overhead and the queue wait.  The untraced
  // loop runs first on a fresh daemon, so its first window is the cold one.
  Tracer loop_tracer;
  std::unique_ptr<DaemonProcess> daemon;
  std::unique_ptr<svc::ExecutionService> service;
  if (serve) {
    double setup_s = 0.0;
    daemon = std::make_unique<DaemonProcess>(options_.serve_binary, options_.work_dir, 101, setup_s);
  } else {
    service = std::make_unique<svc::ExecutionService>();
  }
  const auto loop_p50 = [&](Tracer* tracer) {
    LoopStats loop;
    if (serve) {
      ServeLoopOptions loop_options;
      loop_options.seed = options_.seed;
      loop_options.seconds = kLoopSeconds;
      loop_options.keep_samples = false;
      loop_options.tracer = tracer;
      ServeLoopResult result = run_serve_loop(daemon->socket_path(), loop_options);
      if (!tracer) cold_jobs_s_ = result.first_window_jobs_s;
      loop = std::move(result.loop);
    } else {
      std::vector<core::JobBundle> pool;
      for (const Job& job : own) pool.push_back(job.bundle);
      InProcessOptions loop_options;
      loop_options.seconds = kLoopSeconds;
      loop_options.min_timed_jobs = 0;
      loop_options.tracer = tracer;
      InProcessResult result = run_inprocess_loop(*service, pool, own.front().shots, loop_options);
      if (result.bad_counts + result.unstable_counts > 0) report_.fail("closed-loop counts changed");
      loop = std::move(result.loop);
    }
    report_.attempted += loop.attempted;
    report_.failed += loop.failed;
    if (loop.failed > 0) report_.fail("closed-loop jobs failed");
    if (!tracer) warmup_s_ = loop.warmup_s;
    return loop_figures(loop).p50_ms;
  };
  p50_untraced_ms_ = loop_p50(nullptr);
  p50_traced_ms_ = loop_p50(&loop_tracer);
  queue_wait_ms_ = queue_wait_ms(loop_tracer, own);
  if (daemon && !daemon->stop()) report_.fail("quml_serve did not drain and exit cleanly");
  daemon.reset();
  service.reset();
  if (!serve) {
    // The cold phase belongs to the daemon: a fresh one serves the
    // serve_small stream for one short window.
    double setup_s = 0.0;
    DaemonProcess daemon(options_.serve_binary, options_.work_dir, 103, setup_s);
    ServeLoopOptions loop_options;
    loop_options.seed = options_.seed;
    loop_options.seconds = 0.5;
    loop_options.max_warmup_s = 0.0;
    loop_options.keep_samples = false;
    const ServeLoopResult result = run_serve_loop(daemon.socket_path(), loop_options);
    cold_jobs_s_ = result.first_window_jobs_s;
    if (result.loop.failed > 0 || !daemon.stop()) report_.fail("cold serve window failed");
  }

  add_metrics(own);

  const std::string stem = options_.work_dir + "/spans-" + workload_name(workload) + "-" +
                           std::to_string(options_.seed);
  ladder_.write_json(stem + "-ladder.json");
  census_.write_json(stem + "-census.json");
  sibling_.write_json(stem + "-sibling.json");
  loop_tracer.write_json(stem + "-loop.json");
  std::printf("  spans written to %s-*.json\n", stem.c_str());
  print_summary(std::string(workload_name(workload)) + " (traced)", report_, nullptr);
  return report_;
}

void TracedRun::add_metrics(const std::vector<Job>& own) {
  const bool own_gate = is_gate(own.front().bundle);
  // A layer's figure comes from the own jobs when they cross it, else from
  // the sibling formulation.
  const Tracer& gate_census = own_gate ? census_ : sibling_;
  const Tracer& anneal_census = own_gate ? sibling_ : census_;
  const Facts& gate_facts = own_gate ? own_facts_ : sibling_facts_;
  const Facts& anneal_facts = own_gate ? sibling_facts_ : own_facts_;

  // Ladder rungs and the stages attributed to each, per job.
  const auto stage = [&](const char* name) { return per_job_p50(census_, name); };
  const std::map<std::uint64_t, double> lower = stage("backend.lower"),
                                        transpile = stage("transpile.transpile"),
                                        run_counts = stage("sim.run_counts"),
                                        sample = stage("anneal.sample"), decode = stage("core.decode"),
                                        analyze = stage("analysis.analyze"),
                                        frame_req = stage("serve.frame_request"),
                                        frame_reply = stage("serve.frame_reply"),
                                        parse = stage("json.parse"), from_json = stage("core.from_json"),
                                        dump = stage("json.dump");
  const std::map<std::uint64_t, double> daemon_submit = per_job_p50(ladder_, "daemon.submit");
  const auto at = [](const std::map<std::uint64_t, double>& m, std::uint64_t job) {
    const auto it = m.find(job);
    return it == m.end() ? 0.0 : it->second;
  };
  // Stages each rung adds over the one below (all timed from outside):
  //   R1 lower + transpile + run_counts (or sample) + decode
  //   R2, R3 + the service's admission analysis
  //   R4 + JobDaemon::submit (its own analysis and journal append)
  //   R5 + request/reply framing, json::parse, JobBundle::from_json, json::dump
  const auto stages_for = [&](int rung, std::uint64_t job) {
    double sum = at(lower, job) + at(transpile, job) + at(run_counts, job) + at(sample, job) +
                 at(decode, job);
    if (rung >= 2) sum += at(analyze, job);
    if (rung >= 4) sum += at(daemon_submit, job);
    if (rung >= 5)
      sum += at(frame_req, job) + at(frame_reply, job) + at(parse, job) + at(from_json, job) +
             at(dump, job);
    return sum;
  };
  double rung_p50[6] = {};
  double unattributed[6] = {};
  for (int r = 1; r <= 5; ++r) {
    const std::string name = "R" + std::to_string(r);
    rung_p50[r] = p50_us(ladder_, name);
    std::vector<double> shares;
    for (const auto& [job, us] : per_job_p50(ladder_, name)) shares.push_back((us - stages_for(r, job)) / us);
    unattributed[r] = median(shares);
    report_.set("ladder.r" + std::to_string(r) + "_us", rung_p50[r], "us");
    report_.set("ladder.r" + std::to_string(r) + "_unattributed_frac", unattributed[r], "ratio");
  }
  report_.set("ladder.unattributed_frac", unattributed[5], "ratio");

  // Rung differences pair each job with itself: the jobs' own sizes vary
  // far more than the layers between two rungs cost.
  const auto rung_gap_us = [&](int upper, int lower_rung) {
    const std::map<std::uint64_t, double> hi = per_job_p50(ladder_, "R" + std::to_string(upper));
    const std::map<std::uint64_t, double> lo = per_job_p50(ladder_, "R" + std::to_string(lower_rung));
    std::vector<double> gaps;
    for (const auto& [job, us] : hi) gaps.push_back(us - at(lo, job));
    return median(gaps);
  };
  report_.set("serve.wire_us", rung_gap_us(5, 4), "us");
  report_.set("serve.daemon_us", rung_gap_us(4, 3), "us");
  report_.set("serve.daemon_submit_us", p50_us(census_, "serve.daemon_submit"), "us");
  report_.set("serve.store_append_us", p50_us(census_, "serve.store_append"), "us");
  std::vector<double> frame_us;
  for (const auto& [job, us] : frame_req) frame_us.push_back(us + at(frame_reply, job));
  report_.set("serve.frame_us", median(frame_us), "us");
  report_.set("serve.wire_bytes", median(own_facts_.wire_bytes), "B");
  report_.set("serve.cold_jobs_s", cold_jobs_s_, "1/s");

  report_.set("json.parse_us", p50_us(census_, "json.parse"), "us");
  report_.set("json.dump_us", p50_us(census_, "json.dump"), "us");
  report_.set("core.from_json_us", p50_us(census_, "core.from_json"), "us");
  report_.set("core.decode_us", p50_us(census_, "core.decode"), "us");
  report_.set("analysis.analyze_us", p50_us(census_, "analysis.analyze"), "us");

  report_.set("svc.overhead_us", rung_gap_us(3, 1), "us");
  report_.set("svc.queue_wait_ms", queue_wait_ms_, "ms");
  report_.set("backend.lower_us", p50_us(census_, "backend.lower"), "us");
  report_.set("backend.run_ms", rung_p50[1] / 1e3, "ms");

  report_.set("transpile.transpile_us", p50_us(gate_census, "transpile.transpile"), "us");
  report_.set("transpile.swaps", median(gate_facts.swaps), "count");
  report_.set("transpile.twoq_after", median(gate_facts.twoq_after), "count");
  report_.set("sim.fuse_us", p50_us(gate_census, "sim.fuse"), "us");
  report_.set("sim.fused_ops", median(gate_facts.fused_ops), "count");
  report_.set("sim.fusion_ratio", median(gate_facts.fusion_ratio), "ratio");
  report_.set("sim.run_counts_ms", p50_us(gate_census, "sim.run_counts") / 1e3, "ms");
  double mid = 0.0;
  for (double m : gate_facts.midcircuit) mid += m;
  report_.set("sim.midcircuit_frac", gate_facts.midcircuit.empty() ? 0.0 : mid / static_cast<double>(gate_facts.midcircuit.size()), "ratio");
  report_.set("sim.per_shot_us", median(gate_facts.per_shot_us), "us");

  report_.set("anneal.sample_ms", p50_us(anneal_census, "anneal.sample") / 1e3, "ms");
  report_.set("anneal.ns_per_update", median(anneal_facts.ns_per_update), "ns");
  report_.set("anneal.ground_frac", median(anneal_facts.ground_frac), "ratio");

  report_.set("trace.overhead_frac", (p50_traced_ms_ - p50_untraced_ms_) / p50_untraced_ms_, "ratio");
  report_.set("bench.warmup_s", warmup_s_, "s");
}

}  // namespace

RunReport run_traced(const RunOptions& options) { return TracedRun(options).run(); }

}  // namespace perfbench
