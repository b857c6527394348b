// ExecutionService + registry concurrency suite: alias-collision detection
// (regression: first-match lookup used to let a colliding alias silently
// shadow an engine), async-vs-serial determinism (N client threads x M mixed
// gate/anneal jobs must reproduce serial core::submit bit-for-bit),
// cancellation and failure propagation, job timeouts, "auto" routing with
// queue_wait_us fed live from actual per-backend backlog, the thread budget
// (each job's OpenMP team is its share of the budget, capped by the OpenMP
// cap and its own exec.max_parallel_threads), and sim::Engine re-entrancy
// under concurrent callers.
//
// This file (and these suites) also run under the ThreadSanitizer CI job
// (cmake --preset tsan; ctest -L svc).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algolib/ising.hpp"
#include "algolib/qaoa.hpp"
#include "algolib/qft.hpp"
#include "backend/register_backends.hpp"
#include "core/registry.hpp"
#include "sim/engine.hpp"
#include "svc/execution_service.hpp"
#include "util/errors.hpp"
#include "util/parallel.hpp"

namespace quml {
namespace {

using algolib::Graph;
using namespace std::chrono_literals;

// --- fixtures: job builders -------------------------------------------------

core::JobBundle qft_job(unsigned width, std::uint64_t seed, const std::string& engine,
                        std::int64_t samples = 256) {
  const auto reg = algolib::make_phase_register("p", width);
  core::RegisterSet regs;
  regs.add(reg);
  core::OperatorSequence seq;
  seq.ops.push_back(algolib::qft_descriptor(reg, {}));
  seq.ops.push_back(algolib::measurement_descriptor(reg));
  core::Context ctx;
  ctx.exec.engine = engine;
  ctx.exec.samples = samples;
  ctx.exec.seed = seed;
  return core::JobBundle::package(std::move(regs), std::move(seq), ctx,
                                  "qft" + std::to_string(width) + "-s" + std::to_string(seed));
}

core::JobBundle qaoa_job(int n, std::uint64_t seed, const std::string& engine) {
  const auto reg = algolib::make_ising_register("s", static_cast<unsigned>(n));
  core::RegisterSet regs;
  regs.add(reg);
  core::Context ctx;
  ctx.exec.engine = engine;
  ctx.exec.samples = 512;
  ctx.exec.seed = seed;
  return core::JobBundle::package(
      std::move(regs), algolib::qaoa_sequence(reg, Graph::cycle(n), algolib::ring_p1_angles()),
      ctx, "qaoa" + std::to_string(n) + "-s" + std::to_string(seed));
}

core::JobBundle ising_job(int n, std::uint64_t seed, const std::string& engine) {
  const auto reg = algolib::make_ising_register("s", static_cast<unsigned>(n));
  core::RegisterSet regs;
  regs.add(reg);
  core::OperatorSequence seq;
  seq.ops.push_back(algolib::maxcut_ising_descriptor(reg, Graph::cycle(n)));
  core::Context ctx;
  ctx.exec.engine = engine;
  ctx.exec.samples = 200;
  ctx.exec.seed = seed;
  core::AnnealPolicy anneal;
  anneal.num_reads = 200;
  anneal.num_sweeps = 50;
  ctx.anneal = anneal;
  return core::JobBundle::package(std::move(regs), std::move(seq), ctx,
                                  "ising" + std::to_string(n) + "-s" + std::to_string(seed));
}

/// The mixed workload every determinism test runs: gate + anneal, several
/// widths and seeds, explicit engines (aliases included to cover canonical
/// queue keying).
std::vector<core::JobBundle> mixed_jobs() {
  std::vector<core::JobBundle> jobs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    jobs.push_back(qft_job(4, seed, "gate.statevector_simulator"));
    jobs.push_back(qft_job(6, seed, "gate.aer_simulator"));  // alias, same pool
    jobs.push_back(qaoa_job(5, seed, "gate.statevector_simulator"));
    jobs.push_back(ising_job(6, seed, "anneal.simulated_annealer"));
  }
  return jobs;
}

// --- fixtures: instrumented test backends ----------------------------------

/// Gate-kind backend that sleeps instead of simulating, advertising more
/// qubits than the real statevector engine can hold so "auto" jobs built
/// wider than the simulator are feasible *only* here.  Two twins (a/b) with
/// identical capabilities let the routing tests observe the live-backlog
/// tiebreak.
class SleepBackend : public core::Backend {
 public:
  SleepBackend(std::string name, std::chrono::milliseconds delay)
      : name_(std::move(name)), delay_(delay) {}

  std::string name() const override { return name_; }

  core::ExecutionResult run(const core::JobBundle& bundle) override {
    std::this_thread::sleep_for(delay_);
    ++runs_;
    core::ExecutionResult result;
    result.counts.add("0", bundle.exec_policy().samples);
    result.metadata.set("engine", json::Value(name_));
    return result;
  }

  json::Value capabilities() const override {
    json::Value caps = json::Value::object();
    caps.set("name", json::Value(name_));
    caps.set("kind", json::Value("gate"));
    caps.set("num_qubits", json::Value(static_cast<std::int64_t>(40)));
    return caps;
  }

  static std::atomic<int> runs_;

 private:
  std::string name_;
  std::chrono::milliseconds delay_;
};

std::atomic<int> SleepBackend::runs_{0};

/// Backend whose run() submits a sub-job through the blocking core::submit
/// wrapper — from a service worker thread that call must execute inline
/// instead of enqueueing (enqueueing onto a pool your own worker blocks is a
/// self-deadlock).
class NestedSubmitBackend : public core::Backend {
 public:
  std::string name() const override { return "gate.svc_nested"; }
  core::ExecutionResult run(const core::JobBundle& bundle) override {
    core::JobBundle inner = bundle;
    inner.context->exec.engine = "gate.statevector_simulator";
    return core::submit(inner);
  }
  json::Value capabilities() const override {
    json::Value caps = json::Value::object();
    caps.set("name", json::Value(name()));
    caps.set("kind", json::Value("gate"));
    caps.set("num_qubits", json::Value(static_cast<std::int64_t>(20)));
    return caps;
  }
};

/// Backend whose run() always throws, for failure-propagation tests.
class FailBackend : public core::Backend {
 public:
  std::string name() const override { return "gate.svc_fail"; }
  core::ExecutionResult run(const core::JobBundle&) override {
    throw LoweringError("svc_fail backend always fails");
  }
  json::Value capabilities() const override {
    json::Value caps = json::Value::object();
    caps.set("name", json::Value(name()));
    caps.set("kind", json::Value("gate"));
    caps.set("num_qubits", json::Value(static_cast<std::int64_t>(40)));
    return caps;
  }
};

/// Gate backend whose factory only works on the thread that registered it.
/// Service-side creations on the submitting thread (the routing capabilities
/// probe, the prepare_sweep probe in submit_sweep) succeed; the per-worker
/// creation in worker_loop runs on a pool thread and throws — modelling an
/// engine whose sessions are exhausted by the time the pool spins up.
/// Advertises 2 qubits so no "auto" job in this suite can route here.
class FlakyFactoryBackend : public core::Backend {
 public:
  std::string name() const override { return "gate.svc_flaky"; }
  core::ExecutionResult run(const core::JobBundle& bundle) override {
    core::ExecutionResult result;
    result.counts.add("0", bundle.exec_policy().samples);
    return result;
  }
  json::Value capabilities() const override {
    json::Value caps = json::Value::object();
    caps.set("name", json::Value(name()));
    caps.set("kind", json::Value("gate"));
    caps.set("num_qubits", json::Value(static_cast<std::int64_t>(2)));
    return caps;
  }
};

/// Backend that records the OpenMP team its job was given (quml::max_threads()
/// inside run(), keyed by job id) and, while the probe gate is closed, holds
/// every run until the test opens it.  Registered as a gate-kind and an
/// anneal-kind engine; the recordings are shared by both.  Advertises 3
/// qubits, so no "auto" job in this suite (4 qubits and up) can route here.
class TeamProbeBackend : public core::Backend {
 public:
  TeamProbeBackend(std::string name, std::string kind)
      : name_(std::move(name)), kind_(std::move(kind)) {}

  std::string name() const override { return name_; }

  core::ExecutionResult run(const core::JobBundle& bundle) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      teams_[bundle.job_id] = max_threads();
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [] { return open_; });
    }
    core::ExecutionResult result;
    result.counts.add("0", bundle.exec_policy().samples);
    return result;
  }

  json::Value capabilities() const override {
    json::Value caps = json::Value::object();
    caps.set("name", json::Value(name_));
    caps.set("kind", json::Value(kind_));
    caps.set("num_qubits", json::Value(static_cast<std::int64_t>(3)));
    if (kind_ == "anneal")
      caps.set("rep_kinds", json::Value(json::Array{json::Value("ISING_PROBLEM")}));
    return caps;
  }

  /// Forgets every recording; `open` false makes later runs wait in run().
  static void reset(bool open) {
    std::lock_guard<std::mutex> lock(mutex_);
    teams_.clear();
    entered_ = 0;
    open_ = open;
  }
  static void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// Waits (up to 30 s) until `runs` runs have entered run().
  static bool wait_entered(int runs) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, 30s, [runs] { return entered_ >= runs; });
  }
  /// Team recorded for `job_id`; 0 when that job never ran.
  static int team(const std::string& job_id) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = teams_.find(job_id);
    return it == teams_.end() ? 0 : it->second;
  }

 private:
  std::string name_;
  std::string kind_;
  static std::mutex mutex_;
  static std::condition_variable cv_;
  static std::map<std::string, int> teams_;
  static int entered_;
  static bool open_;
};

std::mutex TeamProbeBackend::mutex_;
std::condition_variable TeamProbeBackend::cv_;
std::map<std::string, int> TeamProbeBackend::teams_;
int TeamProbeBackend::entered_ = 0;
bool TeamProbeBackend::open_ = true;

std::thread::id g_flaky_home_thread;

/// The registry is process-global, so the instrumented engines are
/// registered exactly once for the whole binary.
void ensure_test_backends() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    auto& registry = core::BackendRegistry::instance();
    registry.register_backend("gate.svc_slow_a",
                              [] { return std::make_unique<SleepBackend>("gate.svc_slow_a", 300ms); });
    registry.register_backend("gate.svc_slow_b",
                              [] { return std::make_unique<SleepBackend>("gate.svc_slow_b", 300ms); });
    registry.register_backend("gate.svc_fail", [] { return std::make_unique<FailBackend>(); });
    registry.register_backend("gate.svc_nested",
                              [] { return std::make_unique<NestedSubmitBackend>(); });
    g_flaky_home_thread = std::this_thread::get_id();
    registry.register_backend("gate.svc_flaky", [] {
      if (std::this_thread::get_id() != g_flaky_home_thread)
        throw BackendError("svc_flaky factory refuses creation off the registering thread");
      return std::make_unique<FlakyFactoryBackend>();
    });
    registry.register_backend("gate.svc_team_probe", [] {
      return std::make_unique<TeamProbeBackend>("gate.svc_team_probe", "gate");
    });
    registry.register_backend("anneal.svc_team_probe", [] {
      return std::make_unique<TeamProbeBackend>("anneal.svc_team_probe", "anneal");
    });
  });
}

class SvcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backend::register_builtin_backends();
    ensure_test_backends();
  }

  /// A job only the SleepBackend twins can take: wider than the statevector
  /// simulator's advertised capacity, narrower than the twins' 40 qubits.
  static core::JobBundle wide_auto_job(std::uint64_t seed) {
    return qft_job(34, seed, "auto", 16);
  }
};

// --- registry: alias collision regression + thread safety -------------------

TEST(SvcRegistry, RejectsAliasCollidingWithExistingName) {
  backend::register_builtin_backends();
  auto& registry = core::BackendRegistry::instance();
  // Regression: this used to be accepted silently, and first-match lookup
  // would forever resolve the alias to the older engine.
  EXPECT_THROW(registry.register_backend(
                   "gate.svc_collide1", [] { return std::make_unique<FailBackend>(); },
                   {"gate.statevector_simulator"}),
               BackendError);
  // Strong guarantee: the rejected canonical name must not have leaked in.
  EXPECT_FALSE(registry.has("gate.svc_collide1"));
}

TEST(SvcRegistry, RejectsAliasCollidingWithExistingAlias) {
  backend::register_builtin_backends();
  auto& registry = core::BackendRegistry::instance();
  EXPECT_THROW(registry.register_backend(
                   "gate.svc_collide2", [] { return std::make_unique<FailBackend>(); },
                   {"gate.aer_simulator"}),  // alias of the statevector engine
               BackendError);
  EXPECT_FALSE(registry.has("gate.svc_collide2"));
  EXPECT_EQ(registry.canonical("gate.aer_simulator"), "gate.statevector_simulator");
}

TEST(SvcRegistry, RejectsNameCollidingWithExistingAlias) {
  backend::register_builtin_backends();
  auto& registry = core::BackendRegistry::instance();
  EXPECT_THROW(registry.register_backend("gate.aer_simulator",
                                         [] { return std::make_unique<FailBackend>(); }),
               BackendError);
}

TEST(SvcRegistry, RejectsDuplicateAliasesWithinOneRegistration) {
  backend::register_builtin_backends();
  auto& registry = core::BackendRegistry::instance();
  EXPECT_THROW(registry.register_backend(
                   "gate.svc_collide3", [] { return std::make_unique<FailBackend>(); },
                   {"gate.svc_c3_alias", "gate.svc_c3_alias"}),
               BackendError);
  EXPECT_THROW(registry.register_backend(
                   "gate.svc_collide4", [] { return std::make_unique<FailBackend>(); },
                   {"gate.svc_collide4"}),
               BackendError);
  EXPECT_FALSE(registry.has("gate.svc_c3_alias"));
}

TEST(SvcRegistry, CachedCapabilitiesMatchBackendAdvertisement) {
  backend::register_builtin_backends();
  auto& registry = core::BackendRegistry::instance();
  const json::Value direct = registry.create("gate.statevector_simulator")->capabilities();
  const json::Value cached = registry.capabilities("gate.aer_simulator");  // via alias
  EXPECT_EQ(json::dump(cached), json::dump(direct));
  // Second read hits the cache and stays identical.
  EXPECT_EQ(json::dump(registry.capabilities("gate.statevector_simulator")), json::dump(direct));
}

TEST(SvcRegistry, ConcurrentLookupsAndCapabilityProbes) {
  backend::register_builtin_backends();
  auto& registry = core::BackendRegistry::instance();
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (registry.has("gate.aer_simulator") &&
            registry.canonical("anneal.neal_simulator") == "anneal.simulated_annealer" &&
            registry.capabilities("gate.statevector_simulator").get_string("kind", "") == "gate")
          ++ok;
      }
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), 200);
}

// --- service: determinism --------------------------------------------------

TEST_F(SvcTest, BatchResultsBitIdenticalToSerialSubmit) {
  // Serial baseline through the blocking wrapper.
  std::vector<std::map<std::string, std::int64_t>> serial;
  for (const auto& job : mixed_jobs()) serial.push_back(core::submit(job).counts.map());

  // Async batch across 3 workers per engine: same bundles, same seeds.
  svc::ServiceConfig config;
  config.default_workers = 3;
  svc::ExecutionService service(config);
  const std::vector<svc::JobId> ids = service.submit_batch(mixed_jobs());
  ASSERT_EQ(ids.size(), serial.size());
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const core::ExecutionResult result = service.handle(ids[j]).result();
    EXPECT_EQ(result.counts.map(), serial[j]) << "job " << j << " diverged from serial submit";
  }
}

TEST_F(SvcTest, ConcurrentClientThreadsStayDeterministic) {
  // N client threads submitting into one shared service, each comparing its
  // own jobs against the serial baseline — submission order is racy, results
  // must not be.
  const std::vector<core::JobBundle> jobs = mixed_jobs();
  std::vector<std::map<std::string, std::int64_t>> serial;
  for (const auto& job : jobs) serial.push_back(core::submit(job).counts.map());

  svc::ServiceConfig config;
  config.default_workers = 2;
  svc::ExecutionService service(config);
  constexpr int kThreads = 4;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t)
    clients.emplace_back([&, t] {
      for (std::size_t j = static_cast<std::size_t>(t); j < jobs.size(); j += kThreads) {
        const svc::JobId id = service.submit(jobs[j]);
        if (service.handle(id).result().counts.map() != serial[j]) ++mismatches;
      }
    });
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(SvcTest, SubmitReturnsImmediatelyAndWaitAllDrains) {
  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);
  std::vector<core::JobBundle> jobs;
  for (std::uint64_t s = 0; s < 4; ++s)
    jobs.push_back(qft_job(10, s, "gate.statevector_simulator", 2048));
  const auto ids = service.submit_batch(std::move(jobs));
  service.wait_all();
  for (const auto id : ids) EXPECT_EQ(service.handle(id).status(), svc::JobStatus::Done);
}

// --- service: lifecycle, cancellation, failures, timeouts -------------------

TEST_F(SvcTest, CancelQueuedJobSkipsExecutionAndPropagates) {
  svc::ServiceConfig config;
  config.default_workers = 1;  // serialize the svc_slow_a pool
  svc::ExecutionService service(config);
  const svc::JobId running = service.submit(qft_job(34, 1, "gate.svc_slow_a", 16));
  const svc::JobId queued = service.submit(qft_job(34, 2, "gate.svc_slow_a", 16));

  const svc::JobHandle victim = service.handle(queued);
  EXPECT_EQ(victim.status(), svc::JobStatus::Queued);
  EXPECT_TRUE(victim.cancel());
  EXPECT_FALSE(victim.cancel());  // already terminal
  EXPECT_EQ(victim.status(), svc::JobStatus::Cancelled);
  EXPECT_THROW(victim.result(), BackendError);

  const svc::JobHandle survivor = service.handle(running);
  EXPECT_NO_THROW(survivor.result());
  EXPECT_EQ(survivor.status(), svc::JobStatus::Done);
  EXPECT_FALSE(survivor.cancel());  // done jobs can't be cancelled
  service.wait_all();
}

TEST_F(SvcTest, FailurePropagatesWithOriginalType) {
  svc::ExecutionService service;
  const svc::JobId id = service.submit(qft_job(34, 7, "gate.svc_fail", 16));
  const svc::JobHandle handle = service.handle(id);
  handle.wait();
  EXPECT_EQ(handle.status(), svc::JobStatus::Failed);
  EXPECT_THROW(handle.result(), LoweringError);  // not just quml::Error
  EXPECT_NE(handle.error().find("svc_fail backend always fails"), std::string::npos);
}

TEST_F(SvcTest, SubmitFailsEarlyOnUnroutableBundles) {
  svc::ExecutionService service;
  EXPECT_THROW(service.submit(qft_job(4, 1, "gate.warp_drive")), BackendError);
  core::JobBundle no_engine = qft_job(4, 1, "gate.statevector_simulator");
  no_engine.context->exec.engine.clear();
  EXPECT_THROW(service.submit(no_engine), BackendError);
}

TEST_F(SvcTest, BatchKeepsGoodJobsWhenOneIsUnroutable) {
  svc::ExecutionService service;
  std::vector<core::JobBundle> jobs;
  jobs.push_back(qft_job(4, 1, "gate.statevector_simulator"));
  jobs.push_back(qft_job(4, 2, "gate.no_such_engine"));
  jobs.push_back(ising_job(6, 3, "anneal.simulated_annealer"));
  const auto ids = service.submit_batch(std::move(jobs));
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_NO_THROW(service.handle(ids[0]).result());
  svc::JobHandle bad = service.handle(ids[1]);
  bad.wait();
  EXPECT_EQ(bad.status(), svc::JobStatus::Failed);
  EXPECT_NE(bad.error().find("unknown engine"), std::string::npos);
  EXPECT_NO_THROW(service.handle(ids[2]).result());
}

TEST_F(SvcTest, WaitForTimesOutOnSlowJobs) {
  svc::ExecutionService service;
  const svc::JobId id = service.submit(qft_job(34, 5, "gate.svc_slow_b", 16));
  const svc::JobHandle handle = service.handle(id);
  EXPECT_FALSE(handle.wait_for(10ms));  // 300ms sleep backend cannot finish
  handle.wait();
  EXPECT_EQ(handle.status(), svc::JobStatus::Done);
  EXPECT_TRUE(handle.wait_for(0ms));  // terminal: returns immediately
}

TEST_F(SvcTest, ForgetReleasesRecordButLiveHandlesSurvive) {
  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);
  const svc::JobId id = service.submit(qft_job(34, 3, "gate.svc_slow_a", 16));
  const svc::JobHandle handle = service.handle(id);
  service.forget(id);  // while the job is still in flight
  EXPECT_FALSE(service.handle(id).valid());
  EXPECT_NO_THROW(handle.result());  // the obtained handle keeps working
  EXPECT_EQ(handle.status(), svc::JobStatus::Done);
  service.wait_all();
}

TEST_F(SvcTest, NestedCoreSubmitFromWorkerRunsInline) {
  // A backend that itself calls core::submit() must not deadlock even with
  // single-worker pools: from a worker thread the wrapper executes inline.
  const core::JobBundle direct = qft_job(5, 11, "gate.statevector_simulator");
  const std::map<std::string, std::int64_t> expected = core::submit(direct).counts.map();

  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);
  const svc::JobId id = service.submit(qft_job(5, 11, "gate.svc_nested"));
  const core::ExecutionResult nested = service.handle(id).result();
  EXPECT_EQ(nested.counts.map(), expected);
}

TEST_F(SvcTest, WorkerBackendCreationFailureFailsPlainJob) {
  // The factory for gate.svc_flaky throws on worker threads: the job must
  // settle as FAILED carrying the factory's own error, not hang or crash the
  // worker.
  svc::ExecutionService service;
  // Width 2 fits gate.svc_flaky's advertised capacity, so the job passes
  // admission and the failure happens where this test wants it: in the
  // worker's backend factory.
  const svc::JobId id = service.submit(qft_job(2, 2, "gate.svc_flaky"));
  const svc::JobHandle handle = service.handle(id);
  handle.wait();
  EXPECT_EQ(handle.status(), svc::JobStatus::Failed);
  EXPECT_THROW(handle.result(), BackendError);
  EXPECT_NE(handle.error().find("refuses creation"), std::string::npos) << handle.error();
}

TEST_F(SvcTest, SweepWorkerBackendCreationFailureFailsBindings) {
  // Regression: worker_loop used to wrap backend creation and rec->task in
  // ONE try/catch, so a factory failure skipped the sweep-shard task
  // entirely — shards_live never hit zero, no binding ever settled, and this
  // wait blocked forever.  The fix runs the task with a null backend; the
  // shard records why and the last shard out fails the unclaimed bindings.
  svc::ServiceConfig config;
  config.default_workers = 2;
  svc::ExecutionService service(config);
  const svc::SweepHandle sweep = service.submit_sweep(
      qft_job(2, 3, "gate.svc_flaky"), std::vector<std::vector<double>>(3));
  ASSERT_TRUE(sweep.wait_for(std::chrono::seconds(30))) << "sweep stranded: no shard settled it";
  ASSERT_EQ(sweep.size(), 3u);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(sweep.status(i), svc::JobStatus::Failed);
    EXPECT_THROW(sweep.result(i), BackendError);
    EXPECT_NE(sweep.error(i).find("could not create backend"), std::string::npos)
        << sweep.error(i);
  }
}

TEST_F(SvcTest, UnknownJobIdYieldsInvalidHandle) {
  svc::ExecutionService service;
  const svc::JobHandle none = service.handle(999999);
  EXPECT_FALSE(none.valid());
  EXPECT_THROW(none.status(), BackendError);
  EXPECT_THROW(none.result(), BackendError);
}

TEST_F(SvcTest, ShutdownDrainsQueuedJobsThenRejectsSubmission) {
  svc::ServiceConfig config;
  config.default_workers = 1;
  auto service = std::make_unique<svc::ExecutionService>(config);
  std::vector<svc::JobId> ids;
  for (std::uint64_t s = 0; s < 3; ++s)
    ids.push_back(service->submit(qft_job(6, s, "gate.statevector_simulator")));
  service->shutdown();  // must finish everything already accepted
  for (const auto id : ids) EXPECT_EQ(service->handle(id).status(), svc::JobStatus::Done);
  EXPECT_THROW(service->submit(qft_job(6, 9, "gate.statevector_simulator")), BackendError);
}

// --- service: "auto" routing with live queue feedback -----------------------

TEST_F(SvcTest, AutoRoutesByKind) {
  svc::ExecutionService service;
  const svc::JobId gate = service.submit(qft_job(4, 1, "auto"));
  const svc::JobId anneal = service.submit(ising_job(6, 1, "auto"));
  // Narrow gate jobs score best on the real simulator (idle, fast, exact);
  // Ising formulations can only route to the annealer.
  EXPECT_EQ(service.handle(gate).engine(), "gate.statevector_simulator");
  EXPECT_EQ(service.handle(anneal).engine(), "anneal.simulated_annealer");
  const auto decision = service.handle(anneal).decision();
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->backend, "anneal.simulated_annealer");
  service.wait_all();
}

TEST_F(SvcTest, AutoRoutingFeelsLiveBacklog) {
  // Two idle twins with identical capabilities: the first job lands on twin
  // a (registration order tiebreak).  While it is still running, the next
  // identical job must see a's backlog through queue_wait_us and route to
  // twin b — the closed cost-hint feedback loop in action.
  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);

  const svc::JobId first = service.submit(wide_auto_job(1));
  EXPECT_EQ(service.handle(first).engine(), "gate.svc_slow_a");
  EXPECT_GT(service.backlog_us("gate.svc_slow_a"), 0.0);

  const svc::JobId second = service.submit(wide_auto_job(2));
  EXPECT_EQ(service.handle(second).engine(), "gate.svc_slow_b");

  // The decision record shows *why*: twin a's estimate now carries its queue.
  const auto decision = service.handle(second).decision();
  ASSERT_TRUE(decision.has_value());
  double duration_a = 0.0, duration_b = 0.0;
  for (const auto& [name, est] : decision->considered) {
    if (name == "gate.svc_slow_a") duration_a = est.duration_us;
    if (name == "gate.svc_slow_b") duration_b = est.duration_us;
  }
  EXPECT_GT(duration_a, duration_b);
  service.wait_all();
  EXPECT_EQ(service.backlog_us("gate.svc_slow_a"), 0.0);
  EXPECT_EQ(service.backlog_us("gate.svc_slow_b"), 0.0);
}

TEST_F(SvcTest, BatchAutoRoutingSpreadsAcrossTwins) {
  // Batch routing is sequential with backlog accumulation: two wide jobs in
  // one batch must not pile onto the same idle twin.
  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);
  std::vector<core::JobBundle> jobs;
  jobs.push_back(wide_auto_job(11));
  jobs.push_back(wide_auto_job(12));
  const auto ids = service.submit_batch(std::move(jobs));
  const std::string engine0 = service.handle(ids[0]).engine();
  const std::string engine1 = service.handle(ids[1]).engine();
  EXPECT_NE(engine0, engine1);
  service.wait_all();
}

TEST_F(SvcTest, CapabilitySnapshotCarriesLiveQueueWait) {
  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);
  const svc::JobId id = service.submit(wide_auto_job(21));
  const std::string engine = service.handle(id).engine();
  bool found = false;
  for (const auto& cap : service.capability_snapshot())
    if (cap.name == engine) {
      found = true;
      EXPECT_GT(cap.queue_wait_us, 0.0);
    }
  EXPECT_TRUE(found);
  service.wait_all();
}

// --- service: one thread budget ---------------------------------------------

class SvcBudget : public SvcTest {
 protected:
  void TearDown() override { TeamProbeBackend::reset(/*open=*/true); }

  /// The process's OpenMP cap as a fresh thread sees it, which is what each
  /// service worker reads before it sets its own team (1 without OpenMP).
  static int omp_cap() {
    int cap = 0;
    std::thread([&cap] { cap = max_threads(); }).join();
    return cap;
  }

  static core::JobBundle probe_job(std::uint64_t seed, std::optional<int> cap = std::nullopt) {
    core::JobBundle job = qft_job(3, seed, "gate.svc_team_probe", 16);
    job.context->exec.max_parallel_threads = cap;
    return job;
  }
};

TEST_F(SvcBudget, DefaultsSplitTheBudgetInTwo) {
  EXPECT_GE(svc::hardware_threads(), 1);
  EXPECT_EQ(svc::ServiceConfig{}.default_workers, std::max(1, svc::hardware_threads() / 2));
}

TEST_F(SvcBudget, LoneJobGetsTheWholeBudget) {
  TeamProbeBackend::reset(/*open=*/true);
  svc::ExecutionService service;
  const core::JobBundle job = probe_job(1);
  service.handle(service.submit(job)).wait();
  EXPECT_EQ(TeamProbeBackend::team(job.job_id), std::min(svc::hardware_threads(), omp_cap()));
  service.shutdown();
  EXPECT_EQ(service.running_jobs(), 0);
}

TEST_F(SvcBudget, ConcurrentJobsSplitTheBudget) {
  // Three workers, all held in run() until every job has entered: the first
  // job started alone and holds the lone share; the two that started beside
  // it run concurrently and each see at most half the budget.
  TeamProbeBackend::reset(/*open=*/false);
  svc::ServiceConfig config;
  config.default_workers = 3;
  svc::ExecutionService service(config);
  const core::JobBundle first = probe_job(2), second = probe_job(3), third = probe_job(4);
  service.submit(first);
  ASSERT_TRUE(TeamProbeBackend::wait_entered(1));
  service.submit(second);
  service.submit(third);
  ASSERT_TRUE(TeamProbeBackend::wait_entered(3));
  EXPECT_EQ(service.running_jobs(), 3);
  TeamProbeBackend::open();
  service.wait_all();

  const int budget = svc::hardware_threads();
  EXPECT_EQ(TeamProbeBackend::team(first.job_id), std::min(budget, omp_cap()));
  for (const core::JobBundle* job : {&second, &third}) {
    EXPECT_GE(TeamProbeBackend::team(job->job_id), 1) << job->job_id;
    EXPECT_LE(TeamProbeBackend::team(job->job_id), std::max(1, budget / 2)) << job->job_id;
  }
  service.shutdown();
  EXPECT_EQ(service.running_jobs(), 0);
}

TEST_F(SvcBudget, ThreadCapBindsOnlyItsOwnJob) {
  // Regression: the cap used to be set on the worker thread and never
  // restored, so one capped job pinned every later job on that worker.
  TeamProbeBackend::reset(/*open=*/true);
  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);
  const core::JobBundle capped = probe_job(5, 1), uncapped = probe_job(6);
  service.handle(service.submit(capped)).wait();
  service.handle(service.submit(uncapped)).wait();
  EXPECT_EQ(TeamProbeBackend::team(capped.job_id), 1);
  EXPECT_EQ(TeamProbeBackend::team(uncapped.job_id),
            std::min(svc::hardware_threads(), omp_cap()));
}

TEST_F(SvcBudget, AnnealJobsHonourTheirCap) {
  // The service applies the cap, so it binds every engine kind, not only
  // the gate backends that used to read it themselves.
  TeamProbeBackend::reset(/*open=*/true);
  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);
  core::JobBundle capped = ising_job(3, 7, "anneal.svc_team_probe");
  capped.context->exec.max_parallel_threads = 1;
  const core::JobBundle uncapped = ising_job(3, 8, "anneal.svc_team_probe");
  const svc::JobHandle first = service.handle(service.submit(capped));
  first.wait();
  ASSERT_EQ(first.status(), svc::JobStatus::Done) << first.error();
  service.handle(service.submit(uncapped)).wait();
  EXPECT_EQ(TeamProbeBackend::team(capped.job_id), 1);
  EXPECT_EQ(TeamProbeBackend::team(uncapped.job_id),
            std::min(svc::hardware_threads(), omp_cap()));
}

// --- batch ordering: JobId <-> result correspondence -------------------------

TEST(SvcBatchOrdering, JobIdsPinResultsUnderConcurrentCancellation) {
  // submit_batch returns ids[i] for bundles[i]; under a concurrent
  // cancellation storm every job that completes must still hand back the
  // result of *its own* bundle (never a neighbour's), and every cancelled
  // job must report CANCELLED.  Each bundle gets a distinct seed, and the
  // result metadata echoes the seed, so a cross-wired id would be caught
  // immediately.
  backend::register_builtin_backends();
  constexpr int kJobs = 24;
  std::vector<core::JobBundle> bundles;
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < kJobs; ++i) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(i);
    seeds.push_back(seed);
    bundles.push_back(qft_job(4 + static_cast<unsigned>(i % 3), seed,
                              "gate.statevector_simulator", 64));
  }
  // Serial ground truth per bundle (same engine, same seed).
  std::vector<core::ExecutionResult> expected;
  for (const auto& bundle : bundles) expected.push_back(core::submit(bundle));

  svc::ServiceConfig config;
  config.default_workers = 3;
  svc::ExecutionService service(config);
  const std::vector<svc::JobId> ids = service.submit_batch(bundles);
  // Concurrent cancellation of every third job while the pool drains.
  std::thread canceller([&] {
    for (int i = 0; i < kJobs; i += 3) service.handle(ids[static_cast<std::size_t>(i)]).cancel();
  });
  service.wait_all();
  canceller.join();

  for (int i = 0; i < kJobs; ++i) {
    const svc::JobHandle handle = service.handle(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(handle.valid());
    if (handle.status() == svc::JobStatus::Cancelled) {
      EXPECT_THROW(handle.result(), BackendError);
      continue;
    }
    ASSERT_EQ(handle.status(), svc::JobStatus::Done) << handle.error();
    const core::ExecutionResult result = handle.result();
    // Identity pin: the job's recorded seed and decoded counts are exactly
    // its own bundle's.
    EXPECT_EQ(result.metadata.at("seed").as_int(),
              static_cast<std::int64_t>(seeds[static_cast<std::size_t>(i)]))
        << "job " << i << " returned another bundle's result";
    EXPECT_EQ(result.counts.map(), expected[static_cast<std::size_t>(i)].counts.map())
        << "job " << i;
  }
}

// --- sim: Engine / fusion re-entrancy under concurrency ---------------------

TEST(SvcSimReentrancy, ConcurrentRunCountsAreIdentical) {
  // The Engine is stateless (const run_counts, per-call RNG seeded from the
  // caller): four threads hammering one shared Engine on the same circuit
  // must reproduce the single-threaded counts exactly — this is what lets
  // the service run gate jobs under concurrent workers at all.
  sim::Circuit circuit(5, 5);
  for (int q = 0; q < 5; ++q) circuit.h(q);
  for (int q = 0; q + 1 < 5; ++q) circuit.cx(q, q + 1);
  for (int q = 0; q < 5; ++q) circuit.rz(0.3 * (q + 1), q);
  for (int q = 0; q < 5; ++q) circuit.h(q);
  for (int q = 0; q < 5; ++q) circuit.measure(q, q);

  const sim::Engine engine;
  const sim::CountMap expected = engine.run_counts(circuit, 2048, 1234);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 3; ++i)
        if (engine.run_counts(circuit, 2048, 1234) != expected) ++mismatches;
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace quml
