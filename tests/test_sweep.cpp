// Parameterized circuits and the bind-once/run-many sweep stack: sim::Param
// plumbing, SweepPlan construction/eligibility, the 1q layer kernel, bundle
// parameter declarations ($param references, bind_bundle), symbolic
// transpilation, and svc::ExecutionService::submit_sweep end to end.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "algolib/graph.hpp"
#include "algolib/ising.hpp"
#include "algolib/qaoa.hpp"
#include "algolib/qft.hpp"
#include "algolib/stateprep.hpp"
#include "backend/lowering.hpp"
#include "backend/register_backends.hpp"
#include "core/params.hpp"
#include "core/registry.hpp"
#include "sim/engine.hpp"
#include "sim/sweep.hpp"
#include "svc/execution_service.hpp"
#include "transpile/transpiler.hpp"
#include "util/errors.hpp"

namespace quml {
namespace {

using sim::Circuit;
using sim::Gate;
using sim::Param;
using sim::Statevector;

double max_amp_diff(const Statevector& a, const Statevector& b) {
  double md = 0.0;
  for (std::uint64_t i = 0; i < a.dim(); ++i)
    md = std::max(md, std::abs(a.amplitude(i) - b.amplitude(i)));
  return md;
}

// --- sim::Param / Circuit plumbing -------------------------------------------

TEST(ParamTest, LinearAlgebraAndBinding) {
  const Param p = Param::symbol(2, 1.5, 0.25);
  const Param q = (-p * 2.0) + 1.0;
  EXPECT_EQ(q.index, 2);
  EXPECT_DOUBLE_EQ(q.scale, -3.0);
  EXPECT_DOUBLE_EQ(q.offset, 0.5);
  const std::vector<double> binding{0.0, 0.0, 2.0};
  EXPECT_DOUBLE_EQ(q.value(binding), -5.5);
  EXPECT_DOUBLE_EQ(Param::constant(0.75).value(binding), 0.75);
}

TEST(ParamTest, CircuitTracksParametersThroughBuildersAndBind) {
  Circuit c(2, 0);
  c.rx(Param::symbol(1, 2.0), 0);
  c.rzz(Param::symbol(0), 0, 1);
  c.cp(0.5, 0, 1);  // constant stays numeric
  EXPECT_TRUE(c.is_parameterized());
  EXPECT_EQ(c.num_parameters(), 2);
  EXPECT_TRUE(c.instructions()[0].is_parameterized());
  EXPECT_FALSE(c.instructions()[2].is_parameterized());

  const Circuit bound = c.bind(std::vector<double>{0.3, -0.7});
  EXPECT_FALSE(bound.is_parameterized());
  EXPECT_DOUBLE_EQ(bound.instructions()[0].params[0], -1.4);
  EXPECT_DOUBLE_EQ(bound.instructions()[1].params[0], 0.3);
  EXPECT_THROW(c.bind(std::vector<double>{0.1}), ValidationError);
}

TEST(ParamTest, InverseAppendAndPushPreserveSymbols) {
  Circuit c(2, 0);
  c.rz(Param::symbol(0, 2.0, 1.0), 0);
  c.u3(Param::symbol(1), Param::constant(0.2), Param::symbol(2, -1.0), 1);
  const Circuit inv = c.inverse();
  EXPECT_EQ(inv.num_parameters(), 3);
  // Bound inverse must invert the bound circuit exactly.
  const std::vector<double> v{0.4, -1.1, 0.9};
  Circuit round(2, 0);
  round.append(c.bind(v), {0, 1});
  round.append(inv.bind(v), {0, 1});
  const Statevector sv = sim::Engine().run_statevector(round);
  EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0, 1e-12);

  Circuit mapped(3, 0);
  mapped.append(c, {2, 0});  // append preserves symbols through qubit maps
  EXPECT_EQ(mapped.num_parameters(), 3);
  EXPECT_TRUE(mapped.instructions()[0].is_parameterized());
}

TEST(ParamTest, ExecutionGuardsRejectUnboundCircuits) {
  Circuit c(1, 1);
  c.rx(Param::symbol(0), 0);
  c.measure(0, 0);
  EXPECT_THROW(sim::Engine().run_counts(c, 10, 1), ValidationError);
  EXPECT_THROW(sim::Engine().run_statevector(c), ValidationError);
  Statevector sv(1);
  EXPECT_THROW(sv.apply(c.instructions()[0]), ValidationError);
  EXPECT_THROW(sim::fuse_unitaries(std::vector<sim::Instruction>{c.instructions()[0]}, 1),
               ValidationError);
}

// --- apply_1q_layer -----------------------------------------------------------

TEST(LayerKernelTest, MatchesSequentialApplication) {
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(4));
    Statevector a(n), b(n);
    // Random start state via a few gates.
    for (int q = 0; q < n; ++q) {
      const sim::Mat2 h = sim::gate_matrix_1q(Gate::H, nullptr);
      a.apply_1q(q, h);
      b.apply_1q(q, h);
    }
    std::vector<std::pair<int, sim::Mat2>> layer;
    for (int q = n - 1; q >= 0; --q) {
      if (rng.next_below(4) == 0) continue;  // not every wire participates
      const double angles[3] = {rng.next_double(), rng.next_double(), rng.next_double()};
      layer.emplace_back(q, sim::gate_matrix_1q(Gate::U3, angles));
    }
    a.apply_1q_layer(layer);
    for (const auto& [q, u] : layer) b.apply_1q(q, u);
    EXPECT_LT(max_amp_diff(a, b), 1e-12) << "trial " << trial;
  }
}

TEST(LayerKernelTest, RejectsDuplicateQubits) {
  Statevector sv(2);
  const sim::Mat2 h = sim::gate_matrix_1q(Gate::H, nullptr);
  const std::vector<std::pair<int, sim::Mat2>> layer{{0, h}, {0, h}};
  EXPECT_THROW(sv.apply_1q_layer(layer), ValidationError);
}

// --- SweepPlan ----------------------------------------------------------------

Circuit qaoa_like(int n) {
  Circuit c(n, n);
  for (int q = 0; q < n; ++q) c.h(q);
  for (int q = 0; q < n; ++q) c.rzz(Param::symbol(0, -1.0), q, (q + 1) % n);
  for (int q = 0; q < n; ++q) c.rx(Param::symbol(1, 2.0), q);
  c.measure_all();
  return c;
}

TEST(SweepPlanTest, StatsExposeStaticPrefixAndDynamicOps) {
  const Circuit c = qaoa_like(6);
  sim::SweepPlan plan(c);
  const auto& stats = plan.stats();
  EXPECT_EQ(plan.num_parameters(), 2);
  EXPECT_TRUE(plan.has_measurements());
  EXPECT_GT(stats.prefix_ops, 0u);   // the H wall is binding-independent
  EXPECT_GT(stats.dynamic_ops, 0u);  // cost + mixer re-bind
  EXPECT_LE(stats.dynamic_ops, stats.ops);
}

TEST(SweepPlanTest, RejectsMidCircuitMeasurementAndReset) {
  // Measuring qubit 0 while qubit 1 keeps running is terminal, not
  // mid-circuit: the plan builds and samples like the engine.
  Circuit terminal(2, 2);
  terminal.h(0);
  terminal.measure(0, 0);
  terminal.h(1);
  terminal.measure(1, 1);
  const sim::SweepPlan plan(terminal);
  sim::SweepPlan::Session session(plan);
  EXPECT_EQ(session.run_counts({}, 512, 9), sim::Engine().run_counts(terminal, 512, 9));

  Circuit mid(2, 2);
  mid.h(0);
  mid.measure(0, 0);
  mid.h(0);  // a gate after the Measure on the same qubit
  mid.measure(1, 1);
  EXPECT_THROW(sim::SweepPlan{mid}, ValidationError);

  Circuit with_reset(1, 1);
  with_reset.h(0);
  with_reset.reset(0);
  with_reset.measure(0, 0);
  EXPECT_THROW(sim::SweepPlan{with_reset}, ValidationError);
}

TEST(SweepPlanTest, SessionValidatesBindingWidthAndShots) {
  sim::SweepPlan plan(qaoa_like(4));
  sim::SweepPlan::Session session(plan);
  EXPECT_THROW(session.run_counts(std::vector<double>{0.1}, 16, 1), ValidationError);
  EXPECT_THROW(session.run_counts(std::vector<double>{0.1, 0.2}, 0, 1), ValidationError);
}

TEST(SweepPlanTest, UnparameterizedCircuitSweepsBySeedOnly) {
  Circuit c(3, 3);
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  c.measure_all();
  sim::SweepPlan plan(c);
  EXPECT_EQ(plan.num_parameters(), 0);
  sim::SweepPlan::Session session(plan);
  const auto counts = session.run_counts({}, 200, 3);
  std::int64_t ghz = 0;
  for (const auto& [bits, n] : counts) {
    EXPECT_TRUE(bits == "000" || bits == "111") << bits;
    ghz += n;
  }
  EXPECT_EQ(ghz, 200);
  EXPECT_EQ(session.run_counts({}, 200, 3), counts);  // same seed, same counts
}

// --- core parameter references ------------------------------------------------

TEST(ParamRefTest, ParsesBothEncodings) {
  EXPECT_FALSE(core::parse_param_ref(json::Value(1.5)).has_value());
  EXPECT_FALSE(core::parse_param_ref(json::Value("plain")).has_value());
  const auto simple = core::parse_param_ref(json::Value("$gamma"));
  ASSERT_TRUE(simple.has_value());
  EXPECT_EQ(simple->name, "gamma");
  EXPECT_DOUBLE_EQ(simple->scale, 1.0);

  json::Value obj = json::Value::object();
  obj.set("param", json::Value("beta"));
  obj.set("scale", json::Value(2.0));
  obj.set("offset", json::Value(-0.5));
  const auto linear = core::parse_param_ref(obj);
  ASSERT_TRUE(linear.has_value());
  EXPECT_EQ(linear->name, "beta");
  EXPECT_DOUBLE_EQ(linear->scale, 2.0);
  EXPECT_DOUBLE_EQ(linear->offset, -0.5);

  obj.set("typo", json::Value(1));
  EXPECT_THROW(core::parse_param_ref(obj), ValidationError);
}

core::JobBundle qaoa_bundle(int n, std::int64_t samples, std::uint64_t seed,
                            const std::string& engine = "gate.statevector_simulator") {
  const algolib::Graph graph = algolib::Graph::cycle(n);
  const auto reg = algolib::make_ising_register("cut", static_cast<unsigned>(n));
  core::OperatorSequence seq;
  seq.ops.push_back(algolib::prep_uniform_descriptor(reg));
  core::OperatorDescriptor cost = algolib::cost_phase_descriptor(reg, graph, 0.0);
  cost.params.set("gamma", json::Value("$gamma"));
  core::OperatorDescriptor mixer = algolib::mixer_descriptor(reg, 0.0);
  mixer.params.set("beta", json::Value("$beta"));
  seq.ops.push_back(std::move(cost));
  seq.ops.push_back(std::move(mixer));
  seq.ops.push_back(algolib::measurement_descriptor(reg));
  core::Context ctx;
  ctx.exec.engine = engine;
  ctx.exec.samples = samples;
  ctx.exec.seed = seed;
  return core::JobBundle::package(core::RegisterSet(std::vector<core::QuantumDataType>{reg}),
                                  std::move(seq), ctx, "sweep-test", {"gamma", "beta"});
}

TEST(ParamRefTest, PackageRejectsUndeclaredAndDuplicateParameters) {
  const auto reg = algolib::make_ising_register("s", 3);
  core::OperatorSequence seq;
  core::OperatorDescriptor mixer = algolib::mixer_descriptor(reg, 0.0);
  mixer.params.set("beta", json::Value("$beta"));
  seq.ops.push_back(std::move(mixer));
  seq.ops.push_back(algolib::measurement_descriptor(reg));
  const core::RegisterSet regs(std::vector<core::QuantumDataType>{reg});
  EXPECT_THROW(core::JobBundle::package(regs, seq, std::nullopt, "j", {}), ValidationError);
  EXPECT_THROW(core::JobBundle::package(regs, seq, std::nullopt, "j", {"beta", "beta"}),
               ValidationError);
  EXPECT_NO_THROW(core::JobBundle::package(regs, seq, std::nullopt, "j", {"beta"}));
}

TEST(ParamRefTest, BundleJsonRoundTripsParametersBlock) {
  const core::JobBundle bundle = qaoa_bundle(4, 64, 5);
  const core::JobBundle back = core::JobBundle::from_json(bundle.to_json());
  EXPECT_EQ(back.parameters, bundle.parameters);
  EXPECT_EQ(back.operators.ops[1].params.at("gamma").as_string(), "$gamma");
}

TEST(ParamRefTest, BindBundleSubstitutesEveryReference) {
  const core::JobBundle bundle = qaoa_bundle(4, 64, 5);
  const core::JobBundle bound = core::bind_bundle(bundle, std::vector<double>{0.3, 0.7});
  EXPECT_TRUE(bound.parameters.empty());
  EXPECT_DOUBLE_EQ(bound.operators.ops[1].params.at("gamma").as_double(), 0.3);
  EXPECT_DOUBLE_EQ(bound.operators.ops[2].params.at("beta").as_double(), 0.7);
  EXPECT_THROW(core::bind_bundle(bundle, std::vector<double>{0.3}), ValidationError);
}

TEST(ParamRefTest, GateBackendRejectsUnboundDirectRun) {
  backend::register_builtin_backends();
  const core::JobBundle bundle = qaoa_bundle(4, 64, 5);
  // Rejected at admission (analysis QA012), synchronously and with the
  // instruction-aware diagnostic text — not deep inside a worker.
  try {
    core::submit(bundle);
    FAIL() << "unbound direct submit must be rejected";
  } catch (const ValidationError& e) {
    EXPECT_NE(std::string(e.what()).find("QA012"), std::string::npos) << e.what();
  }
  // But a bound copy runs fine.
  EXPECT_NO_THROW(core::submit(core::bind_bundle(bundle, std::vector<double>{0.2, 0.4})));
}

// --- symbolic transpilation ---------------------------------------------------

TEST(SymbolicTranspileTest, BasisTranslationCarriesSymbols) {
  Circuit c(3, 0);
  c.h(0);
  c.cp(Param::symbol(0, 0.5), 0, 1);
  c.rzz(Param::symbol(1), 1, 2);
  c.crz(Param::symbol(0, -1.0, 0.25), 0, 2);
  c.ry(Param::symbol(1, 3.0), 1);
  transpile::TranspileOptions topts;
  topts.basis = transpile::BasisSet({"rz", "sx", "cx"});
  topts.optimization_level = 2;
  const transpile::TranspileResult result = transpile::transpile(c, topts);
  EXPECT_TRUE(result.circuit.is_parameterized());
  for (const auto& inst : result.circuit.instructions())
    EXPECT_TRUE(inst.gate == Gate::RZ || inst.gate == Gate::SX || inst.gate == Gate::CX ||
                inst.gate == Gate::Barrier)
        << sim::gate_name(inst.gate);
  const std::vector<double> v{0.8, -1.3};
  const Statevector got = sim::Engine().run_statevector(result.circuit.bind(v));
  const Statevector want = sim::Engine().run_statevector(c.bind(v));
  // Basis translation preserves semantics up to global phase.
  std::complex<double> inner = 0.0;
  for (std::uint64_t i = 0; i < want.dim(); ++i)
    inner += std::conj(want.amplitude(i)) * got.amplitude(i);
  EXPECT_NEAR(std::abs(inner), 1.0, 1e-12);
}

// --- submit_sweep -------------------------------------------------------------

std::vector<std::vector<double>> small_grid() {
  std::vector<std::vector<double>> grid;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) grid.push_back({0.2 + 0.3 * i, 0.1 + 0.2 * j});
  return grid;
}

TEST(SubmitSweepTest, RunsEveryBindingWithPlanCaching) {
  backend::register_builtin_backends();
  svc::ServiceConfig config;
  config.default_workers = 2;
  svc::ExecutionService service(config);
  const svc::SweepHandle sweep = service.submit_sweep(qaoa_bundle(5, 128, 11), small_grid());
  EXPECT_TRUE(sweep.plan_cached());
  EXPECT_EQ(sweep.size(), 9u);
  sweep.wait();
  EXPECT_EQ(sweep.completed(), 9u);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    ASSERT_EQ(sweep.status(i), svc::JobStatus::Done) << sweep.error(i);
    const core::ExecutionResult result = sweep.result(i);
    EXPECT_EQ(result.counts.total(), 128);
    EXPECT_EQ(result.metadata.at("seed").as_int(),
              static_cast<std::int64_t>(core::sweep_seed(11, i)));
    EXPECT_EQ(result.metadata.at("binding")[0].as_double(), small_grid()[i][0]);
  }
}

TEST(SubmitSweepTest, XBasisReadoutKeepsThePlanPath) {
  // X-basis readout lowers to h(q) measure(q) per qubit, so every Measure but
  // the last has gates on other qubits after it: terminal, so the default
  // optimization level (1, which keeps those H's in place) still builds a
  // cached plan.
  backend::register_builtin_backends();
  core::JobBundle bundle = qaoa_bundle(4, 96, 41);
  bundle.operators.ops.back().result_schema->basis = core::Basis::X;
  const sim::Circuit logical = backend::lower_bundle(bundle);
  const std::vector<sim::Instruction>& readout = logical.instructions();
  ASSERT_GE(readout.size(), 3u);
  EXPECT_EQ(readout[readout.size() - 3].gate, Gate::Measure);  // then h(3), measure(3)
  EXPECT_EQ(readout[readout.size() - 2].gate, Gate::H);
  svc::ExecutionService service;
  const auto grid = small_grid();
  const svc::SweepHandle sweep = service.submit_sweep(bundle, grid);
  EXPECT_TRUE(sweep.plan_cached());
  sweep.wait();
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    ASSERT_EQ(sweep.status(i), svc::JobStatus::Done) << sweep.error(i);
    EXPECT_EQ(sweep.result(i).counts.total(), 96);
  }
}

TEST(SubmitSweepTest, ResultsIndependentOfWorkerCount) {
  backend::register_builtin_backends();
  std::vector<std::vector<core::ExecutionResult>> runs;
  for (const int workers : {1, 3}) {
    svc::ServiceConfig config;
    config.default_workers = workers;
    svc::ExecutionService service(config);
    const svc::SweepHandle sweep = service.submit_sweep(qaoa_bundle(4, 96, 21), small_grid());
    sweep.wait();
    std::vector<core::ExecutionResult> results;
    for (std::size_t i = 0; i < sweep.size(); ++i) results.push_back(sweep.result(i));
    runs.push_back(std::move(results));
  }
  for (std::size_t i = 0; i < runs[0].size(); ++i)
    EXPECT_EQ(runs[0][i].counts.map(), runs[1][i].counts.map()) << "binding " << i;
}

TEST(SubmitSweepTest, FallbackPathMatchesIndependentSubmits) {
  backend::register_builtin_backends();
  // A noise context disables the cached plan (trajectory sampling), forcing
  // the bind_bundle + run() fallback — which must equal a direct submit of
  // the hand-bound bundle with the derived per-binding seed.
  core::JobBundle bundle = qaoa_bundle(4, 64, 31);
  bundle.context->noise = core::NoisePolicy{};
  bundle.context->noise->enabled = true;
  bundle.context->noise->depolarizing_1q = 0.01;
  svc::ExecutionService service;
  const auto grid = small_grid();
  const svc::SweepHandle sweep = service.submit_sweep(bundle, grid);
  EXPECT_FALSE(sweep.plan_cached());
  sweep.wait();
  for (const std::size_t i : {std::size_t{0}, std::size_t{4}}) {
    core::JobBundle bound = core::bind_bundle(bundle, grid[i]);
    bound.context->exec.seed = core::sweep_seed(31, i);
    const core::ExecutionResult want = core::submit(bound);
    EXPECT_EQ(sweep.result(i).counts.map(), want.counts.map()) << "binding " << i;
  }
}

TEST(SubmitSweepTest, ValidatesBindingsUpFront) {
  backend::register_builtin_backends();
  svc::ExecutionService service;
  EXPECT_THROW(service.submit_sweep(qaoa_bundle(4, 16, 1), {}), BackendError);
  EXPECT_THROW(service.submit_sweep(qaoa_bundle(4, 16, 1), {{0.1}}), BackendError);
  const svc::SweepHandle invalid;
  EXPECT_THROW(invalid.size(), BackendError);
  EXPECT_THROW(invalid.wait(), BackendError);
}

TEST(SubmitSweepTest, CancelSkipsUnclaimedBindings) {
  backend::register_builtin_backends();
  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);
  // A larger grid so cancellation lands while bindings are still queued.
  std::vector<std::vector<double>> grid;
  for (int i = 0; i < 24; ++i) grid.push_back({0.01 * i, 0.02 * i});
  const svc::SweepHandle sweep = service.submit_sweep(qaoa_bundle(6, 64, 7), grid);
  const std::size_t cancelled = sweep.cancel();
  sweep.wait();
  EXPECT_EQ(sweep.completed(), grid.size());
  std::size_t done = 0, cancelled_seen = 0;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (sweep.status(i) == svc::JobStatus::Done) {
      ++done;
      EXPECT_NO_THROW(sweep.result(i));
    } else {
      ASSERT_EQ(sweep.status(i), svc::JobStatus::Cancelled);
      ++cancelled_seen;
      EXPECT_THROW(sweep.result(i), BackendError);
    }
  }
  EXPECT_EQ(cancelled_seen, cancelled);
  EXPECT_EQ(done + cancelled_seen, grid.size());
}

/// Backend whose sweep sessions always fail to open: exercises the shard
/// clean-up path (a sweep must terminate with FAILED bindings, never hang).
class SessionFailBackend final : public core::Backend {
 public:
  std::string name() const override { return "test.sweep_session_fail"; }
  core::ExecutionResult run(const core::JobBundle&) override {
    throw BackendError("direct run not expected in this test");
  }
  json::Value capabilities() const override {
    json::Value caps = json::Value::object();
    caps.set("name", json::Value(name()));
    caps.set("kind", json::Value("gate"));
    caps.set("num_qubits", json::Value(static_cast<std::int64_t>(20)));
    return caps;
  }
  std::shared_ptr<core::SweepRealization> prepare_sweep(const core::JobBundle&) override {
    class Realization final : public core::SweepRealization {
     public:
      std::unique_ptr<core::SweepSession> open_session() override {
        throw BackendError("session boom");
      }
    };
    return std::make_shared<Realization>();
  }
};

TEST(SubmitSweepTest, AllSessionsFailingFailsBindingsInsteadOfHanging) {
  backend::register_builtin_backends();
  static bool registered = false;
  if (!registered) {
    core::BackendRegistry::instance().register_backend(
        "test.sweep_session_fail", [] { return std::make_unique<SessionFailBackend>(); });
    registered = true;
  }
  svc::ServiceConfig config;
  config.default_workers = 2;
  svc::ExecutionService service(config);
  const svc::SweepHandle sweep =
      service.submit_sweep(qaoa_bundle(4, 16, 1, "test.sweep_session_fail"), small_grid());
  ASSERT_TRUE(sweep.wait_for(std::chrono::seconds(30)));
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(sweep.status(i), svc::JobStatus::Failed);
    EXPECT_NE(sweep.error(i).find("session boom"), std::string::npos) << sweep.error(i);
  }
}

TEST(SubmitSweepTest, AutoRoutingResolvesEngine) {
  backend::register_builtin_backends();
  core::JobBundle bundle = qaoa_bundle(4, 32, 3, "auto");
  svc::ExecutionService service;
  const svc::SweepHandle sweep = service.submit_sweep(bundle, small_grid());
  ASSERT_TRUE(sweep.decision().has_value());
  EXPECT_EQ(sweep.engine(), "gate.statevector_simulator");
  sweep.wait();
  EXPECT_EQ(sweep.status(0), svc::JobStatus::Done);
}

}  // namespace
}  // namespace quml
