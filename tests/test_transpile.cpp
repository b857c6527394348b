// Tests for the transpiler substrate: coupling maps, basis translation,
// routing, optimization passes — with semantic-preservation property tests
// against the state-vector simulator (circuits must stay equivalent up to
// global phase / final layout).

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "random_circuit.hpp"
#include "sim/engine.hpp"
#include "transpile/transpiler.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace quml::transpile {
namespace {

using sim::Circuit;
using sim::Engine;
using sim::Gate;
using sim::Statevector;

constexpr double kPi = 3.14159265358979323846;

/// Random unitary test circuit over `n` qubits.
Circuit random_circuit(int n, int gates, std::uint64_t seed) {
  Rng rng(seed);
  Circuit c(n, 0);
  for (int i = 0; i < gates; ++i) {
    const int q = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    int p = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (p == q) p = (p + 1) % n;
    switch (rng.next_below(10)) {
      case 0: c.h(q); break;
      case 1: c.t(q); break;
      case 2: c.rz(rng.next_double() * 6 - 3, q); break;
      case 3: c.rx(rng.next_double() * 6 - 3, q); break;
      case 4: c.ry(rng.next_double() * 6 - 3, q); break;
      case 5: c.cx(q, p); break;
      case 6: c.cz(q, p); break;
      case 7: c.cp(rng.next_double() * 6 - 3, q, p); break;
      case 8: c.swap(q, p); break;
      case 9: c.rzz(rng.next_double() * 6 - 3, q, p); break;
    }
  }
  return c;
}

/// Applies `layout` (logical->physical) as a permutation so a routed circuit
/// can be compared against the original statevector.
Statevector embed_with_layout(const Circuit& original, const std::vector<int>& final_layout,
                              int physical_qubits) {
  // Simulate the original on physical qubits where logical q starts at
  // final_layout[q] -- i.e. undo the routing permutation at the end instead.
  Circuit embedded(physical_qubits, 0);
  std::vector<int> map(final_layout.begin(), final_layout.end());
  embedded.append(original, map);
  return Engine().run_statevector(embedded);
}

TEST(CouplingMap, Factories) {
  const CouplingMap linear = CouplingMap::linear(5);
  EXPECT_EQ(linear.num_qubits(), 5);
  EXPECT_TRUE(linear.connected(0, 1));
  EXPECT_FALSE(linear.connected(0, 2));
  EXPECT_EQ(linear.distance(0, 4), 4);

  const CouplingMap ring = CouplingMap::ring(4);
  EXPECT_TRUE(ring.connected(3, 0));
  EXPECT_EQ(ring.distance(0, 2), 2);

  const CouplingMap grid = CouplingMap::grid(2, 3);
  EXPECT_EQ(grid.num_qubits(), 6);
  EXPECT_TRUE(grid.connected(0, 3));
  EXPECT_EQ(grid.distance(0, 5), 3);

  const CouplingMap all = CouplingMap::all_to_all(8);
  EXPECT_TRUE(all.unconstrained());
  EXPECT_EQ(all.distance(0, 7), 1);
}

TEST(CouplingMap, Validation) {
  EXPECT_THROW(CouplingMap(2, {{0, 0}}), ValidationError);
  EXPECT_THROW(CouplingMap(2, {{-1, 0}}), ValidationError);
  const CouplingMap disconnected(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(disconnected.is_connected_graph());
  EXPECT_THROW(disconnected.distance(0, 3), ValidationError);
}

TEST(CouplingMap, DeduplicatesEdges) {
  const CouplingMap m(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}});
  EXPECT_EQ(m.edges().size(), 2u);
}

TEST(BasisSet, Construction) {
  const BasisSet basis({"sx", "rz", "cx"});
  EXPECT_TRUE(basis.contains(Gate::SX));
  EXPECT_TRUE(basis.contains(Gate::CX));
  EXPECT_FALSE(basis.contains(Gate::H));
  EXPECT_EQ(basis.entangler(), Gate::CX);
  EXPECT_THROW(BasisSet({"warp"}), ValidationError);
  const BasisSet cz_basis({"rz", "sx", "cz"});
  EXPECT_EQ(cz_basis.entangler(), Gate::CZ);
  EXPECT_THROW(BasisSet({"rz", "sx"}).entangler(), LoweringError);
}

TEST(Decompose2q, EliminatesWideGates) {
  Circuit c(3, 0);
  c.ccx(0, 1, 2);
  c.cswap(0, 1, 2);
  const Circuit out = decompose_to_2q(c);
  for (const auto& inst : out.instructions()) EXPECT_LE(inst.qubits.size(), 2u);
}

TEST(Decompose2q, CcxPreservesSemantics) {
  Circuit c(3, 0);
  c.h(0);
  c.h(1);
  c.ccx(0, 1, 2);
  const Statevector expected = Engine().run_statevector(c);
  const Statevector actual = Engine().run_statevector(decompose_to_2q(c));
  EXPECT_NEAR(expected.fidelity(actual), 1.0, 1e-9);
}

// The basis kind is a std::string, not a const char*: gtest prints a pointer
// parameter with its address, which would make the case names change per run.
class BasisTranslationProperty
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(BasisTranslationProperty, PreservesSemantics) {
  const auto [seed, basis_kind] = GetParam();
  const Circuit original = random_circuit(4, 30, static_cast<std::uint64_t>(seed));
  BasisSet basis;
  if (basis_kind == "ibm") basis = BasisSet({"sx", "rz", "cx"});
  else if (basis_kind == "rxrz") basis = BasisSet({"rx", "rz", "cx"});
  else if (basis_kind == "cz") basis = BasisSet({"sx", "rz", "cz"});
  else basis = BasisSet({"u3", "cx"});
  const Circuit translated = translate_to_basis(original, basis);
  // Every emitted gate is inside the basis (or structural).
  for (const auto& inst : translated.instructions()) {
    if (inst.gate == Gate::Barrier || inst.gate == Gate::Measure) continue;
    EXPECT_TRUE(basis.contains(inst.gate)) << sim::gate_name(inst.gate);
  }
  const Statevector a = Engine().run_statevector(original);
  const Statevector b = Engine().run_statevector(translated);
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    RandomCircuits, BasisTranslationProperty,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(std::string("ibm"), std::string("rxrz"),
                                         std::string("cz"), std::string("u3"))));

TEST(Routing, RespectsCouplingMap) {
  const Circuit c = random_circuit(5, 40, 3);
  const CouplingMap coupling = CouplingMap::linear(5);
  for (const auto method : {RoutingMethod::Greedy, RoutingMethod::Sabre}) {
    const RoutingResult routed = route(decompose_to_2q(c), coupling, method);
    for (const auto& inst : routed.circuit.instructions()) {
      if (inst.qubits.size() == 2) {
        EXPECT_TRUE(coupling.connected(inst.qubits[0], inst.qubits[1]))
            << inst.qubits[0] << "-" << inst.qubits[1];
      }
    }
  }
}

class RoutingSemanticsProperty : public ::testing::TestWithParam<int> {};

TEST_P(RoutingSemanticsProperty, PreservesStateUpToLayout) {
  const Circuit original = random_circuit(4, 25, static_cast<std::uint64_t>(GetParam()));
  const CouplingMap coupling = CouplingMap::linear(4);
  const RoutingResult routed = route(decompose_to_2q(original), coupling, RoutingMethod::Sabre);
  const Statevector routed_state = Engine().run_statevector(routed.circuit);
  const Statevector expected =
      embed_with_layout(decompose_to_2q(original), routed.final_layout, coupling.num_qubits());
  EXPECT_NEAR(routed_state.fidelity(expected), 1.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, RoutingSemanticsProperty, ::testing::Range(0, 10));

TEST(Routing, UnconstrainedIsIdentity) {
  const Circuit c = random_circuit(4, 10, 1);
  const RoutingResult routed = route(c, CouplingMap::all_to_all(4));
  EXPECT_EQ(routed.swaps_inserted, 0);
  EXPECT_EQ(routed.circuit.instructions().size(), c.instructions().size());
}

TEST(Routing, ErrorsOnBadInput) {
  Circuit wide(3, 0);
  wide.ccx(0, 1, 2);
  EXPECT_THROW(route(wide, CouplingMap::linear(3)), LoweringError);
  Circuit c(5, 0);
  c.cx(0, 4);
  EXPECT_THROW(route(c, CouplingMap::linear(3)), LoweringError);  // too few device qubits
  EXPECT_THROW(route(c, CouplingMap(5, {{0, 1}, {2, 3}})), LoweringError);  // disconnected
}

TEST(Routing, MeasurementsFollowTheirQubit) {
  Circuit c(3, 3);
  c.x(0);
  c.cx(0, 2);  // forces routing on a linear map
  c.measure_all();
  const TranspileOptions opts{BasisSet{}, CouplingMap::linear(3), 0, RoutingMethod::Sabre};
  const TranspileResult result = transpile(c, opts);
  // Counts must be unaffected by routing: qubit 0 is |1>, qubit 2 flips to |1>.
  const auto counts = Engine().run_counts(result.circuit, 100, 2);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts.begin()->first, "101");
}

TEST(Passes, CancelInversePairs) {
  Circuit c(2, 0);
  c.h(0);
  c.h(0);
  c.cx(0, 1);
  c.cx(0, 1);
  c.s(1);
  c.sdg(1);
  const Circuit out = cancel_and_merge(c);
  EXPECT_EQ(out.size(), 0u);
}

TEST(Passes, CancellationCascades) {
  Circuit c(1, 0);
  c.h(0);
  c.x(0);
  c.x(0);
  c.h(0);
  EXPECT_EQ(cancel_and_merge(c).size(), 0u);
}

TEST(Passes, MergeRotations) {
  Circuit c(1, 0);
  c.rz(0.3, 0);
  c.rz(0.4, 0);
  const Circuit out = cancel_and_merge(c);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out.instructions()[0].params[0], 0.7);
}

TEST(Passes, MergedRotationsVanishWhenTrivial) {
  Circuit c(1, 0);
  c.rz(1.1, 0);
  c.rz(-1.1, 0);
  EXPECT_EQ(cancel_and_merge(c).size(), 0u);
  Circuit p(2, 0);
  p.cp(kPi, 0, 1);
  p.cp(kPi, 1, 0);  // cp is symmetric; merges to cp(2 pi) == identity
  EXPECT_EQ(cancel_and_merge(p).size(), 0u);
}

TEST(Passes, CrzIsNotSymmetricAndKeeps2PiPeriodRule) {
  Circuit c(2, 0);
  c.crz(kPi, 0, 1);
  c.crz(kPi, 1, 0);  // different operand order: must NOT merge
  EXPECT_EQ(cancel_and_merge(c).size(), 2u);
  Circuit d(2, 0);
  d.crz(2 * kPi, 0, 1);  // CRZ(2 pi) = controlled-(-I): NOT trivial
  d.crz(0.0, 0, 1);
  EXPECT_EQ(cancel_and_merge(d).size(), 1u);
}

TEST(Passes, InterveningGateBlocksCancellation) {
  Circuit c(2, 0);
  c.h(0);
  c.cx(0, 1);
  c.h(0);
  EXPECT_EQ(cancel_and_merge(c).size(), 3u);
}

TEST(Passes, BarrierBlocksOptimization) {
  Circuit c(1, 0);
  c.h(0);
  c.barrier();
  c.h(0);
  const Circuit out = cancel_and_merge(c);
  EXPECT_EQ(out.size(), 2u);  // barrier excluded from size(), both h remain
}

TEST(Passes, Fuse1qRunsShrinksCircuit) {
  Circuit c(1, 0);
  for (int i = 0; i < 10; ++i) {
    c.h(0);
    c.t(0);
    c.rz(0.1, 0);
  }
  const BasisSet basis({"sx", "rz", "cx"});
  const Circuit fused = fuse_1q_runs(c, basis);
  EXPECT_LE(fused.size(), 5u);
  const Statevector a = Engine().run_statevector(c);
  const Statevector b = Engine().run_statevector(fused);
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-9);
}

class OptimizationLevelProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OptimizationLevelProperty, PreservesSemanticsAndNeverGrows) {
  const auto [seed, level] = GetParam();
  const Circuit original = random_circuit(4, 40, static_cast<std::uint64_t>(seed) + 100);
  const BasisSet basis({"sx", "rz", "cx"});
  const Circuit translated = translate_to_basis(original, basis);
  const Circuit optimized = optimize(translated, basis, level);
  EXPECT_LE(optimized.size(), translated.size());
  const Statevector a = Engine().run_statevector(translated);
  const Statevector b = Engine().run_statevector(optimized);
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndLevels, OptimizationLevelProperty,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Values(0, 1, 2, 3)));

/// True when no unitary follows the first Measure.
bool measurements_trail(const Circuit& c) {
  bool seen_measure = false;
  for (const auto& inst : c.instructions()) {
    if (inst.gate == Gate::Measure)
      seen_measure = true;
    else if (seen_measure && inst.gate != Gate::Barrier)
      return false;
  }
  return seen_measure;
}

TEST_P(OptimizationLevelProperty, KeepsMeasurementsAfterTheLastGate) {
  const auto [seed, level] = GetParam();
  const Circuit c = random_circuit(4, 40, static_cast<std::uint64_t>(seed) + 200);
  Circuit measured(c.num_qubits(), c.num_qubits());
  measured.append(c, {0, 1, 2, 3});
  measured.measure_all();
  const BasisSet basis({"sx", "rz", "cx"});
  const Circuit optimized = optimize(translate_to_basis(measured, basis), basis, level);
  EXPECT_TRUE(measurements_trail(optimized));
}

TEST(Transpile, RingRoutedQaoaEndsInItsMeasurements) {
  // QAOA p=2 on an 8-node cubic graph (the prism-like circulant i~i+1,
  // i~i+4), routed onto a ring: the 1q runs left after routing must not be
  // emitted after another qubit's Measure.
  constexpr int n = 8;
  Circuit c(n, n);
  for (int q = 0; q < n; ++q) c.h(q);
  for (const double gamma : {0.4, 0.7}) {
    for (int q = 0; q < n; ++q) {
      c.rzz(gamma, q, (q + 1) % n);
      if (q < n / 2) c.rzz(gamma, q, q + n / 2);
    }
    for (int q = 0; q < n; ++q) c.rx(2 * gamma, q);
  }
  c.measure_all();
  for (const int level : {2, 3}) {
    TranspileOptions opts;
    opts.basis = BasisSet({"sx", "rz", "cx"});
    opts.coupling = CouplingMap::ring(n);
    opts.optimization_level = level;
    const TranspileResult result = transpile(c, opts);
    EXPECT_GT(result.swaps_inserted, 0) << "level " << level;
    EXPECT_TRUE(measurements_trail(result.circuit)) << "level " << level;
  }
}

TEST(Transpile, LevelThreeRoundsShrinkWhatLevelTwoLeaves) {
  // Level 3 repeats the fuse/cancel round until it stops shrinking the
  // circuit.  On most circuits one round already reaches the fixpoint, but
  // not on this one: the second round cancels what the first exposed.
  const Circuit c = sim::testgen::random_circuit(72, 3, 60);
  TranspileOptions opts;
  opts.basis = BasisSet({"sx", "rz", "cx"});
  opts.coupling = CouplingMap::ring(3);
  opts.optimization_level = 2;
  const TranspileResult level2 = transpile(c, opts);
  opts.optimization_level = 3;
  const TranspileResult level3 = transpile(c, opts);
  EXPECT_LT(level3.circuit.size(), level2.circuit.size());
  EXPECT_EQ(level3.final_layout, level2.final_layout);
  const Statevector a = Engine().run_statevector(level2.circuit);
  const Statevector b = Engine().run_statevector(level3.circuit);
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-9);
}

TEST(Transpile, MetricsPopulated) {
  const Circuit c = random_circuit(4, 30, 9);
  TranspileOptions opts;
  opts.basis = BasisSet({"sx", "rz", "cx"});
  opts.coupling = CouplingMap::linear(4);
  opts.optimization_level = 2;
  const TranspileResult result = transpile(c, opts);
  EXPECT_GT(result.depth_before, 0);
  EXPECT_GT(result.depth_after, 0);
  EXPECT_GE(result.twoq_after, result.twoq_before);  // routing adds swaps
  EXPECT_EQ(result.initial_layout.size(), 4u);
  EXPECT_EQ(result.final_layout.size(), 4u);
}

TEST(Transpile, LinearCouplingCostsMoreThanAllToAll) {
  // EXP-CTX acceptance shape: constraining connectivity strictly increases
  // two-qubit counts for long-range circuits.
  Circuit c(6, 0);
  for (int i = 0; i < 6; ++i)
    for (int j = i + 1; j < 6; ++j) c.cx(i, j);
  TranspileOptions all;
  all.basis = BasisSet({"sx", "rz", "cx"});
  TranspileOptions linear = all;
  linear.coupling = CouplingMap::linear(6);
  const auto r_all = transpile(c, all);
  const auto r_linear = transpile(c, linear);
  EXPECT_GT(r_linear.twoq_after, r_all.twoq_after);
  EXPECT_GT(r_linear.swaps_inserted, 0);
}

TEST(Transpile, InvalidLevelRejected) {
  TranspileOptions opts;
  opts.optimization_level = 4;
  EXPECT_THROW(transpile(Circuit(1, 0), opts), ValidationError);
}

}  // namespace
}  // namespace quml::transpile
