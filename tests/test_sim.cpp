// Tests for the gate-model substrate: gate matrices, Euler decomposition,
// circuit IR metrics and inversion, state-vector kernels, gate fusion, shot
// sampling, deferred terminal measurement, and mid-circuit measurement
// trajectories.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "random_circuit.hpp"
#include "sim/engine.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "util/parallel.hpp"

namespace quml::sim {
namespace {

constexpr double kPi = 3.14159265358979323846;

Mat2 matrix_of(Gate g, std::vector<double> params = {}) {
  return gate_matrix_1q(g, params.data());
}

bool mats_equal(const Mat2& a, const Mat2& b, double tol = 1e-12) {
  return a.approx_equal(b, tol);
}

TEST(GateMatrices, UnitaryProperty) {
  for (const Gate g : {Gate::I, Gate::X, Gate::Y, Gate::Z, Gate::H, Gate::S, Gate::Sdg, Gate::T,
                       Gate::Tdg, Gate::SX, Gate::SXdg}) {
    const Mat2 u = matrix_of(g);
    const Mat2 should_be_identity = u * u.dagger();
    EXPECT_TRUE(mats_equal(should_be_identity, Mat2::identity(), 1e-12))
        << "gate " << gate_name(g);
  }
}

TEST(GateMatrices, KnownIdentities) {
  // H^2 = I, S^2 = Z, T^2 = S, SX^2 = X.
  EXPECT_TRUE(mats_equal(matrix_of(Gate::H) * matrix_of(Gate::H), Mat2::identity()));
  EXPECT_TRUE(mats_equal(matrix_of(Gate::S) * matrix_of(Gate::S), matrix_of(Gate::Z)));
  EXPECT_TRUE(mats_equal(matrix_of(Gate::T) * matrix_of(Gate::T), matrix_of(Gate::S)));
  EXPECT_TRUE(mats_equal(matrix_of(Gate::SX) * matrix_of(Gate::SX), matrix_of(Gate::X)));
}

TEST(GateMatrices, RotationsMatchAxisForms) {
  // RZ(pi) ~ Z, RX(pi) ~ X, RY(pi) ~ Y up to global phase.
  EXPECT_TRUE(matrix_of(Gate::RZ, {kPi}).approx_equal_up_to_phase(matrix_of(Gate::Z)));
  EXPECT_TRUE(matrix_of(Gate::RX, {kPi}).approx_equal_up_to_phase(matrix_of(Gate::X)));
  EXPECT_TRUE(matrix_of(Gate::RY, {kPi}).approx_equal_up_to_phase(matrix_of(Gate::Y)));
  // P(pi/2) = S exactly.
  EXPECT_TRUE(mats_equal(matrix_of(Gate::P, {kPi / 2}), matrix_of(Gate::S)));
}

TEST(GateMatrices, U3Generality) {
  // U3(pi/2, 0, pi) = H.
  EXPECT_TRUE(matrix_of(Gate::U3, {kPi / 2, 0.0, kPi}).approx_equal_up_to_phase(matrix_of(Gate::H)));
}

TEST(GateNames, RoundTrip) {
  for (const Gate g : {Gate::X, Gate::H, Gate::SX, Gate::RZ, Gate::CX, Gate::CP, Gate::SWAP,
                       Gate::CCX, Gate::Measure})
    EXPECT_EQ(gate_from_name(gate_name(g)), g);
  EXPECT_EQ(gate_from_name("cnot"), Gate::CX);
  EXPECT_EQ(gate_from_name("u"), Gate::U3);
  EXPECT_THROW(gate_from_name("frobnicate"), ValidationError);
}

class EulerRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(EulerRoundTrip, ReconstructsUnitary) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  // Random unitary via U3 with a random global phase.
  const double theta = rng.next_double() * kPi;
  const double phi = rng.next_double() * 2 * kPi - kPi;
  const double lambda = rng.next_double() * 2 * kPi - kPi;
  const double global = rng.next_double() * 2 * kPi - kPi;
  Mat2 u = matrix_of(Gate::U3, {theta, phi, lambda});
  const c64 phase = std::exp(c64(0, global));
  for (auto& row : u.m)
    for (auto& x : row) x *= phase;

  const Euler e = euler_zyz(u);
  double rz1[] = {e.lambda};
  double ry[] = {e.theta};
  double rz2[] = {e.phi};
  Mat2 rebuilt = gate_matrix_1q(Gate::RZ, rz2) * gate_matrix_1q(Gate::RY, ry) *
                 gate_matrix_1q(Gate::RZ, rz1);
  const c64 g = std::exp(c64(0, e.gamma));
  for (auto& row : rebuilt.m)
    for (auto& x : row) x *= g;
  EXPECT_TRUE(rebuilt.approx_equal(u, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(RandomUnitaries, EulerRoundTrip, ::testing::Range(0, 25));

TEST(EulerEdgeCases, DiagonalAndAntiDiagonal) {
  // Identity, Z (diagonal), X (anti-diagonal) hit the degenerate branches.
  for (const Gate g : {Gate::I, Gate::Z, Gate::X, Gate::S}) {
    const Mat2 u = matrix_of(g);
    const Euler e = euler_zyz(u);
    double rz1[] = {e.lambda};
    double ry[] = {e.theta};
    double rz2[] = {e.phi};
    Mat2 rebuilt = gate_matrix_1q(Gate::RZ, rz2) * gate_matrix_1q(Gate::RY, ry) *
                   gate_matrix_1q(Gate::RZ, rz1);
    const c64 ph = std::exp(c64(0, e.gamma));
    for (auto& row : rebuilt.m)
      for (auto& x : row) x *= ph;
    EXPECT_TRUE(rebuilt.approx_equal(u, 1e-9)) << gate_name(g);
  }
}

TEST(Circuit, BuilderValidation) {
  Circuit c(2, 1);
  EXPECT_THROW(c.h(2), ValidationError);                       // qubit out of range
  EXPECT_THROW(c.cx(0, 0), ValidationError);                   // duplicate operand
  EXPECT_THROW(c.measure(0, 1), ValidationError);              // clbit out of range
  EXPECT_THROW(c.add(Gate::RZ, {0}, {}), ValidationError);     // missing param
  EXPECT_THROW(c.add(Gate::H, {0, 1}), ValidationError);       // wrong arity
  EXPECT_THROW(Circuit(65, 0), ValidationError);               // too wide for any state
  EXPECT_NO_THROW(Circuit(64, 0));  // IR admits the MPS width; dense caps at runtime
}

TEST(Circuit, DepthAndCounts) {
  Circuit c(3, 3);
  c.h(0);
  c.h(1);       // parallel with h(0)
  c.cx(0, 1);   // layer 2
  c.h(2);       // layer 1
  c.cx(1, 2);   // layer 3
  c.measure_all();
  EXPECT_EQ(c.depth(), 4);  // h, cx, cx, measure on the 1-2 chain
  EXPECT_EQ(c.two_qubit_count(), 2);
  EXPECT_EQ(c.count_of(Gate::H), 3);
  EXPECT_EQ(c.size(), 8u);
  const auto counts = c.gate_counts();
  EXPECT_EQ(counts.at("h"), 3);
  EXPECT_EQ(counts.at("cx"), 2);
  EXPECT_EQ(counts.at("measure"), 3);
}

TEST(Circuit, BarrierExcludedFromMetrics) {
  Circuit c(2, 0);
  c.h(0);
  c.barrier();
  c.h(1);
  EXPECT_EQ(c.depth(), 1);
  EXPECT_EQ(c.size(), 2u);
}

TEST(Circuit, InverseUndoesUnitary) {
  Circuit c(3, 0);
  c.h(0);
  c.t(1);
  c.cx(0, 1);
  c.rz(0.37, 2);
  c.cp(1.1, 0, 2);
  c.u3(0.3, -0.2, 0.9, 1);
  c.swap(1, 2);
  Circuit round_trip = c;
  round_trip.append(c.inverse(), {0, 1, 2});
  const Engine engine;
  const Statevector state = engine.run_statevector(round_trip);
  Statevector zero(3);
  EXPECT_NEAR(state.fidelity(zero), 1.0, 1e-9);
}

TEST(Circuit, InverseOfMeasureThrows) {
  Circuit c(1, 1);
  c.measure(0, 0);
  EXPECT_THROW(c.inverse(), ValidationError);
}

TEST(Circuit, AppendWithMapping) {
  Circuit inner(2, 0);
  inner.cx(0, 1);
  Circuit outer(4, 0);
  outer.append(inner, {3, 1});
  ASSERT_EQ(outer.instructions().size(), 1u);
  EXPECT_EQ(outer.instructions()[0].qubits, (std::vector<int>{3, 1}));
  EXPECT_THROW(outer.append(inner, {0}), ValidationError);  // map size mismatch
}

TEST(Statevector, InitialState) {
  const Statevector sv(3);
  EXPECT_EQ(sv.dim(), 8u);
  EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0, 1e-12);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Statevector, HadamardCreatesUniform) {
  Circuit c(3, 0);
  for (int q = 0; q < 3; ++q) c.h(q);
  const Engine engine;
  const Statevector sv = engine.run_statevector(c);
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_NEAR(std::abs(sv.amplitude(i)), 1.0 / std::sqrt(8.0), 1e-12);
}

TEST(Statevector, BellState) {
  Circuit c(2, 0);
  c.h(0);
  c.cx(0, 1);
  const Statevector sv = Engine().run_statevector(c);
  EXPECT_NEAR(std::abs(sv.amplitude(0b00)), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::abs(sv.amplitude(0b11)), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::abs(sv.amplitude(0b01)), 0.0, 1e-12);
  EXPECT_NEAR(sv.expectation_zz(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(sv.expectation_z(0), 0.0, 1e-12);
}

TEST(Statevector, GhzParity) {
  Circuit c(4, 0);
  c.h(0);
  for (int q = 0; q + 1 < 4; ++q) c.cx(q, q + 1);
  const Statevector sv = Engine().run_statevector(c);
  EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::abs(sv.amplitude(15)), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(Statevector, SpecializedKernelsMatchGenericMatrix) {
  // Every unitary gate through apply() (the structure op it runs as alone:
  // pair walk, quadrant or half-state scaling) against its dense matrix
  // through apply_matrix, on a random 6-qubit state.  Each gate runs in both
  // operand orders, on a support whose lowest qubit is below 3 (the
  // per-pair walk) and on one whose lowest qubit is 3 or higher (the run
  // walk).
  Statevector prep(6);
  Rng rng(17);
  for (int layer = 0; layer < 2; ++layer)
    for (int q = 0; q < 6; ++q) {
      const double a[3] = {rng.next_double() * 3, rng.next_double() * 6 - 3,
                           rng.next_double() * 6 - 3};
      prep.apply_1q(q, gate_matrix_1q(Gate::U3, a));
      const int pair[2] = {q, (q + 1) % 6};
      prep.apply_matrix(pair, gate_matrix(Gate::CX, nullptr).data());
    }
  const double params[3] = {0.731, -1.217, 2.05};
  const std::vector<std::vector<int>> supports = {{0, 2, 1}, {1, 2, 0}, {3, 5, 4}, {4, 5, 3}};
  for (int gi = static_cast<int>(Gate::I); gi <= static_cast<int>(Gate::CSWAP); ++gi) {
    const Gate g = static_cast<Gate>(gi);
    for (const std::vector<int>& support : supports) {
      Instruction inst{g, {}, {}, {}, {}};
      inst.qubits.assign(support.begin(), support.begin() + gate_arity(g));
      inst.params.assign(params, params + gate_num_params(g));
      Statevector a = prep;
      Statevector b = prep;
      a.apply(inst);
      b.apply_matrix(inst.qubits, gate_matrix(g, inst.params.data()).data());
      double diff = 0.0;
      for (std::uint64_t i = 0; i < a.dim(); ++i)
        diff = std::max(diff, std::abs(a.amplitude(i) - b.amplitude(i)));
      EXPECT_LT(diff, 1e-12) << gate_name(g) << " on " << support[0] << "," << support[1];
    }
  }
}

TEST(Statevector, CzSymmetric) {
  Circuit c1(2, 0), c2(2, 0);
  c1.h(0);
  c1.h(1);
  c1.cz(0, 1);
  c2.h(0);
  c2.h(1);
  c2.cz(1, 0);
  EXPECT_NEAR(Engine().run_statevector(c1).fidelity(Engine().run_statevector(c2)), 1.0, 1e-12);
}

TEST(Statevector, SwapMovesAmplitude) {
  Circuit c(2, 0);
  c.x(0);
  c.swap(0, 1);
  const Statevector sv = Engine().run_statevector(c);
  EXPECT_NEAR(std::abs(sv.amplitude(0b10)), 1.0, 1e-12);
}

TEST(Statevector, CcxTruthTable) {
  for (std::uint64_t input = 0; input < 8; ++input) {
    Statevector sv(3);
    sv.set_basis_state(input);
    sv.apply(Instruction{Gate::CCX, {0, 1, 2}, {}, {}, {}});
    const std::uint64_t expected = ((input & 3) == 3) ? (input ^ 4) : input;
    EXPECT_NEAR(std::abs(sv.amplitude(expected)), 1.0, 1e-12) << "input " << input;
  }
}

TEST(Statevector, CswapTruthTable) {
  for (std::uint64_t input = 0; input < 8; ++input) {
    Statevector sv(3);
    sv.set_basis_state(input);
    sv.apply(Instruction{Gate::CSWAP, {0, 1, 2}, {}, {}, {}});  // control q0, swap q1 q2
    std::uint64_t expected = input;
    if (input & 1) {
      const std::uint64_t b1 = (input >> 1) & 1, b2 = (input >> 2) & 1;
      expected = (input & 1) | (b2 << 1) | (b1 << 2);
    }
    EXPECT_NEAR(std::abs(sv.amplitude(expected)), 1.0, 1e-12) << "input " << input;
  }
}

TEST(Statevector, RzzPhases) {
  // On |00>: phase e^{-i theta/2}; on |01>: e^{+i theta/2}.
  const double theta = 0.7;
  Statevector sv(2);
  sv.apply(Instruction{Gate::RZZ, {0, 1}, {theta}, {}, {}});
  EXPECT_NEAR(std::arg(sv.amplitude(0)), -theta / 2, 1e-12);
  sv.set_basis_state(0b01);
  sv.apply(Instruction{Gate::RZZ, {0, 1}, {theta}, {}, {}});
  EXPECT_NEAR(std::arg(sv.amplitude(0b01)), theta / 2, 1e-12);
}

TEST(Statevector, NormPreservedByRandomCircuit) {
  Rng rng(5);
  Circuit c(5, 0);
  for (int i = 0; i < 60; ++i) {
    const int q = static_cast<int>(rng.next_below(5));
    switch (rng.next_below(5)) {
      case 0: c.h(q); break;
      case 1: c.rz(rng.next_double() * 6, q); break;
      case 2: c.rx(rng.next_double() * 6, q); break;
      case 3: c.cx(q, (q + 1) % 5); break;
      case 4: c.cp(rng.next_double() * 6, q, (q + 2) % 5); break;
    }
  }
  EXPECT_NEAR(Engine().run_statevector(c).norm(), 1.0, 1e-9);
}

TEST(Statevector, ExactPhaseConstants) {
  // unit_phase snaps multiples of pi/2 to exact values.
  EXPECT_EQ(unit_phase(kPi), c64(-1.0, 0.0));
  EXPECT_EQ(unit_phase(-kPi), c64(-1.0, 0.0));
  EXPECT_EQ(unit_phase(kPi / 2), c64(0.0, 1.0));
  EXPECT_EQ(unit_phase(-kPi / 2), c64(0.0, -1.0));
  EXPECT_EQ(unit_phase(0.0), c64(1.0, 0.0));
  // CZ applies exactly -1: no 1e-16 imaginary residue.
  Statevector sv(2);
  sv.set_basis_state(0b11);
  sv.apply(Instruction{Gate::CZ, {0, 1}, {}, {}, {}});
  EXPECT_EQ(sv.amplitude(0b11), c64(-1.0, 0.0));
  // ... and so does CP(pi): applying it after the CZ restores the state
  // exactly.
  sv.apply(Instruction{Gate::CP, {0, 1}, {kPi}, {}, {}});
  EXPECT_EQ(sv.amplitude(0b11), c64(1.0, 0.0));
}

TEST(Statevector, QubitCapAndMemoryBudget) {
  EXPECT_THROW(Statevector(Statevector::kMaxQubits + 1), ValidationError);
  EXPECT_THROW(Statevector(-1), ValidationError);
  EXPECT_EQ(Statevector::required_bytes(27), (1ull << 27) * sizeof(c64));
  // With a 1 GiB budget the historical 26-qubit ceiling still constructs but
  // 27 qubits (2 GiB of amplitudes) is refused up front.
  Statevector::set_memory_budget_bytes(1ull << 30);
  EXPECT_THROW(Statevector(27), ValidationError);
  EXPECT_NO_THROW(Statevector(20));
  Statevector::set_memory_budget_bytes(0);  // restore the automatic default
  EXPECT_GE(Statevector::memory_budget_bytes(), 1ull << 30);
}

TEST(Statevector, MemoryBudgetEnvRequiresFullStringParse) {
  // Regression: "4GiB" used to strtoull-parse as a 4-byte budget.  Partial
  // consumption, overflow, and non-positive values must all fall back to the
  // automatic default (>= the 1 GiB floor), while a plain byte count applies.
  Statevector::set_memory_budget_bytes(0);  // route through the env/default path
  const auto with_env = [](const char* value) {
    setenv("QUML_SV_MEMORY_BUDGET_BYTES", value, 1);
    const std::uint64_t budget = Statevector::memory_budget_bytes();
    unsetenv("QUML_SV_MEMORY_BUDGET_BYTES");
    return budget;
  };
  EXPECT_EQ(with_env("2147483648"), 2147483648ull);  // well-formed: applies
  EXPECT_GE(with_env("4GiB"), 1ull << 30);           // trailing junk: default
  EXPECT_GE(with_env("12 "), 1ull << 30);            // trailing space: default
  EXPECT_GE(with_env("99999999999999999999999"), 1ull << 30);  // overflow
  EXPECT_GE(with_env("-4096"), 1ull << 30);          // negative: default
  EXPECT_GE(with_env("0"), 1ull << 30);              // zero budget: default
  EXPECT_GE(with_env(""), 1ull << 30);               // empty: default
}

TEST(Statevector, WideRegisterConstruction) {
  // A 27-qubit register (2 GiB, past the old 26-qubit hard cap) constructs
  // when the budget allows.  28..30 only assert the budget arithmetic — the
  // 16 GiB fill would dominate the whole suite's runtime.
  if (Statevector::required_bytes(27) <= Statevector::memory_budget_bytes()) {
    Statevector sv(27);
    EXPECT_EQ(sv.num_qubits(), 27);
    EXPECT_EQ(sv.dim(), 1ull << 27);
    EXPECT_EQ(sv.amplitude(0), c64(1.0, 0.0));
  }
  for (const int n : {28, 29, 30}) {
    EXPECT_EQ(Statevector::required_bytes(n), sizeof(c64) << n);
    // Under a deliberately small budget every wide width is refused up front
    // (no multi-GiB allocation is attempted), proving the gate is the budget
    // and not the hard cap.
    Statevector::set_memory_budget_bytes(1ull << 30);
    EXPECT_THROW(Statevector{n}, ValidationError);
    Statevector::set_memory_budget_bytes(0);
  }
}

TEST(Statevector, MeasureClampsNearDeterministicProbabilities) {
  // Long diagonal-heavy circuits drift p1 a few ulps past [0, 1]; collapse
  // must clamp and succeed instead of throwing on the legitimate outcome.
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    Statevector sv(4);
    sv.apply_1q(0, gate_matrix_1q(Gate::X, nullptr));
    for (int i = 0; i < 200; ++i) {
      sv.apply_diag_1q(i % 4, unit_phase(0.3), unit_phase(-0.7));
      if (i % 3 == 0) sv.apply(Instruction{Gate::RZZ, {i % 4, (i + 1) % 4}, {1.1}, {}, {}});
    }
    EXPECT_EQ(sv.measure_collapse(0, rng), 1);  // deterministically |1>
    EXPECT_NEAR(sv.norm(), 1.0, 1e-9);
  }
}

// --- fusion ------------------------------------------------------------------

Circuit random_circuit(std::uint64_t seed, int qubits, int gates, bool with_multiq) {
  Rng rng(seed);
  Circuit c(qubits, 0);
  for (int i = 0; i < gates; ++i) {
    const int q = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(qubits)));
    const int r = (q + 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(qubits - 1)))) % qubits;
    switch (rng.next_below(with_multiq ? 14 : 8)) {
      case 0: c.h(q); break;
      case 1: c.x(q); break;
      case 2: c.s(q); break;
      case 3: c.t(q); break;
      case 4: c.rz(rng.next_double() * 6 - 3, q); break;
      case 5: c.rx(rng.next_double() * 6 - 3, q); break;
      case 6: c.p(rng.next_double() * 6 - 3, q); break;
      case 7: c.u3(rng.next_double() * 3, rng.next_double() * 6 - 3, rng.next_double() * 6 - 3, q); break;
      case 8: c.cx(q, r); break;
      case 9: c.cz(q, r); break;
      case 10: c.cp(rng.next_double() * 6 - 3, q, r); break;
      case 11: c.rzz(rng.next_double() * 6 - 3, q, r); break;
      case 12: c.swap(q, r); break;
      case 13: c.ccx(q, r, (r + 1) % qubits == q ? (r + 2) % qubits : (r + 1) % qubits); break;
    }
  }
  return c;
}

/// Gate-by-gate reference path: native kernels, no fusion.
void apply_gate_by_gate(Statevector& sv, const Circuit& c) {
  for (const auto& inst : c.instructions())
    if (inst.gate != Gate::Barrier) sv.apply(inst);
}

class FusionProperty : public ::testing::TestWithParam<int> {};

TEST_P(FusionProperty, FusedMatchesUnfused) {
  const Circuit c = random_circuit(static_cast<std::uint64_t>(GetParam()), 5, 80, true);
  Statevector unfused(5);
  apply_gate_by_gate(unfused, c);
  Statevector fused(5);
  FusionStats stats;
  apply_fused(fused, fuse_unitaries(c, &stats));
  EXPECT_NEAR(unfused.fidelity(fused), 1.0, 1e-9);
  EXPECT_LE(stats.ops_out, c.size());
  // Fusion is exact (no Euler resynthesis), so even amplitudes must agree.
  for (std::uint64_t i = 0; i < unfused.dim(); ++i)
    EXPECT_LT(std::abs(unfused.amplitude(i) - fused.amplitude(i)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, FusionProperty, ::testing::Range(0, 20));

TEST(Fusion, ApplyUnitariesRoutesThroughFusionExactly) {
  // Statevector::apply_unitaries runs the fusion pass; results must stay
  // bit-equivalent (within composition rounding) to the native per-gate path.
  for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
    const Circuit c = random_circuit(seed, 6, 120, true);
    Statevector direct(6);
    direct.apply_unitaries(c);
    Statevector reference(6);
    apply_gate_by_gate(reference, c);
    for (std::uint64_t i = 0; i < direct.dim(); ++i)
      EXPECT_LT(std::abs(direct.amplitude(i) - reference.amplitude(i)), 1e-12) << "seed " << seed;
  }
}

TEST(Fusion, CollapsesOneQubitRuns) {
  Circuit c(2, 0);
  c.h(0);
  c.t(0);
  c.rx(0.3, 0);
  c.h(1);
  FusionStats stats;
  const auto ops = fuse_unitaries(c, &stats);
  // Three gates on q0 fuse to one op; q1 keeps its own.
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(stats.fused_1q, 4u);
  EXPECT_EQ(ops[0].kind, FusedOp::Kind::Unitary1Q);
  EXPECT_EQ(ops[0].qubit, 0);
  EXPECT_EQ(ops[1].kind, FusedOp::Kind::Unitary1Q);
  EXPECT_EQ(ops[1].qubit, 1);
}

TEST(Fusion, MergesDiagonalRunsIncludingDiagonalTwoQubitGates) {
  // rz; cz; rz on the same wire: the whole run is diagonal, so the pass now
  // absorbs the CZ too and emits a single two-qubit diagonal block.
  Circuit c(2, 0);
  c.rz(0.4, 0);
  c.cz(0, 1);
  c.rz(0.6, 0);
  FusionStats stats;
  const auto ops = fuse_unitaries(c, &stats);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, FusedOp::Kind::DiagKQ);
  EXPECT_EQ(ops[0].qubits, (std::vector<int>{0, 1}));
  EXPECT_EQ(stats.diag_runs, 1u);
  EXPECT_EQ(stats.fused_multiq, 1u);
  // Semantics preserved despite the merge.
  Statevector a(2), b(2);
  apply_gate_by_gate(a, c);
  apply_fused(b, fuse_unitaries(c));
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_LT(std::abs(a.amplitude(i) - b.amplitude(i)), 1e-12);
}

TEST(Fusion, DiagonalGateCommutesThroughWhenCapsForbidMerging) {
  // With the structured cap forced to 1 no multi-qubit block may form, so the
  // historical v1 behavior re-emerges: the CZ passes through the open
  // diagonal accumulation (they commute) and both rotations still land in a
  // single 1q diagonal.
  Circuit c(2, 0);
  c.rz(0.4, 0);
  c.cz(0, 1);
  c.rz(0.6, 0);
  FusionOptions opt;
  opt.max_qubits = 1;
  opt.max_structured_qubits = 1;
  FusionStats stats;
  const auto ops = fuse_unitaries(c, opt, &stats);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].kind, FusedOp::Kind::DiagKQ);  // the cz passes through first
  EXPECT_EQ(ops[1].kind, FusedOp::Kind::Diag1Q);
  EXPECT_EQ(stats.diag_runs, 1u);
  Statevector a(2), b(2);
  apply_gate_by_gate(a, c);
  apply_fused(b, ops);
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_LT(std::abs(a.amplitude(i) - b.amplitude(i)), 1e-12);
}

TEST(Statevector, SwapAndRzzRejectEqualOperandsIdentically) {
  Statevector sv(3);
  EXPECT_THROW(sv.apply(Instruction{Gate::SWAP, {1, 1}, {}, {}, {}}), ValidationError);
  EXPECT_THROW(sv.apply(Instruction{Gate::RZZ, {1, 1}, {0.3}, {}, {}}), ValidationError);
  // out of range still checked
  EXPECT_THROW(sv.apply(Instruction{Gate::SWAP, {0, 3}, {}, {}, {}}), ValidationError);
  EXPECT_NO_THROW(sv.apply(Instruction{Gate::SWAP, {0, 2}, {}, {}, {}}));
  EXPECT_NO_THROW(sv.apply(Instruction{Gate::RZZ, {0, 2}, {0.3}, {}, {}}));
}

TEST(Fusion, BarrierIsAFence) {
  Circuit c(1, 0);
  c.h(0);
  c.barrier();
  c.h(0);
  const auto ops = fuse_unitaries(c);
  ASSERT_EQ(ops.size(), 2u);  // no fusion across the barrier
  EXPECT_EQ(ops[0].kind, FusedOp::Kind::Unitary1Q);
  EXPECT_EQ(ops[1].kind, FusedOp::Kind::Unitary1Q);
}

TEST(Fusion, RejectsNonUnitaries) {
  Circuit c(1, 1);
  c.h(0);
  c.measure(0, 0);
  EXPECT_THROW(fuse_unitaries(c), ValidationError);
}

TEST(Engine, DeterministicCounts) {
  Circuit c(2, 2);
  c.h(0);
  c.cx(0, 1);
  c.measure_all();
  const Engine engine;
  const CountMap a = engine.run_counts(c, 1000, 7);
  const CountMap b = engine.run_counts(c, 1000, 7);
  EXPECT_EQ(a, b);
  const CountMap other_seed = engine.run_counts(c, 1000, 8);
  EXPECT_NE(a, other_seed);
}

TEST(Engine, BellCountsOnlyCorrelated) {
  Circuit c(2, 2);
  c.h(0);
  c.cx(0, 1);
  c.measure_all();
  const CountMap counts = Engine().run_counts(c, 4096, 42);
  std::int64_t total = 0;
  for (const auto& [key, n] : counts) {
    EXPECT_TRUE(key == "00" || key == "11") << key;
    total += n;
  }
  EXPECT_EQ(total, 4096);
  EXPECT_NEAR(static_cast<double>(counts.at("00")) / 4096.0, 0.5, 0.05);
}

TEST(Engine, DeterministicBasisStateCounts) {
  Circuit c(3, 3);
  c.x(0);
  c.x(2);
  c.measure_all();
  const CountMap counts = Engine().run_counts(c, 100, 1);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts.at("101"), 100);
}

TEST(Engine, PartialMeasurementMarginals) {
  Circuit c(2, 1);
  c.h(0);
  c.x(1);
  c.measure(1, 0);  // only measure qubit 1
  const CountMap counts = Engine().run_counts(c, 500, 3);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts.at("1"), 500);
}

TEST(Engine, MidCircuitMeasurementCollapses) {
  // Measure a superposed qubit, then CX onto a fresh qubit: outcomes must be
  // perfectly correlated shot by shot.
  Circuit c(2, 2);
  c.h(0);
  c.measure(0, 0);
  c.cx(0, 1);
  c.measure(1, 1);
  const CountMap counts = Engine().run_counts(c, 2000, 11);
  for (const auto& [key, n] : counts) {
    (void)n;
    EXPECT_TRUE(key == "00" || key == "11") << key;
  }
}

TEST(Engine, MidCircuitPrefixReuseKeepsTrajectoriesIndependent) {
  // A nontrivial unitary prefix before the first measurement is evolved once
  // and copied per shot; outcomes must still be independent across shots and
  // perfectly correlated within one.
  Circuit c(3, 2);
  c.h(0);
  c.t(0);
  c.h(1);
  c.cx(1, 2);
  c.measure(0, 0);
  c.cx(0, 1);  // mid-circuit: forces the trajectory path
  c.measure(0, 1);
  c.z(2);  // trailing unitary after the last measure: unobservable, dropped
  const CountMap counts = Engine().run_counts(c, 4000, 13);
  std::int64_t total = 0;
  for (const auto& [key, n] : counts) {
    EXPECT_TRUE(key == "00" || key == "11") << key;  // same qubit twice
    total += n;
  }
  EXPECT_EQ(total, 4000);
  EXPECT_NEAR(static_cast<double>(counts.at("00")) / 4000.0, 0.5, 0.05);
}

TEST(Engine, ResetReinitializes) {
  Circuit c(1, 1);
  c.x(0);
  c.reset(0);
  c.measure(0, 0);
  const CountMap counts = Engine().run_counts(c, 200, 5);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts.at("0"), 200);
}

TEST(Engine, ErrorsOnDegenerateInputs) {
  Circuit no_measure(2, 2);
  no_measure.h(0);
  EXPECT_THROW(Engine().run_counts(no_measure, 10, 0), ValidationError);
  Circuit no_clbits(1, 0);
  no_clbits.h(0);
  EXPECT_THROW(Engine().run_counts(no_clbits, 10, 0), ValidationError);
  Circuit ok(1, 1);
  ok.measure(0, 0);
  EXPECT_THROW(Engine().run_counts(ok, 0, 0), ValidationError);
  Circuit with_measure(1, 1);
  with_measure.measure(0, 0);
  EXPECT_THROW(Engine().run_statevector(with_measure), ValidationError);
}

TEST(Engine, ThreadCountDoesNotChangeResults) {
  Circuit c(8, 8);
  for (int q = 0; q < 8; ++q) c.h(q);
  for (int q = 0; q + 1 < 8; ++q) c.cx(q, q + 1);
  c.measure_all();
  quml::set_num_threads(1);
  const CountMap serial = Engine().run_counts(c, 2048, 99);
  quml::set_num_threads(8);
  const CountMap parallel = Engine().run_counts(c, 2048, 99);
  EXPECT_EQ(serial, parallel);
}

// --- terminal measurement: deferred to one sampling pass -------------------------

/// `unitary` with qubit q measured into clbit q right after the last gate on
/// q, while the other qubits keep running: every Measure is terminal, none is
/// trailing.
Circuit measure_after_last_gate(const Circuit& unitary) {
  const int n = unitary.num_qubits();
  const std::vector<Instruction>& program = unitary.instructions();
  std::vector<std::ptrdiff_t> last(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < program.size(); ++i) {
    if (program[i].gate == Gate::Barrier) continue;
    for (const int q : program[i].qubits)
      last[static_cast<std::size_t>(q)] = static_cast<std::ptrdiff_t>(i);
  }
  Circuit out(n, n);
  const auto measure_done = [&](std::ptrdiff_t i) {
    for (int q = 0; q < n; ++q)
      if (last[static_cast<std::size_t>(q)] == i) out.measure(q, q);
  };
  measure_done(-1);  // qubits no gate touches
  for (std::size_t i = 0; i < program.size(); ++i) {
    out.push(program[i]);
    measure_done(static_cast<std::ptrdiff_t>(i));
  }
  return out;
}

/// The same circuit with every Measure moved to the end, in program order.
Circuit measure_at_end(const Circuit& circuit) {
  Circuit out(circuit.num_qubits(), circuit.num_clbits());
  for (const Instruction& inst : circuit.instructions())
    if (inst.gate != Gate::Measure) out.push(inst);
  for (const Instruction& inst : circuit.instructions())
    if (inst.gate == Gate::Measure) out.measure(inst.qubits[0], inst.clbits[0]);
  return out;
}

/// Total variation distance between sampled counts (clbit q = qubit q) and
/// an exact basis distribution.
double tvd_to_exact(const CountMap& counts, const std::vector<double>& exact) {
  std::int64_t shots = 0;
  for (const auto& [key, n] : counts) shots += n;
  std::vector<double> freq(exact.size(), 0.0);
  for (const auto& [key, n] : counts)
    freq[std::stoull(key, nullptr, 2)] = static_cast<double>(n) / static_cast<double>(shots);
  double distance = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) distance += std::abs(freq[i] - exact[i]);
  return distance / 2.0;
}

TEST(Engine, TerminalMeasurementRule) {
  Circuit interleaved(2, 2);
  interleaved.h(0);
  interleaved.measure(0, 0);
  interleaved.h(1);
  interleaved.barrier();
  interleaved.measure(0, 1);  // same qubit again: still terminal
  interleaved.measure(1, 0);
  const std::optional<TerminalSplit> split = split_terminal_measurements(interleaved);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->unitaries.size(), 3u);  // h, h, barrier
  const std::vector<std::pair<int, int>> order{{0, 0}, {0, 1}, {1, 0}};
  EXPECT_EQ(split->measurements, order);

  Circuit gate_after(2, 2);
  gate_after.h(0);
  gate_after.measure(0, 0);
  gate_after.cx(1, 0);  // touches the measured qubit
  gate_after.measure(1, 1);
  EXPECT_FALSE(split_terminal_measurements(gate_after).has_value());

  Circuit with_reset(1, 1);
  with_reset.reset(0);
  with_reset.measure(0, 0);
  EXPECT_FALSE(split_terminal_measurements(with_reset).has_value());
}

class TerminalMeasurementProperty : public ::testing::TestWithParam<std::tuple<int, StateRep>> {};

TEST_P(TerminalMeasurementProperty, InterleavedSamplesLikeMeasuredAtEnd) {
  const auto [seed, rep] = GetParam();
  constexpr int kQubits = 5;
  constexpr std::int64_t kShots = 8192;
  const Circuit unitary =
      testgen::random_circuit(static_cast<std::uint64_t>(seed) + 300, kQubits, 40);
  const Circuit interleaved = measure_after_last_gate(unitary);
  // The circuit really measures while other qubits keep running.
  const auto& program = interleaved.instructions();
  const auto first_measure = std::find_if(
      program.begin(), program.end(), [](const Instruction& i) { return i.gate == Gate::Measure; });
  const auto gate_after = std::find_if(first_measure, program.end(), [](const Instruction& i) {
    return i.gate != Gate::Measure && i.gate != Gate::Barrier;
  });
  ASSERT_NE(gate_after, program.end());

  StateConfig config;
  config.representation = rep;
  const Engine engine(config);
  const std::uint64_t shot_seed = static_cast<std::uint64_t>(seed) + 17;
  const CountMap counts = engine.run_counts(interleaved, kShots, shot_seed);
  // Bit-identical to the trailing-measurement circuit: both sample once from
  // the same evolved state (per-shot trajectories would draw other counts).
  EXPECT_EQ(counts, engine.run_counts(measure_at_end(interleaved), kShots, shot_seed));
  EXPECT_LT(tvd_to_exact(counts, Engine().run_statevector(unitary).probabilities()), 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    RandomCircuits, TerminalMeasurementProperty,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(StateRep::Statevector, StateRep::Mps)),
    [](const ::testing::TestParamInfo<std::tuple<int, StateRep>>& info) {
      return std::string(to_string(std::get<1>(info.param))) + "_" +
             std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace quml::sim
