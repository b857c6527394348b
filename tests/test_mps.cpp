// Directed coverage for the MPS simulation state (sim/mps): canonical-form
// maintenance, adjacent and routed multi-qubit application, truncation
// accounting, measurement/collapse, exact sampling, and the past-the-wall
// widths (50-64 qubits) the representation exists for.  Cross-representation
// equivalence at scale lives in tests/test_cross_engine.cpp; this suite pins
// the MPS-specific invariants.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "sim/engine.hpp"
#include "sim/mps.hpp"
#include "sim/statevector.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace quml::sim {
namespace {

constexpr double kTol = 1e-10;

/// Exact MPS configuration: bond cap far above anything a small circuit can
/// reach, no cutoff (beyond the mandatory exact-zero drop).
MpsConfig exact_config() {
  MpsConfig config;
  config.max_bond_dim = 4096;
  config.truncation_cutoff = 0.0;
  return config;
}

void apply_gate_by_gate(SimState& state, const Circuit& c) {
  for (const auto& inst : c.instructions())
    if (inst.gate != Gate::Barrier) state.apply(inst);
}

double max_amp_diff(const SimState& a, const Statevector& b) {
  double md = 0.0;
  for (std::uint64_t i = 0; i < b.dim(); ++i)
    md = std::max(md, std::abs(a.amplitude(i) - b.amplitude(i)));
  return md;
}

/// Random circuit over 1q rotations and the two-qubit vocabulary, operands
/// drawn freely so non-adjacent supports and descending orders occur.
Circuit random_circuit(std::uint64_t seed, int n, int gates) {
  Rng rng(seed);
  Circuit c(n, 0);
  const auto wire = [&] { return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))); };
  const auto other = [&](int q) {
    return (q + 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n - 1)))) % n;
  };
  const auto angle = [&] { return rng.next_double() * 6.0 - 3.0; };
  for (int i = 0; i < gates; ++i) {
    const int q = wire();
    switch (rng.next_below(8)) {
      case 0: c.h(q); break;
      case 1: c.rx(angle(), q); break;
      case 2: c.u3(angle(), angle(), angle(), q); break;
      case 3: c.t(q); break;
      case 4: c.cx(q, other(q)); break;
      case 5: c.cz(q, other(q)); break;
      case 6: c.rzz(angle(), q, other(q)); break;
      case 7: c.cp(angle(), q, other(q)); break;
    }
  }
  return c;
}

TEST(Mps, InitialStateIsAllZeros) {
  Mps mps(5, exact_config());
  EXPECT_EQ(std::string(mps.representation()), "mps");
  EXPECT_EQ(mps.num_qubits(), 5);
  EXPECT_NEAR(std::abs(mps.amplitude(0)), 1.0, kTol);
  EXPECT_NEAR(mps.norm(), 1.0, kTol);
  EXPECT_EQ(mps.bond_dimension(), 1);
}

TEST(Mps, ConstructorRejectsBadArguments) {
  EXPECT_THROW(Mps(0), ValidationError);
  EXPECT_THROW(Mps(65), ValidationError);
  MpsConfig bad;
  bad.max_bond_dim = 0;
  EXPECT_THROW(Mps(4, bad), ValidationError);
  bad = MpsConfig{};
  bad.truncation_cutoff = -1.0;
  EXPECT_THROW(Mps(4, bad), ValidationError);
}

TEST(Mps, SingleQubitGatesMatchStatevector) {
  Circuit c(3, 0);
  c.h(0);
  c.t(1);
  c.u3(0.3, -1.1, 2.2, 2);
  c.rz(0.7, 0);
  c.sx(1);
  Mps mps(3, exact_config());
  Statevector sv(3);
  apply_gate_by_gate(mps, c);
  apply_gate_by_gate(sv, c);
  EXPECT_LT(max_amp_diff(mps, sv), kTol);
}

TEST(Mps, AdjacentTwoQubitGateMatchesStatevector) {
  Circuit c(2, 0);
  c.h(0);
  c.cx(0, 1);
  c.rzz(0.4, 0, 1);
  Mps mps(2, exact_config());
  Statevector sv(2);
  apply_gate_by_gate(mps, c);
  apply_gate_by_gate(sv, c);
  EXPECT_LT(max_amp_diff(mps, sv), kTol);
  EXPECT_EQ(mps.bond_dimension(), 2);
}

TEST(Mps, NonAdjacentAndDescendingOperandsMatchStatevector) {
  Circuit c(5, 0);
  c.h(4);
  c.cx(4, 0);  // descending, distance 4: full swap routing both ways
  c.cp(0.9, 3, 1);
  c.ccx(4, 0, 2);
  c.cswap(0, 4, 2);
  Mps mps(5, exact_config());
  Statevector sv(5);
  apply_gate_by_gate(mps, c);
  apply_gate_by_gate(sv, c);
  EXPECT_LT(max_amp_diff(mps, sv), kTol);
  EXPECT_NEAR(mps.norm(), 1.0, kTol);
}

TEST(Mps, RandomCircuitsMatchStatevectorExactly) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Circuit c = random_circuit(seed, 6, 48);
    Mps mps(6, exact_config());
    Statevector sv(6);
    apply_gate_by_gate(mps, c);
    apply_gate_by_gate(sv, c);
    EXPECT_LT(max_amp_diff(mps, sv), kTol) << "seed " << seed;
    EXPECT_NEAR(mps.truncation_weight(), 0.0, 1e-12) << "seed " << seed;
  }
}

TEST(Mps, FusedProgramMatchesStatevector) {
  const Circuit c = random_circuit(77, 6, 60);
  FusionOptions options;
  options.max_qubits = 2;
  options.max_structured_qubits = 4;
  Mps mps(6, exact_config());
  Statevector sv(6);
  apply_fused(mps, fuse_unitaries(c, options));
  apply_gate_by_gate(sv, c);
  EXPECT_LT(max_amp_diff(mps, sv), kTol);
}

TEST(Mps, ProbabilitiesMatchStatevector) {
  const Circuit c = random_circuit(5, 5, 30);
  Mps mps(5, exact_config());
  Statevector sv(5);
  apply_gate_by_gate(mps, c);
  apply_gate_by_gate(sv, c);
  const auto pm = mps.probabilities();
  const auto ps = sv.probabilities();
  ASSERT_EQ(pm.size(), ps.size());
  for (std::size_t i = 0; i < pm.size(); ++i) EXPECT_NEAR(pm[i], ps[i], kTol);
}

TEST(Mps, GhzAt50QubitsStaysBondTwo) {
  const int n = 50;
  Mps mps(n);
  Mat2 h;
  const double r = 1.0 / std::sqrt(2.0);
  h.m = {{{c64(r, 0.0), c64(r, 0.0)}, {c64(r, 0.0), c64(-r, 0.0)}}};
  mps.apply_1q(0, h);
  Circuit chain(n, 0);
  for (int i = 0; i + 1 < n; ++i) chain.cx(i, i + 1);
  apply_gate_by_gate(mps, chain);
  EXPECT_LE(mps.peak_bond_dimension(), 2);
  EXPECT_NEAR(mps.truncation_weight(), 0.0, 1e-12);
  const std::uint64_t ones = ~std::uint64_t{0} >> (64 - n);
  EXPECT_NEAR(std::norm(mps.amplitude(0)), 0.5, kTol);
  EXPECT_NEAR(std::norm(mps.amplitude(ones)), 0.5, kTol);
  EXPECT_NEAR(std::norm(mps.amplitude(1)), 0.0, kTol);

  Rng rng(123);
  const BasisHistogram hist = mps.sample_basis(400, rng);
  std::int64_t total = 0;
  for (const auto& [basis, count] : hist) {
    EXPECT_TRUE(basis == 0 || basis == ones) << basis;
    total += count;
  }
  EXPECT_EQ(total, 400);
  EXPECT_EQ(hist.size(), 2u);
}

TEST(Mps, GhzLadderAt64Qubits) {
  const int n = 64;
  Circuit c(n, 0);
  c.h(0);
  for (int i = 0; i + 1 < n; ++i) c.cx(i, i + 1);
  Mps mps(n);
  apply_gate_by_gate(mps, c);
  EXPECT_LE(mps.peak_bond_dimension(), 2);
  EXPECT_NEAR(std::norm(mps.amplitude(0)), 0.5, kTol);
  EXPECT_NEAR(std::norm(mps.amplitude(~std::uint64_t{0})), 0.5, kTol);
}

TEST(Mps, TruncationCapsBondAndRenormalizes) {
  // Volume-law random circuit under a tight cap: the state stays normalized
  // and the discarded weight is visible.
  const Circuit c = random_circuit(9, 8, 80);
  MpsConfig config;
  config.max_bond_dim = 2;
  config.truncation_cutoff = 0.0;
  Mps mps(8, config);
  apply_gate_by_gate(mps, c);
  EXPECT_LE(mps.bond_dimension(), 2);
  // 1e-8, not kTol: 80 gates under a bond cap of 2 renormalize the kept
  // spectrum at nearly every split, and the accumulated rounding differs
  // slightly between the OpenMP and serial builds' FP contraction.
  EXPECT_NEAR(mps.norm(), 1.0, 1e-8);
  EXPECT_GT(mps.truncation_weight(), 0.0);
  double total = 0.0;
  for (const double p : mps.probabilities()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-8);
}

TEST(Mps, TightBondCapsKeepCanonicalForm) {
  // Regression: the Jacobi SVD behind every split formed its rotation from
  // a cancelling difference and from |<g_p, g_q>|^2, so some splits left the
  // kept vectors orthogonal only to ~1e-8, or non-unitary once a zero column
  // underflowed.  The canonical form then drifted: norm() and the summed
  // probabilities parted by up to 3e-4 across these seeds, and a
  // mid-circuit measurement on the MPS engine threw "norm lost".
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Circuit c = random_circuit(seed, 8, 80);
    MpsConfig config;
    config.max_bond_dim = 2;
    config.truncation_cutoff = 0.0;
    Mps mps(8, config);
    apply_gate_by_gate(mps, c);
    double total = 0.0;
    for (const double p : mps.probabilities()) total += p;
    EXPECT_NEAR(mps.norm(), 1.0, 1e-12) << "seed " << seed;
    EXPECT_NEAR(total, 1.0, 1e-12) << "seed " << seed;
  }
}

TEST(Mps, MeasureCollapseOnGhz) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Circuit c(12, 0);
    c.h(0);
    for (int i = 0; i + 1 < 12; ++i) c.cx(i, i + 1);
    Mps mps(12, exact_config());
    apply_gate_by_gate(mps, c);
    Rng rng(seed);
    const int first = mps.measure_collapse(5, rng);
    // GHZ: one measurement pins every other qubit.
    for (int q = 0; q < 12; ++q) EXPECT_EQ(mps.measure_collapse(q, rng), first);
    EXPECT_NEAR(mps.norm(), 1.0, kTol);
  }
}

TEST(Mps, ResetQubitForcesZero) {
  Circuit c(4, 0);
  c.h(0);
  c.cx(0, 2);
  Mps mps(4, exact_config());
  apply_gate_by_gate(mps, c);
  Rng rng(7);
  mps.reset_qubit(2, rng);
  // Qubit 2 is |0> regardless of the measured branch.
  for (std::uint64_t basis = 0; basis < 16; ++basis) {
    if ((basis >> 2) & 1u) {
      EXPECT_NEAR(std::abs(mps.amplitude(basis)), 0.0, kTol);
    }
  }
  EXPECT_NEAR(mps.norm(), 1.0, kTol);
}

TEST(Mps, CloneIsIndependent) {
  Circuit c(5, 0);
  c.h(0);
  c.cx(0, 4);
  Mps mps(5, exact_config());
  apply_gate_by_gate(mps, c);
  const std::unique_ptr<SimState> copy = mps.clone();
  Mat2 x;
  x.m[0][1] = c64(1.0, 0.0);
  x.m[1][0] = c64(1.0, 0.0);
  mps.apply_1q(0, x);
  // The clone still holds the pre-X state.
  EXPECT_NEAR(std::norm(copy->amplitude(0)), 0.5, kTol);
  EXPECT_NEAR(std::norm(copy->amplitude(0b10001)), 0.5, kTol);
  EXPECT_NEAR(std::norm(mps.amplitude(0b00001)), 0.5, kTol);
}

TEST(Mps, SamplingIsDeterministicPerSeed) {
  const Circuit c = random_circuit(21, 10, 40);
  const auto run = [&] {
    Mps mps(10, exact_config());
    apply_gate_by_gate(mps, c);
    Rng rng(99);
    return mps.sample_basis(256, rng);
  };
  const BasisHistogram a = run();
  const BasisHistogram b = run();
  EXPECT_EQ(a.size(), b.size());
  for (const auto& [basis, count] : a) {
    const auto it = b.find(basis);
    ASSERT_NE(it, b.end());
    EXPECT_EQ(it->second, count);
  }
}

TEST(Mps, SampledFrequenciesTrackProbabilities) {
  const Circuit c = random_circuit(31, 6, 30);
  Mps mps(6, exact_config());
  apply_gate_by_gate(mps, c);
  const std::vector<double> probs = mps.probabilities();
  Rng rng(5);
  const BasisHistogram hist = mps.sample_basis(20000, rng);
  double tvd = 0.0;
  for (std::uint64_t basis = 0; basis < probs.size(); ++basis) {
    const auto it = hist.find(basis);
    const double freq = it == hist.end() ? 0.0 : static_cast<double>(it->second) / 20000.0;
    tvd += std::abs(freq - probs[basis]);
  }
  EXPECT_LT(tvd / 2.0, 0.05);
}

TEST(Mps, ValidationErrors) {
  Mps mps(4, exact_config());
  Mat2 id = Mat2::identity();
  EXPECT_THROW(mps.apply_1q(4, id), ValidationError);
  EXPECT_THROW(mps.apply_1q(-1, id), ValidationError);
  const std::vector<int> dup{1, 1};
  std::vector<c64> u4(16, c64{});
  EXPECT_THROW(mps.apply_matrix(dup, u4.data()), ValidationError);
  Rng rng(0);
  EXPECT_THROW(mps.measure_collapse(9, rng), ValidationError);
  Mps wide(30);
  EXPECT_THROW(wide.probabilities(), ValidationError);
}

TEST(Mps, EngineRunsMpsEndToEnd) {
  // The engine's trailing path over the MPS representation: a 40-qubit GHZ
  // samples only the two legal strings.
  const int n = 40;
  Circuit c(n, n);
  c.h(0);
  for (int i = 0; i + 1 < n; ++i) c.cx(i, i + 1);
  c.measure_all();
  StateConfig config;
  config.representation = StateRep::Mps;
  const CountMap counts = Engine(config).run_counts(c, 300, 7);
  ASSERT_EQ(counts.size(), 2u);
  const std::string zeros(n, '0');
  const std::string ones(n, '1');
  EXPECT_GT(counts.at(zeros), 0);
  EXPECT_GT(counts.at(ones), 0);
  EXPECT_EQ(counts.at(zeros) + counts.at(ones), 300);
}

TEST(Mps, EngineMidCircuitTrajectoriesOnMps) {
  // Measure-then-reuse: H(0), measure into c0, reset, X, measure into c1.
  Circuit c(2, 2);
  c.h(0);
  c.measure(0, 0);
  c.reset(0);
  c.x(0);
  c.measure(0, 1);
  StateConfig config;
  config.representation = StateRep::Mps;
  const CountMap counts = Engine(config).run_counts(c, 200, 11);
  std::int64_t total = 0;
  for (const auto& [key, n] : counts) {
    EXPECT_EQ(key[0], '1') << key;  // clbit 1 (left) is always 1 after reset+X
    total += n;
  }
  EXPECT_EQ(total, 200);
  EXPECT_EQ(counts.size(), 2u);  // clbit 0 saw both branches
}

TEST(SimStateFactory, DispatchesOnRepresentation) {
  StateConfig config;
  const auto dense = make_sim_state(3, config);
  EXPECT_EQ(std::string(dense->representation()), "statevector");
  config.representation = StateRep::Mps;
  config.mps.max_bond_dim = 7;
  const auto mps = make_sim_state(3, config);
  EXPECT_EQ(std::string(mps->representation()), "mps");
  EXPECT_EQ(static_cast<const Mps&>(*mps).config().max_bond_dim, 7);
}

}  // namespace
}  // namespace quml::sim
