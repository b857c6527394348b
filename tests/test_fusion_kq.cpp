// Randomized and directed coverage for the generalized k-qubit fusion pass
// (sim/fusion) and the statevector kernels backing it (apply_matrix,
// apply_diag, apply_monomial).  The load-bearing property: a fused program
// applies the *identical* unitary — amplitudes agree with the gate-by-gate
// unfused path to 1e-12, global phase included — across random circuits,
// every cap k in 2..5, adversarial operand orders, and boundary wires.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "backend/lowering.hpp"
#include "sim/engine.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace quml::sim {
namespace {

/// Gate-by-gate reference: each gate's own op, no fusion.
void apply_gate_by_gate(Statevector& sv, const Circuit& c) {
  for (const auto& inst : c.instructions())
    if (inst.gate != Gate::Barrier) sv.apply(inst);
}

double max_amp_diff(const Statevector& a, const Statevector& b) {
  double md = 0.0;
  for (std::uint64_t i = 0; i < a.dim(); ++i)
    md = std::max(md, std::abs(a.amplitude(i) - b.amplitude(i)));
  return md;
}

/// Random circuit over the full gate vocabulary.  Operand orders are drawn
/// freely (control above or below target) and wires 0 and n-1 participate
/// like any other, so boundary-wire and descending-operand cases occur
/// throughout.
Circuit random_circuit(std::uint64_t seed, int n, int gates) {
  Rng rng(seed);
  Circuit c(n, 0);
  const auto wire = [&] { return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))); };
  const auto other = [&](int q) {
    const int r = (q + 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n - 1)))) % n;
    return r;
  };
  const auto angle = [&] { return rng.next_double() * 6.0 - 3.0; };
  for (int i = 0; i < gates; ++i) {
    const int q = wire();
    const int r = other(q);
    switch (rng.next_below(16)) {
      case 0: c.h(q); break;
      case 1: c.x(q); break;
      case 2: c.s(q); break;
      case 3: c.t(q); break;
      case 4: c.rz(angle(), q); break;
      case 5: c.rx(angle(), q); break;
      case 6: c.p(angle(), q); break;
      case 7: c.u3(rng.next_double() * 3, angle(), angle(), q); break;
      case 8: c.cx(q, r); break;
      case 9: c.cz(q, r); break;
      case 10: c.cp(angle(), q, r); break;
      case 11: c.rzz(angle(), q, r); break;
      case 12: c.swap(q, r); break;
      case 13: c.crz(angle(), q, r); break;
      case 14: {
        const int s = other(r) == q ? (std::max(q, r) + 1) % c.num_qubits() : other(r);
        if (s != q && s != r) {
          c.ccx(q, r, s);
          break;
        }
        c.cy(q, r);
        break;
      }
      case 15: {
        const int s = other(r) == q ? (std::max(q, r) + 1) % c.num_qubits() : other(r);
        if (s != q && s != r) {
          c.cswap(q, r, s);
          break;
        }
        c.cz(q, r);
        break;
      }
    }
  }
  return c;
}

// --- the core property: fused == unfused to 1e-12, for caps k = 2..5 --------

class FusionKqProperty : public ::testing::TestWithParam<int> {};

TEST_P(FusionKqProperty, FusedMatchesGateByGateAtEveryCap) {
  const int n = 7;
  const Circuit c = random_circuit(static_cast<std::uint64_t>(GetParam()), n, 150);
  Statevector reference(n);
  apply_gate_by_gate(reference, c);
  for (int k = 2; k <= 5; ++k) {
    FusionOptions opt;
    opt.max_qubits = k;
    opt.max_structured_qubits = k;
    FusionStats stats;
    const auto ops = fuse_unitaries(c, opt, &stats);
    Statevector fused(n);
    apply_fused(fused, ops);
    EXPECT_LT(max_amp_diff(reference, fused), 1e-12) << "cap k=" << k;
    EXPECT_EQ(stats.gates_in, c.size()) << "cap k=" << k;
    EXPECT_LE(stats.ops_out, stats.gates_in) << "cap k=" << k;
    if (stats.kq_blocks > 0) {
      EXPECT_LE(stats.max_block_qubits, k);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, FusionKqProperty, ::testing::Range(0, 24));

TEST(FusionKq, DefaultOptionsOnWiderRegisters) {
  // Default caps (dense 4 / structured 14) on 10 wires: structured blocks
  // wider than the dense cap must still be exact.
  for (const std::uint64_t seed : {7ull, 8ull, 9ull}) {
    const Circuit c = random_circuit(seed, 10, 200);
    Statevector reference(10);
    apply_gate_by_gate(reference, c);
    Statevector fused(10);
    FusionStats stats;
    apply_fused(fused, fuse_unitaries(c, &stats));
    EXPECT_LT(max_amp_diff(reference, fused), 1e-12) << "seed " << seed;
  }
}

TEST(FusionKq, StructuredOnlyCircuitsFuseWide) {
  // A circuit of monomial/diagonal gates only collapses into a handful of
  // wide structured blocks — and stays exact.
  Rng rng(31);
  Circuit c(10, 0);
  for (int i = 0; i < 120; ++i) {
    const int q = static_cast<int>(rng.next_below(10));
    const int r = (q + 1 + static_cast<int>(rng.next_below(9))) % 10;
    switch (rng.next_below(5)) {
      case 0: c.cx(q, r); break;
      case 1: c.swap(q, r); break;
      case 2: c.cp(rng.next_double() * 6 - 3, q, r); break;
      case 3: c.rzz(rng.next_double() * 6 - 3, q, r); break;
      case 4: c.x(q); break;
    }
  }
  Statevector reference(10);
  apply_gate_by_gate(reference, c);
  Statevector fused(10);
  FusionStats stats;
  apply_fused(fused, fuse_unitaries(c, &stats));
  EXPECT_LT(max_amp_diff(reference, fused), 1e-12);
  EXPECT_GT(stats.kq_blocks, 0u);
  EXPECT_GT(stats.fused_multiq, 60u);  // the bulk of the traffic is absorbed
  EXPECT_LT(stats.ops_out, c.size() / 3);
}

// --- adversarial operand orders and boundary wires ---------------------------

TEST(FusionKq, AdversarialOperandOrders) {
  // Descending and interleaved operand lists on the extreme wires.
  const int n = 6;
  Circuit c(n, 0);
  for (int q = 0; q < n; ++q) c.h(q);
  c.cx(5, 0);
  c.cp(0.7, 4, 1);
  c.ccx(5, 0, 3);
  c.cswap(3, 5, 1);
  c.swap(5, 2);
  c.rzz(0.9, 5, 0);
  c.crz(1.1, 4, 0);
  c.cy(5, 1);
  c.cx(0, 5);
  c.t(5);
  c.t(0);
  c.cp(-2.1, 5, 0);
  Statevector reference(n);
  apply_gate_by_gate(reference, c);
  for (int k = 2; k <= 5; ++k) {
    FusionOptions opt;
    opt.max_qubits = k;
    opt.max_structured_qubits = std::max(k, 6);
    Statevector fused(n);
    apply_fused(fused, fuse_unitaries(c, opt));
    EXPECT_LT(max_amp_diff(reference, fused), 1e-12) << "cap k=" << k;
  }
}

TEST(FusionKq, BoundaryWirePairs) {
  // Runs confined to the bottom pair, the top pair, and the {0, n-1} pair.
  const int n = 8;
  for (const auto& [a, b] : {std::pair{0, 1}, std::pair{n - 2, n - 1}, std::pair{0, n - 1}}) {
    Circuit c(n, 0);
    c.h(a);
    c.h(b);
    c.cx(a, b);
    c.t(b);
    c.cp(0.4, b, a);
    c.rzz(-1.3, a, b);
    c.cx(b, a);
    c.rx(0.8, a);
    c.swap(a, b);
    Statevector reference(n);
    apply_gate_by_gate(reference, c);
    Statevector fused(n);
    apply_fused(fused, fuse_unitaries(c));
    EXPECT_LT(max_amp_diff(reference, fused), 1e-12) << "pair " << a << "," << b;
  }
}

// --- the kernels directly -----------------------------------------------------

Statevector random_state(int n, std::uint64_t seed) {
  Statevector sv(n);
  Rng rng(seed);
  for (int q = 0; q < n; ++q) {
    sv.apply_1q(q, gate_matrix_1q(Gate::H, nullptr));
    const double t[3] = {rng.next_double() * 3, rng.next_double() * 6 - 3,
                         rng.next_double() * 6 - 3};
    sv.apply_1q(q, gate_matrix_1q(Gate::U3, t));
  }
  return sv;
}

TEST(ApplyMatrix, MatchesNativeKernelsInBothOperandOrders) {
  const int n = 6;
  const Instruction gates[] = {
      {Gate::CX, {1, 4}, {}, {}},      {Gate::CX, {4, 1}, {}, {}},
      {Gate::CP, {0, 5}, {0.83}, {}},  {Gate::SWAP, {5, 2}, {}, {}},
      {Gate::RZZ, {3, 0}, {-1.7}, {}}, {Gate::CCX, {5, 2, 0}, {}, {}},
      {Gate::CSWAP, {2, 5, 1}, {}, {}},
  };
  for (const Instruction& inst : gates) {
    Statevector a = random_state(n, 11);
    Statevector b = a;
    a.apply(inst);
    const std::vector<c64> u = gate_matrix(inst.gate, inst.params.data());
    b.apply_matrix(inst.qubits, u.data());
    EXPECT_LT(max_amp_diff(a, b), 1e-12) << gate_name(inst.gate);
  }
}

TEST(ApplyMatrix, K2FastPathAdjacentAndSpreadSupports) {
  // U = u3(b) ⊗ u3(a) applied as one 4x4 equals the two 1q gates, on adjacent
  // and maximally spread supports, in both operand orders.
  const int n = 6;
  const double pa[3] = {0.7, -0.3, 1.9};
  const double pb[3] = {2.1, 0.4, -0.8};
  const Mat2 ua = gate_matrix_1q(Gate::U3, pa);
  const Mat2 ub = gate_matrix_1q(Gate::U3, pb);
  std::vector<c64> u(16);
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c)
      u[static_cast<std::size_t>(4 * r + c)] = ua.m[r & 1][c & 1] * ub.m[(r >> 1) & 1][(c >> 1) & 1];
  for (const auto& [qa, qb] : {std::pair{0, 1}, std::pair{2, 3}, std::pair{0, 5}, std::pair{5, 0}}) {
    Statevector a = random_state(n, 23);
    Statevector b = a;
    a.apply_1q(qa, ua);
    a.apply_1q(qb, ub);
    const int qs[2] = {qa, qb};
    b.apply_matrix(qs, u.data());
    EXPECT_LT(max_amp_diff(a, b), 1e-12) << qa << "," << qb;
  }
}

TEST(ApplyMatrix, K1DelegatesAndValidates) {
  Statevector sv(3);
  const Mat2 h = gate_matrix_1q(Gate::H, nullptr);
  const c64 u[4] = {h.m[0][0], h.m[0][1], h.m[1][0], h.m[1][1]};
  const int q[1] = {1};
  sv.apply_matrix(q, u);
  EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0 / std::sqrt(2.0), 1e-12);
  const int dup[2] = {1, 1};
  EXPECT_THROW(sv.apply_matrix(dup, u), ValidationError);
  const int oob[2] = {0, 3};
  EXPECT_THROW(sv.apply_matrix(oob, u), ValidationError);
  EXPECT_THROW(sv.apply_matrix(std::span<const int>{}, u), ValidationError);
}

TEST(ApplyDiag, MatchesDenseOnAdversarialSupport) {
  const int n = 7;
  Rng rng(5);
  const int qs[3] = {6, 0, 3};  // descending-ish, boundary wires
  std::vector<c64> d(8);
  for (auto& v : d) v = unit_phase(rng.next_double() * 6 - 3);
  d[2] = c64(1.0, 0.0);  // exercise the unit-skip
  std::vector<c64> u(64, c64(0.0, 0.0));
  for (int m = 0; m < 8; ++m) u[static_cast<std::size_t>(8 * m + m)] = d[static_cast<std::size_t>(m)];
  Statevector a = random_state(n, 41);
  Statevector b = a;
  a.apply_matrix(qs, u.data());
  b.apply_diag(qs, d.data());
  EXPECT_LT(max_amp_diff(a, b), 1e-12);
}

TEST(ApplyDiag, ContiguousSupportFastPaths) {
  // Low contiguous support (elementwise path) and high contiguous support
  // (run-constant path) both match the generic dense application.
  const int n = 8;
  Rng rng(6);
  for (const int base : {0, 4}) {
    const int qs[4] = {base, base + 1, base + 2, base + 3};
    std::vector<c64> d(16);
    for (auto& v : d) v = unit_phase(rng.next_double() * 6 - 3);
    d[0] = c64(1.0, 0.0);
    std::vector<c64> u(256, c64(0.0, 0.0));
    for (int m = 0; m < 16; ++m)
      u[static_cast<std::size_t>(16 * m + m)] = d[static_cast<std::size_t>(m)];
    Statevector a = random_state(n, 57);
    Statevector b = a;
    a.apply_matrix(qs, u.data());
    b.apply_diag(qs, d.data());
    EXPECT_LT(max_amp_diff(a, b), 1e-12) << "base " << base;
  }
}

TEST(ApplyDiag, EverySubPathEqualsIdentityMonomial) {
  // A diagonal is the identity-permutation monomial.  Whatever strategy
  // apply_diag picks for a support, the state must come out byte for byte
  // as apply_monomial leaves it: the same per-amplitude multiply, only the
  // traversal may differ.  Each support steers apply_diag to one sub-path.
  struct Case {
    int n;
    std::vector<int> qs;
    int unit_every;  // every unit_every-th factor is exactly 1 (0: none)
  };
  const Case cases[] = {
      {8, {3, 1}, 0},                         // k = 2 quadrant scaling
      {8, {5, 0}, 2},                         // k = 2, unit quadrants skipped
      {8, {0, 1, 2, 3}, 0},                   // contiguous low support
      {10, {2, 3, 4}, 3},                     // contiguous, lowest bit 2
      {10, {3, 5, 7}, 0},                     // lowest bit >= 3
      {12, {5, 6, 7, 8}, 2},                  // contiguous, lowest bit >= 3
      {14, {12, 4, 9, 6}, 3},                 // lowest bit >= 3, descending-ish
      {8, {0, 2, 5}, 0},                      // scattered low support
      {9, {6, 0, 3}, 3},                      // scattered, boundary wires
      {8, {3, 2, 1, 0}, 0},                   // contiguous but descending order
      {12, {1, 4, 7, 9, 11}, 2},              // scattered k = 5
      {12, {0, 2, 4, 6, 8, 10}, 0},           // wide dense: two-level gather
      {18, {0, 5, 10, 15, 16, 17}, 3},        // wide dense, high table split
      {16, {1, 3, 5, 7, 9, 11, 13}, 4},       // wide dense k = 7
      {16, {3, 5, 7, 9, 11, 13}, 0},          // wide, lowest bit >= 3
  };
  for (const Case& tc : cases) {
    const std::size_t nloc = std::size_t{1} << tc.qs.size();
    Rng rng(static_cast<std::uint64_t>(tc.n * 131 + static_cast<int>(tc.qs.size())));
    std::vector<c64> d(nloc);
    for (std::size_t m = 0; m < nloc; ++m)
      d[m] = tc.unit_every && m % static_cast<std::size_t>(tc.unit_every) == 0
                 ? c64(1.0, 0.0)
                 : unit_phase(rng.next_double() * 6 - 3);
    std::vector<int> identity(nloc);
    for (std::size_t m = 0; m < nloc; ++m) identity[m] = static_cast<int>(m);
    Statevector a = random_state(tc.n, 91);
    Statevector b = a;
    a.apply_diag(tc.qs, d.data());
    b.apply_monomial(tc.qs, identity.data(), d.data());
    EXPECT_EQ(std::memcmp(a.amplitudes().data(), b.amplitudes().data(), a.dim() * sizeof(c64)), 0)
        << "n " << tc.n << " k " << tc.qs.size() << " lowest " << tc.qs[0];
  }
  // A wide support with only a few non-unit factors (a CP cascade block)
  // leaves the dense gather for the sparse walk.
  {
    const std::vector<int> qs = {0, 2, 4, 6, 8, 10};
    std::vector<c64> d(64, c64(1.0, 0.0));
    for (const std::size_t m : {std::size_t{7}, std::size_t{21}, std::size_t{63}}) d[m] = unit_phase(0.3 * static_cast<double>(m));
    std::vector<int> identity(64);
    for (int m = 0; m < 64; ++m) identity[static_cast<std::size_t>(m)] = m;
    Statevector a = random_state(12, 92);
    Statevector b = a;
    a.apply_diag(qs, d.data());
    b.apply_monomial(qs, identity.data(), d.data());
    EXPECT_EQ(std::memcmp(a.amplitudes().data(), b.amplitudes().data(), a.dim() * sizeof(c64)), 0);
  }
}

TEST(ApplyMonomial, CxChainPermutationAndValidation) {
  const int n = 6;
  // Compose cx(0,1); cx(1,2); cx(2,3) as local permutation on {0,1,2,3}.
  const int qs[4] = {0, 1, 2, 3};
  int src[16];
  c64 phase[16];
  for (int m = 0; m < 16; ++m) phase[m] = c64(1.0, 0.0);
  // Forward-simulate each basis input through the three CXs; out[y] reads in[x].
  for (int x = 0; x < 16; ++x) {
    int y = x;
    if (y & 1) y ^= 2;
    if (y & 2) y ^= 4;
    if (y & 4) y ^= 8;
    src[y] = x;
  }
  Statevector a = random_state(n, 77);
  Statevector b = a;
  a.apply(Instruction{Gate::CX, {0, 1}, {}, {}, {}});
  a.apply(Instruction{Gate::CX, {1, 2}, {}, {}, {}});
  a.apply(Instruction{Gate::CX, {2, 3}, {}, {}, {}});
  b.apply_monomial(qs, src, phase);
  EXPECT_LT(max_amp_diff(a, b), 1e-12);
  // Non-permutation src tables are rejected.
  int bad[16];
  for (int m = 0; m < 16; ++m) bad[m] = 0;
  EXPECT_THROW(b.apply_monomial(qs, bad, phase), ValidationError);
}

// --- fusion statistics on known circuits --------------------------------------

TEST(FusionStatsKq, QftCollapsesCascades) {
  const int n = 12;
  Circuit c(n, 0);
  std::vector<int> qs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) qs[static_cast<std::size_t>(i)] = i;
  backend::append_qft(c, qs, 0, true, false);
  FusionStats stats;
  const auto ops = fuse_unitaries(c, &stats);
  EXPECT_EQ(stats.gates_in, c.size());
  // The CP cascades (n(n-1)/2 = 66 gates) collapse into a handful of wide
  // diagonal blocks; the plan is a fraction of the gate count.
  EXPECT_GT(stats.kq_blocks, 0u);
  EXPECT_GE(stats.max_block_qubits, 4);
  EXPECT_GE(stats.diag_runs, 1u);
  EXPECT_GT(stats.fused_multiq, 40u);
  EXPECT_LT(stats.ops_out, c.size() / 2);
  Statevector reference(n);
  apply_gate_by_gate(reference, c);
  Statevector fused(n);
  apply_fused(fused, ops);
  EXPECT_LT(max_amp_diff(reference, fused), 1e-12);
}

TEST(FusionStatsKq, QaoaCostLayerIsOneDiagonalSweep) {
  // One QAOA layer on a 10-wire ring: the whole rzz cost layer is diagonal
  // and collapses into a single wide block per layer; the rx mixer stays 1q.
  const int n = 10, layers = 2;
  Circuit c(n, 0);
  for (int l = 0; l < layers; ++l) {
    for (int q = 0; q < n; ++q) c.rzz(0.37 * (l + 1), q, (q + 1) % n);
    for (int q = 0; q < n; ++q) c.rx(0.21 * (l + 1), q);
  }
  FusionStats stats;
  const auto ops = fuse_unitaries(c, &stats);
  EXPECT_EQ(stats.gates_in, static_cast<std::size_t>(2 * n * layers));
  EXPECT_EQ(stats.diag_runs, static_cast<std::size_t>(layers));  // one block per cost layer
  EXPECT_EQ(stats.fused_multiq, static_cast<std::size_t>(n * layers));  // every rzz absorbed
  EXPECT_EQ(stats.max_block_qubits, n);
  EXPECT_EQ(stats.ops_out, static_cast<std::size_t>(layers * (n + 1)));  // n rx + 1 diag per layer
  Statevector reference(n);
  apply_gate_by_gate(reference, c);
  Statevector fused(n);
  apply_fused(fused, ops);
  EXPECT_LT(max_amp_diff(reference, fused), 1e-12);
}

TEST(FusionKq, ExactInverseRunsVanish) {
  // z;z and s;sdg compose to *bit-exact* identity diagonals (entries are
  // exact constants); rz(t);rz(-t) may differ by an ulp depending on the
  // build's floating-point contraction, so it is deliberately not used here.
  Circuit c(2, 0);
  c.z(0);
  c.z(0);
  c.s(1);
  c.sdg(1);
  FusionStats stats;
  const auto ops = fuse_unitaries(c, &stats);
  EXPECT_TRUE(ops.empty());
  EXPECT_EQ(stats.gates_in, 4u);
  EXPECT_EQ(stats.ops_out, 0u);
}

TEST(FusionOptionsKq, AbsurdCapsAreClamped) {
  // Absurd caps are clamped inside the pass rather than crashing the kernels.
  FusionOptions wild;
  wild.max_qubits = 99;
  wild.max_structured_qubits = 99;
  const Circuit c = random_circuit(3, 6, 60);
  Statevector reference(6);
  apply_gate_by_gate(reference, c);
  Statevector fused(6);
  FusionStats stats;
  apply_fused(fused, fuse_unitaries(c, wild, &stats));
  EXPECT_LT(max_amp_diff(reference, fused), 1e-12);
  EXPECT_LE(stats.max_block_qubits, Statevector::kMaxKernelQubits);
}

TEST(FusionKq, EngineRunCountsUnchangedByFusionWidth) {
  // Shot histograms must be identical whatever the caps, because fusion is
  // exact and the RNG stream never depends on the plan shape.
  Circuit c(5, 5);
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    const int q = static_cast<int>(rng.next_below(5));
    if (i % 3 == 0) c.h(q);
    else if (i % 3 == 1) c.cx(q, (q + 1) % 5);
    else c.cp(0.3 * i, q, (q + 2) % 5);
  }
  // The engine's trailing-measurement path with its fusion caps swapped:
  // the same seed drives the same sampler over each differently fused state.
  const auto counts_with = [&](const FusionOptions& options) {
    Statevector sv(5);
    apply_fused(sv, fuse_unitaries(c, options));
    Rng rng(4242);
    std::vector<std::pair<int, int>> measurements;
    for (int q = 0; q < 5; ++q) measurements.emplace_back(q, q);
    return counts_from_basis_histogram(sv.sample_basis(512, rng), measurements, 5);
  };
  FusionOptions narrow_caps;
  narrow_caps.max_qubits = 1;
  narrow_caps.max_structured_qubits = 1;
  const CountMap narrow = counts_with(narrow_caps);
  const CountMap wide = counts_with(FusionOptions{});
  EXPECT_EQ(narrow, wide);
  // ... and the default-caps histogram is exactly what the engine samples.
  c.measure_all();
  EXPECT_EQ(wide, Engine().run_counts(c, 512, 4242));
}

}  // namespace
}  // namespace quml::sim
