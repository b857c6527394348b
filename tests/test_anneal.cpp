// Tests for the annealing substrate: Ising/QUBO models and conversions,
// beta schedules, the Metropolis annealer (ground states, determinism,
// thread independence), greedy descent, and the exact solver.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "anneal/sampler.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "util/parallel.hpp"

namespace quml::anneal {
namespace {

IsingModel ring4() {
  IsingModel m(4);
  m.add_coupling(0, 1, 1.0);
  m.add_coupling(1, 2, 1.0);
  m.add_coupling(2, 3, 1.0);
  m.add_coupling(3, 0, 1.0);
  return m;
}

TEST(IsingModel, EnergyEvaluation) {
  const IsingModel m = ring4();
  // Alternating spins anti-align every edge: E = -4.
  EXPECT_DOUBLE_EQ(m.energy({1, -1, 1, -1}), -4.0);
  EXPECT_DOUBLE_EQ(m.energy({-1, 1, -1, 1}), -4.0);
  // Aligned spins: E = +4.
  EXPECT_DOUBLE_EQ(m.energy({1, 1, 1, 1}), 4.0);
  // One flip from aligned: two edges change sign: E = 0.
  EXPECT_DOUBLE_EQ(m.energy({-1, 1, 1, 1}), 0.0);
}

TEST(IsingModel, FieldsContribute) {
  IsingModel m(2);
  m.set_field(0, 0.5);
  m.set_field(1, -1.5);
  m.add_coupling(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(m.energy({1, 1}), 0.5 - 1.5 + 2.0);
  EXPECT_DOUBLE_EQ(m.energy({-1, 1}), -0.5 - 1.5 - 2.0);
}

TEST(IsingModel, FlipDeltaMatchesBruteForce) {
  IsingModel m(3);
  m.set_field(0, 0.3);
  m.add_coupling(0, 1, -1.2);
  m.add_coupling(1, 2, 0.7);
  Spins s{1, -1, 1};
  for (int i = 0; i < 3; ++i) {
    Spins flipped = s;
    flipped[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(-flipped[static_cast<std::size_t>(i)]);
    EXPECT_NEAR(m.flip_delta(s, i), m.energy(flipped) - m.energy(s), 1e-12);
  }
}

TEST(IsingModel, CouplingAccumulates) {
  IsingModel m(2);
  m.add_coupling(0, 1, 1.0);
  m.add_coupling(1, 0, 0.5);  // reversed order accumulates into the same term
  EXPECT_EQ(m.couplings.size(), 1u);
  EXPECT_DOUBLE_EQ(m.energy({1, 1}), 1.5);
  EXPECT_DOUBLE_EQ(m.flip_delta({1, 1}, 0), -3.0);

  // A reversed duplicate arriving after unrelated couplings still merges,
  // in the coupling list and in both spins' neighbour lists.
  IsingModel w(5);
  w.add_coupling(1, 3, 2.0);
  w.add_coupling(0, 1, 1.0);
  w.add_coupling(2, 3, 1.0);
  w.add_coupling(3, 4, 1.0);
  w.add_coupling(0, 4, 1.0);
  w.add_coupling(3, 1, -0.5);
  ASSERT_EQ(w.couplings.size(), 5u);
  EXPECT_EQ(w.couplings[0], std::make_tuple(1, 3, 1.5));
  const Spins up(5, 1);
  EXPECT_DOUBLE_EQ(w.flip_delta(up, 1), -2.0 * (1.5 + 1.0));
  EXPECT_DOUBLE_EQ(w.flip_delta(up, 3), -2.0 * (1.5 + 1.0 + 1.0));
  EXPECT_DOUBLE_EQ(w.energy(up), 5.5);
}

TEST(IsingModel, Validation) {
  IsingModel m(2);
  EXPECT_THROW(m.add_coupling(0, 0, 1.0), ValidationError);
  EXPECT_THROW(m.add_coupling(0, 5, 1.0), ValidationError);
  EXPECT_THROW(m.set_field(7, 1.0), ValidationError);
  EXPECT_THROW(m.energy({1}), ValidationError);
}

TEST(IsingModel, JsonRoundTrip) {
  IsingModel m = ring4();
  m.set_field(2, -0.5);
  const IsingModel back = IsingModel::from_json(m.to_json());
  EXPECT_EQ(back.num_spins(), 4);
  EXPECT_DOUBLE_EQ(back.energy({1, -1, 1, -1}), m.energy({1, -1, 1, -1}));
  EXPECT_DOUBLE_EQ(back.energy({1, 1, 1, 1}), m.energy({1, 1, 1, 1}));
}

TEST(QuboIsing, ConversionPreservesEnergyLandscape) {
  QuboModel qubo(3);
  qubo.add(0, 0, -1.0);
  qubo.add(1, 1, 2.0);
  qubo.add(0, 1, -3.0);
  qubo.add(1, 2, 1.5);
  double offset = 0.0;
  const IsingModel ising = IsingModel::from_qubo(qubo, &offset);
  for (int word = 0; word < 8; ++word) {
    std::vector<std::int8_t> x(3), s(3);
    for (int i = 0; i < 3; ++i) {
      x[static_cast<std::size_t>(i)] = static_cast<std::int8_t>((word >> i) & 1);
      s[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(x[static_cast<std::size_t>(i)] ? 1 : -1);
    }
    EXPECT_NEAR(qubo.energy(x), ising.energy(s) + offset, 1e-12) << "word " << word;
  }
}

TEST(QuboIsing, RoundTripThroughBothDirections) {
  IsingModel ising(3);
  ising.set_field(0, 0.4);
  ising.add_coupling(0, 2, -1.1);
  ising.add_coupling(1, 2, 0.9);
  double to_qubo_offset = 0.0, back_offset = 0.0;
  const QuboModel qubo = QuboModel::from_ising(ising, &to_qubo_offset);
  const IsingModel back = IsingModel::from_qubo(qubo, &back_offset);
  for (int word = 0; word < 8; ++word) {
    std::vector<std::int8_t> s(3);
    for (int i = 0; i < 3; ++i)
      s[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(((word >> i) & 1) ? 1 : -1);
    EXPECT_NEAR(back.energy(s) + back_offset + to_qubo_offset, ising.energy(s), 1e-12);
  }
}

TEST(Schedule, AutoRangeIsSane) {
  const IsingModel m = ring4();
  AnnealParams params;
  params.num_sweeps = 100;
  const auto betas = SimulatedAnnealer::beta_schedule(m, params);
  ASSERT_EQ(betas.size(), 100u);
  // Hot end: ln(2)/max_field = ln(2)/2 for the ring (degree 2, unit J).
  EXPECT_NEAR(betas.front(), std::log(2.0) / 2.0, 1e-12);
  EXPECT_NEAR(betas.back(), std::log(100.0) / 2.0, 1e-12);
  for (std::size_t i = 1; i < betas.size(); ++i) EXPECT_GE(betas[i], betas[i - 1]);
}

TEST(Schedule, GeometricVsLinearShape) {
  const IsingModel m = ring4();
  AnnealParams geo;
  geo.num_sweeps = 11;
  geo.beta_min = 0.1;
  geo.beta_max = 10.0;
  AnnealParams lin = geo;
  lin.schedule = Schedule::Linear;
  const auto g = SimulatedAnnealer::beta_schedule(m, geo);
  const auto l = SimulatedAnnealer::beta_schedule(m, lin);
  EXPECT_NEAR(g[5], 1.0, 1e-9);          // geometric midpoint = sqrt(0.1*10)
  EXPECT_NEAR(l[5], 5.05, 1e-9);         // linear midpoint
  EXPECT_NEAR(g.front(), l.front(), 1e-12);
  EXPECT_NEAR(g.back(), l.back(), 1e-12);
}

TEST(Schedule, BoundsAreTheLadderEnds) {
  const IsingModel m = ring4();
  for (const std::int64_t sweeps : {1, 2, 250}) {
    for (const Schedule schedule : {Schedule::Geometric, Schedule::Linear}) {
      AnnealParams params;
      params.num_sweeps = sweeps;
      params.schedule = schedule;
      params.beta_min = 0.3;
      params.beta_max = 7.1;
      const auto betas = SimulatedAnnealer::beta_schedule(m, params);
      const auto [first, last] = SimulatedAnnealer::beta_bounds(m, params);
      EXPECT_EQ(first, betas.front()) << sweeps << " sweeps";
      EXPECT_EQ(last, betas.back()) << sweeps << " sweeps";
    }
  }
}

TEST(Schedule, InvalidRangesRejected) {
  const IsingModel m = ring4();
  AnnealParams bad;
  bad.beta_min = 5.0;
  bad.beta_max = 1.0;
  EXPECT_THROW(SimulatedAnnealer::beta_schedule(m, bad), ValidationError);
  AnnealParams zero;
  zero.num_sweeps = 0;
  EXPECT_THROW(SimulatedAnnealer::beta_schedule(m, zero), ValidationError);
}

TEST(Annealer, FindsRing4GroundStates) {
  AnnealParams params;
  params.num_reads = 200;
  params.num_sweeps = 200;
  params.seed = 42;
  const SampleSet set = SimulatedAnnealer().sample(ring4(), params);
  EXPECT_DOUBLE_EQ(set.lowest().energy, -4.0);
  // Both optimal strings appear (paper: "1010" and "0101").
  bool seen_1010 = false, seen_0101 = false;
  for (const auto& s : set.samples()) {
    if (s.energy == -4.0 && s.bitstring() == "1010") seen_1010 = true;
    if (s.energy == -4.0 && s.bitstring() == "0101") seen_0101 = true;
  }
  EXPECT_TRUE(seen_1010);
  EXPECT_TRUE(seen_0101);
  EXPECT_GT(set.ground_fraction(), 0.5);
}

TEST(Annealer, DeterministicForSeed) {
  AnnealParams params;
  params.num_reads = 50;
  params.num_sweeps = 50;
  params.seed = 7;
  const SampleSet a = SimulatedAnnealer().sample(ring4(), params);
  const SampleSet b = SimulatedAnnealer().sample(ring4(), params);
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(a.samples()[i].spins, b.samples()[i].spins);
    EXPECT_EQ(a.samples()[i].occurrences, b.samples()[i].occurrences);
  }
}

// Restores the OpenMP thread cap on scope exit, so a test that pins thread
// counts does not leak its last setting into every later test.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(quml::max_threads()) {}
  ~ThreadCountGuard() { quml::set_num_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

TEST(Annealer, ThreadCountDoesNotChangeResults) {
  const ThreadCountGuard guard;
  AnnealParams params;
  params.num_reads = 61;  // not a multiple of any lane width or thread count
  params.num_sweeps = 64;
  params.seed = 13;
  quml::set_num_threads(1);
  const SampleSet serial = SimulatedAnnealer().sample(ring4(), params);
  for (const int threads : {3, 8}) {
    quml::set_num_threads(threads);
    const SampleSet parallel = SimulatedAnnealer().sample(ring4(), params);
    ASSERT_EQ(serial.samples().size(), parallel.samples().size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.samples().size(); ++i) {
      EXPECT_EQ(serial.samples()[i].spins, parallel.samples()[i].spins) << threads << " threads";
      EXPECT_EQ(serial.samples()[i].energy, parallel.samples()[i].energy) << threads << " threads";
      EXPECT_EQ(serial.samples()[i].occurrences, parallel.samples()[i].occurrences)
          << threads << " threads";
    }
  }
}

TEST(Annealer, FrustratedTriangleGroundEnergy) {
  // Antiferromagnetic triangle: cannot satisfy all edges; E_min = -1.
  IsingModel m(3);
  m.add_coupling(0, 1, 1.0);
  m.add_coupling(1, 2, 1.0);
  m.add_coupling(2, 0, 1.0);
  AnnealParams params;
  params.num_reads = 100;
  params.num_sweeps = 100;
  const SampleSet set = SimulatedAnnealer().sample(m, params);
  EXPECT_DOUBLE_EQ(set.lowest().energy, -1.0);
}

TEST(Annealer, FieldsBreakDegeneracy) {
  IsingModel m(2);
  m.set_field(0, -1.0);  // prefers s0 = +1
  m.add_coupling(0, 1, -0.5);  // ferromagnetic: s1 follows s0
  AnnealParams params;
  params.num_reads = 100;
  params.num_sweeps = 100;
  const SampleSet set = SimulatedAnnealer().sample(m, params);
  EXPECT_EQ(set.lowest().spins, (Spins{1, 1}));
  EXPECT_DOUBLE_EQ(set.lowest().energy, -1.5);
}

TEST(Annealer, MoreSweepsNeverHurtOnAverage) {
  // EXP-ANNEAL shape: ground fraction grows (weakly) with sweeps.
  IsingModel m(8);
  for (int i = 0; i < 8; ++i) m.add_coupling(i, (i + 1) % 8, 1.0);
  AnnealParams quick;
  quick.num_reads = 200;
  quick.num_sweeps = 1;
  quick.seed = 3;
  AnnealParams thorough = quick;
  thorough.num_sweeps = 200;
  const double quick_fraction = SimulatedAnnealer().sample(m, quick).ground_fraction();
  const double thorough_fraction = SimulatedAnnealer().sample(m, thorough).ground_fraction();
  EXPECT_GT(thorough_fraction, quick_fraction);
  EXPECT_GT(thorough_fraction, 0.9);
}

TEST(Annealer, ParameterValidation) {
  AnnealParams params;
  params.num_reads = 0;
  EXPECT_THROW(SimulatedAnnealer().sample(ring4(), params), ValidationError);
  EXPECT_THROW(SimulatedAnnealer().sample(IsingModel(0), AnnealParams{}), ValidationError);
}

TEST(SampleSet, AggregationAndStats) {
  SampleSet set;
  set.insert({1, -1}, -1.0);
  set.insert({1, -1}, -1.0);
  set.insert({-1, 1}, -1.0);
  set.insert({1, 1}, 3.0);
  set.finalize();
  EXPECT_EQ(set.samples().size(), 3u);
  EXPECT_EQ(set.total_reads(), 4);
  EXPECT_DOUBLE_EQ(set.lowest().energy, -1.0);
  // Duplicates merged: the {1,-1} configuration appears once with 2 reads.
  for (const auto& s : set.samples()) {
    if (s.spins == Spins{1, -1}) {
      EXPECT_EQ(s.occurrences, 2);
    }
  }
  EXPECT_DOUBLE_EQ(set.mean_energy(), (-1.0 * 3 + 3.0) / 4.0);
  EXPECT_DOUBLE_EQ(set.ground_fraction(), 0.75);
}

TEST(SampleSet, BitstringConvention) {
  Sample s;
  s.spins = {1, -1, 1, -1};  // spin +1 -> '0', rendered MSB-first
  EXPECT_EQ(s.bitstring(), "1010");
  s.spins = {-1, 1, -1, 1};
  EXPECT_EQ(s.bitstring(), "0101");
}

TEST(GreedyDescent, ReachesLocalMinimum) {
  const SampleSet set = greedy_descent(ring4(), 50, 21);
  // Every edge-satisfiable instance: greedy on the 4-ring always reaches -4
  // or a 0-energy local minimum; the best read must be the ground state.
  EXPECT_DOUBLE_EQ(set.lowest().energy, -4.0);
}

TEST(ExactSolver, EnumeratesAllGroundStates) {
  const SampleSet set = exact_ground_states(ring4());
  ASSERT_EQ(set.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(set.lowest().energy, -4.0);
  EXPECT_EQ(set.samples()[0].bitstring(), "0101");
  EXPECT_EQ(set.samples()[1].bitstring(), "1010");
}

TEST(ExactSolver, MatchesAnnealerOnRandomInstance) {
  IsingModel m(10);
  Rng rng(77);
  for (int i = 0; i < 10; ++i)
    for (int j = i + 1; j < 10; ++j)
      if (rng.next_double() < 0.4)
        m.add_coupling(i, j, rng.next_double() * 2.0 - 1.0);
  for (int i = 0; i < 10; ++i) m.set_field(i, rng.next_double() - 0.5);
  const SampleSet exact = exact_ground_states(m);
  AnnealParams params;
  params.num_reads = 300;
  params.num_sweeps = 300;
  const SampleSet annealed = SimulatedAnnealer().sample(m, params);
  EXPECT_NEAR(annealed.lowest().energy, exact.lowest().energy, 1e-9);
}

TEST(ExactSolver, RejectsOversizedInstances) {
  EXPECT_THROW(exact_ground_states(IsingModel(25)), ValidationError);
}

// ---------------------------------------------------------------------------
// Golden pins.  Each case hashes a whole SampleSet (every sample's spins,
// energy bit pattern and occurrences, in the set's order) and compares it
// with the hash the scalar one-read-at-a-time Metropolis loop produced, so a
// kernel rewrite must reproduce every read bit for bit, not only its
// statistics.  The hashes assume glibc's libm (std::exp / std::pow feed the
// acceptance thresholds and the beta ladder).  ctest runs this suite twice:
// once at the default thread count and once at OMP_NUM_THREADS=3, which
// splits the reads unevenly across threads.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::uint64_t sample_set_hash(const SampleSet& set) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const Sample& s : set.samples()) {
    hash = fnv1a(hash, s.spins.data(), s.spins.size());
    std::uint64_t energy_bits = 0;
    std::memcpy(&energy_bits, &s.energy, sizeof energy_bits);
    hash = fnv1a(hash, &energy_bits, sizeof energy_bits);
    hash = fnv1a(hash, &s.occurrences, sizeof s.occurrences);
  }
  return hash;
}

IsingModel from_edges(int n, const std::vector<std::pair<int, int>>& edges) {
  IsingModel m(n);
  for (const auto& [i, j] : edges) m.add_coupling(i, j, 1.0);
  return m;
}

/// Max-Cut Ising form (J = edge weight 1, h = 0) of a Möbius ladder: a ring
/// plus its n/2 long diagonals, cubic for even n.
IsingModel mobius_ladder(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  for (int i = 0; i < n / 2; ++i) edges.emplace_back(i, i + n / 2);
  return from_edges(n, edges);
}

/// Prism over an (n/2)-ring: two rings joined by spokes, cubic.
IsingModel prism(int n) {
  const int k = n / 2;
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < k; ++i) {
    edges.emplace_back(i, (i + 1) % k);
    edges.emplace_back(k + i, k + (i + 1) % k);
    edges.emplace_back(i, k + i);
  }
  return from_edges(n, edges);
}

/// The Petersen graph: outer 5-ring, inner pentagram, spokes; cubic, n = 10.
IsingModel petersen() {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 5; ++i) {
    edges.emplace_back(i, (i + 1) % 5);
    edges.emplace_back(5 + i, 5 + (i + 2) % 5);
    edges.emplace_back(i, 5 + i);
  }
  return from_edges(10, edges);
}

IsingModel ring(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  return from_edges(n, edges);
}

/// Non-dyadic couplings and fields: nearly every flip has its own delta, so
/// a threshold memo keyed by delta mostly misses.
IsingModel random_with_fields(int n, std::uint64_t seed) {
  IsingModel m(n);
  Rng rng(seed);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.next_double() < 0.4) m.add_coupling(i, j, rng.next_double() * 2.0 - 1.0);
  for (int i = 0; i < n; ++i) m.set_field(i, rng.next_double() - 0.5);
  return m;
}

IsingModel single_spin(double field) {
  IsingModel m(1);
  m.set_field(0, field);
  return m;
}

struct PinCase {
  std::string name;
  IsingModel model;
  AnnealParams params;
  std::uint64_t hash;
};

AnnealParams pin_params(std::int64_t reads, std::int64_t sweeps, std::uint64_t seed) {
  AnnealParams p;
  p.num_reads = reads;
  p.num_sweeps = sweeps;
  p.seed = seed;
  return p;
}

AnnealParams with_betas(AnnealParams p, double beta_min, double beta_max, Schedule schedule) {
  p.beta_min = beta_min;
  p.beta_max = beta_max;
  p.schedule = schedule;
  return p;
}

std::vector<PinCase> pin_cases() {
  return {
      {"cubic8", mobius_ladder(8), pin_params(1000, 100, 11), 0x831b550bb8ca4be1ull},
      {"cubic10", petersen(), pin_params(61, 250, 12), 0xa57b4240d7e39d7cull},
      {"cubic12", prism(12), pin_params(1000, 60, 13), 0x8e5288f486f9ebd0ull},
      {"cubic16", mobius_ladder(16), pin_params(3, 500, 14), 0xb0ea8bf542e6dce6ull},
      {"cubic12_one_read", prism(12), pin_params(1, 250, 15), 0x1f6c95f339e3a73aull},
      {"cubic8_one_sweep", mobius_ladder(8), pin_params(61, 1, 16), 0xbd49ccbdda108988ull},
      {"cubic12_geometric_explicit",
       prism(12), with_betas(pin_params(3, 300, 17), 0.1, 5.0, Schedule::Geometric), 0xe17707e1240512f8ull},
      {"random10_fields", random_with_fields(10, 2024), pin_params(61, 200, 18), 0xecf6d0b154a04d82ull},
      {"random12_fields_one_read", random_with_fields(12, 7), pin_params(1, 300, 19), 0x47089e44551653daull},
      {"random10_linear_explicit",
       random_with_fields(10, 99), with_betas(pin_params(61, 120, 20), 0.05, 4.0, Schedule::Linear),
       0x36b636a390ef325aull},
      {"ring8", ring(8), pin_params(61, 100, 21), 0xc517d234c33b9dbcull},
      {"ring9_linear", ring(9), with_betas(pin_params(1000, 40, 22), 0.2, 3.0, Schedule::Linear),
       0x58c4a8b3b8906075ull},
      {"single_field", single_spin(0.75), pin_params(1000, 10, 23), 0x9e00f6171c8676aaull},
      {"single_free", single_spin(0.0), with_betas(pin_params(3, 50, 24), 0.5, 2.0, Schedule::Linear),
       0x4c261dbfe7c8e796ull},
  };
}

void PrintTo(const PinCase& c, std::ostream* os) { *os << c.name; }

class AnnealPin : public ::testing::TestWithParam<PinCase> {};

TEST_P(AnnealPin, MatchesRecordedHash) {
  const PinCase& c = GetParam();
  const SampleSet set = SimulatedAnnealer().sample(c.model, c.params);
  ASSERT_EQ(set.total_reads(), c.params.num_reads);
  const std::uint64_t hash = sample_set_hash(set);
  EXPECT_EQ(hash, c.hash) << c.name << " hashed to 0x" << std::hex << hash;
}

INSTANTIATE_TEST_SUITE_P(SampleSets, AnnealPin, ::testing::ValuesIn(pin_cases()),
                         [](const ::testing::TestParamInfo<PinCase>& info) { return info.param.name; });

}  // namespace
}  // namespace quml::anneal
