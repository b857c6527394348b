#pragma once
// Simulated annealing sampler (the D-Wave Ocean `neal` substitute), plus a
// greedy-descent baseline and an exact brute-force solver for validation.
//
// What a read computes (the reference semantics).  Read r draws from an RNG
// stream split on (seed, r): n draws `next_double() < 0.5 ? -1 : +1` set its
// initial spins; then, for each beta of the schedule and each spin i in
// order, delta = IsingModel::flip_delta(spins, i) and the flip is accepted
// when delta < 0 (no draw), or else on one draw u = next_double(): u < 1/2
// for delta == 0, u < exp(-beta·delta) for delta > 0, never for a NaN delta.
// So results do not depend on the thread count or on how reads are grouped.
//
// How it runs: replica lanes, the multi-replica layout of Isakov et al.,
// "Optimised simulated annealing code for Ising spin glasses" (Comput. Phys.
// Commun. 192, 2015).  Reads run in groups of four, one read per lane of a
// 4 x double vector (GCC/Clang vector extensions: AVX2 under -march=native,
// SSE2 elsewhere); groups are OpenMP-parallel.
//   * Each spin holds one ±1.0 vector per group.  A local field is h_i plus
//     the neighbours' w·s over flat CSR arrays, summed in adjacency order;
//     w·s is exact for s = ±1, so FMA contraction cannot change delta.
//   * Each lane keeps its own xoshiro256** stream, in structure-of-arrays
//     vectors.  Every lane computes its next draw, but its state advances
//     only under the mask of lanes that draw (delta >= 0, or NaN).
//   * Acceptance is an integer compare on the raw draw: `(x >> 11) < t`,
//     with t = 2^52 for delta == 0 and t = ceil(exp(-beta·delta)·2^53)
//     uphill, is exactly `next_double() < p`.  Uphill thresholds are
//     memoized per sweep, keyed by delta; a miss makes the same std::exp
//     call the reference does.
//   * A tail group fills its spare lanes with copies of the last read and
//     drops them.
// Contract: sample sets (spins, energies, occurrences) are bit-identical to
// the reference semantics at every thread count and in every build;
// tests/test_anneal.cpp pins them by hash.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "anneal/ising.hpp"

namespace quml::anneal {

enum class Schedule { Geometric, Linear };

struct AnnealParams {
  std::int64_t num_reads = 1000;
  std::int64_t num_sweeps = 1000;
  /// Absent bounds select an automatic range from the problem's energy
  /// scales (neal's heuristic): beta_min = ln(2)/max_field — the hottest
  /// temperature still accepts the worst uphill move with probability 1/2 —
  /// and beta_max = ln(100)/min_field — the coldest accepts the smallest
  /// uphill move with probability 1/100.
  std::optional<double> beta_min;
  std::optional<double> beta_max;
  Schedule schedule = Schedule::Geometric;
  std::uint64_t seed = 42;
};

/// One distinct configuration in a sample set.
struct Sample {
  Spins spins;
  double energy = 0.0;
  std::int64_t occurrences = 0;

  /// MSB-first bitstring with spin +1 -> '0', spin -1 -> '1' (the AS_BOOL
  /// readout convention shared with the gate path).
  std::string bitstring() const;
};

/// Aggregated, energy-sorted sampling results.
class SampleSet {
 public:
  /// Takes the spins by value: producers move each read's spins in.
  void insert(Spins spins, double energy);
  /// Sorts ascending by energy and merges duplicates; called by producers.
  void finalize();

  const std::vector<Sample>& samples() const noexcept { return samples_; }
  bool empty() const noexcept { return samples_.empty(); }
  const Sample& lowest() const;
  std::int64_t total_reads() const;
  double mean_energy() const;
  /// Fraction of reads that landed on the lowest observed energy.
  double ground_fraction() const;

 private:
  std::vector<Sample> samples_;
  bool finalized_ = false;
};

/// Metropolis simulated annealer.
class SimulatedAnnealer {
 public:
  SampleSet sample(const IsingModel& model, const AnnealParams& params) const;

  /// The beta ladder actually used for a problem (exposed for tests/benches).
  static std::vector<double> beta_schedule(const IsingModel& model, const AnnealParams& params);
  /// Its first and last entries, without building the ladder.
  static std::pair<double, double> beta_bounds(const IsingModel& model, const AnnealParams& params);
};

/// Steepest-descent to a local minimum from random starts (baseline).
SampleSet greedy_descent(const IsingModel& model, std::int64_t num_reads, std::uint64_t seed);

/// Exhaustive ground-state search; n <= 24.  Returns all optimal spin
/// configurations with occurrences = 1.
SampleSet exact_ground_states(const IsingModel& model);

}  // namespace quml::anneal
