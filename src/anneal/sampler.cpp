#include "anneal/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "util/errors.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace quml::anneal {

std::string Sample::bitstring() const {
  std::string s(spins.size(), '0');
  for (std::size_t i = 0; i < spins.size(); ++i)
    if (spins[i] < 0) s[spins.size() - 1 - i] = '1';
  return s;
}

void SampleSet::insert(Spins spins, double energy) {
  samples_.push_back({std::move(spins), energy, 1});
  finalized_ = false;
}

void SampleSet::finalize() {
  std::sort(samples_.begin(), samples_.end(), [](const Sample& a, const Sample& b) {
    if (a.energy != b.energy) return a.energy < b.energy;
    return a.spins < b.spins;
  });
  std::vector<Sample> merged;
  for (auto& s : samples_) {
    if (!merged.empty() && merged.back().spins == s.spins)
      merged.back().occurrences += s.occurrences;
    else
      merged.push_back(std::move(s));
  }
  samples_ = std::move(merged);
  finalized_ = true;
}

const Sample& SampleSet::lowest() const {
  if (samples_.empty()) throw BackendError("empty sample set");
  if (!finalized_) throw BackendError("sample set not finalized");
  return samples_.front();
}

std::int64_t SampleSet::total_reads() const {
  std::int64_t total = 0;
  for (const auto& s : samples_) total += s.occurrences;
  return total;
}

double SampleSet::mean_energy() const {
  const std::int64_t total = total_reads();
  if (total == 0) return 0.0;
  double acc = 0.0;
  for (const auto& s : samples_) acc += s.energy * static_cast<double>(s.occurrences);
  return acc / static_cast<double>(total);
}

double SampleSet::ground_fraction() const {
  if (samples_.empty()) return 0.0;
  const double ground = lowest().energy;
  std::int64_t hits = 0;
  for (const auto& s : samples_)
    if (s.energy == ground) hits += s.occurrences;
  return static_cast<double>(hits) / static_cast<double>(total_reads());
}

namespace {

/// The validated beta ladder: its ends and shape, evaluated step by step.
struct BetaLadder {
  double hot = 0.0;
  double cold = 0.0;
  double steps = 1.0;
  Schedule schedule = Schedule::Geometric;

  double at(std::int64_t s) const {
    const double t = static_cast<double>(s) / steps;
    return schedule == Schedule::Geometric ? hot * std::pow(cold / hot, t) : hot + (cold - hot) * t;
  }
};

BetaLadder beta_ladder(const IsingModel& model, const AnnealParams& params) {
  if (params.num_sweeps <= 0) throw ValidationError("num_sweeps must be positive");
  const double hot = params.beta_min.value_or(std::log(2.0) / std::max(model.max_abs_field(), 1e-9));
  const double cold = params.beta_max.value_or(std::log(100.0) / std::max(model.min_nonzero_field(), 1e-9));
  if (hot <= 0.0 || cold < hot)
    throw ValidationError("invalid beta range: need 0 < beta_min <= beta_max");
  return {hot, cold, static_cast<double>(std::max<std::int64_t>(params.num_sweeps - 1, 1)),
          params.schedule};
}

}  // namespace

std::vector<double> SimulatedAnnealer::beta_schedule(const IsingModel& model,
                                                     const AnnealParams& params) {
  const BetaLadder ladder = beta_ladder(model, params);
  std::vector<double> betas(static_cast<std::size_t>(params.num_sweeps));
  for (std::int64_t s = 0; s < params.num_sweeps; ++s)
    betas[static_cast<std::size_t>(s)] = ladder.at(s);
  return betas;
}

std::pair<double, double> SimulatedAnnealer::beta_bounds(const IsingModel& model,
                                                         const AnnealParams& params) {
  const BetaLadder ladder = beta_ladder(model, params);
  return {ladder.at(0), ladder.at(params.num_sweeps - 1)};
}

namespace {

// Replica lanes (see sampler.hpp): kLanes reads anneal side by side, one
// double lane each.  With GCC/Clang vector extensions a 4 x double vector is
// one AVX2 register under -march=native and two SSE2 registers elsewhere.
constexpr std::size_t kLanes = 4;
using LaneF = double __attribute__((vector_size(kLanes * sizeof(double))));
using LaneI = std::int64_t __attribute__((vector_size(kLanes * sizeof(std::int64_t))));
using LaneU = std::uint64_t __attribute__((vector_size(kLanes * sizeof(std::uint64_t))));

/// Thresholds memoized per sweep; a sweep of a Max-Cut instance sees only a
/// handful of distinct uphill deltas.  Past the cap, misses are recomputed.
constexpr int kMemoSlots = 8;

/// `next_double() < 0.5` is exactly `(next_u64() >> 11) < 2^52`.
constexpr std::uint64_t kHalfThreshold = std::uint64_t{1} << 52;

/// The integer t with `next_double() < p` iff `(next_u64() >> 11) < t`:
/// next_double() is m·2^-53 for the 53-bit m, so the test is m < p·2^53,
/// i.e. m < ceil(p·2^53).  p = exp(-beta·delta) as the reference semantics
/// computes it; a NaN p never accepts, and neither does t = 0.
std::uint64_t uphill_threshold(double beta, double delta) {
  const double p = std::exp(-beta * delta);
  return p > 0.0 ? static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53)) : 0;
}

}  // namespace

SampleSet SimulatedAnnealer::sample(const IsingModel& model, const AnnealParams& params) const {
  if (params.num_reads <= 0) throw ValidationError("num_reads must be positive");
  const int n = model.num_spins();
  if (n == 0) throw ValidationError("empty Ising model");
  const std::vector<double> betas = beta_schedule(model, params);
  const Rng base(params.seed);
  const auto num_spins = static_cast<std::size_t>(n);

  // Neighbour lists as flat CSR arrays, in adjacency order, so each local
  // field sums its terms in the same order as IsingModel::flip_delta.
  std::vector<std::size_t> row(num_spins + 1, 0);
  std::vector<std::size_t> nbr;
  std::vector<double> weight;
  for (std::size_t i = 0; i < num_spins; ++i) {
    for (const auto& [j, w] : model.adjacency[i]) {
      nbr.push_back(static_cast<std::size_t>(j));
      weight.push_back(w);
    }
    row[i + 1] = nbr.size();
  }

  const std::int64_t num_reads = params.num_reads;
  std::vector<Spins> results(static_cast<std::size_t>(num_reads));
  std::vector<double> energies(static_cast<std::size_t>(num_reads));
  const auto lanes = static_cast<std::int64_t>(kLanes);
  const std::int64_t groups = (num_reads + lanes - 1) / lanes;

  parallel_for(0, groups, 2, [&](std::int64_t group) {
    // Lane l anneals read group*kLanes + l.  A tail group clamps its spare
    // lanes onto the last read and drops their results.
    std::int64_t reads[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l)
      reads[l] = std::min(group * lanes + static_cast<std::int64_t>(l), num_reads - 1);

    // spins[i * kLanes + l] is spin i of lane l, as ±1.0.  The initial
    // spins take each read's first n draws, one lane at a time; the lane
    // streams then continue from there.
    std::vector<double> spins(num_spins * kLanes);
    LaneU s0{}, s1{}, s2{}, s3{};
    for (std::size_t l = 0; l < kLanes; ++l) {
      Rng rng = base.split(static_cast<std::uint64_t>(reads[l]));
      for (std::size_t i = 0; i < num_spins; ++i)
        spins[i * kLanes + l] = rng.next_double() < 0.5 ? -1.0 : 1.0;
      const auto state = rng.state();
      s0[l] = state[0];
      s1[l] = state[1];
      s2[l] = state[2];
      s3[l] = state[3];
    }

    const LaneU sign_bit = LaneU{} | (std::uint64_t{1} << 63);
    double memo_delta[kMemoSlots] = {};
    std::uint64_t memo_threshold[kMemoSlots] = {};
    for (const double beta : betas) {
      int memo_size = 0;
      for (std::size_t i = 0; i < num_spins; ++i) {
        // local = h_i + sum_j w_ij s_j; w·s is exact for s = ±1, so an FMA
        // contraction gives the same sum as flip_delta's.  (h - 0.0 is h,
        // signed zeros included.)
        LaneF local = model.h[i] - LaneF{};
        for (std::size_t k = row[i]; k < row[i + 1]; ++k) {
          LaneF s{};
          std::memcpy(&s, &spins[nbr[k] * kLanes], sizeof s);
          local += weight[k] * s;
        }
        LaneF spin{};
        std::memcpy(&spin, &spins[i * kLanes], sizeof spin);
        const LaneF delta = -2.0 * spin * local;

        // Lazy Metropolis, as integer compares on the raw draw: downhill
        // moves accept without drawing; a zero-cost move accepts with
        // probability 1/2 (always accepting them would let sequential
        // sweeps drag domain walls deterministically around loops, so walls
        // chase each other forever instead of diffusing and annihilating);
        // an uphill move accepts with probability exp(-beta * delta).  A
        // NaN delta draws and never accepts: its threshold stays 0.
        const auto downhill = (LaneI)(delta < 0.0);
        const auto uphill = (LaneI)(delta > 0.0);
        LaneU threshold = (LaneU)((LaneI)(delta == 0.0)) & kHalfThreshold;
        LaneI found = LaneI{};
        for (int e = 0; e < memo_size; ++e) {
          const auto hit = (LaneI)(delta == memo_delta[e]);
          found |= hit;
          threshold |= (LaneU)hit & memo_threshold[e];
        }
        const LaneI miss = uphill & ~found;
        for (std::size_t l = 0; l < kLanes; ++l) {
          if (!miss[l]) continue;
          // An earlier lane of this same step may have memoized it already.
          int e = 0;
          while (e < memo_size && memo_delta[e] != delta[l]) ++e;
          if (e < memo_size) {
            threshold[l] = memo_threshold[e];
            continue;
          }
          threshold[l] = uphill_threshold(beta, delta[l]);
          if (memo_size < kMemoSlots) {
            memo_delta[memo_size] = delta[l];
            memo_threshold[memo_size] = threshold[l];
            ++memo_size;
          }
        }

        // One xoshiro256** step in every lane; only drawing lanes keep it.
        const LaneU draw = (LaneU)~downhill;
        const LaneU x = s1 * 5;
        const LaneU result = ((x << 7) | (x >> 57)) * 9;
        const LaneU t = s1 << 17;
        LaneU n2 = s2 ^ s0;
        LaneU n3 = s3 ^ s1;
        const LaneU n1 = s1 ^ n2;
        const LaneU n0 = s0 ^ n3;
        n2 ^= t;
        n3 = (n3 << 45) | (n3 >> 19);
        s0 = (n0 & draw) | (s0 & ~draw);
        s1 = (n1 & draw) | (s1 & ~draw);
        s2 = (n2 & draw) | (s2 & ~draw);
        s3 = (n3 & draw) | (s3 & ~draw);

        const auto below = (LaneI)((LaneI)(result >> 11) < (LaneI)threshold);
        const LaneI accept = downhill | ((LaneI)draw & below);
        LaneU bits{};
        std::memcpy(&bits, &spin, sizeof bits);
        bits ^= (LaneU)accept & sign_bit;
        std::memcpy(&spins[i * kLanes], &bits, sizeof bits);
      }
    }

    const auto live = static_cast<std::size_t>(std::min(lanes, num_reads - group * lanes));
    for (std::size_t l = 0; l < live; ++l) {
      Spins out(num_spins);
      for (std::size_t i = 0; i < num_spins; ++i)
        out[i] = spins[i * kLanes + l] < 0.0 ? std::int8_t{-1} : std::int8_t{1};
      const auto read = static_cast<std::size_t>(reads[l]);
      energies[read] = model.energy(out);
      results[read] = std::move(out);
    }
  });

  SampleSet set;
  for (std::int64_t read = 0; read < num_reads; ++read)
    set.insert(std::move(results[static_cast<std::size_t>(read)]),
               energies[static_cast<std::size_t>(read)]);
  set.finalize();
  return set;
}

SampleSet greedy_descent(const IsingModel& model, std::int64_t num_reads, std::uint64_t seed) {
  if (num_reads <= 0) throw ValidationError("num_reads must be positive");
  const int n = model.num_spins();
  const Rng base(seed);
  SampleSet set;
  for (std::int64_t read = 0; read < num_reads; ++read) {
    Rng rng = base.split(static_cast<std::uint64_t>(read));
    Spins spins(static_cast<std::size_t>(n));
    for (auto& s : spins) s = rng.next_double() < 0.5 ? std::int8_t{-1} : std::int8_t{1};
    // Steepest descent: flip the best-improving spin until local minimum.
    while (true) {
      int best = -1;
      double best_delta = -1e-12;
      for (int i = 0; i < n; ++i) {
        const double delta = model.flip_delta(spins, i);
        if (delta < best_delta) {
          best_delta = delta;
          best = i;
        }
      }
      if (best < 0) break;
      spins[static_cast<std::size_t>(best)] = static_cast<std::int8_t>(-spins[static_cast<std::size_t>(best)]);
    }
    const double energy = model.energy(spins);
    set.insert(std::move(spins), energy);
  }
  set.finalize();
  return set;
}

SampleSet exact_ground_states(const IsingModel& model) {
  const int n = model.num_spins();
  if (n <= 0 || n > 24) throw ValidationError("exact solver supports 1..24 spins");
  const std::uint64_t dim = 1ull << n;
  double best = 0.0;
  bool first = true;
  std::vector<std::uint64_t> argmin;
  Spins spins(static_cast<std::size_t>(n));
  for (std::uint64_t word = 0; word < dim; ++word) {
    for (int i = 0; i < n; ++i)
      spins[static_cast<std::size_t>(i)] = (word >> i) & 1ull ? std::int8_t{-1} : std::int8_t{1};
    const double e = model.energy(spins);
    if (first || e < best - 1e-12) {
      best = e;
      argmin.assign(1, word);
      first = false;
    } else if (std::abs(e - best) <= 1e-12) {
      argmin.push_back(word);
    }
  }
  SampleSet set;
  for (const std::uint64_t word : argmin) {
    for (int i = 0; i < n; ++i)
      spins[static_cast<std::size_t>(i)] = (word >> i) & 1ull ? std::int8_t{-1} : std::int8_t{1};
    set.insert(spins, best);
  }
  set.finalize();
  return set;
}

}  // namespace quml::anneal
