#pragma once
// Deterministic, splittable random number generation.
//
// Everything stochastic in QuML (shot sampling, annealing sweeps, SABRE tie
// breaking) draws from Xoshiro256StarStar seeded through splitmix64.  Parallel
// workers derive independent streams with `Rng::split(worker_index)`, so
// results are bit-identical regardless of the number of OpenMP threads.

#include <array>
#include <cstdint>
#include <vector>

namespace quml {

/// splitmix64 step: the recommended seeding function for xoshiro generators.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** by Blackman & Vigna: fast, 256-bit state, passes BigCrush.
class Rng {
 public:
  /// Seeds the four state words via splitmix64 so any 64-bit seed works,
  /// including 0.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  /// Next raw 64-bit draw.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits at full double precision.
  double next_double() noexcept { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform integer in [0, bound) without modulo bias (Lemire reduction).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Standard normal via Box-Muller (used by noise channels).
  double next_normal() noexcept;

  /// Derives an independent stream for a parallel worker.  Streams from
  /// distinct indices are decorrelated by hashing (seed, index) through
  /// splitmix64.
  Rng split(std::uint64_t index) const noexcept;

  /// Samples an index from a cumulative distribution (ascending, last == 1).
  /// Binary search; used by the shot sampler.
  std::size_t sample_cdf(const std::vector<double>& cdf) noexcept;

  /// The four xoshiro256** state words, for kernels that step several
  /// streams side by side in SIMD lanes (anneal/sampler.cpp).  Such a kernel
  /// must apply exactly the `next_u64` transition to reproduce this stream.
  std::array<std::uint64_t, 4> state() const noexcept { return {s_[0], s_[1], s_[2], s_[3]}; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept { return (x << k) | (x >> (64 - k)); }

  std::uint64_t s_[4];
  std::uint64_t seed_;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace quml
