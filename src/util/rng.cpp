#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

namespace quml {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's multiply-shift rejection method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_normal() noexcept {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

Rng Rng::split(std::uint64_t index) const noexcept {
  std::uint64_t sm = seed_ ^ (0xD1B54A32D192ED03ull * (index + 1));
  return Rng(splitmix64(sm));
}

std::size_t Rng::sample_cdf(const std::vector<double>& cdf) noexcept {
  if (cdf.empty()) return 0;
  const double u = next_double();
  auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  // A CDF accumulated in floating point can end below 1.0; a draw past the
  // drifted tail clamps to the last bucket instead of indexing out of range.
  if (it == cdf.end()) return cdf.size() - 1;
  return static_cast<std::size_t>(it - cdf.begin());
}

}  // namespace quml
