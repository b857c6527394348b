#pragma once
// Thin OpenMP wrappers so compute kernels read as intent, not pragmas.
//
// Grain control: parallelism only pays off for large index spaces (state
// vectors, annealing reads), so callers pass a `grain` below which the loop
// runs serially.  Results never depend on the thread count; any per-iteration
// randomness must come from a stream split on the iteration index.
//
// Builds without OpenMP fall back to serial loops with identical semantics
// (the grain threshold is still honoured so behaviour-sensitive callers see
// the same code path selection either way).

#include <cstdint>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace quml {

/// Maximum number of threads the runtime will use (1 in serial builds).
inline int max_threads() noexcept {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Number of logical processors visible to the runtime (1 in serial builds).
inline int num_procs() noexcept {
#ifdef _OPENMP
  return omp_get_num_procs();
#else
  return 1;
#endif
}

/// Caps the calling thread's team for subsequent parallel regions (no-op when
/// serial).  Only the ExecutionService worker loop calls it in src/: it owns
/// the thread budget.
inline void set_num_threads(int n) noexcept {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Parallel for over [begin, end) with a serial fallback under `grain`.
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain, Body&& body) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  if (n < grain) {
    for (std::int64_t i = begin; i < end; ++i) body(i);
    return;
  }
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
  for (std::int64_t i = begin; i < end; ++i) body(i);
#else
  for (std::int64_t i = begin; i < end; ++i) body(i);
#endif
}

/// Parallel sum-reduction over [begin, end).
template <typename Body>
double parallel_reduce_sum(std::int64_t begin, std::int64_t end, std::int64_t grain, Body&& body) {
  const std::int64_t n = end - begin;
  double acc = 0.0;
  if (n <= 0) return acc;
  if (n < grain) {
    for (std::int64_t i = begin; i < end; ++i) acc += body(i);
    return acc;
  }
#ifdef _OPENMP
#pragma omp parallel for schedule(static) reduction(+ : acc)
  for (std::int64_t i = begin; i < end; ++i) acc += body(i);
#else
  for (std::int64_t i = begin; i < end; ++i) acc += body(i);
#endif
  return acc;
}

}  // namespace quml
