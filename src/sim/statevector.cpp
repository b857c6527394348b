#include "sim/statevector.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <system_error>

#include "sim/fusion.hpp"
#include "util/alias_table.hpp"
#include "util/errors.hpp"
#include "util/parallel.hpp"

#ifdef __unix__
#include <unistd.h>
#endif

namespace quml::sim {

namespace {
/// Below this state size the kernels run serially; OpenMP fork/join overhead
/// dominates for small registers.
constexpr std::int64_t kParallelGrain = 1 << 12;

/// Index-space chunk handed to one parallel task.  Chunks are power-of-two
/// sized so they never straddle a kernel's contiguous runs unevenly.
constexpr std::int64_t kChunkLen = 1 << 11;

/// Inserts a zero bit at position `p`: bits [p, 63] shift left by one.
inline std::uint64_t insert_zero_bit(std::uint64_t i, int p) noexcept {
  const std::uint64_t low = i & ((1ull << p) - 1);
  return ((i ^ low) << 1) | low;
}

/// Expands a compact counter to an index with zero bits at the k ascending
/// positions ps[0..k).
inline std::uint64_t expand_k(std::uint64_t i, const int* ps, int k) noexcept {
  for (int j = 0; j < k; ++j) i = insert_zero_bit(i, ps[j]);
  return i;
}

/// Runs body(lo, hi) over [0, total) in parallel chunks of kChunkLen.  Bodies
/// write disjoint ranges, so results are thread-count independent.
template <typename Body>
void parallel_chunks(std::int64_t total, Body body) {
  if (total <= 0) return;
  const std::int64_t nchunks = (total + kChunkLen - 1) / kChunkLen;
  parallel_for(0, nchunks, std::max<std::int64_t>(2, kParallelGrain / kChunkLen),
               [=](std::int64_t t) {
                 const std::int64_t lo = t * kChunkLen;
                 body(lo, std::min(total, lo + kChunkLen));
               });
}

/// A K-qubit support as ascending bit positions.
template <int K>
using Support = std::array<int, K>;

template <int K>
Support<K> sorted_support(std::span<const int> qubits) {
  Support<K> ps{};
  std::copy_n(qubits.begin(), K, ps.begin());
  std::sort(ps.begin(), ps.end());
  return ps;
}

/// Amplitude offset of local index m over `qubits` (local bit j = qubits[j]).
inline std::uint64_t local_offset(std::span<const int> qubits, std::size_t m) noexcept {
  std::uint64_t o = 0;
  for (std::size_t j = 0; j < qubits.size(); ++j)
    if (m & (std::size_t{1} << j)) o |= 1ull << qubits[j];
  return o;
}

/// Walks the dim/2^K base indices whose support bits are clear, calling
/// body(base, len) for runs of `len` consecutive bases.  Runs are 2^ps[0]
/// long, so a support whose lowest bit is <= 2 leaves runs too short to pay
/// for the run bookkeeping: with `PerBase` it walks base by base (len 1),
/// branch-free.  The pair kernels take that path; the scaling and dense
/// bodies keep the run loop, because compiled per base their FMA
/// contraction differs and results would move by an ulp.  Every pair,
/// quadrant and half-state kernel below is an instance.
template <int K, bool PerBase, typename Body>
void walk_bases(std::uint64_t dim, Support<K> ps, Body body) {
  const std::int64_t total = static_cast<std::int64_t>(dim >> K);
  if (PerBase && ps[0] <= 2) {
    parallel_chunks(total, [=](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i)
        body(expand_k(static_cast<std::uint64_t>(i), ps.data(), K), std::int64_t{1});
    });
    return;
  }
  const std::uint64_t run = 1ull << ps[0];
  parallel_chunks(total, [=](std::int64_t lo, std::int64_t hi) {
    std::int64_t i = lo;
    while (i < hi) {
      const std::uint64_t off = static_cast<std::uint64_t>(i) & (run - 1);
      const std::int64_t len = std::min<std::int64_t>(hi - i, static_cast<std::int64_t>(run - off));
      body(expand_k(static_cast<std::uint64_t>(i), ps.data(), K), len);
      i += len;
    }
  });
}

/// Multiplies the contiguous complex run d[2*start .. 2*(start+len)) by f.
inline void scale_run(double* d, std::uint64_t start, std::int64_t len, double fr,
                      double fi) noexcept {
  double* p = d + 2 * start;
  for (std::int64_t j = 0; j < 2 * len; j += 2) {
    const double re = p[j] * fr - p[j + 1] * fi;
    p[j + 1] = p[j] * fi + p[j + 1] * fr;
    p[j] = re;
  }
}

/// Multiplies every amplitude whose support bits read `setmask` by f (a half
/// state for K = 1, a quadrant for K = 2).
template <int K>
void scale_where(double* d, std::uint64_t dim, Support<K> ps, std::uint64_t setmask, c64 f) {
  const double fr = f.real(), fi = f.imag();
  walk_bases<K, false>(dim, ps, [=](std::uint64_t base, std::int64_t len) {
    scale_run(d, base | setmask, len, fr, fi);
  });
}

/// The 2x2 `u` on every amplitude pair (base | xoff, base | yoff) of a K-bit
/// support: x' = u00 x + u01 y, y' = u10 x + u11 y.
template <int K>
void pair_butterfly(double* d, std::uint64_t dim, Support<K> ps, std::uint64_t xoff,
                    std::uint64_t yoff, const Mat2& u) {
  const double u00r = u.m[0][0].real(), u00i = u.m[0][0].imag();
  const double u01r = u.m[0][1].real(), u01i = u.m[0][1].imag();
  const double u10r = u.m[1][0].real(), u10i = u.m[1][0].imag();
  const double u11r = u.m[1][1].real(), u11i = u.m[1][1].imag();
  walk_bases<K, true>(dim, ps, [=](std::uint64_t base, std::int64_t len) {
    // The offsets differ in a support bit and len <= 2^ps[0], so the two
    // streams never overlap: __restrict unlocks vectorization.
    double* __restrict x = d + 2 * (base | xoff);
    double* __restrict y = d + 2 * (base | yoff);
    for (std::int64_t j = 0; j < 2 * len; j += 2) {
      const double xr = x[j], xi = x[j + 1];
      const double yr = y[j], yi = y[j + 1];
      x[j] = u00r * xr - u00i * xi + u01r * yr - u01i * yi;
      x[j + 1] = u00r * xi + u00i * xr + u01r * yi + u01i * yr;
      y[j] = u10r * xr - u10i * xi + u11r * yr - u11i * yi;
      y[j + 1] = u10r * xi + u10i * xr + u11r * yi + u11i * yr;
    }
  });
}

/// Swaps every amplitude pair (base | xoff, base | yoff): the pair walk's
/// body for a transposition with unit phases, which moves data without
/// arithmetic.
template <int K>
void pair_exchange(double* d, std::uint64_t dim, Support<K> ps, std::uint64_t xoff,
                   std::uint64_t yoff) {
  walk_bases<K, true>(dim, ps, [=](std::uint64_t base, std::int64_t len) {
    double* __restrict x = d + 2 * (base | xoff);
    double* __restrict y = d + 2 * (base | yoff);
    for (std::int64_t j = 0; j < 2 * len; ++j) std::swap(x[j], y[j]);
  });
}

/// Rows a and b of a K-qubit support exchanged with phases (row a becomes
/// pa * row b, row b becomes pb * row a), every other row fixed: the pair
/// walk for a single transposition.  Unit phases move data without
/// arithmetic.
template <int K>
void apply_transposition(double* d, std::uint64_t dim, std::span<const int> qubits,
                         std::size_t a, std::size_t b, c64 pa, c64 pb) {
  const Support<K> ps = sorted_support<K>(qubits);
  const std::uint64_t xoff = local_offset(qubits, a), yoff = local_offset(qubits, b);
  if (pa == c64(1.0, 0.0) && pb == c64(1.0, 0.0)) {
    pair_exchange<K>(d, dim, ps, xoff, yoff);
    return;
  }
  Mat2 u{};
  u.m[0][1] = pa;
  u.m[1][0] = pb;
  pair_butterfly<K>(d, dim, ps, xoff, yoff, u);
}

/// Per-local-index amplitude offsets of a k-qubit kernel support: offset[m]
/// ORs 1<<qubits[j] for each set bit j of m.  Each entry extends the one
/// without its lowest set bit: O(2^k) with no per-bit branches, which
/// matters because the table is rebuilt per call and at k = 10 it would
/// otherwise cost more than the sweep over a 12-qubit register.
std::vector<std::uint64_t> local_offsets(std::span<const int> qubits) {
  std::vector<std::uint64_t> offs(std::size_t{1} << qubits.size(), 0);
  for (std::size_t m = 1; m < offs.size(); ++m)
    offs[m] = offs[m & (m - 1)] | (1ull << qubits[static_cast<std::size_t>(std::countr_zero(m))]);
  return offs;
}

// --- memory budget ----------------------------------------------------------

std::uint64_t default_memory_budget() {
  constexpr std::uint64_t kGiB = 1ull << 30;
  if (const char* env = std::getenv("QUML_SV_MEMORY_BUDGET_BYTES")) {
    // Strict full-string parse: the permissive strtoull predecessor accepted
    // "4GiB" as a 4-byte budget (consuming only the leading digit).  Partial
    // consumption, overflow past uint64, and non-positive values all fall
    // back to the automatic default.
    std::uint64_t v = 0;
    const char* end = env + std::strlen(env);
    const auto [p, ec] = std::from_chars(env, end, v, 10);
    if (ec == std::errc() && p == end && v > 0) return v;
  }
  std::uint64_t phys = 0;
#if defined(_SC_PHYS_PAGES) && defined(_SC_PAGE_SIZE)
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page = sysconf(_SC_PAGE_SIZE);
  if (pages > 0 && page > 0)
    phys = static_cast<std::uint64_t>(pages) * static_cast<std::uint64_t>(page);
#endif
  // 3/4 of RAM, clamped so small hosts keep the historical 1 GiB (26 qubits)
  // floor and nothing allocates beyond the 30-qubit cap's 16 GiB.
  return std::clamp<std::uint64_t>(phys / 4 * 3, kGiB, 16 * kGiB);
}

std::atomic<std::uint64_t> g_memory_budget{0};  // 0 = use default

}  // namespace

std::uint64_t Statevector::memory_budget_bytes() {
  const std::uint64_t v = g_memory_budget.load(std::memory_order_relaxed);
  return v ? v : default_memory_budget();
}

void Statevector::set_memory_budget_bytes(std::uint64_t bytes) {
  g_memory_budget.store(bytes, std::memory_order_relaxed);
}

Statevector::Statevector(int num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits < 0 || num_qubits > kMaxQubits)
    throw ValidationError("statevector supports 0.." + std::to_string(kMaxQubits) + " qubits");
  const std::uint64_t need = required_bytes(num_qubits);
  const std::uint64_t budget = memory_budget_bytes();
  if (need > budget)
    throw ValidationError("statevector of " + std::to_string(num_qubits) + " qubits needs " +
                          std::to_string(need) + " bytes of amplitudes, over the memory budget of " +
                          std::to_string(budget) +
                          " bytes (raise with Statevector::set_memory_budget_bytes or "
                          "QUML_SV_MEMORY_BUDGET_BYTES)");
  amps_.assign(1ull << num_qubits, c64(0.0, 0.0));
  amps_[0] = 1.0;
}

void Statevector::set_basis_state(std::uint64_t index) {
  if (index >= dim()) throw ValidationError("basis state index out of range");
  std::fill(amps_.begin(), amps_.end(), c64(0.0, 0.0));
  amps_[index] = 1.0;
}

void Statevector::check_qubit(int q) const {
  if (q < 0 || q >= num_qubits_)
    throw ValidationError("qubit index " + std::to_string(q) + " out of range");
}

void Statevector::apply_1q(int q, const Mat2& u) {
  check_qubit(q);
  pair_butterfly<1>(reinterpret_cast<double*>(amps_.data()), dim(), {q}, 0, 1ull << q, u);
}

void Statevector::apply_diag_1q(int q, c64 d0, c64 d1) {
  check_qubit(q);
  double* d = reinterpret_cast<double*>(amps_.data());
  if (d0 != c64(1.0, 0.0)) scale_where<1>(d, dim(), {q}, 0, d0);
  if (d1 != c64(1.0, 0.0)) scale_where<1>(d, dim(), {q}, 1ull << q, d1);
}

void Statevector::apply_1q_layer(std::span<const std::pair<int, Mat2>> gates) {
  std::uint64_t seen = 0;
  for (const auto& [q, u] : gates) {
    check_qubit(q);
    if ((seen >> q) & 1ull)
      throw ValidationError("apply_1q_layer requires pairwise-distinct qubits");
    seen |= 1ull << q;
  }

  // Disjoint 1q gates tensor freely, so two gates fuse into one 4x4 sweep
  // through the hand-unrolled k=2 apply_matrix path: the same multiply-add
  // count as two 1q sweeps but half the state traffic.  Wider grouping
  // loses — a 2^k x 2^k dense row costs O(2^k) multiply-adds per amplitude,
  // which outruns the traffic saved from k=3 up (measured on the perf-smoke
  // hosts; see bench_sweep).
  std::size_t i = 0;
  std::vector<int> qs(2);
  for (; i + 1 < gates.size(); i += 2) {
    const auto& [qa, ua] = gates[i];
    const auto& [qb, ub] = gates[i + 1];
    // kron over local bits: bit 0 is qa, bit 1 is qb (apply_matrix order).
    c64 m[16];
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < 4; ++c)
        m[r * 4 + c] = ua.m[r & 1][c & 1] * ub.m[(r >> 1) & 1][(c >> 1) & 1];
    qs[0] = qa;
    qs[1] = qb;
    apply_matrix(qs, m);
  }
  if (i < gates.size()) apply_1q(gates[i].first, gates[i].second);
}

int Statevector::check_support(std::span<const int> qubits) const {
  if (qubits.empty()) throw ValidationError("k-qubit kernel needs at least one qubit");
  if (qubits.size() > static_cast<std::size_t>(kMaxKernelQubits))
    throw ValidationError("k-qubit kernel supports at most " +
                          std::to_string(kMaxKernelQubits) + " qubits");
  std::uint64_t seen = 0;
  for (const int q : qubits) {
    check_qubit(q);
    if (seen & (1ull << q))
      throw ValidationError("k-qubit kernel operands must be distinct");
    seen |= 1ull << q;
  }
  return static_cast<int>(qubits.size());
}

void Statevector::apply_matrix(std::span<const int> qubits, const c64* u) {
  const int k = check_support(qubits);
  if (k > kMaxDenseKernelQubits)
    throw ValidationError("dense k-qubit kernel supports at most " +
                          std::to_string(kMaxDenseKernelQubits) + " qubits");
  if (k == 1) {
    Mat2 m;
    m.m[0][0] = u[0];
    m.m[0][1] = u[1];
    m.m[1][0] = u[2];
    m.m[1][1] = u[3];
    apply_1q(qubits[0], m);
    return;
  }
  double* d = reinterpret_cast<double*>(amps_.data());
  if (k == 2) {
    // Hand-unrolled fast path: four run-contiguous pointers on the pair
    // walk's bases, 16 complex MACs per amplitude quadruple.
    const std::uint64_t s0 = 1ull << qubits[0], s1 = 1ull << qubits[1];
    double ur[4][4], ui[4][4];
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < 4; ++c) {
        ur[r][c] = u[4 * r + c].real();
        ui[r][c] = u[4 * r + c].imag();
      }
    walk_bases<2, false>(dim(), sorted_support<2>(qubits), [=](std::uint64_t base,
                                                               std::int64_t len) {
      // len <= 2^min(q0, q1), so the four streams are disjoint.
      double* __restrict a0 = d + 2 * base;
      double* __restrict a1 = d + 2 * (base | s0);
      double* __restrict a2 = d + 2 * (base | s1);
      double* __restrict a3 = d + 2 * (base | s0 | s1);
      for (std::int64_t j = 0; j < 2 * len; j += 2) {
        const double x0r = a0[j], x0i = a0[j + 1];
        const double x1r = a1[j], x1i = a1[j + 1];
        const double x2r = a2[j], x2i = a2[j + 1];
        const double x3r = a3[j], x3i = a3[j + 1];
        a0[j] = ur[0][0] * x0r - ui[0][0] * x0i + ur[0][1] * x1r - ui[0][1] * x1i +
                ur[0][2] * x2r - ui[0][2] * x2i + ur[0][3] * x3r - ui[0][3] * x3i;
        a0[j + 1] = ur[0][0] * x0i + ui[0][0] * x0r + ur[0][1] * x1i + ui[0][1] * x1r +
                    ur[0][2] * x2i + ui[0][2] * x2r + ur[0][3] * x3i + ui[0][3] * x3r;
        a1[j] = ur[1][0] * x0r - ui[1][0] * x0i + ur[1][1] * x1r - ui[1][1] * x1i +
                ur[1][2] * x2r - ui[1][2] * x2i + ur[1][3] * x3r - ui[1][3] * x3i;
        a1[j + 1] = ur[1][0] * x0i + ui[1][0] * x0r + ur[1][1] * x1i + ui[1][1] * x1r +
                    ur[1][2] * x2i + ui[1][2] * x2r + ur[1][3] * x3i + ui[1][3] * x3r;
        a2[j] = ur[2][0] * x0r - ui[2][0] * x0i + ur[2][1] * x1r - ui[2][1] * x1i +
                ur[2][2] * x2r - ui[2][2] * x2i + ur[2][3] * x3r - ui[2][3] * x3i;
        a2[j + 1] = ur[2][0] * x0i + ui[2][0] * x0r + ur[2][1] * x1i + ui[2][1] * x1r +
                    ur[2][2] * x2i + ui[2][2] * x2r + ur[2][3] * x3i + ui[2][3] * x3r;
        a3[j] = ur[3][0] * x0r - ui[3][0] * x0i + ur[3][1] * x1r - ui[3][1] * x1i +
                ur[3][2] * x2r - ui[3][2] * x2i + ur[3][3] * x3r - ui[3][3] * x3i;
        a3[j + 1] = ur[3][0] * x0i + ui[3][0] * x0r + ur[3][1] * x1i + ui[3][1] * x1r +
                    ur[3][2] * x2i + ui[3][2] * x2r + ur[3][3] * x3i + ui[3][3] * x3r;
      }
    });
    return;
  }

  // General k: gather each 2^k-amplitude group, dense matvec, scatter.  The
  // matrix is unpacked once into split re/im arrays so the inner reduction
  // vectorizes; groups are visited in compact-counter order, so for a fixed
  // local index the touched addresses advance contiguously (cache-blocked
  // streaming through the state).
  int ps[kMaxKernelQubits];
  for (int j = 0; j < k; ++j) ps[j] = qubits[j];
  std::sort(ps, ps + k);
  const std::size_t nloc = std::size_t{1} << k;
  const std::vector<std::uint64_t> offs = local_offsets(qubits);
  std::vector<double> mat_r(nloc * nloc), mat_i(nloc * nloc);
  for (std::size_t e = 0; e < nloc * nloc; ++e) {
    mat_r[e] = u[e].real();
    mat_i[e] = u[e].imag();
  }
  const std::uint64_t* offp = offs.data();
  const double* mr = mat_r.data();
  const double* mi = mat_i.data();
  const int kk = k;
  const int* psp = ps;
  parallel_chunks(static_cast<std::int64_t>(dim() >> k), [=](std::int64_t lo, std::int64_t hi) {
    std::vector<double> xr(nloc), xi(nloc), yr(nloc), yi(nloc);
    for (std::int64_t i = lo; i < hi; ++i) {
      const std::uint64_t base = expand_k(static_cast<std::uint64_t>(i), psp, kk);
      for (std::size_t m = 0; m < nloc; ++m) {
        const double* p = d + 2 * (base + offp[m]);
        xr[m] = p[0];
        xi[m] = p[1];
      }
      for (std::size_t r = 0; r < nloc; ++r) {
        const double* rr = mr + r * nloc;
        const double* ri = mi + r * nloc;
        double ar = 0.0, ai = 0.0;
        for (std::size_t c = 0; c < nloc; ++c) {
          ar += rr[c] * xr[c] - ri[c] * xi[c];
          ai += rr[c] * xi[c] + ri[c] * xr[c];
        }
        yr[r] = ar;
        yi[r] = ai;
      }
      for (std::size_t m = 0; m < nloc; ++m) {
        double* p = d + 2 * (base + offp[m]);
        p[0] = yr[m];
        p[1] = yi[m];
      }
    }
  });
}

void Statevector::apply_diag(std::span<const int> qubits, const c64* dg) {
  const int k = check_support(qubits);
  if (k == 1) {
    apply_diag_1q(qubits[0], dg[0], dg[1]);
    return;
  }
  if (k == 2) {
    // Each non-unit factor scales one quadrant: CZ/CP touch dim/4
    // amplitudes, CRZ dim/2, RZZ all four quadrants.
    const Support<2> ps = sorted_support<2>(qubits);
    for (std::size_t m = 0; m < 4; ++m)
      if (dg[m] != c64(1.0, 0.0))
        scale_where<2>(reinterpret_cast<double*>(amps_.data()), dim(), ps,
                       local_offset(qubits, m), dg[m]);
    return;
  }
  const std::size_t nloc = std::size_t{1} << k;
  double* d = reinterpret_cast<double*>(amps_.data());

  int pmin = num_qubits_;
  for (const int q : qubits) pmin = std::min(pmin, q);
  // The cycle walk below runs every support whose lowest bit is >= 3 in
  // contiguous runs.  Lower supports leave it single-amplitude hops, so two
  // shapes of them get a linear sweep of their own.
  // Contiguous ascending support {p..p+k-1} — the shape cascade blocks fuse
  // into: the state is contiguous groups of 2^k amplitudes multiplied
  // elementwise by the (cache-resident) factor table.
  bool contiguous = true;
  for (int j = 0; j < k; ++j) contiguous = contiguous && qubits[j] == qubits[0] + j;
  if (pmin < 3 && contiguous) {
    const int p = qubits[0];
    std::vector<double> fr(nloc << (p + 1));
    for (std::size_t i = 0; i < (nloc << p); ++i) {
      const std::size_t m = i >> p;
      fr[2 * i] = dg[m].real();
      fr[2 * i + 1] = dg[m].imag();
    }
    const double* fp = fr.data();
    const std::size_t glen = nloc << p;  // amplitudes per table period
    parallel_chunks(static_cast<std::int64_t>(dim() >> (k + p)),
                    [=](std::int64_t lo, std::int64_t hi) {
                      for (std::int64_t g = lo; g < hi; ++g) {
                        double* __restrict a = d + 2 * (static_cast<std::uint64_t>(g) * glen);
                        const double* __restrict f = fp;
                        for (std::size_t j = 0; j < 2 * glen; j += 2) {
                          const double re = a[j] * f[j] - a[j + 1] * f[j + 1];
                          a[j + 1] = a[j] * f[j + 1] + a[j + 1] * f[j];
                          a[j] = re;
                        }
                      }
                    });
    return;
  }
  std::size_t nonunit = 0;
  for (std::size_t m = 0; m < nloc; ++m)
    if (dg[m] != c64(1.0, 0.0)) ++nonunit;
  if (pmin < 3 && k >= 6 && 2 * nonunit >= nloc) {
    // Dense table on a scattered wide support (an rzz cost layer: every
    // factor non-unit): the cycle walk would visit the whole state in
    // dim/2^k strided groups, thrashing TLB and cache.  Split the gather
    // into two lookup tables instead — local index = t_lo[i & mask] |
    // t_hi[i >> 16] — and the kernel becomes one linear sweep of the state
    // with O(1) gather per amplitude.
    const int lo_bits = std::min(num_qubits_, 16);
    const std::uint64_t lo_mask = (1ull << lo_bits) - 1;
    std::vector<std::uint32_t> t_lo(std::size_t{1} << lo_bits, 0);
    std::vector<std::uint32_t> t_hi(dim() >> lo_bits, 0);
    for (int j = 0; j < k; ++j) {
      const int q = qubits[j];
      if (q < lo_bits) {
        const std::uint64_t bit = 1ull << q;
        for (std::uint64_t x = 0; x < t_lo.size(); ++x)
          t_lo[x] |= static_cast<std::uint32_t>(((x & bit) >> q) << j);
      } else {
        const int qh = q - lo_bits;
        for (std::uint64_t y = 0; y < t_hi.size(); ++y)
          t_hi[y] |= static_cast<std::uint32_t>(((y >> qh) & 1ull) << j);
      }
    }
    const std::uint32_t* tlp = t_lo.data();
    const std::uint32_t* thp = t_hi.data();
    const int lb = lo_bits;
    parallel_chunks(static_cast<std::int64_t>(dim()), [=](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        const std::uint64_t u = static_cast<std::uint64_t>(i);
        const std::size_t m = tlp[u & lo_mask] | thp[u >> lb];
        const double fr2 = dg[m].real(), fi2 = dg[m].imag();
        double* p = d + 2 * i;
        const double re = p[0] * fr2 - p[1] * fi2;
        p[1] = p[0] * fi2 + p[1] * fr2;
        p[0] = re;
      }
    });
    return;
  }
  // Every other support is the identity permutation on the cycle walk: only
  // the non-unit factors' rows are visited, so a CP/CZ-style cascade still
  // skips the untouched fraction of the state.
  std::vector<int> identity(nloc);
  std::iota(identity.begin(), identity.end(), 0);
  cycle_walk(qubits, identity.data(), dg);
}

void Statevector::apply_monomial(std::span<const int> qubits, const int* src, const c64* phase) {
  const int k = check_support(qubits);
  const std::size_t nloc = std::size_t{1} << k;
  if (k <= 3) {
    // A single transposition, every other row a unit-phase fixed point (each
    // lone CX, CY, SWAP, CCX and CSWAP), is a 2x2 on one pair of rows: it
    // runs on the pair walk before any table is built.
    std::size_t moved[2] = {0, 0};
    int nmoved = 0;
    bool pair = true;
    for (std::size_t m = 0; m < nloc && pair; ++m) {
      if (src[m] == static_cast<int>(m)) pair = phase[m] == c64(1.0, 0.0);
      else if (nmoved < 2) moved[nmoved++] = m;
      else pair = false;
    }
    const std::size_t a = moved[0], b = moved[1];
    if (pair && nmoved == 2 && src[a] == static_cast<int>(b) && src[b] == static_cast<int>(a)) {
      double* d = reinterpret_cast<double*>(amps_.data());
      if (k == 1) apply_transposition<1>(d, dim(), qubits, a, b, phase[a], phase[b]);
      else if (k == 2) apply_transposition<2>(d, dim(), qubits, a, b, phase[a], phase[b]);
      else apply_transposition<3>(d, dim(), qubits, a, b, phase[a], phase[b]);
      return;
    }
  }
  std::vector<bool> hit(nloc, false);
  for (std::size_t m = 0; m < nloc; ++m) {
    if (src[m] < 0 || static_cast<std::size_t>(src[m]) >= nloc || hit[static_cast<std::size_t>(src[m])])
      throw ValidationError("monomial src table is not a permutation");
    hit[static_cast<std::size_t>(src[m])] = true;
  }
  cycle_walk(qubits, src, phase);
}

void Statevector::cycle_walk(std::span<const int> qubits, const int* src, const c64* phase) {
  const int k = static_cast<int>(qubits.size());
  const std::size_t nloc = std::size_t{1} << k;
  const std::vector<std::uint64_t> offs = local_offsets(qubits);
  // Decompose the permutation into cycles once; each group then walks the
  // cycles in place (one load, one multiply, one store per moved amplitude)
  // and rows that neither move nor rephase are never touched at all.
  // Rephased fixed points (all of a diagonal's rows) are kept apart as
  // compact (offset, re, im) arrays and scaled in one tight loop; longer
  // cycles are flattened as [len, m0, m1, ...].
  std::vector<std::uint64_t> fix_off;
  std::vector<double> fix_re, fix_im;
  std::vector<std::uint32_t> walk;
  {
    std::vector<bool> seen(nloc, false);
    for (std::size_t m0 = 0; m0 < nloc; ++m0) {
      if (seen[m0]) continue;
      if (static_cast<std::size_t>(src[m0]) == m0) {
        seen[m0] = true;
        if (phase[m0] != c64(1.0, 0.0)) {
          fix_off.push_back(offs[m0]);
          fix_re.push_back(phase[m0].real());
          fix_im.push_back(phase[m0].imag());
        }
        continue;
      }
      const std::size_t lenpos = walk.size();
      walk.push_back(0);
      std::size_t m = m0;
      std::uint32_t len = 0;
      do {
        seen[m] = true;
        walk.push_back(static_cast<std::uint32_t>(m));
        ++len;
        m = static_cast<std::size_t>(src[m]);
      } while (m != m0);
      walk[lenpos] = len;
    }
  }
  if (fix_off.empty() && walk.empty()) return;
  int ps[kMaxKernelQubits];
  for (int j = 0; j < k; ++j) ps[j] = qubits[j];
  std::sort(ps, ps + k);
  // Split phases for the cycles; a diagonal has none and skips the table.
  std::vector<double> phr(walk.empty() ? 0 : nloc), phi(phr.size());
  for (std::size_t m = 0; m < phr.size(); ++m) {
    phr[m] = phase[m].real();
    phi[m] = phase[m].imag();
  }
  double* d = reinterpret_cast<double*>(amps_.data());
  const std::uint64_t* offp = offs.data();
  const std::uint32_t* walkp = walk.data();
  const std::size_t walklen = walk.size();
  const std::uint64_t* fop = fix_off.data();
  const double* frp = fix_re.data();
  const double* fip = fix_im.data();
  const std::size_t nfix = fix_off.size();
  const double* phrp = phr.data();
  const double* phip = phi.data();
  const int kk = k;
  const int* psp = ps;

  if (ps[0] >= 3) {
    // Every support bit sits above bit ps[0], so amplitudes in a run of
    // 2^ps[0] consecutive indices share the same local index: walk each cycle
    // once per super-group with contiguous multiply-copy runs instead of
    // single-amplitude hops (which thrash the TLB when offsets stride far).
    // Runs are tiled at 2^12 amplitudes so the rotation scratch stays at
    // 64 KiB no matter how high the support sits (a {28,29} block on a
    // 30-qubit register would otherwise want a multi-GiB temporary).
    const int p0 = std::min(ps[0], 12);
    const std::int64_t runlen = std::int64_t{1} << p0;
    parallel_chunks(static_cast<std::int64_t>(dim() >> (k + p0)),
                    [=](std::int64_t lo, std::int64_t hi) {
                      std::vector<double> tmp(walklen ? static_cast<std::size_t>(2 * runlen) : 0);
                      for (std::int64_t sg = lo; sg < hi; ++sg) {
                        const std::uint64_t base =
                            expand_k(static_cast<std::uint64_t>(sg) << p0, psp, kk);
                        for (std::size_t t = 0; t < nfix; ++t)
                          scale_run(d, base + fop[t], runlen, frp[t], fip[t]);
                        std::size_t w = 0;
                        while (w < walklen) {
                          const std::uint32_t len = walkp[w++];
                          std::uint32_t m = walkp[w];
                          double* p = d + 2 * (base + offp[m]);
                          for (std::int64_t j = 0; j < 2 * runlen; ++j) tmp[static_cast<std::size_t>(j)] = p[j];
                          for (std::uint32_t s = 0; s + 1 < len; ++s) {
                            const std::uint32_t nm = walkp[w + s + 1];
                            const double* __restrict q = d + 2 * (base + offp[nm]);
                            double* __restrict dst = p;
                            const double fr = phrp[m], fi = phip[m];
                            for (std::int64_t j = 0; j < 2 * runlen; j += 2) {
                              dst[j] = q[j] * fr - q[j + 1] * fi;
                              dst[j + 1] = q[j] * fi + q[j + 1] * fr;
                            }
                            p = d + 2 * (base + offp[nm]);
                            m = nm;
                          }
                          const double fr = phrp[m], fi = phip[m];
                          for (std::int64_t j = 0; j < 2 * runlen; j += 2) {
                            p[j] = tmp[static_cast<std::size_t>(j)] * fr -
                                   tmp[static_cast<std::size_t>(j + 1)] * fi;
                            p[j + 1] = tmp[static_cast<std::size_t>(j)] * fi +
                                       tmp[static_cast<std::size_t>(j + 1)] * fr;
                          }
                          w += len;
                        }
                      }
                    });
    return;
  }

  parallel_chunks(static_cast<std::int64_t>(dim() >> k), [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const std::uint64_t base = expand_k(static_cast<std::uint64_t>(i), psp, kk);
      for (std::size_t t = 0; t < nfix; ++t) {
        double* p = d + 2 * (base + fop[t]);
        const double re = p[0] * frp[t] - p[1] * fip[t];
        p[1] = p[0] * fip[t] + p[1] * frp[t];
        p[0] = re;
      }
      std::size_t w = 0;
      while (w < walklen) {
        const std::uint32_t len = walkp[w++];
        std::uint32_t m = walkp[w];
        double* p = d + 2 * (base + offp[m]);
        const double t0 = p[0], t1 = p[1];
        for (std::uint32_t s = 0; s + 1 < len; ++s) {
          const std::uint32_t nm = walkp[w + s + 1];
          double* q = d + 2 * (base + offp[nm]);
          p[0] = q[0] * phrp[m] - q[1] * phip[m];
          p[1] = q[0] * phip[m] + q[1] * phrp[m];
          p = q;
          m = nm;
        }
        p[0] = t0 * phrp[m] - t1 * phip[m];
        p[1] = t0 * phip[m] + t1 * phrp[m];
        w += len;
      }
    }
  });
}

void Statevector::apply_unitaries(const Circuit& circuit) {
  if (circuit.num_qubits() > num_qubits_)
    throw ValidationError("circuit wider than statevector");
  // Run the fusion pass first so direct statevector users get the same
  // collapsed sweep count as the engine.  Fusion composes matrices exactly
  // (throws on Measure/Reset, Barrier fences), so semantics are unchanged.
  apply_fused(*this, fuse_unitaries(circuit.instructions(), num_qubits_));
}

double Statevector::norm() const {
  const c64* amps = amps_.data();
  return parallel_reduce_sum(0, static_cast<std::int64_t>(dim()), kParallelGrain,
                             [=](std::int64_t i) { return std::norm(amps[i]); });
}

std::vector<double> Statevector::probabilities() const {
  std::vector<double> probs;
  probabilities_into(probs);
  return probs;
}

void Statevector::probabilities_into(std::vector<double>& probs) const {
  probs.resize(dim());
  const c64* amps = amps_.data();
  double* out = probs.data();
  parallel_for(0, static_cast<std::int64_t>(dim()), kParallelGrain,
               [=](std::int64_t i) { out[i] = std::norm(amps[i]); });
}

double Statevector::probability_one(int q) const {
  check_qubit(q);
  const std::uint64_t mask = 1ull << q;
  const c64* amps = amps_.data();
  // Sum only the dim/2 amplitudes with bit q set.
  return parallel_reduce_sum(0, static_cast<std::int64_t>(dim() >> 1), kParallelGrain,
                             [=](std::int64_t i) {
                               return std::norm(
                                   amps[insert_zero_bit(static_cast<std::uint64_t>(i), q) | mask]);
                             });
}

double Statevector::expectation_z(int q) const { return 1.0 - 2.0 * probability_one(q); }

double Statevector::expectation_zz(int a, int b) const {
  check_qubit(a);
  check_qubit(b);
  const std::uint64_t amask = 1ull << a;
  const std::uint64_t bmask = 1ull << b;
  const c64* amps = amps_.data();
  return parallel_reduce_sum(0, static_cast<std::int64_t>(dim()), kParallelGrain,
                             [=](std::int64_t i) {
                               const std::uint64_t idx = static_cast<std::uint64_t>(i);
                               const bool same = ((idx & amask) != 0) == ((idx & bmask) != 0);
                               return (same ? 1.0 : -1.0) * std::norm(amps[idx]);
                             });
}

double Statevector::fidelity(const Statevector& other) const {
  if (dim() != other.dim()) throw ValidationError("statevector dimension mismatch");
  c64 inner(0.0, 0.0);
  // Complex reduction done in two real parts to stay OpenMP-portable.
  const c64* a = amps_.data();
  const c64* b = other.amps_.data();
  const double re = parallel_reduce_sum(
      0, static_cast<std::int64_t>(dim()), kParallelGrain,
      [=](std::int64_t i) { return (std::conj(a[i]) * b[i]).real(); });
  const double im = parallel_reduce_sum(
      0, static_cast<std::int64_t>(dim()), kParallelGrain,
      [=](std::int64_t i) { return (std::conj(a[i]) * b[i]).imag(); });
  inner = c64(re, im);
  return std::abs(inner);
}

int Statevector::measure_collapse(int q, Rng& rng) {
  // Reductions over ~2^30 squared magnitudes drift by a few ulps, so a
  // deterministic state can report p1 = 1 + 1e-16 or -1e-17; clamp instead of
  // rejecting the legitimately near-deterministic outcome.
  double p1 = probability_one(q);
  // Drift from a reduction is a few ulps; anything further out of [0, 1]
  // means the state itself is corrupt and must not be silently clamped away.
  constexpr double kDriftTol = 1e-9;
  if (!(p1 >= -kDriftTol && p1 <= 1.0 + kDriftTol))
    throw BackendError("measurement probability " + std::to_string(p1) +
                       " is outside [0, 1] beyond floating-point drift; statevector norm lost");
  p1 = std::clamp(p1, 0.0, 1.0);
  const int outcome = rng.next_double() < p1 ? 1 : 0;
  // keep_prob > 0 always: outcome 1 needs draw < p1 (so p1 > 0), outcome 0
  // needs draw >= p1 with draw < 1 (so 1 - p1 > 0).
  const double keep_prob = outcome ? p1 : 1.0 - p1;
  const double scale = 1.0 / std::sqrt(keep_prob);
  double* d = reinterpret_cast<double*>(amps_.data());
  const std::uint64_t lost = outcome ? 0 : 1ull << q;
  walk_bases<1, false>(dim(), {q}, [=](std::uint64_t base, std::int64_t len) {
    std::fill_n(d + 2 * (base | lost), 2 * len, 0.0);
  });
  if (scale != 1.0) scale_where<1>(d, dim(), {q}, lost ^ (1ull << q), c64(scale, 0.0));
  return outcome;
}

BasisHistogram Statevector::sample_basis(std::int64_t shots, Rng& rng) {
  // Build the alias table, then free the amplitudes before the shot loop:
  // sampling runs against the table's 12 bytes per amplitude instead of
  // amplitudes + table concurrently (the engine's terminal-path discipline,
  // now owned by the representation itself).
  const AliasTable table(probabilities());
  amps_.clear();
  amps_.shrink_to_fit();
  BasisHistogram hist;
  for (std::int64_t shot = 0; shot < shots; ++shot)
    ++hist[static_cast<std::uint64_t>(table.sample(rng))];
  return hist;
}

void Statevector::reset_qubit(int q, Rng& rng) {
  if (measure_collapse(q, rng) == 1) apply_1q(q, gate_matrix_1q(Gate::X, nullptr));
}

}  // namespace quml::sim
