#include "sim/mps.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/errors.hpp"

namespace quml::sim {

namespace {

/// Full thin SVD a = U diag(s) Vh with s descending, rank = min(m, n).
/// One-sided complex Jacobi: column pairs of the (taller-than-wide) factor
/// are orthogonalized by exact 2x2 Hermitian eigen-rotations of the Gram
/// matrix until every off-diagonal inner product is negligible.  No external
/// linear algebra; relative accuracy ~1e-14, far inside the engine's 1e-10
/// cross-representation tolerance.
struct Svd {
  std::vector<c64> u;       ///< m x rank, row-major
  std::vector<double> s;    ///< rank, descending
  std::vector<c64> vh;      ///< rank x n, row-major
  int rank = 0;
};

/// Jacobi core for m >= n (every column can carry an independent direction).
Svd jacobi_svd_tall(const c64* a, int m, int n) {
  // Work column-major: a rotation touches two contiguous columns.
  std::vector<c64> g(static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      g[static_cast<std::size_t>(j) * m + i] = a[static_cast<std::size_t>(i) * n + j];
  std::vector<c64> v(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) v[static_cast<std::size_t>(j) * n + j] = c64(1.0, 0.0);

  // Convergence threshold on |<g_p, g_q>|^2 relative to |g_p|^2 |g_q|^2.
  constexpr double kTol2 = 1e-28;
  constexpr int kMaxSweeps = 60;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool rotated = false;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        c64* gp = &g[static_cast<std::size_t>(p) * m];
        c64* gq = &g[static_cast<std::size_t>(q) * m];
        double app = 0.0, aqq = 0.0;
        c64 apq(0.0, 0.0);
        for (int i = 0; i < m; ++i) {
          app += std::norm(gp[i]);
          aqq += std::norm(gq[i]);
          apq += std::conj(gp[i]) * gq[i];
        }
        if (std::norm(apq) <= kTol2 * app * aqq) continue;
        rotated = true;
        // Unitary W whose columns are the eigenvectors of the 2x2 Hermitian
        // Gram block [[app, apq], [conj(apq), aqq]]; G[:, {p,q}] <- G W makes
        // the pair orthogonal with the larger new norm landing on column p.
        // The eigenvector is (apq, beta) / nrm with beta = lam - app =
        // root - dif >= 0 for the larger eigenvalue lam = mid + root.  It is
        // formed from r = beta / |apq|: for app > aqq, root - dif cancels
        // and keeps only ~sqrt(eps) of the angle (the sweeps then stall with
        // the columns orthogonal to ~1e-8), and squaring |apq| underflows
        // once a numerically-zero column has been rotated down to ~1e-160,
        // which makes W non-unitary.
        const double dif = 0.5 * (app - aqq);
        const double mag = std::abs(apq);
        const double root = std::hypot(dif, mag);
        const double r = dif > 0.0 ? mag / (root + dif) : (root - dif) / mag;
        const double h = std::hypot(1.0, r);
        const c64 w00 = apq / mag / h;  // W(0,0); W(1,1) = conj(w00)
        const double w10 = r / h;       // W(1,0), real; W(0,1) = -w10
        for (int i = 0; i < m; ++i) {
          const c64 x = gp[i], y = gq[i];
          gp[i] = x * w00 + y * w10;
          gq[i] = y * std::conj(w00) - x * w10;
        }
        c64* vp = &v[static_cast<std::size_t>(p) * n];
        c64* vq = &v[static_cast<std::size_t>(q) * n];
        for (int i = 0; i < n; ++i) {
          const c64 x = vp[i], y = vq[i];
          vp[i] = x * w00 + y * w10;
          vq[i] = y * std::conj(w00) - x * w10;
        }
      }
    }
    if (!rotated) break;
  }

  std::vector<double> sig(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    double s2 = 0.0;
    for (int i = 0; i < m; ++i) s2 += std::norm(g[static_cast<std::size_t>(j) * m + i]);
    sig[static_cast<std::size_t>(j)] = std::sqrt(s2);
  }
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
    return sig[static_cast<std::size_t>(x)] > sig[static_cast<std::size_t>(y)];
  });

  Svd out;
  out.rank = n;
  out.s.resize(static_cast<std::size_t>(n));
  out.u.assign(static_cast<std::size_t>(m) * n, c64{});
  out.vh.assign(static_cast<std::size_t>(n) * n, c64{});
  for (int j = 0; j < n; ++j) {
    const int c = order[static_cast<std::size_t>(j)];
    const double s = sig[static_cast<std::size_t>(c)];
    out.s[static_cast<std::size_t>(j)] = s;
    if (s > 0.0) {
      const double inv = 1.0 / s;
      for (int i = 0; i < m; ++i)
        out.u[static_cast<std::size_t>(i) * n + j] = g[static_cast<std::size_t>(c) * m + i] * inv;
    }
    for (int r = 0; r < n; ++r)
      out.vh[static_cast<std::size_t>(j) * n + r] =
          std::conj(v[static_cast<std::size_t>(c) * n + r]);
  }
  return out;
}

Svd jacobi_svd(const c64* a, int m, int n) {
  if (m >= n) return jacobi_svd_tall(a, m, n);
  // Wide matrix: factor the conjugate transpose and swap the factors,
  // A = (A^H)^H = (U1 S V1h)^H = V1h^H S U1^H.
  std::vector<c64> ah(static_cast<std::size_t>(n) * static_cast<std::size_t>(m));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < m; ++j)
      ah[static_cast<std::size_t>(i) * m + j] = std::conj(a[static_cast<std::size_t>(j) * n + i]);
  const Svd t = jacobi_svd_tall(ah.data(), n, m);  // u: n x m, vh: m x m
  Svd out;
  out.rank = m;
  out.s = t.s;
  out.u.assign(static_cast<std::size_t>(m) * m, c64{});
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < m; ++j)
      out.u[static_cast<std::size_t>(i) * m + j] = std::conj(t.vh[static_cast<std::size_t>(j) * m + i]);
  out.vh.assign(static_cast<std::size_t>(m) * n, c64{});
  for (int j = 0; j < m; ++j)
    for (int c = 0; c < n; ++c)
      out.vh[static_cast<std::size_t>(j) * n + c] = std::conj(t.u[static_cast<std::size_t>(c) * m + j]);
  return out;
}

/// Truncated split of a rows x cols matrix per the MPS policy: drop singular
/// values below cutoff * sigma_max (exact zeros always go — a zero column
/// would break the canonical isometry), cap the rank at max_bond_dim, rescale
/// the kept spectrum so the state's norm is preserved, and account the
/// discarded squared weight.
struct SplitResult {
  int rank = 0;
  std::vector<c64> u;      ///< rows x rank
  std::vector<double> s;   ///< rank
  std::vector<c64> vh;     ///< rank x cols
};

SplitResult split_truncate(const std::vector<c64>& m, int rows, int cols,
                           const MpsConfig& config, double& truncation_weight) {
  const Svd svd = jacobi_svd(m.data(), rows, cols);
  const int full = svd.rank;
  double total = 0.0;
  for (int j = 0; j < full; ++j) total += svd.s[static_cast<std::size_t>(j)] * svd.s[static_cast<std::size_t>(j)];
  const double floor = config.truncation_cutoff * (full > 0 ? svd.s[0] : 0.0);
  int rank = 0;
  double kept = 0.0;
  for (int j = 0; j < full && j < config.max_bond_dim; ++j) {
    const double s = svd.s[static_cast<std::size_t>(j)];
    if (s <= floor && j > 0) break;  // descending: the tail is all below the floor
    if (s <= 0.0 && j > 0) break;
    ++rank;
    kept += s * s;
  }
  if (rank < 1) rank = 1;
  truncation_weight += std::max(0.0, total - kept);
  const double scale = (kept > 0.0 && total > kept) ? std::sqrt(total / kept) : 1.0;

  SplitResult out;
  out.rank = rank;
  out.s.resize(static_cast<std::size_t>(rank));
  out.u.assign(static_cast<std::size_t>(rows) * rank, c64{});
  out.vh.assign(static_cast<std::size_t>(rank) * cols, c64{});
  for (int j = 0; j < rank; ++j) {
    out.s[static_cast<std::size_t>(j)] = svd.s[static_cast<std::size_t>(j)] * scale;
    for (int i = 0; i < rows; ++i)
      out.u[static_cast<std::size_t>(i) * rank + j] = svd.u[static_cast<std::size_t>(i) * full + j];
    for (int c = 0; c < cols; ++c)
      out.vh[static_cast<std::size_t>(j) * cols + c] = svd.vh[static_cast<std::size_t>(j) * cols + c];
  }
  return out;
}

}  // namespace

Mps::Mps(int num_qubits, MpsConfig config) : num_qubits_(num_qubits), config_(config) {
  if (num_qubits < 1 || num_qubits > kMaxQubits)
    throw ValidationError("mps register width " + std::to_string(num_qubits) +
                          " outside [1, " + std::to_string(kMaxQubits) + "]");
  if (config_.max_bond_dim < 1)
    throw ValidationError("mps max_bond_dim must be positive");
  if (!(config_.truncation_cutoff >= 0.0) || config_.truncation_cutoff >= 1.0)
    throw ValidationError("mps truncation_cutoff must be in [0, 1)");
  t_.resize(static_cast<std::size_t>(num_qubits));
  for (Tensor& t : t_) {
    t.dl = t.dr = 1;
    t.a = {c64(1.0, 0.0), c64(0.0, 0.0)};  // |0>
  }
  center_ = 0;
}

void Mps::check_qubit(int q) const {
  if (q < 0 || q >= num_qubits_)
    throw ValidationError("qubit index " + std::to_string(q) + " out of range for " +
                          std::to_string(num_qubits_) + " qubits");
}

int Mps::bond_dimension() const noexcept {
  int d = 1;
  for (const Tensor& t : t_) d = std::max(d, t.dr);
  return d;
}

void Mps::apply_1q(int q, const Mat2& u) {
  check_qubit(q);
  Tensor& t = t_[static_cast<std::size_t>(q)];
  const int dr = t.dr;
  for (int l = 0; l < t.dl; ++l) {
    c64* r0 = &t.a[static_cast<std::size_t>(l * 2 + 0) * dr];
    c64* r1 = &t.a[static_cast<std::size_t>(l * 2 + 1) * dr];
    for (int r = 0; r < dr; ++r) {
      const c64 a0 = r0[r], a1 = r1[r];
      r0[r] = u.m[0][0] * a0 + u.m[0][1] * a1;
      r1[r] = u.m[1][0] * a0 + u.m[1][1] * a1;
    }
  }
}

void Mps::apply_diag_1q(int q, c64 d0, c64 d1) {
  check_qubit(q);
  Tensor& t = t_[static_cast<std::size_t>(q)];
  const c64 one(1.0, 0.0);
  const int dr = t.dr;
  for (int l = 0; l < t.dl; ++l) {
    if (d0 != one) {
      c64* row = &t.a[static_cast<std::size_t>(l * 2 + 0) * dr];
      for (int r = 0; r < dr; ++r) row[r] *= d0;
    }
    if (d1 != one) {
      c64* row = &t.a[static_cast<std::size_t>(l * 2 + 1) * dr];
      for (int r = 0; r < dr; ++r) row[r] *= d1;
    }
  }
}

void Mps::apply_matrix(std::span<const int> qubits, const c64* u) {
  const int k = static_cast<int>(qubits.size());
  if (k < 1) throw ValidationError("empty qubit support");
  if (k > kMaxKernelQubits)
    throw ValidationError("mps kernel support " + std::to_string(k) + " exceeds cap " +
                          std::to_string(kMaxKernelQubits));
  for (const int q : qubits) check_qubit(q);
  for (int i = 0; i < k; ++i)
    for (int j = i + 1; j < k; ++j)
      if (qubits[static_cast<std::size_t>(i)] == qubits[static_cast<std::size_t>(j)])
        throw ValidationError("duplicate qubit in kernel support");

  if (k == 1) {
    Mat2 m;
    m.m[0][0] = u[0]; m.m[0][1] = u[1];
    m.m[1][0] = u[2]; m.m[1][1] = u[3];
    apply_1q(qubits[0], m);
    return;
  }

  // Sort the support and permute the matrix to match: gate tables use local
  // bit j = qubits[j], routing wants ascending sites.
  std::vector<int> qs(qubits.begin(), qubits.end());
  std::sort(qs.begin(), qs.end());
  std::vector<int> rank(static_cast<std::size_t>(k));
  bool sorted = true;
  for (int j = 0; j < k; ++j) {
    rank[static_cast<std::size_t>(j)] = static_cast<int>(
        std::lower_bound(qs.begin(), qs.end(), qubits[static_cast<std::size_t>(j)]) - qs.begin());
    if (rank[static_cast<std::size_t>(j)] != j) sorted = false;
  }
  const unsigned dim = 1u << k;
  std::vector<c64> permuted;
  const c64* table = u;
  if (!sorted) {
    std::vector<unsigned> orig(dim);
    for (unsigned ls = 0; ls < dim; ++ls) {
      unsigned lo = 0;
      for (int j = 0; j < k; ++j)
        if ((ls >> rank[static_cast<std::size_t>(j)]) & 1u) lo |= 1u << j;
      orig[ls] = lo;
    }
    permuted.resize(static_cast<std::size_t>(dim) * dim);
    for (unsigned r = 0; r < dim; ++r)
      for (unsigned c = 0; c < dim; ++c)
        permuted[static_cast<std::size_t>(r) * dim + c] =
            u[static_cast<std::size_t>(orig[r]) * dim + orig[c]];
    table = permuted.data();
  }

  // Route the sorted support into the contiguous window anchored at its
  // leftmost site (adjacent swaps, undone afterwards).  Operands are moved
  // left-to-right, so each move never crosses a not-yet-moved operand.
  const int base = qs[0];
  std::vector<int> swaps;
  for (int j = 1; j < k; ++j)
    for (int s = qs[static_cast<std::size_t>(j)] - 1; s >= base + j; --s) {
      swap_adjacent(s);
      swaps.push_back(s);
    }
  apply_window(base, k, table);
  for (auto it = swaps.rbegin(); it != swaps.rend(); ++it) swap_adjacent(*it);
}

void Mps::apply_diag(std::span<const int> qubits, const c64* d) {
  const int k = static_cast<int>(qubits.size());
  if (k == 1) {
    check_qubit(qubits[0]);
    apply_diag_1q(qubits[0], d[0], d[1]);
    return;
  }
  if (k < 1 || k > kMaxKernelQubits)
    throw ValidationError("mps diagonal support out of range");
  const unsigned dim = 1u << k;
  std::vector<c64> dense(static_cast<std::size_t>(dim) * dim, c64{});
  for (unsigned m = 0; m < dim; ++m) dense[static_cast<std::size_t>(m) * dim + m] = d[m];
  apply_matrix(qubits, dense.data());
}

void Mps::apply_monomial(std::span<const int> qubits, const int* src, const c64* phase) {
  const int k = static_cast<int>(qubits.size());
  if (k < 1 || k > kMaxKernelQubits)
    throw ValidationError("mps monomial support out of range");
  const unsigned dim = 1u << k;
  std::vector<c64> dense(static_cast<std::size_t>(dim) * dim, c64{});
  // Row m reads the amplitude at local index src[m] scaled by phase[m].
  for (unsigned m = 0; m < dim; ++m)
    dense[static_cast<std::size_t>(m) * dim + static_cast<unsigned>(src[m])] = phase[m];
  apply_matrix(qubits, dense.data());
}

void Mps::shift_center_right() {
  Tensor& tc = t_[static_cast<std::size_t>(center_)];
  const int rows = tc.dl * 2;
  const int cols = tc.dr;
  const SplitResult sp = split_truncate(tc.a, rows, cols, config_, truncation_weight_);
  tc.dr = sp.rank;
  tc.a = sp.u;  // (dl, 2, rank), left-canonical
  note_bond(sp.rank);
  Tensor& tn = t_[static_cast<std::size_t>(center_) + 1];
  std::vector<c64> na(static_cast<std::size_t>(sp.rank) * 2 * tn.dr, c64{});
  for (int a2 = 0; a2 < sp.rank; ++a2)
    for (int b = 0; b < cols; ++b) {
      const c64 carry = sp.s[static_cast<std::size_t>(a2)] *
                        sp.vh[static_cast<std::size_t>(a2) * cols + b];
      if (carry == c64{}) continue;
      for (int s = 0; s < 2; ++s) {
        const c64* srcrow = &tn.a[static_cast<std::size_t>(b * 2 + s) * tn.dr];
        c64* dst = &na[static_cast<std::size_t>(a2 * 2 + s) * tn.dr];
        for (int r = 0; r < tn.dr; ++r) dst[r] += carry * srcrow[r];
      }
    }
  tn.dl = sp.rank;
  tn.a = std::move(na);
  ++center_;
}

void Mps::shift_center_left() {
  Tensor& tc = t_[static_cast<std::size_t>(center_)];
  const int rows = tc.dl;
  const int cols = 2 * tc.dr;
  std::vector<c64> m(static_cast<std::size_t>(rows) * cols);
  for (int l = 0; l < rows; ++l)
    for (int s = 0; s < 2; ++s)
      for (int r = 0; r < tc.dr; ++r)
        m[static_cast<std::size_t>(l) * cols + static_cast<std::size_t>(s) * tc.dr + r] =
            tc.a[static_cast<std::size_t>(l * 2 + s) * tc.dr + r];
  const SplitResult sp = split_truncate(m, rows, cols, config_, truncation_weight_);
  // T_c <- Vh reshaped (rank, 2, dr): rows of Vh are orthonormal, so the site
  // becomes right-canonical.
  const int dr = tc.dr;
  tc.dl = sp.rank;
  tc.a.assign(static_cast<std::size_t>(sp.rank) * 2 * dr, c64{});
  for (int a2 = 0; a2 < sp.rank; ++a2)
    for (int s = 0; s < 2; ++s)
      for (int r = 0; r < dr; ++r)
        tc.a[static_cast<std::size_t>(a2 * 2 + s) * dr + r] =
            sp.vh[static_cast<std::size_t>(a2) * cols + static_cast<std::size_t>(s) * dr + r];
  note_bond(sp.rank);
  // Carry U S into the left neighbour's right bond.
  Tensor& tp = t_[static_cast<std::size_t>(center_) - 1];
  std::vector<c64> na(static_cast<std::size_t>(tp.dl) * 2 * sp.rank, c64{});
  for (int i = 0; i < tp.dl * 2; ++i)
    for (int b = 0; b < rows; ++b) {
      const c64 x = tp.a[static_cast<std::size_t>(i) * tp.dr + b];
      if (x == c64{}) continue;
      for (int a2 = 0; a2 < sp.rank; ++a2)
        na[static_cast<std::size_t>(i) * sp.rank + a2] +=
            x * sp.u[static_cast<std::size_t>(b) * sp.rank + a2] * sp.s[static_cast<std::size_t>(a2)];
    }
  tp.dr = sp.rank;
  tp.a = std::move(na);
  --center_;
}

void Mps::move_center_to(int site) {
  while (center_ < site) shift_center_right();
  while (center_ > site) shift_center_left();
}

void Mps::apply_window(int base, int k, const c64* u) {
  // The environment outside the window must be isometric for local
  // truncation to be globally optimal: park the center inside.
  if (center_ < base) move_center_to(base);
  else if (center_ > base + k - 1) move_center_to(base + k - 1);

  // Contract the window into theta[(l * 2^k + S) * dr + r], S little-endian
  // with bit j = site base + j.
  const unsigned dim = 1u << k;
  const int dl = t_[static_cast<std::size_t>(base)].dl;
  std::vector<c64> cur = t_[static_cast<std::size_t>(base)].a;  // (dl, 2, d1)
  unsigned width = 2;
  int dcur = t_[static_cast<std::size_t>(base)].dr;
  for (int j = 1; j < k; ++j) {
    const Tensor& nt = t_[static_cast<std::size_t>(base + j)];
    std::vector<c64> nxt(static_cast<std::size_t>(dl) * width * 2 * nt.dr, c64{});
    for (int l = 0; l < dl; ++l)
      for (unsigned S = 0; S < width; ++S)
        for (int mm = 0; mm < dcur; ++mm) {
          const c64 x = cur[(static_cast<std::size_t>(l) * width + S) * dcur + mm];
          if (x == c64{}) continue;
          for (int s = 0; s < 2; ++s) {
            const std::size_t outS = S + (static_cast<std::size_t>(s) << j);
            c64* dst = &nxt[(static_cast<std::size_t>(l) * (width * 2) + outS) * nt.dr];
            const c64* srcrow = &nt.a[static_cast<std::size_t>(mm * 2 + s) * nt.dr];
            for (int r = 0; r < nt.dr; ++r) dst[r] += x * srcrow[r];
          }
        }
    cur = std::move(nxt);
    width *= 2;
    dcur = nt.dr;
  }

  // theta' = (u tensor I) theta.
  std::vector<c64> applied(cur.size(), c64{});
  for (int l = 0; l < dl; ++l)
    for (unsigned sp = 0; sp < dim; ++sp) {
      c64* dst = &applied[(static_cast<std::size_t>(l) * dim + sp) * dcur];
      for (unsigned S = 0; S < dim; ++S) {
        const c64 f = u[static_cast<std::size_t>(sp) * dim + S];
        if (f == c64{}) continue;
        const c64* srcrow = &cur[(static_cast<std::size_t>(l) * dim + S) * dcur];
        for (int r = 0; r < dcur; ++r) dst[r] += f * srcrow[r];
      }
    }

  // Re-factor left to right; every split truncates.  The last site keeps the
  // residual and becomes the new center.
  std::vector<c64> rem = std::move(applied);
  int remk = k;
  int rdl = dl;
  for (int j = 0; j < k - 1; ++j) {
    const int rows = rdl * 2;
    const std::size_t rest = static_cast<std::size_t>(1) << (remk - 1);
    const std::size_t cols = rest * static_cast<std::size_t>(dcur);
    std::vector<c64> m(static_cast<std::size_t>(rows) * cols);
    for (int l = 0; l < rdl; ++l)
      for (int s = 0; s < 2; ++s)
        for (std::size_t S = 0; S < rest; ++S)
          for (int r = 0; r < dcur; ++r)
            m[static_cast<std::size_t>(l * 2 + s) * cols + S * static_cast<std::size_t>(dcur) + r] =
                rem[(static_cast<std::size_t>(l) * (static_cast<std::size_t>(1) << remk) +
                     (static_cast<std::size_t>(s) + 2 * S)) * static_cast<std::size_t>(dcur) + r];
    const SplitResult sp = split_truncate(m, rows, static_cast<int>(cols), config_,
                                          truncation_weight_);
    Tensor& tj = t_[static_cast<std::size_t>(base + j)];
    tj.dl = rdl;
    tj.dr = sp.rank;
    tj.a = sp.u;  // (rdl, 2, rank), left-canonical
    note_bond(sp.rank);
    std::vector<c64> nrem(static_cast<std::size_t>(sp.rank) * cols);
    for (int a2 = 0; a2 < sp.rank; ++a2)
      for (std::size_t c = 0; c < cols; ++c)
        nrem[static_cast<std::size_t>(a2) * cols + c] =
            sp.s[static_cast<std::size_t>(a2)] * sp.vh[static_cast<std::size_t>(a2) * cols + c];
    rem = std::move(nrem);
    rdl = sp.rank;
    --remk;
  }
  Tensor& tl = t_[static_cast<std::size_t>(base + k - 1)];
  tl.dl = rdl;
  tl.dr = dcur;
  tl.a = std::move(rem);
  center_ = base + k - 1;
}

void Mps::swap_adjacent(int i) {
  static const c64 kSwap[16] = {
      c64(1.0, 0.0), c64(0.0, 0.0), c64(0.0, 0.0), c64(0.0, 0.0),
      c64(0.0, 0.0), c64(0.0, 0.0), c64(1.0, 0.0), c64(0.0, 0.0),
      c64(0.0, 0.0), c64(1.0, 0.0), c64(0.0, 0.0), c64(0.0, 0.0),
      c64(0.0, 0.0), c64(0.0, 0.0), c64(0.0, 0.0), c64(1.0, 0.0)};
  apply_window(i, 2, kSwap);
}

double Mps::norm() const {
  const Tensor& t = t_[static_cast<std::size_t>(center_)];
  double s2 = 0.0;
  for (const c64& x : t.a) s2 += std::norm(x);
  return std::sqrt(s2);
}

c64 Mps::amplitude(std::uint64_t basis) const {
  if (num_qubits_ < 64 && basis >> num_qubits_ != 0)
    throw ValidationError("basis index out of range");
  std::vector<c64> v{c64(1.0, 0.0)};
  std::vector<c64> w;
  for (int i = 0; i < num_qubits_; ++i) {
    const Tensor& t = t_[static_cast<std::size_t>(i)];
    const int s = static_cast<int>((basis >> i) & 1u);
    w.assign(static_cast<std::size_t>(t.dr), c64{});
    for (int l = 0; l < t.dl; ++l) {
      const c64 x = v[static_cast<std::size_t>(l)];
      if (x == c64{}) continue;
      const c64* row = &t.a[static_cast<std::size_t>(l * 2 + s) * t.dr];
      for (int r = 0; r < t.dr; ++r) w[static_cast<std::size_t>(r)] += x * row[r];
    }
    std::swap(v, w);
  }
  return v[0];
}

std::vector<double> Mps::probabilities() const {
  if (num_qubits_ > 26)
    throw ValidationError("probabilities() materializes 2^n doubles; registers wider than 26 "
                          "qubits must sample instead");
  std::vector<double> probs(static_cast<std::size_t>(1) << num_qubits_, 0.0);
  // Depth-first contraction over the basis tree: O(2^n * chi^2) total.
  const auto walk = [&](const auto& self, int site, const std::vector<c64>& v,
                        std::uint64_t idx) -> void {
    if (site == num_qubits_) {
      probs[idx] = std::norm(v[0]);
      return;
    }
    const Tensor& t = t_[static_cast<std::size_t>(site)];
    for (int s = 0; s < 2; ++s) {
      std::vector<c64> w(static_cast<std::size_t>(t.dr), c64{});
      bool nonzero = false;
      for (int l = 0; l < t.dl; ++l) {
        const c64 x = v[static_cast<std::size_t>(l)];
        if (x == c64{}) continue;
        const c64* row = &t.a[static_cast<std::size_t>(l * 2 + s) * t.dr];
        for (int r = 0; r < t.dr; ++r) w[static_cast<std::size_t>(r)] += x * row[r];
      }
      for (const c64& x : w)
        if (x != c64{}) { nonzero = true; break; }
      if (!nonzero) continue;  // dead branch: every amplitude below is 0
      self(self, site + 1, w, idx | (static_cast<std::uint64_t>(s) << site));
    }
  };
  walk(walk, 0, {c64(1.0, 0.0)}, 0);
  return probs;
}

BasisHistogram Mps::sample_basis(std::int64_t shots, Rng& rng) {
  move_center_to(0);  // right-canonical tail: conditionals read off directly
  BasisHistogram hist;
  std::vector<c64> v, cand0, cand1;
  for (std::int64_t shot = 0; shot < shots; ++shot) {
    std::uint64_t basis = 0;
    v.assign(1, c64(1.0, 0.0));
    for (int i = 0; i < num_qubits_; ++i) {
      const Tensor& t = t_[static_cast<std::size_t>(i)];
      cand0.assign(static_cast<std::size_t>(t.dr), c64{});
      cand1.assign(static_cast<std::size_t>(t.dr), c64{});
      for (int l = 0; l < t.dl; ++l) {
        const c64 x = v[static_cast<std::size_t>(l)];
        if (x == c64{}) continue;
        const c64* r0 = &t.a[static_cast<std::size_t>(l * 2 + 0) * t.dr];
        const c64* r1 = &t.a[static_cast<std::size_t>(l * 2 + 1) * t.dr];
        for (int r = 0; r < t.dr; ++r) {
          cand0[static_cast<std::size_t>(r)] += x * r0[r];
          cand1[static_cast<std::size_t>(r)] += x * r1[r];
        }
      }
      double p0 = 0.0, p1 = 0.0;
      for (const c64& x : cand0) p0 += std::norm(x);
      for (const c64& x : cand1) p1 += std::norm(x);
      const double total = p0 + p1;
      if (!(total > 0.0)) throw BackendError("mps sampling hit a zero-norm branch");
      const int bit = rng.next_double() < p1 / total ? 1 : 0;
      std::vector<c64>& chosen = bit ? cand1 : cand0;
      const double inv = 1.0 / std::sqrt(bit ? p1 : p0);
      for (c64& x : chosen) x *= inv;
      std::swap(v, chosen);
      basis |= static_cast<std::uint64_t>(bit) << i;
    }
    ++hist[basis];
  }
  return hist;
}

int Mps::measure_collapse(int q, Rng& rng) {
  check_qubit(q);
  move_center_to(q);
  Tensor& t = t_[static_cast<std::size_t>(q)];
  double w[2] = {0.0, 0.0};
  for (int l = 0; l < t.dl; ++l)
    for (int s = 0; s < 2; ++s) {
      const c64* row = &t.a[static_cast<std::size_t>(l * 2 + s) * t.dr];
      double acc = 0.0;
      for (int r = 0; r < t.dr; ++r) acc += std::norm(row[r]);
      w[s] += acc;
    }
  const double total = w[0] + w[1];
  // Same drift discipline as the statevector: clamp ulp-level drift, reject
  // anything worse as a corrupted state.
  constexpr double kDriftTol = 1e-9;
  if (!(total > 0.0) || std::abs(total - 1.0) > 1e-6)
    throw BackendError("mps norm " + std::to_string(total) + " lost before measurement");
  double p1 = w[1] / total;
  if (!(p1 >= -kDriftTol && p1 <= 1.0 + kDriftTol))
    throw BackendError("measurement probability " + std::to_string(p1) +
                       " is outside [0, 1] beyond floating-point drift");
  p1 = std::clamp(p1, 0.0, 1.0);
  const int outcome = rng.next_double() < p1 ? 1 : 0;
  const double keep = outcome ? w[1] : w[0];
  const double scale = 1.0 / std::sqrt(keep);
  for (int l = 0; l < t.dl; ++l) {
    c64* kept = &t.a[static_cast<std::size_t>(l * 2 + outcome) * t.dr];
    c64* dropped = &t.a[static_cast<std::size_t>(l * 2 + (outcome ^ 1)) * t.dr];
    for (int r = 0; r < t.dr; ++r) {
      kept[r] *= scale;
      dropped[r] = c64{};
    }
  }
  return outcome;
}

void Mps::reset_qubit(int q, Rng& rng) {
  if (measure_collapse(q, rng) == 1) {
    Mat2 x;
    x.m[0][1] = c64(1.0, 0.0);
    x.m[1][0] = c64(1.0, 0.0);
    apply_1q(q, x);
  }
}

}  // namespace quml::sim
