#include "sim/fusion.hpp"

#include <algorithm>
#include <array>

#include "sim/statevector.hpp"  // kernel caps for clamp_options
#include "util/errors.hpp"

namespace quml::sim {

namespace {

constexpr c64 kOne{1.0, 0.0};
constexpr c64 kZero{0.0, 0.0};

/// Fixed per-sweep launch overhead of a fused kernel, in units of one dense
/// 1q full sweep (read + write every amplitude).
constexpr double kSweepOverhead = 0.02;
/// Ties favour merging: fewer sweeps means fewer kernel launches and a more
/// compact replayable program, so a merge may cost up to this much extra.
constexpr double kMergeSlack = 0.05;
/// Structured (diagonal/monomial) blocks amortize: once a block exists, every
/// further absorption is nearly free, but the greedy pairwise step often
/// starts at a small loss (two CXs cost less alone than one 3q monomial
/// sweep — five do not).  Seeding a structured block may therefore regress by
/// this much; dense blocks get no such credit because their cost doubles per
/// absorbed qubit.
constexpr double kStructuredSeedSlack = 0.45;
/// Monomial blocks walk permutation cycles through three per-row tables
/// (offsets, walk order, phases — 24 bytes/row), so their working set leaves
/// cache four qubits earlier than a diagonal's: beyond this support the
/// per-sweep cost rises faster than the sweeps saved.
constexpr int kMaxMonomialQubits = 10;

/// Matrix structure, ordered by generality: diagonal ⊂ monomial ⊂ dense.
/// Every multi-qubit gate in the vocabulary is monomial (a permutation with
/// phases), which is what makes CX/SWAP/CCX cascades collapsible into a
/// single O(1)-per-amplitude sweep.
enum class MatClass { Diagonal, Monomial, Dense };

MatClass join(MatClass a, MatClass b) { return a > b ? a : b; }

/// Sweep cost of a dense k-qubit block (alone and fused coincide): the
/// kernel pays O(2^k) multiply-adds per amplitude, with the 1q case pinned to
/// the unit the whole model is expressed in.
double dense_cost(int k) {
  return k == 1 ? 1.0 : 0.8 * static_cast<double>(std::size_t{1} << k);
}

/// A unitary over an explicit qubit list (local bit j ↔ qubits[j]), stored in
/// the cheapest exact representation its structure allows.
struct Unit {
  std::vector<int> qubits;
  MatClass cls = MatClass::Diagonal;
  std::vector<c64> diag;   // Diagonal: 2^k entries
  std::vector<int> src;    // Monomial: output row m reads input src[m]
  std::vector<c64> phase;  // Monomial: 2^k phases
  std::vector<c64> dense;  // Dense: 2^k * 2^k row-major

  int k() const noexcept { return static_cast<int>(qubits.size()); }
};

/// A gate's matrix over its support sorted ascending (the layout every block
/// and op carries; the reindexing only moves entries), classified exactly:
/// zero patterns are exact by construction (gate_matrix uses exact
/// constants), so no tolerance is involved and classification never
/// mislabels a unitary.  Gates act on at most three qubits, so every table
/// but a dense matrix is fixed-size.
struct GateShape {
  MatClass cls = MatClass::Diagonal;
  int k = 0;
  std::array<int, 3> qubits{};  // ascending
  std::array<int, 8> src{};     // Monomial: output row m reads input src[m]
  std::array<c64, 8> entry{};   // Diagonal: the diagonal; Monomial: the phases
  std::vector<c64> dense;       // Dense: 2^k x 2^k row-major
};

GateShape shape_of(const Instruction& inst) {
  GateShape s;
  s.k = gate_arity(inst.gate);
  if (static_cast<int>(inst.qubits.size()) != s.k || s.k > 3)
    throw ValidationError(std::string("gate '") + gate_name(inst.gate) + "' expects " +
                          std::to_string(s.k) + " qubit operand(s)");
  std::copy(inst.qubits.begin(), inst.qubits.end(), s.qubits.begin());
  std::sort(s.qubits.begin(), s.qubits.begin() + s.k);
  // at[M]: the gate's own local index for sorted local index M (operand j's
  // bit sits at its rank among the operands).
  const std::size_t n = std::size_t{1} << s.k;
  std::array<std::size_t, 8> at{};
  for (int j = 0; j < s.k; ++j) {
    int rank = 0;
    for (int i = 0; i < s.k; ++i) rank += inst.qubits[i] < inst.qubits[j] ? 1 : 0;
    for (std::size_t M = 0; M < n; ++M)
      if ((M >> rank) & 1u) at[M] |= std::size_t{1} << j;
  }
  std::vector<c64> m = gate_matrix(inst.gate, inst.params.data());
  const auto entry = [&](std::size_t r, std::size_t c) { return m[at[r] * n + at[c]]; };
  bool mono = true, diag = true;
  for (std::size_t r = 0; r < n && mono; ++r) {
    int nz = -1;
    for (std::size_t c = 0; c < n; ++c) {
      if (entry(r, c) == kZero) continue;
      if (nz >= 0) {
        mono = false;
        break;
      }
      nz = static_cast<int>(c);
    }
    if (!mono || nz < 0) {
      mono = false;
      break;
    }
    s.src[r] = nz;
    s.entry[r] = entry(r, static_cast<std::size_t>(nz));
    if (static_cast<std::size_t>(nz) != r) diag = false;
  }
  if (mono) {
    s.cls = diag ? MatClass::Diagonal : MatClass::Monomial;
  } else {
    s.cls = MatClass::Dense;
    if (std::is_sorted(inst.qubits.begin(), inst.qubits.end())) {
      s.dense = std::move(m);
    } else {
      s.dense.resize(n * n);
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) s.dense[r * n + c] = entry(r, c);
    }
  }
  return s;
}

Unit classify(const Instruction& inst) {
  GateShape s = shape_of(inst);
  const std::ptrdiff_t n = std::ptrdiff_t{1} << s.k;
  Unit u;
  u.qubits.assign(s.qubits.begin(), s.qubits.begin() + s.k);
  u.cls = s.cls;
  switch (s.cls) {
    case MatClass::Diagonal:
      u.diag.assign(s.entry.begin(), s.entry.begin() + n);
      break;
    case MatClass::Monomial:
      u.src.assign(s.src.begin(), s.src.begin() + n);
      u.phase.assign(s.entry.begin(), s.entry.begin() + n);
      break;
    case MatClass::Dense:
      u.dense = std::move(s.dense);
      break;
  }
  return u;
}

/// Position of each sub-support qubit inside the sorted target support Q.
std::vector<int> positions(const std::vector<int>& sub, const std::vector<int>& Q) {
  std::vector<int> pos(sub.size());
  for (std::size_t j = 0; j < sub.size(); ++j) {
    const auto it = std::lower_bound(Q.begin(), Q.end(), sub[j]);
    pos[j] = static_cast<int>(it - Q.begin());
  }
  return pos;
}

inline std::size_t gather_bits(std::size_t M, const std::vector<int>& pos) noexcept {
  std::size_t m = 0;
  for (std::size_t j = 0; j < pos.size(); ++j)
    m |= ((M >> pos[j]) & 1u) << j;
  return m;
}

inline std::size_t spread_bits(std::size_t m, const std::vector<int>& pos) noexcept {
  std::size_t M = 0;
  for (std::size_t j = 0; j < pos.size(); ++j)
    if ((m >> j) & 1u) M |= std::size_t{1} << pos[j];
  return M;
}

/// Dense embedding of `part` into the sorted support Q (identity elsewhere).
std::vector<c64> embed_dense(const Unit& part, const std::vector<int>& Q) {
  const std::vector<int> pos = positions(part.qubits, Q);
  const std::size_t N = std::size_t{1} << Q.size();
  const std::size_t smask = spread_bits((std::size_t{1} << part.qubits.size()) - 1, pos);
  std::vector<c64> G(N * N, kZero);
  for (std::size_t M = 0; M < N; ++M) {
    const std::size_t m = gather_bits(M, pos);
    switch (part.cls) {
      case MatClass::Diagonal:
        G[M * N + M] = part.diag[m];
        break;
      case MatClass::Monomial:
        G[M * N + ((M & ~smask) | spread_bits(static_cast<std::size_t>(part.src[m]), pos))] =
            part.phase[m];
        break;
      case MatClass::Dense: {
        const std::size_t rest = M & ~smask;
        const std::size_t na = std::size_t{1} << part.qubits.size();
        for (std::size_t c = 0; c < na; ++c)
          G[M * N + (rest | spread_bits(c, pos))] = part.dense[m * na + c];
        break;
      }
    }
  }
  return G;
}

/// Exact composition of `parts` (applied left to right: parts[0] first) over
/// the sorted union support Q, at the joined class `cls`.  All embeddings are
/// qubit-reindexed table rewrites; only a dense result pays a matrix multiply.
Unit merge_units(const std::vector<const Unit*>& parts, std::vector<int> Q, MatClass cls) {
  Unit acc;
  acc.cls = cls;
  const std::size_t N = std::size_t{1} << Q.size();
  switch (cls) {
    case MatClass::Diagonal: {
      acc.diag.assign(N, kOne);
      for (const Unit* part : parts) {
        const std::vector<int> pos = positions(part->qubits, Q);
        for (std::size_t M = 0; M < N; ++M) acc.diag[M] *= part->diag[gather_bits(M, pos)];
      }
      break;
    }
    case MatClass::Monomial: {
      acc.src.resize(N);
      acc.phase.assign(N, kOne);
      for (std::size_t M = 0; M < N; ++M) acc.src[M] = static_cast<int>(M);
      std::vector<int> nsrc(N);
      std::vector<c64> nph(N);
      for (const Unit* part : parts) {
        const std::vector<int> pos = positions(part->qubits, Q);
        const std::size_t smask =
            spread_bits((std::size_t{1} << part->qubits.size()) - 1, pos);
        for (std::size_t M = 0; M < N; ++M) {
          // z[M] = pg * y[sg] with y the accumulated map: follow one level.
          const std::size_t m = gather_bits(M, pos);
          std::size_t sg;
          c64 pg;
          if (part->cls == MatClass::Diagonal) {
            sg = M;
            pg = part->diag[m];
          } else {
            sg = (M & ~smask) | spread_bits(static_cast<std::size_t>(part->src[m]), pos);
            pg = part->phase[m];
          }
          nsrc[M] = acc.src[sg];
          nph[M] = pg * acc.phase[sg];
        }
        acc.src.swap(nsrc);
        acc.phase.swap(nph);
      }
      break;
    }
    case MatClass::Dense: {
      acc.dense.assign(N * N, kZero);
      for (std::size_t M = 0; M < N; ++M) acc.dense[M * N + M] = kOne;
      std::vector<c64> out(N * N);
      for (const Unit* part : parts) {
        const std::vector<c64> G = embed_dense(*part, Q);
        // out = G * acc (part applied after the accumulation)
        for (std::size_t r = 0; r < N; ++r)
          for (std::size_t c = 0; c < N; ++c) {
            c64 s = kZero;
            for (std::size_t t = 0; t < N; ++t) s += G[r * N + t] * acc.dense[t * N + c];
            out[r * N + c] = s;
          }
        acc.dense.swap(out);
      }
      break;
    }
  }
  acc.qubits = std::move(Q);
  return acc;
}

Mat2 mat2_of(const Unit& u) {
  Mat2 m{};
  if (u.cls == MatClass::Monomial) {
    m.m[0][u.src[0]] = u.phase[0];
    m.m[1][u.src[1]] = u.phase[1];
  } else {
    m.m[0][0] = u.dense[0];
    m.m[0][1] = u.dense[1];
    m.m[1][0] = u.dense[2];
    m.m[1][1] = u.dense[3];
  }
  return m;
}

/// The structure-kernel op that applies `u` (support sorted ascending).
FusedOp to_op(Unit u, std::vector<std::int32_t> sources) {
  FusedOp op;
  op.sources = std::move(sources);
  if (u.k() == 1) {
    op.qubit = u.qubits[0];
    if (u.cls == MatClass::Diagonal) {
      op.kind = FusedOp::Kind::Diag1Q;
      op.d0 = u.diag[0];
      op.d1 = u.diag[1];
    } else {
      op.kind = FusedOp::Kind::Unitary1Q;
      op.u = mat2_of(u);
    }
    return op;
  }
  op.qubits = std::move(u.qubits);
  switch (u.cls) {
    case MatClass::Diagonal:
      op.kind = FusedOp::Kind::DiagKQ;
      op.table = std::move(u.diag);
      break;
    case MatClass::Monomial:
      op.kind = FusedOp::Kind::MonomialKQ;
      op.perm = std::move(u.src);
      op.table = std::move(u.phase);
      break;
    case MatClass::Dense:
      op.kind = FusedOp::Kind::UnitaryKQ;
      op.table = std::move(u.dense);
      break;
  }
  return op;
}

double frac_nonunit(const std::vector<c64>& d) {
  std::size_t n = 0;
  for (const c64& v : d)
    if (v != kOne) ++n;
  return static_cast<double>(n) / static_cast<double>(d.size());
}

double frac_moved(const Unit& u) {
  std::size_t n = 0;
  for (std::size_t m = 0; m < u.src.size(); ++m)
    if (static_cast<std::size_t>(u.src[m]) != m || u.phase[m] != kOne) ++n;
  return static_cast<double>(n) / static_cast<double>(u.src.size());
}

/// Sweep-cost model, in units of one dense 1q full sweep over the state.
/// Calibrated against the measured kernels (bench_sim_scaling); only merge
/// *choices* depend on these numbers, never correctness.
///
/// Cost of the kernel sub-path a lone instruction runs on: the diagonal
/// kernels skip unit factors (CP scales one quadrant, dim/4), and a lone
/// monomial is a single transposition on the pair walk (CX/SWAP touch dim/2,
/// CCX/CSWAP dim/4).
double unit_cost_native(const Unit& u) {
  switch (u.cls) {
    case MatClass::Diagonal:
      return frac_nonunit(u.diag);
    case MatClass::Monomial:
      return frac_moved(u);
    case MatClass::Dense:
      return dense_cost(u.k());
  }
  return 1.0;
}

/// Cost of replaying the unit as a fused-block kernel: a diagonal multiplies
/// its non-unit rows, a monomial walks permutation cycles in place (one load,
/// one multiply, one store per moved amplitude), a dense block pays O(2^k)
/// multiply-adds per amplitude — which is why dense fusion only wins when it
/// absorbs many gates on the same support.  The linear coefficients are the
/// measured single-core kernel throughputs relative to apply_1q.
double unit_cost_fused(const Unit& u) {
  switch (u.cls) {
    case MatClass::Diagonal:
      return kSweepOverhead + 1.2 * frac_nonunit(u.diag);
    case MatClass::Monomial:
      return kSweepOverhead + 1.8 * frac_moved(u);
    case MatClass::Dense:
      return dense_cost(u.k());
  }
  return 1.0;
}

bool is_exact_identity(const Unit& u) {
  if (u.cls != MatClass::Diagonal) return false;
  for (const c64& v : u.diag)
    if (v != kOne) return false;
  return true;
}

/// An open fusion block: a pending unit plus absorption bookkeeping.  Open
/// blocks have pairwise-disjoint supports, so they commute with one another
/// and can be flushed in any order.
struct Block {
  Unit unit;  // qubits sorted ascending
  std::size_t gates = 0;
  std::size_t oneq = 0, multiq = 0;
  std::vector<std::int32_t> sources;  // input-program indices, application order
};

class Fuser {
 public:
  Fuser(int num_qubits, const FusionOptions& opt, FusionStats* stats)
      : wire_(static_cast<std::size_t>(num_qubits), -1), opt_(opt), stats_(stats) {}

  void add(const Instruction& inst, std::int32_t index) {
    if (stats_) ++stats_->gates_in;
    Unit g = classify(inst);

    // Operand order, not the unit's sorted support: the overlap order fixes
    // the order blocks compose in, and so the rounding of merged tables.
    std::vector<int> overlap;
    for (const int q : inst.qubits) {
      const int b = wire_[static_cast<std::size_t>(q)];
      if (b >= 0 && std::find(overlap.begin(), overlap.end(), b) == overlap.end())
        overlap.push_back(b);
    }
    if (overlap.empty()) {
      open_or_emit(std::move(g), index);
      return;
    }

    // Union support and joined class of (overlapping blocks, gate).
    std::vector<int> Q = g.qubits;
    MatClass cls = g.cls;
    for (const int b : overlap) {
      const Block& blk = blocks_[static_cast<std::size_t>(b)];
      Q.insert(Q.end(), blk.unit.qubits.begin(), blk.unit.qubits.end());
      cls = join(cls, blk.unit.cls);
    }
    std::sort(Q.begin(), Q.end());
    Q.erase(std::unique(Q.begin(), Q.end()), Q.end());

    const int cap = cap_for(cls);
    bool cap_reject = static_cast<int>(Q.size()) > cap;
    if (!cap_reject && try_merge(g, overlap, std::move(Q), cls, {}, index)) return;

    // Partial retry for a structured gate tangled with dense blocks: flushing
    // the dense ones (always order-safe) may leave a structured merge that
    // works — this is how an entangler chain fuses through the 1q layers of a
    // variational ansatz instead of being broken at every wire.
    if (g.cls != MatClass::Dense) {
      std::vector<int> structured, dense;
      for (const int b : overlap) {
        if (blocks_[static_cast<std::size_t>(b)].unit.cls == MatClass::Dense) dense.push_back(b);
        else structured.push_back(b);
      }
      if (!dense.empty() && !structured.empty()) {
        std::vector<int> Q2 = g.qubits;
        MatClass cls2 = g.cls;
        for (const int b : structured) {
          const Block& blk = blocks_[static_cast<std::size_t>(b)];
          Q2.insert(Q2.end(), blk.unit.qubits.begin(), blk.unit.qubits.end());
          cls2 = join(cls2, blk.unit.cls);
        }
        std::sort(Q2.begin(), Q2.end());
        Q2.erase(std::unique(Q2.begin(), Q2.end()), Q2.end());
        if (static_cast<int>(Q2.size()) <= cap_for(cls2) &&
            try_merge(g, structured, std::move(Q2), cls2, dense, index))
          return;
      }
    }

    // Merge rejected.  A diagonal gate commutes with every open diagonal
    // block, so it may pass through without closing them and the runs can
    // keep growing (`rz; cz; rz` still fuses under caps that forbid 2q
    // blocks).  But commuting through is only right when the merge failed on
    // *cost*, or when the gate is too wide to ever seed a block of its own:
    // a cap-full block is done growing through these wires, and flushing it
    // lets the gate start a fresh block the rest of a cascade can join.
    bool all_diag = g.cls == MatClass::Diagonal;
    for (const int b : overlap)
      all_diag = all_diag && blocks_[static_cast<std::size_t>(b)].unit.cls == MatClass::Diagonal;
    if (all_diag && (!cap_reject || g.k() > cap_for(g.cls))) {
      emit_lone(std::move(g), index);
      return;
    }

    std::vector<Block> to_flush;
    for (const int b : overlap) to_flush.push_back(std::move(blocks_[static_cast<std::size_t>(b)]));
    remove_blocks(overlap);
    for (Block& blk : to_flush) flush(blk);
    open_or_emit(std::move(g), index);
  }

  void barrier() { flush_all(); }

  std::vector<FusedOp> finish() {
    flush_all();
    return std::move(ops_);
  }

 private:
  int cap_for(MatClass cls) const {
    switch (cls) {
      case MatClass::Dense:
        return opt_.max_qubits;
      case MatClass::Monomial:
        return std::min(opt_.max_structured_qubits, kMaxMonomialQubits);
      case MatClass::Diagonal:
        return opt_.max_structured_qubits;
    }
    return opt_.max_qubits;
  }

  /// Attempts to replace the `overlap` blocks and the gate with one merged
  /// block over (Q, cls); on success the `pre_flush` blocks are flushed first
  /// (flushing is always order-safe) and the merged block takes their wires.
  bool try_merge(const Unit& g, const std::vector<int>& overlap,
                 std::vector<int> Q, MatClass cls, const std::vector<int>& pre_flush,
                 std::int32_t index) {
    double parts_cost = unit_cost_native(g);
    for (const int b : overlap) parts_cost += flush_cost(blocks_[static_cast<std::size_t>(b)]);
    const double slack = cls == MatClass::Dense ? kMergeSlack : kStructuredSeedSlack;
    // A dense block's fused cost depends only on its support size, so a
    // doomed dense merge is rejected before paying the O(2^3k) composition.
    if (cls == MatClass::Dense && dense_cost(static_cast<int>(Q.size())) > parts_cost + slack)
      return false;
    std::vector<const Unit*> parts;
    for (const int b : overlap) parts.push_back(&blocks_[static_cast<std::size_t>(b)].unit);
    parts.push_back(&g);
    Unit merged = merge_units(parts, std::move(Q), cls);
    if (unit_cost_fused(merged) > parts_cost + slack) return false;
    Block nb;
    nb.unit = std::move(merged);
    nb.gates = 1;
    if (g.k() == 1) nb.oneq = 1; else nb.multiq = 1;
    for (const int b : overlap) {
      const Block& blk = blocks_[static_cast<std::size_t>(b)];
      nb.gates += blk.gates;
      nb.oneq += blk.oneq;
      nb.multiq += blk.multiq;
      // Open blocks have disjoint supports and commute, so concatenating
      // their source lists in overlap order, gate last, reproduces the
      // composition merge_units just performed.
      nb.sources.insert(nb.sources.end(), blk.sources.begin(), blk.sources.end());
    }
    nb.sources.push_back(index);
    std::vector<Block> fl;
    for (const int b : pre_flush) fl.push_back(std::move(blocks_[static_cast<std::size_t>(b)]));
    std::vector<int> all = overlap;
    all.insert(all.end(), pre_flush.begin(), pre_flush.end());
    remove_blocks(all);
    for (Block& b : fl) flush(b);
    insert_block(std::move(nb));
    return true;
  }

  double flush_cost(const Block& b) const {
    return b.gates == 1 ? unit_cost_native(b.unit) : unit_cost_fused(b.unit);
  }

  /// Disjoint diagonal merging: a diagonal gate commutes with every open
  /// block, so it may join an open *diagonal* block it shares no wire with —
  /// this is how a QFT cascade tail absorbs the next wire's cascade head and
  /// how an rz/rzz layer over disjoint pairs collapses into one sweep.  Most
  /// recently opened block first (cascade locality).
  bool merge_into_disjoint_diag(const Unit& g, std::int32_t index) {
    if (g.cls != MatClass::Diagonal || g.k() > opt_.max_structured_qubits) return false;
    for (int b = static_cast<int>(blocks_.size()) - 1; b >= 0; --b) {
      Block& blk = blocks_[static_cast<std::size_t>(b)];
      if (blk.unit.cls != MatClass::Diagonal) continue;
      std::vector<int> Q = g.qubits;
      Q.insert(Q.end(), blk.unit.qubits.begin(), blk.unit.qubits.end());
      std::sort(Q.begin(), Q.end());
      if (static_cast<int>(Q.size()) > opt_.max_structured_qubits) continue;
      const std::vector<const Unit*> parts{&blk.unit, &g};
      Unit merged = merge_units(parts, std::move(Q), MatClass::Diagonal);
      if (unit_cost_fused(merged) > flush_cost(blk) + unit_cost_native(g) + kMergeSlack)
        continue;
      blk.unit = std::move(merged);
      ++blk.gates;
      if (g.k() == 1) ++blk.oneq; else ++blk.multiq;
      blk.sources.push_back(index);
      for (const int q : blk.unit.qubits) wire_[static_cast<std::size_t>(q)] = b;
      return true;
    }
    return false;
  }

  void open_or_emit(Unit g, std::int32_t index) {
    if (merge_into_disjoint_diag(g, index)) return;
    if (g.k() > cap_for(g.cls)) {
      emit_lone(std::move(g), index);
      return;
    }
    Block b;
    b.unit = std::move(g);
    b.gates = 1;
    b.sources = {index};
    if (b.unit.k() == 1) b.oneq = 1; else b.multiq = 1;
    insert_block(std::move(b));
  }

  void insert_block(Block b) {
    const int id = static_cast<int>(blocks_.size());
    for (const int q : b.unit.qubits) wire_[static_cast<std::size_t>(q)] = id;
    blocks_.push_back(std::move(b));
  }

  void remove_blocks(const std::vector<int>& ids) {
    std::vector<int> sorted = ids;
    std::sort(sorted.begin(), sorted.end(), std::greater<int>());
    for (const int b : sorted) blocks_.erase(blocks_.begin() + b);
    std::fill(wire_.begin(), wire_.end(), -1);
    for (std::size_t i = 0; i < blocks_.size(); ++i)
      for (const int q : blocks_[i].unit.qubits) wire_[static_cast<std::size_t>(q)] = static_cast<int>(i);
  }

  void emit(FusedOp op) {
    ops_.push_back(std::move(op));
    if (stats_) ++stats_->ops_out;
  }

  /// A gate that joins no block runs as the op its own structure gives, and
  /// counts only in ops_out.
  void emit_lone(Unit g, std::int32_t index) { emit(to_op(std::move(g), {index})); }

  void flush(Block& b) {
    // An exactly-identity accumulation (e.g. rz(t); rz(-t)) vanishes — unless
    // a sweep plan needs the block to survive for re-binding.
    if (!opt_.keep_identity_blocks && is_exact_identity(b.unit)) return;
    const int k = b.unit.k();
    // A block holding one multi-qubit gate is that gate alone (emit_lone).
    if (stats_ && !(k >= 2 && b.gates == 1)) {
      if (b.unit.cls == MatClass::Diagonal) ++stats_->diag_runs;
      stats_->fused_1q += b.oneq;
      stats_->fused_multiq += b.multiq;
      if (k >= 2) {
        ++stats_->kq_blocks;
        stats_->max_block_qubits = std::max(stats_->max_block_qubits, k);
      }
    }
    emit(to_op(std::move(b.unit), std::move(b.sources)));
  }

  void flush_all() {
    std::vector<Block> pending;
    pending.swap(blocks_);
    std::fill(wire_.begin(), wire_.end(), -1);
    for (Block& b : pending) flush(b);
  }

  std::vector<Block> blocks_;  // pairwise-disjoint supports
  std::vector<int> wire_;     // wire -> open block index, -1 when free
  std::vector<FusedOp> ops_;
  FusionOptions opt_;
  FusionStats* stats_;
};

FusionOptions clamp_options(FusionOptions o) {
  o.max_qubits = std::clamp(o.max_qubits, 1, 8);
  o.max_structured_qubits =
      std::clamp(o.max_structured_qubits, o.max_qubits, Statevector::kMaxKernelQubits);
  return o;
}

}  // namespace

std::vector<FusedOp> fuse_unitaries(const std::vector<Instruction>& program, int num_qubits,
                                    const FusionOptions& options, FusionStats* stats) {
  Fuser fuser(num_qubits, clamp_options(options), stats);
  for (std::size_t i = 0; i < program.size(); ++i) {
    const Instruction& inst = program[i];
    if (inst.is_parameterized())
      throw ValidationError("unbound symbolic parameter in fuse_unitaries(); bind the circuit "
                            "or build a sim::SweepPlan");
    switch (inst.gate) {
      case Gate::Measure:
      case Gate::Reset:
        throw ValidationError("non-unitary instruction in fuse_unitaries(); use the engine");
      case Gate::Barrier:
        // A barrier is an explicit optimization fence: no fusion across it.
        fuser.barrier();
        break;
      case Gate::I:
        break;  // identity contributes nothing
      default:
        fuser.add(inst, static_cast<std::int32_t>(i));
    }
  }
  return fuser.finish();
}

std::vector<FusedOp> fuse_unitaries(const std::vector<Instruction>& program, int num_qubits,
                                    FusionStats* stats) {
  return fuse_unitaries(program, num_qubits, FusionOptions{}, stats);
}

std::vector<FusedOp> fuse_unitaries(const Circuit& circuit, const FusionOptions& options,
                                    FusionStats* stats) {
  return fuse_unitaries(circuit.instructions(), circuit.num_qubits(), options, stats);
}

std::vector<FusedOp> fuse_unitaries(const Circuit& circuit, FusionStats* stats) {
  return fuse_unitaries(circuit, FusionOptions{}, stats);
}

void fuse_gate(const Instruction& inst, FusedOp& op) {
  if (inst.is_parameterized())
    throw ValidationError("unbound symbolic parameter in apply(); bind the circuit first");
  if (!gate_is_unitary(inst.gate))
    throw ValidationError("non-unitary instruction in apply(); use the engine");
  op.sources.clear();
  if (inst.qubits.size() == 1 && gate_arity(inst.gate) == 1) {
    // The Diag1Q/Unitary1Q op to_op(classify(inst)) gives, read straight off
    // the 2x2.
    const Mat2 m = gate_matrix_1q(inst.gate, inst.params.data());
    op.qubit = inst.qubits[0];
    op.qubits.clear();
    op.table.clear();
    op.perm.clear();
    if (m.m[0][1] == kZero && m.m[1][0] == kZero) {
      op.kind = FusedOp::Kind::Diag1Q;
      op.d0 = m.m[0][0];
      op.d1 = m.m[1][1];
    } else {
      op.kind = FusedOp::Kind::Unitary1Q;
      op.u = m;
    }
    return;
  }
  // The KQ op to_op(classify(inst)) gives, assigned into op's own storage.
  const GateShape s = shape_of(inst);
  const std::ptrdiff_t n = std::ptrdiff_t{1} << s.k;
  op.qubit = -1;
  op.qubits.assign(s.qubits.begin(), s.qubits.begin() + s.k);
  op.perm.clear();
  switch (s.cls) {
    case MatClass::Diagonal:
      op.kind = FusedOp::Kind::DiagKQ;
      op.table.assign(s.entry.begin(), s.entry.begin() + n);
      break;
    case MatClass::Monomial:
      op.kind = FusedOp::Kind::MonomialKQ;
      op.perm.assign(s.src.begin(), s.src.begin() + n);
      op.table.assign(s.entry.begin(), s.entry.begin() + n);
      break;
    case MatClass::Dense:
      op.kind = FusedOp::Kind::UnitaryKQ;
      op.table.assign(s.dense.begin(), s.dense.end());
      break;
  }
}

void apply_fused_op(SimState& state, const FusedOp& op) {
  switch (op.kind) {
    case FusedOp::Kind::Unitary1Q:
      state.apply_1q(op.qubit, op.u);
      break;
    case FusedOp::Kind::Diag1Q:
      state.apply_diag_1q(op.qubit, op.d0, op.d1);
      break;
    case FusedOp::Kind::UnitaryKQ:
      state.apply_matrix(op.qubits, op.table.data());
      break;
    case FusedOp::Kind::DiagKQ:
      state.apply_diag(op.qubits, op.table.data());
      break;
    case FusedOp::Kind::MonomialKQ:
      state.apply_monomial(op.qubits, op.perm.data(), op.table.data());
      break;
  }
}

void apply_fused(SimState& state, const std::vector<FusedOp>& ops) {
  for (const FusedOp& op : ops) apply_fused_op(state, op);
}

void rebind_fused_op(FusedOp& op, const std::vector<Instruction>& program) {
  if (op.sources.empty())
    throw ValidationError("fused op carries no source provenance; rebuilt plans only");
  auto inst_at = [&](std::int32_t s) -> const Instruction& {
    return program.at(static_cast<std::size_t>(s));
  };
  switch (op.kind) {
    case FusedOp::Kind::Unitary1Q: {
      Mat2 acc = Mat2::identity();
      for (const std::int32_t s : op.sources)
        acc = gate_matrix_1q(inst_at(s).gate, inst_at(s).params.data()) * acc;
      op.u = acc;
      return;
    }
    case FusedOp::Kind::Diag1Q: {
      c64 d0 = kOne, d1 = kOne;
      for (const std::int32_t s : op.sources) {
        const Mat2 m = gate_matrix_1q(inst_at(s).gate, inst_at(s).params.data());
        d0 *= m.m[0][0];
        d1 *= m.m[1][1];
      }
      op.d0 = d0;
      op.d1 = d1;
      return;
    }
    case FusedOp::Kind::DiagKQ:
    case FusedOp::Kind::MonomialKQ:
    case FusedOp::Kind::UnitaryKQ: {
      const MatClass cls = op.kind == FusedOp::Kind::DiagKQ    ? MatClass::Diagonal
                           : op.kind == FusedOp::Kind::MonomialKQ ? MatClass::Monomial
                                                                  : MatClass::Dense;
      std::vector<Unit> units;
      units.reserve(op.sources.size());
      for (const std::int32_t s : op.sources) units.push_back(classify(inst_at(s)));
      std::vector<const Unit*> parts;
      parts.reserve(units.size());
      for (const Unit& u : units) parts.push_back(&u);
      Unit merged = merge_units(parts, op.qubits, cls);
      switch (cls) {
        case MatClass::Diagonal:
          op.table = std::move(merged.diag);
          break;
        case MatClass::Monomial:
          op.perm = std::move(merged.src);
          op.table = std::move(merged.phase);
          break;
        case MatClass::Dense:
          op.table = std::move(merged.dense);
          break;
      }
      return;
    }
  }
}

}  // namespace quml::sim
