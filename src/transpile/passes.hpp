#pragma once
// Peephole optimization passes.
//
// These implement the `optimization_level` knob the context exposes (paper
// Listing 4: "options.optimization_level = 2").  All passes preserve circuit
// semantics up to global phase, which the property tests check against the
// state-vector simulator.
//
//   level 0: translation/routing only, no optimization
//   level 1: inverse-pair cancellation + rotation merging
//   level 2: level 1 + single-qubit run fusion and resynthesis
//   level 3: level 2 iterated to a fixpoint

#include "sim/circuit.hpp"
#include "transpile/basis.hpp"

namespace quml::transpile {

/// One combined cancellation/merge sweep: adjacent inverse pairs vanish
/// (H·H, CX·CX, S·Sdg, ...), adjacent same-axis rotations merge and vanish
/// when the merged angle is trivial.  Cascades within a single call.
sim::Circuit cancel_and_merge(const sim::Circuit& circuit);

/// Fuses maximal single-qubit gate runs into one unitary and resynthesizes
/// it into the basis (u3 when unconstrained).  Barrier, Measure and Reset
/// flush every pending run, so gates keep their order relative to them.
sim::Circuit fuse_1q_runs(const sim::Circuit& circuit, const BasisSet& basis);

/// Applies the pass pipeline for an optimization level.
sim::Circuit optimize(const sim::Circuit& circuit, const BasisSet& basis, int level);

}  // namespace quml::transpile
