#pragma once
// Context descriptors (paper §4.3, Listings 4 & 5).
//
// A context is a declarative record of *how* operators may be executed —
// engine selection, shot budget, target constraints, QEC policy, anneal
// settings — without changing what they mean.  Swapping the context retargets
// a program; the intent artifacts (QDTs, QODs) never change.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "json/json.hpp"

namespace quml::core {

/// Compilation target constraints (Listing 4's `target` block).  An absent
/// coupling map means ideal all-to-all connectivity; an absent basis-gate
/// list leaves gates untranslated.
struct TargetSpec {
  std::optional<int> num_qubits;
  std::vector<std::string> basis_gates;
  std::vector<std::pair<int, int>> coupling_map;

  bool all_to_all() const { return coupling_map.empty(); }
  bool empty() const { return !num_qubits && basis_gates.empty() && coupling_map.empty(); }

  json::Value to_json() const;
  static TargetSpec from_json(const json::Value& doc);
};

/// Execution engine policy (Listing 4's `exec` block).
struct ExecPolicy {
  std::string engine;                ///< e.g. "gate.statevector_simulator"
  std::int64_t samples = 1024;       ///< shots / reads
  std::uint64_t seed = 42;           ///< all stochastic behaviour derives from this
  /// Upper bound on the job's OpenMP team; the ExecutionService applies it
  /// on top of the job's share of the thread budget (svc/execution_service.hpp).
  std::optional<int> max_parallel_threads;
  TargetSpec target;
  json::Value options = json::Value::object();  ///< engine-specific knobs

  /// Transpiler effort 0..3 (Qiskit-compatible), read from options.
  int optimization_level() const { return static_cast<int>(options.get_int("optimization_level", 1)); }

  json::Value to_json() const;
  static ExecPolicy from_json(const json::Value& doc);
};

/// Error-correction policy (Listing 5's `qec` block).  Orthogonal to program
/// semantics: the same logical program runs unmodified with or without it.
struct QecPolicy {
  std::string code_family = "surface";
  int distance = 3;
  std::string allocator = "auto";
  std::vector<std::string> logical_gate_set;
  double physical_error_rate = 1e-3;
  std::optional<double> target_logical_error_rate;
  std::string decoder = "mwpm";

  json::Value to_json() const;
  static QecPolicy from_json(const json::Value& doc);
};

/// Annealer submission policy (paper §5, `"contexts": {"anneal": ...}`).
struct AnnealPolicy {
  std::int64_t num_reads = 1000;
  std::int64_t num_sweeps = 1000;
  std::optional<double> beta_min;   ///< absent -> auto range from the problem
  std::optional<double> beta_max;
  std::string schedule = "geometric";
  std::optional<std::uint64_t> seed;  ///< absent -> exec.seed

  json::Value to_json() const;
  static AnnealPolicy from_json(const json::Value& doc);
};

/// Distributed-execution policy (paper §4.3.1: communication service).
struct CommPolicy {
  bool allow_teleportation = false;
  /// Per-QPU capacity descriptors: [{"name":..., "qubits": n}, ...].
  json::Value qpus = json::Value::array();
  double epr_fidelity = 0.99;

  json::Value to_json() const;
  static CommPolicy from_json(const json::Value& doc);
};

/// Stochastic noise policy: Pauli-channel strengths the gate backend applies
/// via trajectory sampling.  Orthogonal to semantics like every context
/// block — enabling it changes the sampled distribution, never the program.
struct NoisePolicy {
  bool enabled = false;
  double depolarizing_1q = 0.0;
  double depolarizing_2q = 0.0;
  double readout_flip = 0.0;

  json::Value to_json() const;
  static NoisePolicy from_json(const json::Value& doc);
};

/// Pulse realization policy (paper §4.3.1: pulse/control service).
struct PulsePolicy {
  bool enabled = false;
  double sx_duration_ns = 35.0;
  double cx_duration_ns = 300.0;
  double measure_duration_ns = 1000.0;

  json::Value to_json() const;
  static PulsePolicy from_json(const json::Value& doc);
};

/// Complete context descriptor.
struct Context {
  ExecPolicy exec;
  std::optional<QecPolicy> qec;
  std::optional<AnnealPolicy> anneal;
  std::optional<CommPolicy> comm;
  std::optional<PulsePolicy> pulse;
  std::optional<NoisePolicy> noise;
  json::Value extensions = json::Value::object();

  json::Value to_json() const;
  /// Validates against ctx.schema.json, then parses.  For compatibility with
  /// the paper's §5 annealer artifact, a top-level "contexts" wrapper object
  /// is accepted and merged into the canonical top-level blocks first.
  static Context from_json(const json::Value& doc);

  /// True when mid-circuit measurement is explicitly enabled
  /// (exec.options.allow_mid_circuit_measurement).
  bool allows_mid_circuit_measurement() const {
    return exec.options.get_bool("allow_mid_circuit_measurement", false);
  }
};

}  // namespace quml::core
