#pragma once

#include <vector>

#include "constraints/ast.h"
#include "constraints/ground.h"
#include "milp/branch_and_bound.h"
#include "repair/repair.h"
#include "repair/translator.h"
#include "util/status.h"

/// \file engine.h
/// The repairing module (paper Sec. 6.3): computes a card-minimal repair for
/// a database w.r.t. a set of steady aggregate constraints by building
/// S*(AC) and solving it, with adaptive big-M enlargement and post-solve
/// verification. A from-scratch repair is a fresh IncrementalRepairSession
/// (incremental.h) solved once; that session is the one repair core behind
/// this engine, the fused batch (batch.h) and the validation loop.

namespace dart::repair {

struct RepairEngineOptions {
  TranslatorOptions translator;
  /// Solver configuration for the per-component branch-and-bound solves.
  milp::MilpOptions milp;
  /// How many times a component's M may be enlarged (×100 each time) when
  /// the component is infeasible or its optimum presses against the M box —
  /// both are symptoms of a too-small practical M.
  int max_bigm_retries = 3;
  /// Re-check ρ(D) ⊨ AC after solving (cheap; catches solver bugs).
  bool verify_result = true;
  /// Observability sink for the whole computation (nullptr = no-op).
  /// Propagated into milp.run for the solves. Search counters (milp.nodes,
  /// milp.lp_iterations, ...) are published only here — attach a RunContext
  /// and diff its registry snapshots to observe them.
  obs::RunContext* run = nullptr;
};

struct RepairStats {
  size_t num_cells = 0;       ///< N — number of z/y/δ triples.
  size_t num_ground_rows = 0; ///< rows of A (ground constraint instances).
  /// Constraint-matrix sparsity of the translated MILP (see
  /// Translation::matrix_*): rows × cols, structural nonzeros, and density.
  /// Also published as repair.matrix_* gauges.
  int matrix_rows = 0;
  int matrix_cols = 0;
  long long matrix_nnz = 0;
  double matrix_density = 0;
  double practical_m = 0;
  double theoretical_m_log10 = 0;
  // Search counters (nodes, LP iterations, warm solves, steals, per-thread
  // node counts) live exclusively in the obs registry now
  // (docs/observability.md): attach RepairEngineOptions::run and diff
  // registry snapshots around ComputeRepair to read them.
  /// Big-M growth rounds this call needed (0 when the practical M held).
  int bigm_retries = 0;
  double translate_seconds = 0;
  double solve_seconds = 0;
  /// Wall-clock seconds inside the MILP search itself (excludes translation;
  /// accumulated over big-M retries).
  double milp_wall_seconds = 0;
  /// Shape of the unpinned model: connected components it split into and
  /// the variable count of the largest one.
  int num_components = 1;
  int largest_component_vars = 0;
};

struct RepairOutcome {
  Repair repair;
  RepairStats stats;
  /// True when the input already satisfied AC (and no pins were given) — the
  /// repair is empty and no MILP was solved.
  bool already_consistent = false;
};

/// Computes card-minimal repairs.
class RepairEngine {
 public:
  explicit RepairEngine(RepairEngineOptions options = {})
      : options_(std::move(options)) {}

  /// Computes a card-minimal repair of `db` w.r.t. `constraints`, honoring
  /// the operator's value pins. Returns:
  ///   - an empty repair when the database is already consistent;
  ///   - Status::Infeasible when no repair exists (e.g. a violated ground
  ///     constraint contains no measure value, or the pins contradict AC).
  ///
  /// `warm_start`, when given, seeds the branch-and-bound incumbent with
  /// that repair's assignment (useful across validation-loop iterations; it
  /// is verified and silently dropped if the new pins contradict it).
  ///
  /// `ground`, when given, must be `GroundConstraintProgram(db, constraints)`
  /// for this same database — the engine then grounds nothing itself: the
  /// consistency fast path, the translation and the final verification all
  /// reuse it (valid across repairs by steadiness). When null the engine
  /// grounds once per call (counter `repair.groundings`).
  Result<RepairOutcome> ComputeRepair(
      const rel::Database& db, const cons::ConstraintSet& constraints,
      const std::vector<FixedValue>& fixed_values = {},
      const Repair* warm_start = nullptr,
      const cons::GroundProgram* ground = nullptr) const;

  const RepairEngineOptions& options() const { return options_; }

 private:
  RepairEngineOptions options_;
};

/// Sorts updates for display per the Validation Interface heuristic
/// (Sec. 6.3): updates whose cell occurs in more ground constraints first;
/// ties broken by cell order for determinism.
void OrderUpdatesForDisplay(const Translation& translation, Repair* repair);

namespace internal {

/// Extracts the repair encoded by a MILP solution: every zᵢ whose value
/// differs from vᵢ (beyond a relative 1e-6 tolerance) becomes an atomic
/// update; integer-domain values snap to the nearest integer, continuous
/// ones to a 6-decimal grid.
Result<Repair> ExtractRepair(const rel::Database& db,
                             const Translation& translation,
                             const std::vector<double>& point);

}  // namespace internal

}  // namespace dart::repair
