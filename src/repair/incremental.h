#pragma once

#include <map>
#include <vector>

#include "constraints/ast.h"
#include "constraints/ground.h"
#include "milp/decompose.h"
#include "repair/engine.h"
#include "repair/translator.h"
#include "util/status.h"

/// \file incremental.h
/// The repair core (paper Sec. 6.3). Every repair — a from-scratch
/// RepairEngine::ComputeRepair, a fused ComputeRepairBatch and each
/// iteration of the supervised validation loop — runs on this session's
/// component store. It treats operator decisions as *active integrity
/// constraints* with localized effects (repAIrC, PAPERS.md): it translates
/// S*(AC) once *without* pins, decomposes it into connected components of
/// the variable–constraint incidence graph, and persists the translation,
/// the decomposition, every per-component optimum and every component's
/// optimal root LP basis across ComputeRepair calls. A pin becomes the bound
/// change z = [v, v] on its component's persisted sub-model; only the
/// components touched by changed pins are marked dirty and re-solved
/// (warm-starting from their previous root basis), and the cached optima of
/// the clean ones are stitched back in with milp::StitchDecomposition.
/// Iteration cost is therefore proportional to the dirty region, not the
/// database. A from-scratch repair is a fresh session solved once: every
/// component starts dirty, and one whose current values already satisfy its
/// rows is settled at objective 0 without a solve.
///
/// Exactness: the pinned model solved here is the same mathematical program
/// the translator would rebuild with pin rows (a pin row z = v and the bound
/// z ∈ [v, v] have identical feasible sets; objective and all other rows are
/// untouched). tests/repair_oracle_test.cpp checks the optimum against a
/// whole-model SolveMilp and the exhaustive solver over seeds.
///
/// Grounding: the session takes the caller's ground program when it has one
/// (Submit and SubmitBatch ground once for detection) and otherwise grounds
/// once itself (counter `repair.groundings`). The consistency fast path, the
/// translation (TranslateGrounded) and the final verification all evaluate
/// that one program; the verification evaluates its rows at the repaired
/// cell values without cloning the database, so it shares nothing with the
/// translated model.
///
/// Big-M retries: when a dirty component comes back infeasible or its
/// optimum presses a |yᵢ| against 0.999·Mᵢ — both symptoms of a too-small
/// practical M — the component's M is enlarged ×100 *in place*: the y box
/// widens, the δ coefficients of the two big-M rows scale by 100
/// (Model::ScaleVarRowCoefficients) and unpinned z boxes widen. Clean
/// components are untouched — their cached optima already passed the
/// saturation test.
///
/// Lockstep: SolveInLockstep steps several started sessions together. Each
/// round pools every session's dirty components into one SolveMilpBatch
/// (largest model first), then runs each session's big-M test; the fused
/// batch (batch.h) is N sessions stepped this way, a single repair is one.
///
/// Observability (docs/observability.md): one `repair.incremental` span per
/// ComputeRepair call (`repair.compute` / `repair.batch` for the engine and
/// the batch) with `cons.ground` (only when the session grounds itself),
/// `detect.evaluate` (the already-consistent test), `repair.translate`, one
/// `repair.attempt` per round (its `repair.solve` inside) and
/// `repair.verify` nested inside, and the counters
/// repair.incremental.dirty_components / repair.incremental.clean_reused /
/// repair.incremental.translate_skipped.

namespace dart::repair {

class IncrementalRepairSession;

/// cons::GroundConstraintProgram inside a `cons.ground` span, counting
/// repair.groundings and the grounding's work (cons.ground.bindings,
/// cons.ground.tuple_visits) on `run`.
Result<cons::GroundProgram> GroundObserved(
    const obs::RunContext* run, const rel::Database& db,
    const cons::ConstraintSet& constraints);

/// Runs the started calls of `sessions` (see IncrementalRepairSession::Start)
/// round by round until none has a dirty component. Every round solves all
/// sessions' dirty components in one SolveMilpBatch under the first
/// session's solver options, largest model first (ties keep session, then
/// component order). Sessions already answered by Start take no part.
void SolveInLockstep(const std::vector<IncrementalRepairSession*>& sessions);

/// Incremental repair computations against one fixed database + constraint
/// set. Both must outlive the session (the validation loop holds them for
/// its whole run). Not thread-safe: one session serves one operator loop.
class IncrementalRepairSession {
 public:
  /// `ground`, when given, must be `GroundConstraintProgram(db,
  /// constraints)` and outlive the session; when null the session grounds
  /// once, on its first call.
  IncrementalRepairSession(const rel::Database& db,
                           const cons::ConstraintSet& constraints,
                           RepairEngineOptions options = {},
                           const cons::GroundProgram* ground = nullptr);
  /// Not copyable: the session may point into its own ground program.
  IncrementalRepairSession(const IncrementalRepairSession&) = delete;
  IncrementalRepairSession& operator=(const IncrementalRepairSession&) =
      delete;

  /// Computes a card-minimal repair honoring `fixed_values`, re-solving only
  /// the components whose pin set changed since the previous call. Contract
  /// matches RepairEngine::ComputeRepair: empty repair +
  /// `already_consistent` when the database satisfies AC and no pins are
  /// given; Status::Infeasible when no repair exists; `warm_start` seeds
  /// dirty components' incumbents (silently dropped when contradicted).
  /// Pins may be added, changed, or removed between calls; only the
  /// difference is re-solved. Equivalent to Start + SolveInLockstep({this})
  /// + Finish.
  Result<RepairOutcome> ComputeRepair(
      const std::vector<FixedValue>& fixed_values = {},
      const Repair* warm_start = nullptr);

  /// First step of a call: grounds (once per session), answers the
  /// already-consistent fast path, translates and decomposes (once per
  /// session) and folds the pin difference into the component store.
  Status Start(const std::vector<FixedValue>& fixed_values,
               const Repair* warm_start);
  /// Last step of a call, after SolveInLockstep: stitches the component
  /// optima, extracts and verifies the repair.
  Result<RepairOutcome> Finish();

  /// True once the translation + decomposition exist (after the first
  /// ComputeRepair that needed a solve).
  bool initialized() const { return initialized_; }
  /// Components of the persisted decomposition (0 before initialization).
  int num_components() const;
  /// Components re-solved / reused by the most recent ComputeRepair.
  int last_dirty_components() const { return last_dirty_components_; }
  int last_clean_reused() const { return last_clean_reused_; }

  const RepairEngineOptions& options() const { return options_; }

 private:
  friend void SolveInLockstep(
      const std::vector<IncrementalRepairSession*>& sessions);

  /// State of one call between Start and Finish.
  struct Call {
    /// False when Start answered the call (already consistent).
    bool solving = false;
    std::vector<FixedValue> fixed_values;
    /// Full-space point: pinned z at the pin, every other z at its current
    /// value, y and δ derived. Settles zero-objective components.
    std::vector<double> candidate;
    /// Full-space warm incumbent from the warm-start repair (empty without).
    std::vector<double> hint;
    /// Components dirty at the start of the current round.
    std::vector<int> round_dirty;
    int retries = 0;
    RepairOutcome outcome;
  };

  obs::RunContext* run() const {
    return options_.run != nullptr ? options_.run : options_.milp.run;
  }
  Status Initialize(obs::RunContext* run);
  Status ApplyPinDiff(const std::vector<FixedValue>& fixed_values);
  /// Settles every dirty component whose candidate slice is feasible at
  /// objective 0 and returns the others, which need a solve this round.
  std::vector<int> BeginRound();
  /// Runs the big-M test over the round's components and marks the ones
  /// whose M grew dirty again (while retries remain).
  void EndRound();
  /// Enlarges `component`'s big-M ×100 in place (y boxes, big-M row
  /// coefficients, unpinned z boxes).
  void GrowComponentBigM(int component);
  /// Evaluates the ground program at the repaired values and checks pins.
  Status Verify(const Repair& repair) const;

  const rel::Database* db_;
  const cons::ConstraintSet* constraints_;
  RepairEngineOptions options_;
  const cons::GroundProgram* ground_;
  cons::GroundProgram own_ground_;

  bool initialized_ = false;
  Translation translation_;
  milp::Decomposition decomposition_;
  /// Latest solve of each persisted component, in decomposition order:
  /// `point` is in component-local variable space, `root_basis` warm-starts
  /// the next re-solve of the component.
  std::vector<milp::MilpResult> component_results_;
  std::vector<char> dirty_;

  std::map<rel::CellRef, int> cell_index_;
  std::vector<int> component_of_cell_;
  std::vector<std::vector<int>> cells_of_component_;
  /// Current per-cell big-M (grows ×100 on component retries) and current
  /// z-box half-width (same growth), both seeded from the translation.
  std::vector<double> cell_big_m_;
  std::vector<double> cell_z_box_;

  /// Pins currently folded into the sub-models, cell index → value.
  std::map<int, double> applied_pins_;

  Call call_;
  int last_dirty_components_ = 0;
  int last_clean_reused_ = 0;
};

}  // namespace dart::repair
