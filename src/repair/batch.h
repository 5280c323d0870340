#pragma once

#include <vector>

#include "constraints/ground.h"
#include "repair/engine.h"

/// \file batch.h
/// Fused multi-database repair: N acquired databases repaired together, with
/// the components of all of them solved in shared `SolveMilpBatch` calls.
///
/// `RepairEngine::ComputeRepair` pays the scheduler entry (thread fan-out,
/// pool warm-up) once per document; a batch of N documents pays it N times
/// and leaves workers idle whenever one document's components drain before
/// the next call starts. `ComputeRepairBatch` instead starts one
/// IncrementalRepairSession per document (translate + decompose fan out
/// across the pool) and steps them in lockstep (SolveInLockstep): each round
/// pools every document's dirty components into one batch, largest first
/// across documents, and each document then runs its own per-component
/// big-M test, so a saturated component re-enters the next round while
/// finished documents drop out.
///
/// Per-document results are bit-identical to `ComputeRepair` at
/// `num_threads <= 1` (the serial batch path solves each component with the
/// same deterministic `SolveMilp` a single session bottoms out in) and
/// agree on any thread count whenever optima are unique.

namespace dart::repair {

/// One document's repair work. `db` and `ground` must outlive the call;
/// `ground` must come from `GroundConstraintProgram(*db, constraints)` for
/// the same constraint set passed to ComputeRepairBatch.
struct BatchRepairRequest {
  const rel::Database* db = nullptr;
  const cons::GroundProgram* ground = nullptr;
  /// Per-document confidence weights (appended to options.translator.weights
  /// semantics: cells not listed cost 1).
  std::vector<CellWeight> weights;
};

/// Repairs every request against `constraints` under `options`, fusing all
/// MILP components into shared `SolveMilpBatch` calls (one per big-M
/// round). Returns one Result per request, in request order; a failing
/// document (malformed instance, no repair exists, ...) fails only its own
/// slot.
///
/// Stats caveat: `solve_seconds` of each outcome records the *shared* batch
/// solve wall of the rounds the document took part in, not an attributed
/// per-document share.
std::vector<Result<RepairOutcome>> ComputeRepairBatch(
    const std::vector<BatchRepairRequest>& requests,
    const cons::ConstraintSet& constraints,
    const RepairEngineOptions& options);

}  // namespace dart::repair
