#pragma once

#include <cstdint>

#include "constraints/ast.h"
#include "relational/database.h"
#include "repair/engine.h"
#include "validation/display.h"
#include "validation/operator.h"
#include "util/status.h"

/// \file session.h
/// The supervised repairing loop of the Validation Interface (Sec. 6.3):
///
///   1. compute a card-minimal repair (respecting every value already
///      validated in a previous iteration);
///   2. display its updates in the heuristic order (most-constrained cells
///      first) and let the operator examine them;
///   3. each accepted update pins the cell to the suggested value, each
///      rejected one pins it to the actual source value the operator reads;
///   4. re-compute until a repair is fully accepted.
///
/// The operator may re-start the computation after examining only a prefix
/// of the updates (`examine_batch`), which is exactly the scenario the
/// display-ordering heuristic is designed for.

namespace dart::validation {

struct SessionOptions {
  repair::RepairEngineOptions engine;
  /// Compute repairs through one session-scoped IncrementalRepairSession
  /// (repair/incremental.h): ground, translate + decompose once, then
  /// re-solve only the components whose pins changed, reusing every clean
  /// component's cached optimum and warm-starting dirty ones from their
  /// previous root basis. Exact — iteration results match the from-scratch
  /// engine (the pinned models are the same mathematical programs) — so
  /// this is a pure perf knob; off calls RepairEngine::ComputeRepair (a
  /// fresh session) per iteration, the no-reuse baseline
  /// (tests/incremental_test.cpp asserts parity).
  bool use_incremental = true;
  /// Updates examined per iteration before re-computing; 0 = all of them.
  size_t examine_batch = 0;
  /// Safety valve on loop length.
  size_t max_iterations = 1000;
  /// Observability sink: validation.iterations / validation.examined /
  /// validation.accepted / validation.rejected counters, one
  /// validation.iteration span per loop pass, and the engine's repair.*
  /// instrumentation underneath. When nullptr the session runs against a
  /// private RunContext of its own, so SessionResult's solver totals (and
  /// the `progress` view) work either way. See docs/observability.md.
  obs::RunContext* run = nullptr;
  /// Live operator progress: when set, one SessionProgressView per
  /// iteration (display.h) is delivered after the examination pass —
  /// examined/accepted/rejected counts from the registry delta plus the
  /// current iteration / latest repair-attempt span timings from the trace.
  /// Wrap an ostream in OstreamProgressSink for the classic one-line-per-
  /// iteration text rendering.
  ProgressSink* progress = nullptr;
};

struct SessionResult {
  /// The final database: acquired data with the accepted repair applied.
  rel::Database repaired;
  bool converged = false;

  // Operator-effort metrics.
  size_t iterations = 0;         ///< repair computations performed.
  size_t examined_updates = 0;   ///< values the human compared with the doc.
  size_t accepted_updates = 0;
  size_t rejected_updates = 0;

  // Aggregate solver effort across iterations, read from the obs registry
  // (delta of the milp.nodes / milp.lp_iterations counters over the session).
  int64_t total_nodes = 0;
  int64_t total_lp_iterations = 0;
};

/// Runs the supervised loop to convergence.
///
/// When the operator oracle holds the true source values and the source
/// document satisfies AC, the loop always converges: every iteration pins at
/// least one previously unvalidated cell to its true value, and the
/// all-true-values assignment satisfies every pin and constraint.
Result<SessionResult> RunValidationSession(
    const rel::Database& acquired, const cons::ConstraintSet& constraints,
    const SimulatedOperator& op, const SessionOptions& options = {});

}  // namespace dart::validation
