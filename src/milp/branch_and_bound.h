#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "milp/model.h"
#include "milp/simplex.h"
#include "obs/context.h"

/// \file branch_and_bound.h
/// Branch-and-bound MILP solver on top of the simplex LP relaxation. This is
/// DART's stand-in for the commercial LINDO API the paper used (Sec. 6.3);
/// any exact solver returns the same optimal objective, which is what the
/// card-minimal repair semantics needs.
///
/// The search runs serially by default; MilpOptions::search.num_threads > 1
/// switches to the work-stealing parallel scheduler (scheduler.h).
/// num_threads == 1 reproduces the serial algorithm exactly (same pivots,
/// same node count).

namespace dart::milp {

/// Branching-variable selection rule (ablated in bench_solver_ablation).
enum class BranchRule {
  kMostFractional,  ///< fractional part closest to 1/2.
  kFirstFractional, ///< lowest variable index.
};

/// Node exploration order (ablated in bench_solver_ablation).
enum class NodeOrder {
  kBestFirst,   ///< lowest parent bound first (best-bound search).
  kDepthFirst,  ///< LIFO dive.
};

/// Knobs of the branch-and-bound search itself (MilpOptions::search). These
/// used to be loose fields on MilpOptions; they are grouped so call sites
/// configure the search in one place instead of re-plumbing individual
/// flags.
struct SearchOptions {
  /// Worker threads for the branch-and-bound search (values < 1 are treated
  /// as 1). 1 runs the serial algorithm; > 1 runs the work-stealing parallel
  /// scheduler, which explores per-worker depth-first with steal-from-top
  /// (node_order applies to the serial path only). The optimal objective is
  /// identical in all configurations; node counts may differ run-to-run for
  /// > 1 because incumbents are discovered in nondeterministic order.
  int num_threads = 1;
  /// Warm-start node LP re-solves from the parent node's optimal basis via
  /// dual simplex pivots (see SolveLpWarm). A child differs from its parent
  /// in exactly one variable bound, so the parent basis stays dual-feasible
  /// and the child typically re-solves in a handful of pivots. Ablation
  /// switch (bench_warmstart_ablation); off forces cold solves at every node.
  bool use_warm_start = true;
  /// Hard cap on explored nodes (0 = unlimited).
  int64_t max_nodes = 0;
  /// Attempt a cheap round-to-nearest incumbent at every node.
  bool rounding_heuristic = true;
  BranchRule branch_rule = BranchRule::kMostFractional;
  NodeOrder node_order = NodeOrder::kBestFirst;
  /// Optional warm basis for the *root* LP (a previous solve's optimal root
  /// basis, see MilpResult::root_basis). The root re-solves from it with
  /// dual pivots exactly like a child node warm-starts from its parent;
  /// shape mismatches and stale snapshots are ignored / fall back to a cold
  /// solve, so a caller can always pass whatever it captured last. Consumed
  /// by SolveMilp only — the batch entry points take a per-model basis via
  /// BatchModel::root_basis instead.
  std::shared_ptr<const LpBasis> root_basis;
};

struct MilpOptions {
  LpOptions lp;
  /// Search knobs (threads, warm starts, node limit, branching).
  SearchOptions search;
  /// Integrality tolerance.
  double int_tol = 1e-6;
  /// When the objective provably takes integer values on integral points
  /// (true for S*(AC): it is a sum of binaries), bounds are rounded up,
  /// which substantially tightens pruning.
  bool objective_is_integral = false;
  /// Optional warm start: a point to try as the initial incumbent (snapped
  /// and feasibility-checked; silently ignored when the size is wrong or the
  /// point infeasible). Typical source: the previous validation-loop
  /// iteration's accepted solution.
  std::vector<double> initial_point;
  /// Observability sink (nullptr = no-op). This is the ONLY place solver
  /// search counters surface: every solve publishes milp.nodes,
  /// milp.lp_iterations, milp.lp_warm_solves, milp.scheduler.steals and
  /// milp.scheduler.thread.<i>.nodes into the registry (the parallel batch
  /// additionally publishes live milp.instance.<k>.nodes / .lp_iterations
  /// per-component attribution) and opens search/batch/worker spans in the
  /// trace. Callers wanting per-solve counts attach a RunContext and diff
  /// MetricsSnapshot::DeltaSince around the call. See docs/observability.md
  /// for the full metric reference.
  obs::RunContext* run = nullptr;
};

struct MilpResult {
  enum class SolveStatus {
    kOptimal,
    kInfeasible,   ///< LP relaxations were feasible but no integral point is.
    kNodeLimit,    ///< stopped early; `point` holds the incumbent if any.
    kUnbounded,
    /// Not even the continuous relaxation has a feasible point (every node's
    /// LP was infeasible) — a strictly stronger certificate than kInfeasible.
    kLpRelaxationInfeasible,
  };

  SolveStatus status = SolveStatus::kInfeasible;
  /// Objective of the incumbent, in the model's sense.
  double objective = 0;
  std::vector<double> point;
  /// True iff `point` holds a feasible integral solution.
  bool has_incumbent = false;
  /// Best proven bound on the optimum (equal to `objective` when optimal).
  double best_bound = 0;

  // Statistics. Search counters (node counts, LP iterations, warm solves,
  // steals, per-worker splits) live exclusively in the obs registry now —
  // attach MilpOptions::run and read the milp.* counters; the legacy
  // convenience fields were retired once every caller migrated.
  //
  /// Wall-clock seconds spent inside the solve (search only, not model
  /// construction).
  double wall_seconds = 0;
  /// Connected components the model split into (1 unless the solve went
  /// through SolveMilpDecomposed / SolveDecomposition, see decompose.h).
  int num_components = 1;
  /// Variable count of the largest component (0 when not decomposed).
  int largest_component_vars = 0;
  /// Presolve reductions (0 unless the solve went through
  /// SolveMilpWithPresolve, see presolve.h).
  int presolve_variables_eliminated = 0;
  int presolve_rows_removed = 0;
  /// Optimal basis of the root LP relaxation, captured when warm starts are
  /// on and the root LP solved to optimality (null otherwise). Feeding it
  /// back through SearchOptions::root_basis / BatchModel::root_basis lets a
  /// re-solve of the same (or slightly perturbed) model skip the cold root
  /// factorization — the incremental repair session's cross-iteration warm
  /// start.
  std::shared_ptr<const LpBasis> root_basis;
};

const char* MilpStatusName(MilpResult::SolveStatus status);

/// True for both infeasibility flavours (kInfeasible and
/// kLpRelaxationInfeasible).
bool IsInfeasibleStatus(MilpResult::SolveStatus status);

/// Solves `model` to proven optimality (or until the node limit).
MilpResult SolveMilp(const Model& model, const MilpOptions& options = {});

namespace internal {

/// One search's locally tracked counters, handed to PublishMilpCounters when
/// the search retires. MilpResult no longer carries these (the registry is
/// the stats surface); the struct exists so the serial solver and the batch
/// scheduler's gather publish through one code path.
struct SearchCounters {
  int64_t nodes = 0;
  int64_t lp_iterations = 0;
  int64_t lp_warm_solves = 0;
  int64_t steals = 0;
  // Sparse-LP-kernel internals, summed over the search's LP solves (all
  // zero when the dense oracle kernel ran); published as milp.lp.*.
  int64_t lp_refactorizations = 0;
  int64_t lp_eta_updates = 0;
  int64_t lp_ftran = 0;
  int64_t lp_btran = 0;
  /// Peak eta-file fill-in (nonzeros) over the search's LP solves.
  int64_t lp_basis_fill_nnz = 0;
  /// Nodes explored by each worker ({nodes} for the serial path).
  std::vector<int64_t> per_thread_nodes;
};

/// Publishes one solve's counters into the run's registry (no-op when run is
/// null): milp.solves / milp.nodes / milp.lp_iterations /
/// milp.lp_warm_solves / milp.scheduler.steals, the LP-kernel internals
/// milp.lp.refactorizations / .eta_updates / .ftran / .btran plus the
/// milp.lp.basis_fill_nnz gauge, and milp.scheduler.thread.<i>.nodes per
/// worker. Called exactly once per MilpResult produced by a search (the
/// serial solver, or the batch scheduler's per-instance gather).
void PublishMilpCounters(obs::RunContext* run,
                         const SearchCounters& counters);

}  // namespace internal

}  // namespace dart::milp
