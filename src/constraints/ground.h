#pragma once

#include <map>
#include <string>
#include <vector>

#include "constraints/ast.h"
#include "constraints/eval.h"
#include "relational/database.h"
#include "util/status.h"

/// \file ground.h
/// Shared grounding of an aggregate-constraint program against one database
/// instance: S(AC) as data, independent of what consumes it.
///
/// Grounding — enumerating premise substitutions and folding every steady
/// (non-measure) attribute into constants — used to happen twice per
/// repaired document: once inside `ConsistencyChecker::Check` for violation
/// detection and once inside `TranslateToMilp` per big-M attempt. A
/// `GroundProgram` is the one shared artifact: the consistency check is a
/// linear evaluation of its rows at the database's current measure values,
/// and the MILP translation replaces those values with z variables. By
/// steadiness (Def. 6 of the paper), T_χ and the folded constants are
/// invariant under any repair, so one `GroundProgram` stays valid for the
/// original database, every repair candidate, and the final verification.

namespace dart::cons {

/// One ground constraint instance, reduced to measure cells:
///   Σ coefficients[cell]·value(cell)  op  rhs
/// where `rhs` has the constraint's RHS shifted by every constant
/// contribution (aggregation constants and steady-attribute terms). A row
/// with no coefficients is a *constant* row — kept, because it still
/// detects violations (and proves irreparability to the translator).
struct GroundRow {
  std::string constraint;           ///< source constraint name.
  Binding binding;                  ///< premise substitution of this instance.
  std::string name;                 ///< "<constraint>#<k>", k per constraint.
  std::map<rel::CellRef, double> coefficients;
  CompareOp op = CompareOp::kLe;
  double rhs = 0;                   ///< shifted (measure-cell) space.
  double rhs_original = 0;          ///< the constraint's literal RHS.
};

struct GroundProgram {
  std::vector<GroundRow> rows;
  /// Max |coefficient| seen while accumulating measure factors (the `a` of
  /// the theoretical big-M bound), starting at 1. Accumulated before
  /// cancellation-dropping, exactly as the translator always did.
  double max_abs_factor = 1;
  /// Work counts of the grounding: premise substitutions grounded, and
  /// tuples visited building the per-function indexes plus tuples visited
  /// probing them.
  size_t bindings = 0;
  size_t tuple_visits = 0;
};

/// Grounds `constraints` against `db`. Fails on non-steady constraint sets
/// (grounding would not survive repairs), dangling aggregation functions,
/// missing relations, and non-numeric summed attributes.
///
/// T_χ comes from an equality index built, at the function's first use, over
/// the tuple values of the WHERE attributes compared by `=` to a parameter;
/// each (substitution, term) is one bucket lookup, and the other comparisons
/// are re-checked per candidate. The rows, their order and every coefficient
/// are those of scanning the relation per substitution (AggregationTupleSet);
/// the cost is O(tuples + Σ|T_χ|) per function instead of
/// O(substitutions × tuples). The index lives for this call only.
Result<GroundProgram> GroundConstraintProgram(
    const rel::Database& db, const ConstraintSet& constraints);

/// Evaluates the ground rows at `db`'s current measure values and returns
/// the violated instances, in row (= constraint, then substitution) order —
/// the same order `ConsistencyChecker::Check` reports. Violations carry the
/// constraint's original lhs/rhs space, not the shifted row space.
/// `overrides` replaces the value of each listed cell, so the rows can be
/// evaluated at ρ(D) for a repair ρ without cloning the database.
Result<std::vector<Violation>> EvaluateGroundProgram(
    const rel::Database& db, const GroundProgram& program,
    const std::map<rel::CellRef, double>& overrides = {});

}  // namespace dart::cons
