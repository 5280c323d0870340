#pragma once

#include <map>
#include <string>
#include <vector>

#include "constraints/ast.h"
#include "relational/database.h"
#include "util/status.h"

/// \file eval.h
/// Grounding and evaluation of aggregate constraints: enumerating the ground
/// substitutions θ of a premise φ over a database instance, computing the
/// tuple sets T_χ and values of aggregation functions, and checking
/// D ⊨ AC / D ⊭ AC with a detailed violation report.

namespace dart::cons {

/// A ground substitution θ restricted to the variables of interest.
using Binding = std::map<std::string, rel::Value>;

std::string BindingToString(const Binding& binding);

/// Comparison with an absolute tolerance, used wherever constraint
/// satisfaction over real-valued data is decided.
bool SatisfiesCompare(double lhs, CompareOp op, double rhs,
                      double tolerance = 1e-6);

/// Enumerates the ground substitutions of `atoms` over `db`, projected onto
/// `project_vars` and deduplicated. A projected binding appears in the result
/// iff it extends to a full substitution making every atom true.
///
/// Variables not listed in `project_vars` act as the paper's '_' wildcards.
Result<std::vector<Binding>> GroundSubstitutions(
    const rel::Database& db, const std::vector<Atom>& atoms,
    const std::vector<std::string>& project_vars);

/// Resolves the call-site arguments Xᵢ of `term` under `binding` into
/// concrete parameter values for the aggregation function.
Result<std::vector<rel::Value>> ResolveCallArgs(const AggregateTerm& term,
                                                const Binding& binding);

/// Whether `tuple` of χ's relation satisfies the WHERE conjunct `cmp` under
/// `param_values`. Fails when an operand names an attribute missing from
/// `schema` or a parameter `fn` does not declare.
Result<bool> EvalWhereComparison(const AggregationFunction& fn,
                                 const Comparison& cmp,
                                 const rel::RelationSchema& schema,
                                 const rel::Tuple& tuple,
                                 const std::vector<rel::Value>& param_values);

/// T_χ: indices of the tuples of χ's relation satisfying the WHERE clause
/// under the given parameter values (paper Sec. 5). A scan of the whole
/// relation; `GroundConstraintProgram` answers the same question from an
/// index.
Result<std::vector<size_t>> AggregationTupleSet(
    const rel::Database& db, const AggregationFunction& fn,
    const std::vector<rel::Value>& param_values);

/// Evaluates χ(param_values) on `db`: the sum of the attribute expression
/// over T_χ (0 for an empty tuple set, matching SQL-sum-over-no-rows being
/// treated as 0 by the paper's examples).
Result<double> EvaluateAggregation(const rel::Database& db,
                                   const AggregationFunction& fn,
                                   const std::vector<rel::Value>& param_values);

/// One violated ground instance of a constraint.
struct Violation {
  std::string constraint;
  Binding binding;
  double lhs = 0;
  CompareOp op = CompareOp::kLe;
  double rhs = 0;

  std::string ToString() const;
};

/// Checks a database against a constraint set.
class ConsistencyChecker {
 public:
  explicit ConsistencyChecker(const ConstraintSet* constraints)
      : constraints_(constraints) {}

  /// All violated ground constraint instances (empty ⇔ D ⊨ AC).
  Result<std::vector<Violation>> Check(const rel::Database& db) const;

  /// D ⊨ AC?
  Result<bool> IsConsistent(const rel::Database& db) const;

 private:
  const ConstraintSet* constraints_;
};

/// Variables of the premise that a constraint's terms actually reference —
/// the projection used when grounding the constraint.
std::vector<std::string> TermVariables(const AggregateConstraint& constraint);

}  // namespace dart::cons
