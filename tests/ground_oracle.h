#pragma once

// Test oracle for cons::GroundConstraintProgram: the grounding loop that
// scans χ's whole relation for every (premise substitution × term) through
// cons::AggregationTupleSet. Quadratic in the data, so it is test support
// only; the production grounding answers T_χ from an equality index and must
// reproduce this loop's output row for row and bit for bit.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "constraints/eval.h"
#include "constraints/ground.h"
#include "constraints/steady.h"

namespace dart::cons::testing {

inline Result<GroundProgram> ScanGroundConstraintProgram(
    const rel::Database& db, const ConstraintSet& constraints) {
  DART_RETURN_IF_ERROR(RequireAllSteady(db.Schema(), constraints));

  GroundProgram out;
  for (const AggregateConstraint& constraint : constraints.constraints()) {
    const std::vector<std::string> project = TermVariables(constraint);
    DART_ASSIGN_OR_RETURN(
        std::vector<Binding> bindings,
        GroundSubstitutions(db, constraint.premise, project));
    int instance = 0;
    for (Binding& binding : bindings) {
      GroundRow row;
      row.constraint = constraint.name;
      row.name = constraint.name + "#" + std::to_string(instance++);
      row.op = constraint.op;
      row.rhs = constraint.rhs;
      row.rhs_original = constraint.rhs;
      for (const AggregateTerm& term : constraint.terms) {
        const AggregationFunction* fn = constraints.FindFunction(term.function);
        if (fn == nullptr) {
          return Status::Internal("dangling aggregation function '" +
                                  term.function + "'");
        }
        const rel::Relation* relation = db.FindRelation(fn->relation);
        if (relation == nullptr) {
          return Status::NotFound("relation '" + fn->relation +
                                  "' missing from instance");
        }
        LinearForm form;
        DART_RETURN_IF_ERROR(
            fn->expr->Linearize(relation->schema(), &form, 1.0));
        DART_ASSIGN_OR_RETURN(std::vector<rel::Value> params,
                              ResolveCallArgs(term, binding));
        DART_ASSIGN_OR_RETURN(std::vector<size_t> tuple_set,
                              AggregationTupleSet(db, *fn, params));
        // P(χ): per tuple t of T_χ, measure attributes stay symbolic,
        // everything else is a constant under any repair (steadiness).
        for (size_t t : tuple_set) {
          row.rhs -= term.coefficient * form.constant;
          for (const auto& [attr, coeff] : form.coefficients) {
            const double factor = term.coefficient * coeff;
            if (relation->schema().attribute(attr).is_measure) {
              row.coefficients[rel::CellRef{fn->relation, t, attr}] += factor;
              out.max_abs_factor = std::max(out.max_abs_factor,
                                            std::fabs(factor));
            } else {
              const rel::Value& v = relation->At(t, attr);
              if (!v.is_numeric()) {
                return Status::InvalidArgument(
                    "non-numeric value in summed attribute of '" + fn->name +
                    "'");
              }
              row.rhs -= factor * v.AsReal();
            }
          }
        }
      }
      // Drop zero coefficients produced by cancellation. Rows that end up
      // with no coefficients stay: they are constant facts the evaluator
      // still checks and the translator treats as (ir)reparability proofs.
      for (auto it = row.coefficients.begin(); it != row.coefficients.end();) {
        if (it->second == 0) it = row.coefficients.erase(it);
        else ++it;
      }
      row.binding = std::move(binding);
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

}  // namespace dart::cons::testing
