#include "constraints/eval.h"

#include <cmath>
#include <set>

namespace dart::cons {

std::string BindingToString(const Binding& binding) {
  std::string out = "{";
  bool first = true;
  for (const auto& [var, value] : binding) {
    if (!first) out += ", ";
    first = false;
    out += var + "=" + value.ToString();
  }
  return out + "}";
}

bool SatisfiesCompare(double lhs, CompareOp op, double rhs, double tolerance) {
  switch (op) {
    case CompareOp::kEq: return std::fabs(lhs - rhs) <= tolerance;
    case CompareOp::kNe: return std::fabs(lhs - rhs) > tolerance;
    case CompareOp::kLt: return lhs < rhs - tolerance;
    case CompareOp::kLe: return lhs <= rhs + tolerance;
    case CompareOp::kGt: return lhs > rhs + tolerance;
    case CompareOp::kGe: return lhs >= rhs - tolerance;
  }
  return false;
}

namespace {

/// Tries to match `atom` against `tuple`, extending `binding`. On success
/// records the variables newly bound (so the caller can backtrack).
bool MatchAtom(const Atom& atom, const rel::Tuple& tuple, Binding* binding,
               std::vector<std::string>* newly_bound) {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const TermArg& arg = atom.args[i];
    if (arg.kind == TermArg::Kind::kConstant) {
      if (!(arg.constant == tuple[i])) return false;
    } else {
      auto it = binding->find(arg.variable);
      if (it == binding->end()) {
        (*binding)[arg.variable] = tuple[i];
        newly_bound->push_back(arg.variable);
      } else if (!(it->second == tuple[i])) {
        return false;
      }
    }
  }
  return true;
}

void EnumerateRec(const rel::Database& db, const std::vector<Atom>& atoms,
                  size_t atom_index, Binding* binding,
                  const std::vector<std::string>& project_vars,
                  std::set<std::vector<rel::Value>>* seen,
                  std::vector<Binding>* out) {
  if (atom_index == atoms.size()) {
    std::vector<rel::Value> key;
    key.reserve(project_vars.size());
    Binding projected;
    for (const std::string& var : project_vars) {
      auto it = binding->find(var);
      // A projection variable not bound by φ can only arise from a validation
      // bug; treat as null so it still dedups deterministically.
      rel::Value v = it == binding->end() ? rel::Value() : it->second;
      key.push_back(v);
      projected[var] = std::move(v);
    }
    if (seen->insert(std::move(key)).second) {
      out->push_back(std::move(projected));
    }
    return;
  }
  const Atom& atom = atoms[atom_index];
  const rel::Relation* relation = db.FindRelation(atom.relation);
  DART_CHECK_MSG(relation != nullptr,
                 "grounding over relation missing from instance");
  for (const rel::Tuple& tuple : relation->rows()) {
    std::vector<std::string> newly_bound;
    if (MatchAtom(atom, tuple, binding, &newly_bound)) {
      EnumerateRec(db, atoms, atom_index + 1, binding, project_vars, seen, out);
    }
    for (const std::string& var : newly_bound) binding->erase(var);
  }
}

/// Resolves a WHERE operand against a tuple and parameter values.
Result<rel::Value> ResolveOperand(const Operand& operand,
                                  const rel::RelationSchema& schema,
                                  const rel::Tuple& tuple,
                                  const AggregationFunction& fn,
                                  const std::vector<rel::Value>& param_values) {
  switch (operand.kind) {
    case Operand::Kind::kConstant:
      return operand.constant;
    case Operand::Kind::kAttribute: {
      auto idx = schema.AttributeIndex(operand.name);
      if (!idx) {
        return Status::NotFound("attribute '" + operand.name + "' not in " +
                                schema.ToString());
      }
      return tuple[*idx];
    }
    case Operand::Kind::kParameter: {
      for (size_t i = 0; i < fn.parameters.size(); ++i) {
        if (fn.parameters[i] == operand.name) return param_values[i];
      }
      return Status::NotFound("parameter '" + operand.name +
                              "' not declared by function '" + fn.name + "'");
    }
  }
  return Status::Internal("unknown operand kind");
}

}  // namespace

Result<std::vector<Binding>> GroundSubstitutions(
    const rel::Database& db, const std::vector<Atom>& atoms,
    const std::vector<std::string>& project_vars) {
  for (const Atom& atom : atoms) {
    if (db.FindRelation(atom.relation) == nullptr) {
      return Status::NotFound("relation '" + atom.relation +
                              "' missing from database instance");
    }
  }
  std::vector<Binding> out;
  std::set<std::vector<rel::Value>> seen;
  Binding binding;
  EnumerateRec(db, atoms, 0, &binding, project_vars, &seen, &out);
  return out;
}

Result<std::vector<rel::Value>> ResolveCallArgs(const AggregateTerm& term,
                                                const Binding& binding) {
  std::vector<rel::Value> out;
  out.reserve(term.args.size());
  for (const TermArg& arg : term.args) {
    if (arg.kind == TermArg::Kind::kConstant) {
      out.push_back(arg.constant);
    } else {
      auto it = binding.find(arg.variable);
      if (it == binding.end()) {
        return Status::Internal("unbound variable '" + arg.variable +
                                "' in call " + term.ToString());
      }
      out.push_back(it->second);
    }
  }
  return out;
}

Result<bool> EvalWhereComparison(const AggregationFunction& fn,
                                 const Comparison& cmp,
                                 const rel::RelationSchema& schema,
                                 const rel::Tuple& tuple,
                                 const std::vector<rel::Value>& param_values) {
  DART_ASSIGN_OR_RETURN(rel::Value lhs,
                        ResolveOperand(cmp.lhs, schema, tuple, fn,
                                       param_values));
  DART_ASSIGN_OR_RETURN(rel::Value rhs,
                        ResolveOperand(cmp.rhs, schema, tuple, fn,
                                       param_values));
  return EvalCompare(lhs, cmp.op, rhs);
}

Result<std::vector<size_t>> AggregationTupleSet(
    const rel::Database& db, const AggregationFunction& fn,
    const std::vector<rel::Value>& param_values) {
  if (param_values.size() != fn.parameters.size()) {
    return Status::InvalidArgument(
        "function '" + fn.name + "' expects " +
        std::to_string(fn.parameters.size()) + " parameters, got " +
        std::to_string(param_values.size()));
  }
  const rel::Relation* relation = db.FindRelation(fn.relation);
  if (relation == nullptr) {
    return Status::NotFound("relation '" + fn.relation +
                            "' missing from database instance");
  }
  std::vector<size_t> out;
  for (size_t row = 0; row < relation->size(); ++row) {
    const rel::Tuple& tuple = relation->row(row);
    bool matches = true;
    for (const Comparison& cmp : fn.where) {
      DART_ASSIGN_OR_RETURN(
          matches, EvalWhereComparison(fn, cmp, relation->schema(), tuple,
                                       param_values));
      if (!matches) break;
    }
    if (matches) out.push_back(row);
  }
  return out;
}

Result<double> EvaluateAggregation(
    const rel::Database& db, const AggregationFunction& fn,
    const std::vector<rel::Value>& param_values) {
  DART_ASSIGN_OR_RETURN(std::vector<size_t> tuple_set,
                        AggregationTupleSet(db, fn, param_values));
  const rel::Relation* relation = db.FindRelation(fn.relation);
  LinearForm form;
  DART_RETURN_IF_ERROR(fn.expr->Linearize(relation->schema(), &form, 1.0));
  double total = 0;
  for (size_t row : tuple_set) {
    double value = form.constant;
    for (const auto& [attr, coeff] : form.coefficients) {
      const rel::Value& v = relation->At(row, attr);
      if (!v.is_numeric()) {
        return Status::InvalidArgument(
            "non-numeric value in summed attribute of '" + fn.name + "'");
      }
      value += coeff * v.AsReal();
    }
    total += value;
  }
  return total;
}

std::string Violation::ToString() const {
  return constraint + " " + BindingToString(binding) + ": " +
         std::to_string(lhs) + " " + CompareOpName(op) + " " +
         std::to_string(rhs) + " violated";
}

Result<std::vector<Violation>> ConsistencyChecker::Check(
    const rel::Database& db) const {
  std::vector<Violation> out;
  for (const AggregateConstraint& constraint : constraints_->constraints()) {
    std::vector<std::string> project = TermVariables(constraint);
    DART_ASSIGN_OR_RETURN(
        std::vector<Binding> bindings,
        GroundSubstitutions(db, constraint.premise, project));
    for (const Binding& binding : bindings) {
      double lhs = 0;
      for (const AggregateTerm& term : constraint.terms) {
        const AggregationFunction* fn =
            constraints_->FindFunction(term.function);
        if (fn == nullptr) {
          return Status::Internal("dangling function reference '" +
                                  term.function + "'");
        }
        DART_ASSIGN_OR_RETURN(std::vector<rel::Value> params,
                              ResolveCallArgs(term, binding));
        DART_ASSIGN_OR_RETURN(double value,
                              EvaluateAggregation(db, *fn, params));
        lhs += term.coefficient * value;
      }
      if (!SatisfiesCompare(lhs, constraint.op, constraint.rhs)) {
        out.push_back(Violation{constraint.name, binding, lhs, constraint.op,
                                constraint.rhs});
      }
    }
  }
  return out;
}

Result<bool> ConsistencyChecker::IsConsistent(const rel::Database& db) const {
  DART_ASSIGN_OR_RETURN(std::vector<Violation> violations, Check(db));
  return violations.empty();
}

std::vector<std::string> TermVariables(const AggregateConstraint& constraint) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const AggregateTerm& term : constraint.terms) {
    for (const TermArg& arg : term.args) {
      if (arg.kind == TermArg::Kind::kVariable &&
          seen.insert(arg.variable).second) {
        out.push_back(arg.variable);
      }
    }
  }
  return out;
}

}  // namespace dart::cons
