#include "constraints/ground.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "constraints/steady.h"

namespace dart::cons {

namespace {

/// Appends `v`'s class under rel::Value::operator== to `key`, so two values
/// get the same encoding iff they compare equal: numerics by AsReal() (int
/// 2001 and real 2001.0 agree, -0.0 folds onto 0.0), strings byte-wise and
/// length-prefixed, null as its own class. Returns false for NaN, which
/// equals nothing.
bool AppendEqualityKey(const rel::Value& v, std::string* key) {
  if (v.is_null()) {
    key->push_back('n');
    return true;
  }
  if (v.is_numeric()) {
    double real = v.AsReal();
    if (std::isnan(real)) return false;
    if (real == 0) real = 0;  // -0.0 == 0.0
    char bytes[sizeof real];
    std::memcpy(bytes, &real, sizeof real);
    key->push_back('d');
    key->append(bytes, sizeof bytes);
    return true;
  }
  const std::string& text = v.AsString();
  const uint64_t length = text.size();
  char bytes[sizeof length];
  std::memcpy(bytes, &length, sizeof length);
  key->push_back('s');
  key->append(bytes, sizeof bytes);
  key->append(text);
  return true;
}

/// One aggregation function χ prepared against one database: its relation,
/// its linearized summed expression, and an equality index from the values
/// of the WHERE attributes compared by `=` to a parameter to the ascending
/// indices of the tuples holding them. The remaining comparisons (`!=`, `<`,
/// constants, attribute to attribute) are re-checked on each candidate. A
/// function with no such equality has a single bucket: every tuple.
struct IndexedFunction {
  const AggregationFunction* fn = nullptr;
  const rel::Relation* relation = nullptr;
  LinearForm form;
  /// The index key is (tuple[key_attributes[i]] = params[key_parameters[i]])
  /// over i.
  std::vector<size_t> key_attributes;
  std::vector<size_t> key_parameters;
  std::vector<const Comparison*> residual;
  std::unordered_map<std::string, std::vector<size_t>> buckets;
};

/// The index of the attribute of `schema` or the parameter of `fn` that a
/// non-constant `operand` names; nullopt when it names neither.
std::optional<size_t> OperandIndex(const Operand& operand,
                                   const rel::RelationSchema& schema,
                                   const AggregationFunction& fn) {
  if (operand.kind == Operand::Kind::kAttribute) {
    return schema.AttributeIndex(operand.name);
  }
  for (size_t i = 0; i < fn.parameters.size(); ++i) {
    if (fn.parameters[i] == operand.name) return i;
  }
  return std::nullopt;
}

/// The indexes of one GroundConstraintProgram call, built per function at
/// its first use so that errors surface exactly where the scan raised them.
class GroundingIndex {
 public:
  GroundingIndex(const rel::Database& db, const ConstraintSet& constraints,
                 size_t* tuple_visits)
      : db_(db), constraints_(constraints), tuple_visits_(tuple_visits) {}

  Result<const IndexedFunction*> Get(const std::string& name) {
    if (auto it = functions_.find(name); it != functions_.end()) {
      return &it->second;
    }
    IndexedFunction prepared;
    prepared.fn = constraints_.FindFunction(name);
    if (prepared.fn == nullptr) {
      return Status::Internal("dangling aggregation function '" + name + "'");
    }
    const AggregationFunction& fn = *prepared.fn;
    prepared.relation = db_.FindRelation(fn.relation);
    if (prepared.relation == nullptr) {
      return Status::NotFound("relation '" + fn.relation +
                              "' missing from instance");
    }
    const rel::RelationSchema& schema = prepared.relation->schema();
    DART_RETURN_IF_ERROR(fn.expr->Linearize(schema, &prepared.form, 1.0));
    Classify(schema, &prepared);
    for (size_t row = 0; row < prepared.relation->size(); ++row) {
      ++*tuple_visits_;
      const rel::Tuple& tuple = prepared.relation->row(row);
      std::string key;
      bool matchable = true;
      for (size_t attr : prepared.key_attributes) {
        matchable = matchable && AppendEqualityKey(tuple[attr], &key);
      }
      if (matchable) prepared.buckets[key].push_back(row);
    }
    return &functions_.emplace(name, std::move(prepared)).first->second;
  }

  /// T_χ(params), in ascending tuple order, into `out`.
  Status TupleSet(const IndexedFunction& indexed,
                  const std::vector<rel::Value>& params,
                  std::vector<size_t>* out) {
    const AggregationFunction& fn = *indexed.fn;
    out->clear();
    if (params.size() != fn.parameters.size()) {
      return Status::InvalidArgument(
          "function '" + fn.name + "' expects " +
          std::to_string(fn.parameters.size()) + " parameters, got " +
          std::to_string(params.size()));
    }
    std::string key;
    for (size_t param : indexed.key_parameters) {
      if (!AppendEqualityKey(params[param], &key)) return Status::Ok();
    }
    auto bucket = indexed.buckets.find(key);
    if (bucket == indexed.buckets.end()) return Status::Ok();
    const rel::RelationSchema& schema = indexed.relation->schema();
    for (size_t row : bucket->second) {
      ++*tuple_visits_;
      const rel::Tuple& tuple = indexed.relation->row(row);
      bool matches = true;
      for (const Comparison* cmp : indexed.residual) {
        DART_ASSIGN_OR_RETURN(
            matches, EvalWhereComparison(fn, *cmp, schema, tuple, params));
        if (!matches) break;
      }
      if (matches) out->push_back(row);
    }
    return Status::Ok();
  }

 private:
  /// Splits χ's WHERE clause into indexed equalities and residual checks.
  /// If any operand names neither an attribute nor a parameter, nothing is
  /// indexed: the scan raises that error at the first tuple reaching the
  /// comparison, and only a full single-bucket pass finds the same tuple.
  static void Classify(const rel::RelationSchema& schema,
                       IndexedFunction* prepared) {
    const AggregationFunction& fn = *prepared->fn;
    bool resolvable = true;
    for (const Comparison& cmp : fn.where) {
      for (const Operand* operand : {&cmp.lhs, &cmp.rhs}) {
        if (operand->kind != Operand::Kind::kConstant &&
            !OperandIndex(*operand, schema, fn)) {
          resolvable = false;
        }
      }
    }
    for (const Comparison& cmp : fn.where) {
      const Operand* attribute = nullptr;
      const Operand* parameter = nullptr;
      for (const Operand* operand : {&cmp.lhs, &cmp.rhs}) {
        if (operand->kind == Operand::Kind::kAttribute) attribute = operand;
        if (operand->kind == Operand::Kind::kParameter) parameter = operand;
      }
      if (resolvable && cmp.op == CompareOp::kEq && attribute != nullptr &&
          parameter != nullptr) {
        prepared->key_attributes.push_back(
            *OperandIndex(*attribute, schema, fn));
        prepared->key_parameters.push_back(
            *OperandIndex(*parameter, schema, fn));
      } else {
        prepared->residual.push_back(&cmp);
      }
    }
  }

  const rel::Database& db_;
  const ConstraintSet& constraints_;
  size_t* tuple_visits_;
  std::unordered_map<std::string, IndexedFunction> functions_;
};

}  // namespace

Result<GroundProgram> GroundConstraintProgram(
    const rel::Database& db, const ConstraintSet& constraints) {
  DART_RETURN_IF_ERROR(RequireAllSteady(db.Schema(), constraints));

  GroundProgram out;
  GroundingIndex index(db, constraints, &out.tuple_visits);
  std::vector<size_t> tuple_set;
  for (const AggregateConstraint& constraint : constraints.constraints()) {
    const std::vector<std::string> project = TermVariables(constraint);
    DART_ASSIGN_OR_RETURN(
        std::vector<Binding> bindings,
        GroundSubstitutions(db, constraint.premise, project));
    out.bindings += bindings.size();
    int instance = 0;
    for (Binding& binding : bindings) {
      GroundRow row;
      row.constraint = constraint.name;
      row.name = constraint.name + "#" + std::to_string(instance++);
      row.op = constraint.op;
      row.rhs = constraint.rhs;
      row.rhs_original = constraint.rhs;
      for (const AggregateTerm& term : constraint.terms) {
        DART_ASSIGN_OR_RETURN(const IndexedFunction* indexed,
                              index.Get(term.function));
        const rel::Relation& relation = *indexed->relation;
        DART_ASSIGN_OR_RETURN(std::vector<rel::Value> params,
                              ResolveCallArgs(term, binding));
        DART_RETURN_IF_ERROR(index.TupleSet(*indexed, params, &tuple_set));
        // P(χ): per tuple t of T_χ, measure attributes stay symbolic,
        // everything else is a constant under any repair (steadiness).
        for (size_t t : tuple_set) {
          row.rhs -= term.coefficient * indexed->form.constant;
          for (const auto& [attr, coeff] : indexed->form.coefficients) {
            const double factor = term.coefficient * coeff;
            if (relation.schema().attribute(attr).is_measure) {
              row.coefficients[rel::CellRef{indexed->fn->relation, t, attr}] +=
                  factor;
              out.max_abs_factor = std::max(out.max_abs_factor,
                                            std::fabs(factor));
            } else {
              const rel::Value& v = relation.At(t, attr);
              if (!v.is_numeric()) {
                return Status::InvalidArgument(
                    "non-numeric value in summed attribute of '" +
                    indexed->fn->name + "'");
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

Result<std::vector<Violation>> EvaluateGroundProgram(
    const rel::Database& db, const GroundProgram& program,
    const std::map<rel::CellRef, double>& overrides) {
  std::vector<Violation> violations;
  for (const GroundRow& row : program.rows) {
    double measure_sum = 0;
    for (const auto& [cell, coeff] : row.coefficients) {
      if (auto it = overrides.find(cell); it != overrides.end()) {
        measure_sum += coeff * it->second;
        continue;
      }
      DART_ASSIGN_OR_RETURN(rel::Value v, db.ValueAt(cell));
      if (!v.is_numeric()) {
        return Status::InvalidArgument("measure cell " + cell.ToString() +
                                       " holds a non-numeric value");
      }
      measure_sum += coeff * v.AsReal();
    }
    // Report in the constraint's original space: undo the constant shift so
    // lhs/rhs match what the constraint literally says (and what
    // ConsistencyChecker::Check has always reported).
    const double lhs = measure_sum + (row.rhs_original - row.rhs);
    if (!SatisfiesCompare(lhs, row.op, row.rhs_original)) {
      Violation violation;
      violation.constraint = row.constraint;
      violation.binding = row.binding;
      violation.lhs = lhs;
      violation.op = row.op;
      violation.rhs = row.rhs_original;
      violations.push_back(std::move(violation));
    }
  }
  return violations;
}

}  // namespace dart::cons
