// The indexed grounding (constraints/ground.h) against the scan it replaced
// (tests/ground_oracle.h): over 30 seeds of each domain (cash budget,
// catalog, expense report) at three sizes, the GroundProgram must equal the
// oracle's row for row — order, names, bindings, op, rhs, rhs_original,
// max_abs_factor and every coefficient bit for bit — and evaluating it must
// report the violations of the ungrounded ConsistencyChecker. Hand-written
// cases pin the index's key normalisation (int vs real, ±0, NaN, null,
// strings against numbers), its residual comparisons, and its errors.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "constraints/eval.h"
#include "constraints/ground.h"
#include "constraints/parser.h"
#include "ground_oracle.h"
#include "ocr/cash_budget.h"
#include "ocr/catalog.h"
#include "ocr/expense.h"
#include "ocr/noise.h"
#include "util/random.h"

namespace dart::cons {
namespace {

void ExpectSameProgram(const GroundProgram& got, const GroundProgram& want) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got.max_abs_factor),
            std::bit_cast<uint64_t>(want.max_abs_factor));
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (size_t i = 0; i < got.rows.size(); ++i) {
    const GroundRow& a = got.rows[i];
    const GroundRow& b = want.rows[i];
    SCOPED_TRACE("row " + std::to_string(i) + " " + b.name);
    EXPECT_EQ(a.constraint, b.constraint);
    EXPECT_EQ(a.name, b.name);
    // By text: a NaN binding value does not equal itself.
    EXPECT_EQ(BindingToString(a.binding), BindingToString(b.binding));
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.rhs), std::bit_cast<uint64_t>(b.rhs));
    EXPECT_EQ(std::bit_cast<uint64_t>(a.rhs_original),
              std::bit_cast<uint64_t>(b.rhs_original));
    ASSERT_EQ(a.coefficients.size(), b.coefficients.size());
    auto it = b.coefficients.begin();
    for (const auto& [cell, coeff] : a.coefficients) {
      EXPECT_EQ(cell, it->first);
      EXPECT_EQ(std::bit_cast<uint64_t>(coeff),
                std::bit_cast<uint64_t>(it->second));
      ++it;
    }
  }
}

/// Grounds with the index and with the scan; both succeed with the same
/// program or both fail with the same status code. Returns the indexed
/// result.
Result<GroundProgram> GroundBothWays(const rel::Database& db,
                                     const ConstraintSet& constraints) {
  Result<GroundProgram> indexed = GroundConstraintProgram(db, constraints);
  Result<GroundProgram> scanned =
      testing::ScanGroundConstraintProgram(db, constraints);
  EXPECT_EQ(indexed.ok(), scanned.ok())
      << (indexed.ok() ? scanned.status() : indexed.status()).ToString();
  if (indexed.ok() && scanned.ok()) {
    ExpectSameProgram(*indexed, *scanned);
  } else if (!indexed.ok() && !scanned.ok()) {
    EXPECT_EQ(indexed.status().code(), scanned.status().code());
    EXPECT_EQ(indexed.status().message(), scanned.status().message());
  }
  return indexed;
}

// ---------------------------------------------------------------------------
// Parity over the three domains
// ---------------------------------------------------------------------------

enum class Domain { kCashBudget, kCatalog, kExpense };

struct Instance {
  rel::Database db;
  ConstraintSet constraints;
};

/// A random instance of `domain` at `size` (years, categories or months)
/// with one or two injected measure errors.
Instance MakeInstance(Domain domain, int size, uint64_t seed) {
  Rng rng(4100 + 131 * seed + 7 * static_cast<uint64_t>(size) +
          static_cast<uint64_t>(domain));
  Result<rel::Database> truth = Status::Internal("unset");
  std::string program;
  switch (domain) {
    case Domain::kCashBudget: {
      ocr::CashBudgetOptions options;
      options.num_years = size;
      truth = ocr::CashBudgetFixture::Random(options, &rng);
      program = ocr::CashBudgetFixture::ConstraintProgram();
      break;
    }
    case Domain::kCatalog: {
      ocr::CatalogOptions options;
      options.num_categories = 1 + size;
      options.items_per_category = 3;
      truth = ocr::CatalogFixture::Random(options, &rng);
      program = ocr::CatalogFixture::ConstraintProgram();
      break;
    }
    case Domain::kExpense: {
      ocr::ExpenseOptions options;
      options.num_months = size;
      options.categories_per_month = 2;
      options.items_per_category = 3;
      truth = ocr::ExpenseFixture::Random(options, &rng);
      program = ocr::ExpenseFixture::ConstraintProgram();
      break;
    }
  }
  DART_CHECK_MSG(truth.ok(), truth.status().ToString());
  Instance instance;
  instance.db = std::move(truth).value();
  auto errors = ocr::InjectMeasureErrors(&instance.db, 1 + seed % 2, &rng);
  DART_CHECK_MSG(errors.ok(), errors.status().ToString());
  const Status parsed = ParseConstraintProgram(instance.db.Schema(), program,
                                               &instance.constraints);
  DART_CHECK_MSG(parsed.ok(), parsed.ToString());
  return instance;
}

struct ParityCase {
  Domain domain;
  int size;
};

class GroundParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(GroundParityTest, IndexedGroundingEqualsScanOracle) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Instance instance =
        MakeInstance(GetParam().domain, GetParam().size, seed);
    Result<GroundProgram> ground =
        GroundBothWays(instance.db, instance.constraints);
    ASSERT_TRUE(ground.ok()) << ground.status().ToString();
    EXPECT_EQ(ground->bindings, ground->rows.size());
  }
}

TEST_P(GroundParityTest, EvaluationMatchesUngroundedChecker) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Instance instance =
        MakeInstance(GetParam().domain, GetParam().size, seed);
    auto ground = GroundConstraintProgram(instance.db, instance.constraints);
    ASSERT_TRUE(ground.ok()) << ground.status().ToString();
    auto evaluated = EvaluateGroundProgram(instance.db, *ground);
    auto checked =
        ConsistencyChecker(&instance.constraints).Check(instance.db);
    ASSERT_TRUE(evaluated.ok()) << evaluated.status().ToString();
    ASSERT_TRUE(checked.ok()) << checked.status().ToString();
    ASSERT_FALSE(checked->empty());  // every instance carries an error
    ASSERT_EQ(evaluated->size(), checked->size());
    for (size_t i = 0; i < checked->size(); ++i) {
      const Violation& a = (*evaluated)[i];
      const Violation& b = (*checked)[i];
      EXPECT_EQ(a.constraint, b.constraint);
      EXPECT_TRUE(a.binding == b.binding) << BindingToString(a.binding);
      EXPECT_EQ(a.op, b.op);
      EXPECT_EQ(a.rhs, b.rhs);
      EXPECT_NEAR(a.lhs, b.lhs, 1e-6 * std::max(1.0, std::fabs(b.lhs)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Domains, GroundParityTest,
    ::testing::Values(ParityCase{Domain::kCashBudget, 1},
                      ParityCase{Domain::kCashBudget, 4},
                      ParityCase{Domain::kCashBudget, 16},
                      ParityCase{Domain::kCatalog, 1},
                      ParityCase{Domain::kCatalog, 4},
                      ParityCase{Domain::kCatalog, 16},
                      ParityCase{Domain::kExpense, 1},
                      ParityCase{Domain::kExpense, 4},
                      ParityCase{Domain::kExpense, 16}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      const char* name = info.param.domain == Domain::kCashBudget ? "CashBudget"
                         : info.param.domain == Domain::kCatalog ? "Catalog"
                                                                  : "Expense";
      return std::string(name) + std::to_string(info.param.size);
    });

// ---------------------------------------------------------------------------
// Hand-written cases
// ---------------------------------------------------------------------------

/// R(K:Real, I:Int, S:String, A:Real, M:Real*) is aggregated; the premise
/// relations P(K:Real) and Q(I:Int) supply the parameter values.
class GroundEdgeCaseTest : public ::testing::Test {
 protected:
  static rel::RelationSchema RSchema(bool with_a = true) {
    std::vector<rel::AttributeDef> attrs = {
        {"K", rel::Domain::kReal, false},
        {"I", rel::Domain::kInt, false},
        {"S", rel::Domain::kString, false}};
    if (with_a) attrs.push_back({"A", rel::Domain::kReal, false});
    attrs.push_back({"M", rel::Domain::kReal, true});
    return *rel::RelationSchema::Create("R", attrs);
  }

  static rel::Database MakeDb(bool with_a = true) {
    rel::Database db;
    DART_CHECK(db.AddRelation(RSchema(with_a)).ok());
    DART_CHECK(db.AddRelation(*rel::RelationSchema::Create(
                                  "P", {{"K", rel::Domain::kReal, false}}))
                   .ok());
    DART_CHECK(db.AddRelation(*rel::RelationSchema::Create(
                                  "Q", {{"I", rel::Domain::kInt, false}}))
                   .ok());
    return db;
  }

  /// Appends R(k, i, s, a, m), dropping `a` when R has no A.
  static void AddR(rel::Database* db, rel::Value k, int64_t i, std::string s,
                   double a, double m) {
    rel::Relation* r = db->FindRelation("R");
    rel::Tuple tuple = {std::move(k), rel::Value(i), rel::Value(std::move(s))};
    if (r->schema().AttributeIndex("A")) tuple.push_back(rel::Value(a));
    tuple.push_back(rel::Value(m));
    DART_CHECK(r->Insert(std::move(tuple)).ok());
  }

  static void AddP(rel::Database* db, rel::Value k) {
    DART_CHECK(db->FindRelation("P")->Insert({std::move(k)}).ok());
  }

  static void AddQ(rel::Database* db, int64_t i) {
    DART_CHECK(db->FindRelation("Q")->Insert({rel::Value(i)}).ok());
  }

  /// A database exercising every key class: int and real spellings of the
  /// same number, both zeros, a NaN cell, and distinct strings.
  static rel::Database Populated() {
    rel::Database db = MakeDb();
    AddR(&db, rel::Value(int64_t{2001}), 1, "a", 2001, 10);
    AddR(&db, rel::Value(2001.0), 2, "b", 5, 20);
    AddR(&db, rel::Value(2002.5), 1, "a", 2002.5, 30);
    AddR(&db, rel::Value(-0.0), 0, "b", 0, 40);
    AddR(&db, rel::Value(0.0), 2, "a", -0.0, 50);
    AddR(&db, rel::Value(std::nan("")), 1, "b", 7, 60);
    AddR(&db, rel::Value(int64_t{7}), 7, "7", 7, 70);
    AddP(&db, rel::Value(int64_t{2001}));
    AddP(&db, rel::Value(2002.5));
    AddP(&db, rel::Value(0.0));
    AddP(&db, rel::Value(int64_t{7}));
    AddQ(&db, 0);
    AddQ(&db, 1);
    AddQ(&db, 2);
    AddQ(&db, 7);
    return db;
  }

  /// Parses `program` against `db`'s schema and checks both groundings
  /// agree; returns the indexed result.
  static Result<GroundProgram> Check(const rel::Database& db,
                                     const std::string& program) {
    ConstraintSet constraints;
    const Status parsed =
        ParseConstraintProgram(db.Schema(), program, &constraints);
    DART_CHECK_MSG(parsed.ok(), parsed.ToString());
    return GroundBothWays(db, constraints);
  }

  /// The coefficient rows of `program` flattened to the R row indices each
  /// ground row sums, for readable expectations.
  static std::vector<std::vector<size_t>> SummedRows(
      const GroundProgram& program) {
    std::vector<std::vector<size_t>> out;
    for (const GroundRow& row : program.rows) {
      std::vector<size_t> rows;
      for (const auto& [cell, coeff] : row.coefficients) {
        rows.push_back(cell.row);
      }
      out.push_back(std::move(rows));
    }
    return out;
  }
};

using Rows = std::vector<std::vector<size_t>>;

TEST_F(GroundEdgeCaseTest, IntAndRealKeysCompareNumerically) {
  rel::Database db = Populated();
  auto ground = Check(db, R"(agg f(x) := sum(M) from R where K = x;
constraint c: P(k) => f(k) <= 1000;)");
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  // P order: 2001 (int) matches the int and the real 2001 cells; 2002.5;
  // 0.0 matches both zeros; int 7 matches real-domain cell 7.
  EXPECT_EQ(SummedRows(*ground), (Rows{{0, 1}, {2}, {3, 4}, {6}}));
  // And the other way round: an Int premise column against real cells.
  ground = Check(db, R"(agg g(x) := sum(M) from R where K = x;
constraint c: Q(i) => g(i) <= 1000;)");
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  EXPECT_EQ(SummedRows(*ground), (Rows{{3, 4}, {}, {}, {6}}));
}

TEST_F(GroundEdgeCaseTest, NegativeZeroEqualsZero) {
  rel::Database db = MakeDb();
  AddR(&db, rel::Value(-0.0), 0, "a", 0, 1);
  AddR(&db, rel::Value(0.0), 0, "a", 0, 2);
  AddR(&db, rel::Value(int64_t{0}), 0, "a", 0, 3);
  AddP(&db, rel::Value(-0.0));
  auto ground = Check(db, R"(agg f(x) := sum(M) from R where K = x;
constraint c: P(k) => f(k) <= 1000;)");
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  EXPECT_EQ(SummedRows(*ground), (Rows{{0, 1, 2}}));
}

TEST_F(GroundEdgeCaseTest, NanParameterAndNanCellMatchNothing) {
  rel::Database db = MakeDb();
  AddR(&db, rel::Value(std::nan("")), 1, "a", 0, 1);
  AddR(&db, rel::Value(1.0), 1, "a", 0, 2);
  AddR(&db, rel::Value(std::numeric_limits<double>::quiet_NaN()), 1, "a", 0,
       3);
  AddP(&db, rel::Value(std::nan("")));
  AddQ(&db, 1);
  auto ground = Check(db, R"(agg f(x) := sum(M) from R where K = x;
constraint nan_param: P(k) => f(k) <= 1000;
constraint nan_cells: Q(i) => f(i) <= 1000;)");
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  EXPECT_EQ(SummedRows(*ground), (Rows{{}, {1}}));
}

TEST_F(GroundEdgeCaseTest, NullAndStringParametersAgainstNumericColumn) {
  rel::Database db = Populated();
  ConstraintSet constraints;
  ASSERT_TRUE(ParseConstraintProgram(db.Schema(), R"(
agg f(x) := sum(M) from R where K = x;
agg h(x, y) := sum(M) from R where K = x and S = y;)",
                                     &constraints)
                  .ok());
  // Call-site constants: a null, a string against the Real column K, and the
  // string '7' against S (which holds the string "7", not the number).
  auto add = [&](std::string name, std::string fn,
                 std::vector<TermArg> args) {
    AggregateConstraint c;
    c.name = std::move(name);
    c.premise = {Atom{"Q", {TermArg::Var("i")}}};
    c.terms = {AggregateTerm{1, std::move(fn), std::move(args)}};
    c.op = CompareOp::kLe;
    c.rhs = 1000;
    const Status added = constraints.AddConstraint(db.Schema(), std::move(c));
    ASSERT_TRUE(added.ok()) << added.ToString();
  };
  add("null_param", "f", {TermArg::Const(rel::Value())});
  add("string_param", "f", {TermArg::Const(rel::Value("2001"))});
  add("int_vs_string", "h",
      {TermArg::Const(rel::Value(int64_t{7})), TermArg::Var("i")});
  add("string_vs_string", "h",
      {TermArg::Const(rel::Value(int64_t{7})),
       TermArg::Const(rel::Value("7"))});
  add("null_both", "h",
      {TermArg::Const(rel::Value()), TermArg::Const(rel::Value())});
  auto ground = GroundBothWays(db, constraints);
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  // A constraint whose calls use no premise variable has one (empty)
  // binding; int_vs_string has one per Q tuple.
  EXPECT_EQ(SummedRows(*ground), (Rows{{}, {}, {}, {}, {}, {}, {6}, {}}));
}

TEST_F(GroundEdgeCaseTest, InequalityWhereClausesAreRechecked) {
  rel::Database db = Populated();
  auto ground = Check(db, R"(agg ne(x) := sum(M) from R where K != x;
agg lt(x) := sum(M) from R where I = x and K < 2002;
agg gt(x) := sum(M) from R where x < K and S != 'b';
constraint c1: Q(i) => ne(i) <= 1000;
constraint c2: Q(i) => lt(i) <= 1000;
constraint c3: P(k) => gt(k) <= 1000;)");
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  const Rows rows = SummedRows(*ground);
  // ne(0): every K other than ±0; NaN != 0 holds.
  EXPECT_EQ(rows[0], (std::vector<size_t>{0, 1, 2, 5, 6}));
  // lt(1): I = 1 and K < 2002 → rows 0 (2001) only; row 5 is NaN.
  EXPECT_EQ(rows[5], (std::vector<size_t>{0}));
}

TEST_F(GroundEdgeCaseTest, ConstantAndAttributeToAttributeOperands) {
  rel::Database db = Populated();
  auto ground = Check(db, R"(agg c(x) := sum(M) from R where S = 'a' and I = x;
agg kc(x) := sum(M) from R where I = x and 2001 = K;
agg ab(x) := sum(M) from R where K = A and I = x;
constraint c1: Q(i) => c(i) <= 1000;
constraint c2: Q(i) => kc(i) <= 1000;
constraint c3: Q(i) => ab(i) <= 1000;)");
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  const Rows rows = SummedRows(*ground);
  // c: S = 'a' and I ∈ {0, 1, 2, 7}.
  EXPECT_EQ(rows[0], std::vector<size_t>{});
  EXPECT_EQ(rows[1], (std::vector<size_t>{0, 2}));
  EXPECT_EQ(rows[2], (std::vector<size_t>{4}));
  // kc(1): the int 2001 cell; kc(2): the real 2001.0 cell.
  EXPECT_EQ(rows[5], (std::vector<size_t>{0}));
  EXPECT_EQ(rows[6], (std::vector<size_t>{1}));
  // ab: K = A holds for rows 0, 2, 3 (−0 = 0), 4 (0 = −0), 6; not for NaN.
  EXPECT_EQ(rows[8], (std::vector<size_t>{3}));
  EXPECT_EQ(rows[9], (std::vector<size_t>{0, 2}));
  EXPECT_EQ(rows[10], (std::vector<size_t>{4}));
  EXPECT_EQ(rows[11], (std::vector<size_t>{6}));
}

TEST_F(GroundEdgeCaseTest, OneParameterInTwoComparisons) {
  rel::Database db = Populated();
  auto ground = Check(db, R"(agg two(x) := sum(M) from R where K = x and A = x;
constraint c: P(k) => two(k) <= 1000;)");
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  EXPECT_EQ(SummedRows(*ground), (Rows{{0}, {2}, {3, 4}, {6}}));
}

TEST_F(GroundEdgeCaseTest, FunctionWithoutWhereSumsEverything) {
  rel::Database db = Populated();
  auto ground = Check(db, R"(agg all(x) := sum(M + K) from R;
constraint c: Q(i) => all(i) - 2 * all(i) <= 1000;)");
  // K holds a NaN, so the folded constant is NaN in both groundings.
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  ASSERT_EQ(ground->rows.size(), 4u);
  EXPECT_EQ(ground->rows[0].coefficients.size(), db.FindRelation("R")->size());
}

TEST_F(GroundEdgeCaseTest, EmptyRelations) {
  rel::Database db = MakeDb();
  AddP(&db, rel::Value(1.0));
  auto ground = Check(db, R"(agg f(x) := sum(M) from R where K = x;
constraint c: P(k) => f(k) <= 0;)");
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  ASSERT_EQ(ground->rows.size(), 1u);
  EXPECT_TRUE(ground->rows[0].coefficients.empty());
  EXPECT_EQ(ground->tuple_visits, 0u);
  // No premise tuples: no rows at all.
  ground = Check(MakeDb(), R"(agg f(x) := sum(M) from R where K = x;
constraint c: P(k) => f(k) <= 0;)");
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  EXPECT_TRUE(ground->rows.empty());
}

TEST_F(GroundEdgeCaseTest, UnknownAttributeFailsLikeTheScan) {
  // The program is validated against an R that has A; the instance's R does
  // not. The scan fails at the first tuple that reaches the comparison on A.
  const rel::Database with_a = MakeDb(/*with_a=*/true);
  rel::Database db = MakeDb(/*with_a=*/false);
  AddR(&db, rel::Value(1.0), 0, "a", 0, 1);
  AddR(&db, rel::Value(2.0), 0, "a", 0, 2);
  AddP(&db, rel::Value(2.0));
  AddP(&db, rel::Value(3.0));
  AddQ(&db, 5);
  for (const char* program :
       {"agg f(x) := sum(M) from R where K = x and A = 1;\n"
        "constraint c: P(k) => f(k) <= 1000;",
        "agg f(x) := sum(M) from R where A = x;\n"
        "constraint c: P(k) => f(k) <= 1000;",
        // No tuple has I = 5, but the scan tests A = 1 first and fails on
        // the first tuple: an index on I would miss that error.
        "agg f(x) := sum(M) from R where A = 1 and I = x;\n"
        "constraint c: Q(i) => f(i) <= 1000;"}) {
    SCOPED_TRACE(program);
    ConstraintSet constraints;
    ASSERT_TRUE(
        ParseConstraintProgram(with_a.Schema(), program, &constraints).ok());
    auto ground = GroundBothWays(db, constraints);
    ASSERT_FALSE(ground.ok());
    EXPECT_EQ(ground.status().code(), StatusCode::kNotFound);
  }
  // When no tuple reaches the unknown attribute, the scan succeeds, and so
  // must the index.
  ConstraintSet constraints;
  ASSERT_TRUE(ParseConstraintProgram(
                  with_a.Schema(),
                  "agg f(x) := sum(M) from R where K = 9 and A = x;\n"
                  "constraint c: P(k) => f(k) <= 1000;",
                  &constraints)
                  .ok());
  auto ground = GroundBothWays(db, constraints);
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
}

TEST_F(GroundEdgeCaseTest, TupleVisitsAreBuildPlusTupleSets) {
  rel::Database db = Populated();
  auto ground = Check(db, R"(agg f(x) := sum(M) from R where K = x;
constraint c: P(k) => f(k) <= 1000;)");
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  // One build pass over the 7 tuples, then exactly the 2 + 1 + 2 + 1 tuples
  // of the four tuple sets.
  EXPECT_EQ(ground->bindings, 4u);
  EXPECT_EQ(ground->tuple_visits, 7u + 6u);
}

}  // namespace
}  // namespace dart::cons
