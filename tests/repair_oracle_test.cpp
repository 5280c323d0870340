// The repair core (repair/incremental.h) against oracles that share none of
// its code: over 30 seeds of each of the three domains (cash budget,
// catalog, expense report), with and without operator pins, the core's
// repair cardinality must equal the optimum of one whole-model SolveMilp on
// TranslateGrounded(db, ground, options, pins) — pins as rows, no
// decomposition, no session, no big-M retry — and, on instances small enough
// to enumerate (at most one year), the optimum of SolveByBinaryEnumeration.
// Also: every entry point grounds exactly once per document.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "constraints/ground.h"
#include "constraints/parser.h"
#include "core/pipeline.h"
#include "milp/branch_and_bound.h"
#include "milp/exhaustive.h"
#include "obs/context.h"
#include "ocr/cash_budget.h"
#include "ocr/catalog.h"
#include "ocr/expense.h"
#include "ocr/noise.h"
#include "repair/engine.h"
#include "repair/incremental.h"
#include "repair/translator.h"
#include "util/random.h"
#include "validation/operator.h"

namespace dart::repair {
namespace {

enum class Domain { kCashBudget, kCatalog, kExpense };

struct Instance {
  rel::Database acquired;
  cons::ConstraintSet constraints;
  std::vector<ocr::InjectedError> errors;
  /// Small enough for the exhaustive oracle (a one-year budget or its
  /// catalog / expense equivalent).
  bool enumerable = false;
};

/// A random consistent instance of `domain` with one or two injected
/// measure errors. Every third seed is a small, enumerable one.
Instance MakeInstance(Domain domain, uint64_t seed) {
  Rng rng(9000 + 97 * seed + static_cast<uint64_t>(domain));
  Instance instance;
  instance.enumerable = seed % 3 == 0;
  const bool small = instance.enumerable;
  Result<rel::Database> truth = Status::Internal("unset");
  std::string program;
  switch (domain) {
    case Domain::kCashBudget: {
      ocr::CashBudgetOptions options;
      options.num_years = small ? 1 : 2 + static_cast<int>(seed % 2);
      truth = ocr::CashBudgetFixture::Random(options, &rng);
      program = ocr::CashBudgetFixture::ConstraintProgram();
      break;
    }
    case Domain::kCatalog: {
      ocr::CatalogOptions options;
      options.num_categories = small ? 2 : 3;
      options.items_per_category = small ? 2 : 4;
      truth = ocr::CatalogFixture::Random(options, &rng);
      program = ocr::CatalogFixture::ConstraintProgram();
      break;
    }
    case Domain::kExpense: {
      ocr::ExpenseOptions options;
      options.num_months = small ? 1 : 2;
      options.categories_per_month = small ? 1 : 2;
      options.items_per_category = small ? 2 : 3;
      truth = ocr::ExpenseFixture::Random(options, &rng);
      program = ocr::ExpenseFixture::ConstraintProgram();
      break;
    }
  }
  DART_CHECK_MSG(truth.ok(), truth.status().ToString());
  instance.acquired = truth->Clone();
  auto errors =
      ocr::InjectMeasureErrors(&instance.acquired, 1 + seed % 2, &rng);
  DART_CHECK_MSG(errors.ok(), errors.status().ToString());
  instance.errors = std::move(errors).value();
  const Status parsed = cons::ParseConstraintProgram(
      instance.acquired.Schema(), program, &instance.constraints);
  DART_CHECK_MSG(parsed.ok(), parsed.ToString());
  return instance;
}

/// The oracle optimum of the pinned whole model, or -1 when the oracle
/// reports no optimum.
double WholeModelOptimum(const milp::Model& model) {
  milp::MilpOptions options;
  options.objective_is_integral = true;
  const milp::MilpResult solved = milp::SolveMilp(model, options);
  return solved.status == milp::MilpResult::SolveStatus::kOptimal
             ? solved.objective
             : -1;
}

double EnumeratedOptimum(const milp::Model& model) {
  const milp::MilpResult solved = milp::SolveByBinaryEnumeration(model);
  return solved.status == milp::MilpResult::SolveStatus::kOptimal
             ? solved.objective
             : -1;
}

class RepairOracleTest : public ::testing::TestWithParam<Domain> {};

TEST_P(RepairOracleTest, CoreCardinalityMatchesWholeModelAndExhaustive) {
  int enumerated = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Instance instance = MakeInstance(GetParam(), seed);
    auto ground = cons::GroundConstraintProgram(instance.acquired,
                                                instance.constraints);
    ASSERT_TRUE(ground.ok()) << ground.status().ToString();

    // No pins, then the first injected error pinned to its true value (an
    // operator rejection), then every error pinned.
    std::vector<std::vector<FixedValue>> pin_sets(1);
    pin_sets.push_back({FixedValue{instance.errors[0].cell,
                                   instance.errors[0].true_value.AsReal()}});
    pin_sets.emplace_back();
    for (const ocr::InjectedError& error : instance.errors) {
      pin_sets.back().push_back(
          FixedValue{error.cell, error.true_value.AsReal()});
    }

    IncrementalRepairSession session(instance.acquired, instance.constraints,
                                     {}, &*ground);
    for (size_t p = 0; p < pin_sets.size(); ++p) {
      SCOPED_TRACE("pin set " + std::to_string(p));
      const std::vector<FixedValue>& pins = pin_sets[p];
      auto translation = TranslateGrounded(instance.acquired, *ground, {}, pins);
      ASSERT_TRUE(translation.ok()) << translation.status().ToString();
      const double whole = WholeModelOptimum(translation->model);
      ASSERT_GE(whole, 0) << "whole-model oracle found no optimum";

      // A fresh core (the engine) and the reusing session agree with it.
      auto fresh = RepairEngine().ComputeRepair(
          instance.acquired, instance.constraints, pins, nullptr, &*ground);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      auto reused = session.ComputeRepair(pins);
      ASSERT_TRUE(reused.ok()) << reused.status().ToString();
      EXPECT_EQ(static_cast<double>(fresh->repair.cardinality()),
                std::round(whole));
      EXPECT_EQ(static_cast<double>(reused->repair.cardinality()),
                std::round(whole));

      if (instance.enumerable) {
        const double exhaustive = EnumeratedOptimum(translation->model);
        ASSERT_GE(exhaustive, 0) << "exhaustive oracle found no optimum";
        EXPECT_EQ(static_cast<double>(fresh->repair.cardinality()),
                  std::round(exhaustive));
        ++enumerated;
      }
    }
  }
  EXPECT_EQ(enumerated, 30);  // 10 enumerable seeds × 3 pin sets
}

INSTANTIATE_TEST_SUITE_P(Domains, RepairOracleTest,
                         ::testing::Values(Domain::kCashBudget,
                                           Domain::kCatalog,
                                           Domain::kExpense),
                         [](const ::testing::TestParamInfo<Domain>& info) {
                           switch (info.param) {
                             case Domain::kCashBudget: return "CashBudget";
                             case Domain::kCatalog: return "Catalog";
                             case Domain::kExpense: return "Expense";
                           }
                           return "Unknown";
                         });

// Submit, SubmitBatch and a supervised session each ground a document
// exactly once: detection, translation, every big-M round, every validation
// iteration and the verification all share that one ground program.
TEST(RepairCoreGroundingTest, OneGroundingPerDocumentOnEveryEntryPoint) {
  using ocr::CashBudgetFixture;
  Rng rng(17);
  const rel::Database reference = CashBudgetFixture::Random({}, &rng).value();
  core::AcquisitionMetadata metadata;
  metadata.catalog = CashBudgetFixture::BuildCatalog(reference).value();
  metadata.patterns = CashBudgetFixture::BuildPatterns();
  metadata.mappings = {CashBudgetFixture::BuildMapping(reference).value()};
  metadata.constraint_program = CashBudgetFixture::ConstraintProgram();
  obs::RunContext run;
  core::PipelineOptions options;
  options.run = &run;
  options.engine.milp.search.num_threads = 1;
  auto pipeline = core::DartPipeline::Create(std::move(metadata), options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  std::vector<rel::Database> truths;
  std::vector<std::string> htmls;
  for (int d = 0; d < 3; ++d) {
    ocr::CashBudgetOptions shape;
    shape.num_years = 2 + d;
    truths.push_back(CashBudgetFixture::Random(shape, &rng).value());
    rel::Database noisy = truths.back().Clone();
    ASSERT_TRUE(ocr::InjectMeasureErrors(&noisy, 3, &rng).ok());
    htmls.push_back(CashBudgetFixture::RenderHtml(noisy));
  }
  auto groundings_of = [&](auto&& call) {
    const obs::MetricsSnapshot before = run.metrics().Snapshot();
    call();
    return run.metrics().Snapshot().DeltaSince(before).Counter(
        "repair.groundings");
  };

  EXPECT_EQ(groundings_of([&] {
              ASSERT_TRUE(
                  pipeline->Submit(core::ProcessRequest::FromHtml(htmls[0]))
                      .ok());
            }),
            1);
  EXPECT_EQ(groundings_of([&] {
              const core::BatchOutcome batch = pipeline->SubmitBatch(
                  core::BatchRequest::FromHtmls(htmls));
              for (const core::BatchSlot& slot : batch.documents) {
                ASSERT_TRUE(slot.result.ok()) << slot.result.status().ToString();
              }
            }),
            3);
  validation::SimulatedOperator op(&truths[1]);
  validation::SessionOptions session;
  session.examine_batch = 1;  // one verdict per iteration: many iterations
  size_t iterations = 0;
  EXPECT_EQ(groundings_of([&] {
              auto result = pipeline->ProcessSupervised(htmls[1], op, session);
              ASSERT_TRUE(result.ok()) << result.status().ToString();
              iterations = result->iterations;
            }),
            1);
  EXPECT_GT(iterations, 1u);
}

}  // namespace
}  // namespace dart::repair
