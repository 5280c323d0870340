// Experiment E7 (EXPERIMENTS.md): MILP solver ablations on repair instances.
//   - branching rule (most-fractional vs first-fractional)
//   - node order (best-first vs depth-first)
//   - rounding heuristic on/off
// plus an agreement check of branch-and-bound against the exhaustive
// binary-enumeration baseline on small instances (the correctness anchor for
// the whole solver stack).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "milp/exhaustive.h"
#include "repair/engine.h"

namespace {

using dart::bench::MakeBudgetScenario;
using dart::bench::Scenario;

void RunConfig(benchmark::State& state, dart::milp::BranchRule rule,
               dart::milp::NodeOrder order, bool rounding) {
  Scenario scenario = MakeBudgetScenario(/*seed=*/321, /*years=*/3,
                                         /*num_errors=*/3);
  dart::repair::RepairEngineOptions options;
  options.milp.search.branch_rule = rule;
  options.milp.search.node_order = order;
  options.milp.search.rounding_heuristic = rounding;
  dart::repair::RepairEngine engine(options);
  for (auto _ : state) {
    auto outcome =
        engine.ComputeRepair(scenario.acquired, scenario.constraints);
    DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
    benchmark::DoNotOptimize(outcome->repair.cardinality());
  }
  state.counters["bb_nodes"] = static_cast<double>(
      dart::bench::CollectRepairCounters(scenario, options).nodes);
}

void BM_MostFractional_BestFirst(benchmark::State& state) {
  RunConfig(state, dart::milp::BranchRule::kMostFractional,
            dart::milp::NodeOrder::kBestFirst, true);
}
void BM_FirstFractional_BestFirst(benchmark::State& state) {
  RunConfig(state, dart::milp::BranchRule::kFirstFractional,
            dart::milp::NodeOrder::kBestFirst, true);
}
void BM_MostFractional_DepthFirst(benchmark::State& state) {
  RunConfig(state, dart::milp::BranchRule::kMostFractional,
            dart::milp::NodeOrder::kDepthFirst, true);
}
void BM_FirstFractional_DepthFirst(benchmark::State& state) {
  RunConfig(state, dart::milp::BranchRule::kFirstFractional,
            dart::milp::NodeOrder::kDepthFirst, true);
}
void BM_NoRoundingHeuristic(benchmark::State& state) {
  RunConfig(state, dart::milp::BranchRule::kMostFractional,
            dart::milp::NodeOrder::kBestFirst, false);
}

BENCHMARK(BM_MostFractional_BestFirst)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FirstFractional_BestFirst)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MostFractional_DepthFirst)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FirstFractional_DepthFirst)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NoRoundingHeuristic)->Unit(benchmark::kMillisecond);

/// Agreement: every configuration must return the same optimal cardinality,
/// equal to the exhaustive baseline, across several small instances.
int CheckAgreement() {
  std::printf(
      "\nE7 agreement check: B&B (all configs) vs exhaustive baseline on\n"
      "one-year budgets (7 measure cells, 2^7 enumerations per instance):\n");
  int failures = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Scenario scenario =
        MakeBudgetScenario(100 + seed, /*years=*/1, /*num_errors=*/1,
                           /*receipt_details=*/1, /*disbursement_details=*/1);
    auto translation =
        dart::repair::TranslateToMilp(scenario.acquired, scenario.constraints);
    DART_CHECK_MSG(translation.ok(), translation.status().ToString());
    const dart::milp::MilpResult exhaustive =
        dart::milp::SolveByBinaryEnumeration(translation->model);
    DART_CHECK(exhaustive.status ==
               dart::milp::MilpResult::SolveStatus::kOptimal);
    const size_t baseline =
        static_cast<size_t>(std::llround(exhaustive.objective));

    for (auto rule : {dart::milp::BranchRule::kMostFractional,
                      dart::milp::BranchRule::kFirstFractional}) {
      for (auto order : {dart::milp::NodeOrder::kBestFirst,
                         dart::milp::NodeOrder::kDepthFirst}) {
        dart::repair::RepairEngineOptions options;
        options.milp.search.branch_rule = rule;
        options.milp.search.node_order = order;
        dart::repair::RepairEngine engine(options);
        auto outcome =
            engine.ComputeRepair(scenario.acquired, scenario.constraints);
        DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
        if (outcome->repair.cardinality() != baseline) {
          std::printf("  seed %llu: MISMATCH (%zu vs baseline %zu)\n",
                      static_cast<unsigned long long>(seed),
                      outcome->repair.cardinality(), baseline);
          ++failures;
        }
      }
    }
  }
  std::printf("  %s\n\n", failures == 0
                              ? "all configurations agree with the baseline"
                              : "DISAGREEMENTS FOUND");
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const int failures = CheckAgreement();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dart::bench::EmitRepairTrace(
      MakeBudgetScenario(/*seed=*/321, /*years=*/3, /*num_errors=*/3),
      "bench_solver_ablation");
  return failures == 0 ? 0 : 1;
}
