// Experiment E12 (EXPERIMENTS.md): presolve ablation at the MILP level.
// Operator value pins (Sec. 6.3) translated as pin rows become singleton
// rows that presolve chases through the y-definition and big-M rows,
// eliminating whole z/y/δ triples before the simplex runs. This bench
// measures the solve of the pinned S*(AC) with and without presolve as the
// number of pinned cells grows — the model shape of a validation session in
// its later iterations. (The repair core itself takes pins as bound changes
// on its persisted components, so it has no presolve stage.)

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "milp/presolve.h"
#include "repair/engine.h"
#include "repair/translator.h"

namespace {

using dart::bench::MakeBudgetScenario;
using dart::bench::Scenario;

std::vector<dart::repair::FixedValue> MakePins(const Scenario& scenario,
                                               size_t count) {
  // Pin the first `count` measure cells to their (true) values — what a
  // validation session has accumulated after examining them.
  std::vector<dart::repair::FixedValue> pins;
  const auto cells = scenario.truth.MeasureCells();
  for (size_t i = 0; i < count && i < cells.size(); ++i) {
    auto value = scenario.truth.ValueAt(cells[i]);
    DART_CHECK(value.ok());
    pins.push_back(dart::repair::FixedValue{cells[i], value->AsReal()});
  }
  return pins;
}

void RunPinned(benchmark::State& state, bool presolve) {
  const size_t pins_count = static_cast<size_t>(state.range(0));
  Scenario scenario = MakeBudgetScenario(/*seed=*/77, /*years=*/6,
                                         /*num_errors=*/3);
  const auto pins = MakePins(scenario, pins_count);
  auto translation = dart::repair::TranslateToMilp(
      scenario.acquired, scenario.constraints, {}, pins);
  DART_CHECK_MSG(translation.ok(), translation.status().ToString());
  dart::milp::MilpOptions options;
  options.objective_is_integral = true;
  auto solve = [&] {
    return presolve
               ? dart::milp::SolveMilpWithPresolve(translation->model, options)
               : dart::milp::SolveMilp(translation->model, options);
  };
  for (auto _ : state) {
    const dart::milp::MilpResult solved = solve();
    DART_CHECK(solved.status == dart::milp::MilpResult::SolveStatus::kOptimal);
    benchmark::DoNotOptimize(solved.objective);
  }
  dart::obs::RunContext run;
  options.run = &run;
  solve();
  state.counters["lp_iters"] = static_cast<double>(
      run.metrics().Snapshot().Counter("milp.lp_iterations"));
}

void BM_PinnedRepair_Presolve(benchmark::State& state) {
  RunPinned(state, true);
}
void BM_PinnedRepair_NoPresolve(benchmark::State& state) {
  RunPinned(state, false);
}

BENCHMARK(BM_PinnedRepair_Presolve)
    ->Arg(0)
    ->Arg(10)
    ->Arg(30)
    ->Arg(50)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PinnedRepair_NoPresolve)
    ->Arg(0)
    ->Arg(10)
    ->Arg(30)
    ->Arg(50)
    ->Unit(benchmark::kMillisecond);

// Structural effect: how much of the S*(AC) model presolve removes.
void BM_PresolveReduction(benchmark::State& state) {
  const size_t pins_count = static_cast<size_t>(state.range(0));
  Scenario scenario = MakeBudgetScenario(/*seed=*/78, /*years=*/6,
                                         /*num_errors=*/3);
  const auto pins = MakePins(scenario, pins_count);
  auto translation = dart::repair::TranslateToMilp(
      scenario.acquired, scenario.constraints, {}, pins);
  DART_CHECK_MSG(translation.ok(), translation.status().ToString());
  int eliminated = 0, rows_removed = 0;
  for (auto _ : state) {
    dart::milp::PresolveResult presolved =
        dart::milp::Presolve(translation->model);
    DART_CHECK(!presolved.infeasible);
    benchmark::DoNotOptimize(presolved.reduced.num_variables());
    eliminated = presolved.variables_eliminated;
    rows_removed = presolved.rows_removed;
  }
  state.counters["vars_total"] =
      static_cast<double>(translation->model.num_variables());
  state.counters["vars_eliminated"] = static_cast<double>(eliminated);
  state.counters["rows_removed"] = static_cast<double>(rows_removed);
}

BENCHMARK(BM_PresolveReduction)
    ->Arg(0)
    ->Arg(10)
    ->Arg(30)
    ->Arg(50)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Trace the bench's own workload: the 30-pin validation-session shape.
  Scenario scenario = MakeBudgetScenario(/*seed=*/77, /*years=*/6,
                                         /*num_errors=*/3);
  const auto pins = MakePins(scenario, 30);
  dart::bench::EmitRepairTrace(scenario, "bench_presolve_ablation", {}, pins);
  return 0;
}
