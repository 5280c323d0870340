#include "repair/incremental.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "milp/scheduler.h"
#include "obs/context.h"

namespace dart::repair {

namespace {

double Seconds(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

}  // namespace

Result<cons::GroundProgram> GroundObserved(
    const obs::RunContext* run, const rel::Database& db,
    const cons::ConstraintSet& constraints) {
  obs::Span span(run, "cons.ground");
  DART_ASSIGN_OR_RETURN(cons::GroundProgram ground,
                        cons::GroundConstraintProgram(db, constraints));
  obs::Count(run, "repair.groundings");
  obs::Count(run, "cons.ground.bindings",
             static_cast<int64_t>(ground.bindings));
  obs::Count(run, "cons.ground.tuple_visits",
             static_cast<int64_t>(ground.tuple_visits));
  return ground;
}

IncrementalRepairSession::IncrementalRepairSession(
    const rel::Database& db, const cons::ConstraintSet& constraints,
    RepairEngineOptions options, const cons::GroundProgram* ground)
    : db_(&db),
      constraints_(&constraints),
      options_(std::move(options)),
      ground_(ground) {}

int IncrementalRepairSession::num_components() const {
  return initialized_ ? decomposition_.num_components() : 0;
}

Status IncrementalRepairSession::Initialize(obs::RunContext* run) {
  obs::Span translate_span(run, "repair.translate");
  DART_ASSIGN_OR_RETURN(
      translation_, TranslateGrounded(*db_, *ground_, options_.translator));
  translate_span.End();

  decomposition_ = milp::DecomposeModel(translation_.model);
  component_results_.assign(decomposition_.components.size(),
                            milp::MilpResult{});
  dirty_.assign(decomposition_.components.size(), 1);

  const size_t n_cells = translation_.cells.size();
  cell_index_.clear();
  component_of_cell_.assign(n_cells, -1);
  cells_of_component_.assign(decomposition_.components.size(), {});
  cell_big_m_ = translation_.big_m;
  cell_z_box_.assign(n_cells, translation_.practical_m);
  for (size_t i = 0; i < n_cells; ++i) {
    cell_index_[translation_.cells[i]] = static_cast<int>(i);
    // z, y and δ of one cell always share a component: the def_y row couples
    // z with y and the big-M rows couple y with δ.
    const int comp =
        decomposition_.component_of_var[translation_.z_vars[i]];
    component_of_cell_[i] = comp;
    if (comp >= 0) cells_of_component_[comp].push_back(static_cast<int>(i));
  }
  applied_pins_.clear();

  obs::SetGauge(run, "repair.num_cells", static_cast<double>(n_cells));
  obs::SetGauge(run, "repair.num_ground_rows",
                static_cast<double>(translation_.ground_rows.size()));
  obs::SetGauge(run, "repair.matrix_rows",
                static_cast<double>(translation_.matrix_rows));
  obs::SetGauge(run, "repair.matrix_cols",
                static_cast<double>(translation_.matrix_cols));
  obs::SetGauge(run, "repair.matrix_nnz",
                static_cast<double>(translation_.matrix_nnz));
  obs::SetGauge(run, "repair.matrix_density", translation_.matrix_density);
  initialized_ = true;
  return Status::Ok();
}

Status IncrementalRepairSession::ApplyPinDiff(
    const std::vector<FixedValue>& fixed_values) {
  // Resolve the new pin set to cell indices first, so errors surface before
  // any sub-model is touched.
  std::map<int, double> next;
  for (const FixedValue& pin : fixed_values) {
    auto it = cell_index_.find(pin.cell);
    if (it == cell_index_.end()) {
      return Status::InvalidArgument("fixed value targets unknown cell " +
                                     pin.cell.ToString());
    }
    // No box check here: the bound change z ∈ [v, v] is legal for any v. A
    // pin far outside the component's current boxes surfaces as component
    // infeasibility or y saturation, and the ×100 grow-retry then widens
    // the boxes.
    auto [pos, inserted] = next.emplace(it->second, pin.value);
    if (!inserted && pos->second != pin.value) {
      // Two pin rows z = a and z = b with a ≠ b are infeasible.
      return Status::Infeasible("contradictory operator pins for cell " +
                                pin.cell.ToString());
    }
  }

  auto set_z_bounds = [&](int cell, double lower, double upper) {
    const int comp = component_of_cell_[cell];
    if (comp < 0) {
      return Status::Internal("pinned cell maps to no component");
    }
    const int local =
        decomposition_.local_of_var[translation_.z_vars[cell]];
    decomposition_.components[comp].model.SetVariableBounds(local, lower,
                                                            upper);
    dirty_[comp] = 1;
    return Status::Ok();
  };

  // Removed pins: restore the cell's current (possibly grown) z box.
  for (auto it = applied_pins_.begin(); it != applied_pins_.end();) {
    if (next.count(it->first) == 0) {
      const int cell = it->first;
      const double box = cell_z_box_[cell];
      DART_RETURN_IF_ERROR(set_z_bounds(
          cell, options_.translator.require_nonnegative ? 0.0 : -box, box));
      it = applied_pins_.erase(it);
    } else {
      ++it;
    }
  }
  // Added / changed pins: the bound change z ∈ [v, v].
  for (const auto& [cell, value] : next) {
    auto it = applied_pins_.find(cell);
    if (it != applied_pins_.end() && it->second == value) continue;
    DART_RETURN_IF_ERROR(set_z_bounds(cell, value, value));
    applied_pins_[cell] = value;
  }
  return Status::Ok();
}

void IncrementalRepairSession::GrowComponentBigM(int component) {
  milp::Model& model = decomposition_.components[component].model;
  const auto& local = decomposition_.local_of_var;
  for (int cell : cells_of_component_[component]) {
    const double new_m = cell_big_m_[cell] * 100.0;
    model.SetVariableBounds(local[translation_.y_vars[cell]], -new_m, new_m);
    // δ occurs exactly in the cell's two big-M rows with coefficient −Mᵢ;
    // scaling by 100 is the model the translator would rebuild with M ×100.
    model.ScaleVarRowCoefficients(local[translation_.delta_vars[cell]], 100.0);
    cell_big_m_[cell] = new_m;
    cell_z_box_[cell] *= 100.0;
    if (applied_pins_.count(cell) == 0) {
      const double box = cell_z_box_[cell];
      model.SetVariableBounds(
          local[translation_.z_vars[cell]],
          options_.translator.require_nonnegative ? 0.0 : -box, box);
    }
  }
}

Status IncrementalRepairSession::Start(
    const std::vector<FixedValue>& fixed_values, const Repair* warm_start) {
  obs::RunContext* const run = this->run();
  call_ = Call{};
  call_.fixed_values = fixed_values;

  if (ground_ == nullptr) {
    DART_ASSIGN_OR_RETURN(own_ground_,
                          GroundObserved(run, *db_, *constraints_));
    ground_ = &own_ground_;
  }
  // Fast path: already consistent and nothing pinned.
  if (fixed_values.empty()) {
    obs::Span evaluate_span(run, "detect.evaluate");
    DART_ASSIGN_OR_RETURN(std::vector<cons::Violation> violations,
                          cons::EvaluateGroundProgram(*db_, *ground_));
    evaluate_span.End();
    if (violations.empty()) {
      call_.outcome.already_consistent = true;
      return Status::Ok();
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  if (!initialized_) {
    DART_RETURN_IF_ERROR(Initialize(run));
    call_.outcome.stats.translate_seconds =
        Seconds(t0, std::chrono::steady_clock::now());
    obs::Observe(run, "repair.translate_seconds",
                 call_.outcome.stats.translate_seconds);
  } else {
    obs::Count(run, "repair.incremental.translate_skipped");
  }
  DART_RETURN_IF_ERROR(ApplyPinDiff(fixed_values));

  last_dirty_components_ = static_cast<int>(
      std::count(dirty_.begin(), dirty_.end(), char{1}));
  last_clean_reused_ =
      static_cast<int>(dirty_.size()) - last_dirty_components_;
  obs::Count(run, "repair.incremental.dirty_components",
             last_dirty_components_);
  obs::Count(run, "repair.incremental.clean_reused", last_clean_reused_);

  // Candidate assignment shared by the zero-change fast path and the warm
  // incumbent hint: pinned z at the pin, every other z at its hinted (or
  // current) value, y and δ derived. A component whose slice has objective 0
  // *and* is feasible is provably optimal without a solve — Σ wᵢδᵢ ≥ 0.
  const size_t n = static_cast<size_t>(translation_.model.num_variables());
  call_.candidate.assign(n, 0.0);
  std::map<rel::CellRef, double> hinted;
  if (warm_start != nullptr) {
    for (const AtomicUpdate& update : warm_start->updates()) {
      if (update.new_value.is_numeric()) {
        hinted[update.cell] = update.new_value.AsReal();
      }
    }
    call_.hint.assign(n, 0.0);
  }
  auto assign = [this](std::vector<double>& point, size_t cell, double z) {
    const double y = z - translation_.current_values[cell];
    point[static_cast<size_t>(translation_.z_vars[cell])] = z;
    point[static_cast<size_t>(translation_.y_vars[cell])] = y;
    point[static_cast<size_t>(translation_.delta_vars[cell])] =
        std::fabs(y) > 1e-9 ? 1.0 : 0.0;
  };
  for (size_t i = 0; i < translation_.cells.size(); ++i) {
    auto pin = applied_pins_.find(static_cast<int>(i));
    const double v = translation_.current_values[i];
    assign(call_.candidate, i, pin != applied_pins_.end() ? pin->second : v);
    if (warm_start != nullptr) {
      auto it = hinted.find(translation_.cells[i]);
      assign(call_.hint, i, it != hinted.end() ? it->second : v);
    }
  }
  call_.solving = true;
  return Status::Ok();
}

std::vector<int> IncrementalRepairSession::BeginRound() {
  call_.round_dirty.clear();
  std::vector<int> to_solve;
  for (size_t c = 0; c < dirty_.size(); ++c) {
    if (!dirty_[c]) continue;
    call_.round_dirty.push_back(static_cast<int>(c));
    const milp::Component& component = decomposition_.components[c];
    std::vector<double> local;
    local.reserve(component.vars.size());
    for (int v : component.vars) {
      local.push_back(call_.candidate[static_cast<size_t>(v)]);
    }
    if (milp::EvalTerms(component.model.objective_terms(), local) < 0.5 &&
        milp::IsFeasiblePoint(component.model, local)) {
      milp::MilpResult zero;
      zero.status = milp::MilpResult::SolveStatus::kOptimal;
      zero.objective = 0;
      zero.point = std::move(local);
      zero.has_incumbent = true;
      zero.best_bound = 0;
      // Keep whatever root basis the last real solve captured — it stays a
      // valid warm start for a future re-solve of this component.
      zero.root_basis = std::move(component_results_[c].root_basis);
      component_results_[c] = std::move(zero);
    } else {
      to_solve.push_back(static_cast<int>(c));
    }
  }
  return to_solve;
}

void IncrementalRepairSession::EndRound() {
  // Infeasibility and a |yᵢ| pressing against its Mᵢ box are both symptoms
  // of a too-small M. Clean components were accepted by this same test when
  // they were last solved.
  std::vector<int> grow;
  for (int c : call_.round_dirty) {
    dirty_[c] = 0;
    const milp::MilpResult& r = component_results_[c];
    bool needs_grow = milp::IsInfeasibleStatus(r.status);
    if (!needs_grow && r.status == milp::MilpResult::SolveStatus::kOptimal &&
        r.has_incumbent) {
      for (int cell : cells_of_component_[c]) {
        const int local =
            decomposition_.local_of_var[translation_.y_vars[cell]];
        if (std::fabs(r.point[static_cast<size_t>(local)]) >=
            0.999 * cell_big_m_[cell]) {
          needs_grow = true;
          break;
        }
      }
    }
    if (needs_grow) grow.push_back(c);
  }
  if (grow.empty() || call_.retries >= options_.max_bigm_retries) return;
  ++call_.retries;
  obs::Count(run(), "repair.bigm_retries");
  for (int c : grow) {
    GrowComponentBigM(c);
    dirty_[c] = 1;
  }
}

void SolveInLockstep(const std::vector<IncrementalRepairSession*>& sessions) {
  if (sessions.empty()) return;
  const RepairEngineOptions& options = sessions.front()->options_;
  obs::RunContext* const run = sessions.front()->run();
  milp::MilpOptions milp_options = options.milp;
  milp_options.run = run;
  milp_options.initial_point.clear();
  // The card-minimal objective Σδᵢ is integral on every integral point; let
  // the solver round its bounds for pruning. Confidence weights break that
  // property unless they all happen to be integers — in any session, since
  // the round's options are shared.
  milp_options.objective_is_integral = true;
  for (const IncrementalRepairSession* session : sessions) {
    for (const CellWeight& weight : session->options_.translator.weights) {
      if (weight.weight != std::floor(weight.weight)) {
        milp_options.objective_is_integral = false;
      }
    }
  }

  struct Slot {
    IncrementalRepairSession* session;
    int component;
  };
  for (;;) {
    std::vector<IncrementalRepairSession*> active;
    for (IncrementalRepairSession* session : sessions) {
      if (session->call_.solving &&
          std::find(session->dirty_.begin(), session->dirty_.end(), 1) !=
              session->dirty_.end()) {
        active.push_back(session);
      }
    }
    if (active.empty()) return;

    obs::Span attempt_span(run, "repair.attempt");
    obs::Count(run, "repair.attempts");
    std::vector<Slot> slots;
    std::vector<IncrementalRepairSession*> solving;
    for (IncrementalRepairSession* session : active) {
      const std::vector<int> to_solve = session->BeginRound();
      if (!to_solve.empty()) solving.push_back(session);
      for (int c : to_solve) slots.push_back(Slot{session, c});
    }
    if (!slots.empty()) {
      // Largest model first across sessions: the small blocks fill in behind
      // the big ones on a shared pool instead of the reverse.
      auto model_of = [](const Slot& slot) -> const milp::Model& {
        return slot.session->decomposition_.components[slot.component].model;
      };
      std::stable_sort(slots.begin(), slots.end(),
                       [&](const Slot& a, const Slot& b) {
                         return model_of(a).num_variables() >
                                model_of(b).num_variables();
                       });
      std::vector<milp::BatchModel> batch(slots.size());
      for (size_t k = 0; k < slots.size(); ++k) {
        const IncrementalRepairSession& session = *slots[k].session;
        const int c = slots[k].component;
        batch[k].model = &model_of(slots[k]);
        if (!session.call_.hint.empty()) {
          for (int v : session.decomposition_.components[c].vars) {
            batch[k].initial_point.push_back(
                session.call_.hint[static_cast<size_t>(v)]);
          }
        }
        batch[k].root_basis = session.component_results_[c].root_basis;
      }

      const auto s0 = std::chrono::steady_clock::now();
      obs::Span solve_span(run, "repair.solve");
      std::vector<milp::MilpResult> solved =
          milp::SolveMilpBatch(batch, milp_options);
      solve_span.End();
      const double wall = Seconds(s0, std::chrono::steady_clock::now());

      for (size_t k = 0; k < slots.size(); ++k) {
        milp::MilpResult& previous =
            slots[k].session->component_results_[slots[k].component];
        if (solved[k].root_basis == nullptr) {
          solved[k].root_basis = std::move(previous.root_basis);
        }
        slots[k].session->call_.outcome.stats.milp_wall_seconds +=
            solved[k].wall_seconds;
        previous = std::move(solved[k]);
      }
      // The pool is shared, so every session records the round's wall.
      for (IncrementalRepairSession* session : solving) {
        session->call_.outcome.stats.solve_seconds += wall;
      }
    }
    for (IncrementalRepairSession* session : active) session->EndRound();
  }
}

Status IncrementalRepairSession::Verify(const Repair& repair) const {
  obs::Span verify_span(run(), "repair.verify");
  std::map<rel::CellRef, double> repaired;
  for (const AtomicUpdate& update : repair.updates()) {
    repaired[update.cell] = update.new_value.AsReal();
  }
  // The ground program is repair-invariant (steadiness), so evaluating its
  // rows at ρ(D)'s values is the full consistency check.
  DART_ASSIGN_OR_RETURN(std::vector<cons::Violation> violations,
                        cons::EvaluateGroundProgram(*db_, *ground_, repaired));
  if (!violations.empty()) {
    return Status::Internal(
        "solver returned a repair that does not satisfy AC — numerical "
        "failure in the MILP layer");
  }
  for (const FixedValue& pin : call_.fixed_values) {
    auto it = repaired.find(pin.cell);
    double value = 0;
    if (it != repaired.end()) {
      value = it->second;
    } else {
      DART_ASSIGN_OR_RETURN(rel::Value current, db_->ValueAt(pin.cell));
      value = current.AsReal();
    }
    if (std::fabs(value - pin.value) > 1e-6) {
      return Status::Internal("operator pin not honored by the repair");
    }
  }
  return Status::Ok();
}

Result<RepairOutcome> IncrementalRepairSession::Finish() {
  obs::RunContext* const run = this->run();
  if (!call_.solving) return std::move(call_.outcome);
  call_.solving = false;
  RepairStats& stats = call_.outcome.stats;
  stats.num_cells = translation_.cells.size();
  stats.num_ground_rows = translation_.ground_rows.size();
  stats.matrix_rows = translation_.matrix_rows;
  stats.matrix_cols = translation_.matrix_cols;
  stats.matrix_nnz = translation_.matrix_nnz;
  stats.matrix_density = translation_.matrix_density;
  stats.practical_m = translation_.practical_m;
  stats.theoretical_m_log10 = translation_.theoretical_m_log10;
  stats.bigm_retries = call_.retries;
  stats.num_components = decomposition_.num_components();
  stats.largest_component_vars = decomposition_.largest_component_vars;
  obs::Observe(run, "repair.solve_seconds", stats.solve_seconds);

  const milp::MilpResult stitched = milp::StitchDecomposition(
      decomposition_, translation_.model, component_results_);
  switch (stitched.status) {
    case milp::MilpResult::SolveStatus::kInfeasible:
    case milp::MilpResult::SolveStatus::kLpRelaxationInfeasible:
      return Status::Infeasible(
          "no repair exists for the database w.r.t. the given constraints" +
          std::string(call_.fixed_values.empty() ? "" : " and operator pins"));
    case milp::MilpResult::SolveStatus::kNodeLimit:
      return Status::FailedPrecondition(
          "MILP node limit reached before proving optimality");
    case milp::MilpResult::SolveStatus::kUnbounded:
      return Status::Internal("repair MILP reported unbounded");
    case milp::MilpResult::SolveStatus::kOptimal:
      break;
  }

  DART_ASSIGN_OR_RETURN(
      Repair repair,
      internal::ExtractRepair(*db_, translation_, stitched.point));
  // Under the card-minimal objective (no weights), the cardinality must
  // equal the MILP optimum (Sec. 5: the objective value is the number of
  // atomic updates of a card-minimal repair).
  if (options_.translator.weights.empty() &&
      static_cast<double>(repair.cardinality()) > stitched.objective + 0.5) {
    return Status::Internal(
        "extracted repair cardinality exceeds the MILP optimum");
  }
  if (options_.verify_result) DART_RETURN_IF_ERROR(Verify(repair));
  OrderUpdatesForDisplay(translation_, &repair);
  call_.outcome.repair = std::move(repair);
  return std::move(call_.outcome);
}

Result<RepairOutcome> IncrementalRepairSession::ComputeRepair(
    const std::vector<FixedValue>& fixed_values, const Repair* warm_start) {
  obs::Span incremental_span(run(), "repair.incremental");
  DART_RETURN_IF_ERROR(Start(fixed_values, warm_start));
  SolveInLockstep({this});
  return Finish();
}

}  // namespace dart::repair
