#include "repair/engine.h"

#include <algorithm>
#include <cmath>

#include "obs/context.h"
#include "repair/incremental.h"

namespace dart::repair {

namespace internal {

Result<Repair> ExtractRepair(const rel::Database& db,
                             const Translation& translation,
                             const std::vector<double>& point) {
  std::vector<AtomicUpdate> updates;
  for (size_t i = 0; i < translation.cells.size(); ++i) {
    const double z = point[translation.z_vars[i]];
    const double v = translation.current_values[i];
    if (std::fabs(z - v) <= 1e-6 * std::max(1.0, std::fabs(v))) continue;
    DART_ASSIGN_OR_RETURN(rel::Value old_value,
                          db.ValueAt(translation.cells[i]));
    const rel::Relation* relation =
        db.FindRelation(translation.cells[i].relation);
    const rel::Domain domain =
        relation->schema().attribute(translation.cells[i].attribute).domain;
    if (domain == rel::Domain::kInt) {
      updates.push_back(AtomicUpdate{
          translation.cells[i], old_value,
          rel::Value(static_cast<int64_t>(std::llround(z)))});
    } else {
      // Continuous values carry simplex roundoff (…999997); snap to a
      // 6-decimal grid — acquired documents hold finite-precision decimals,
      // and the post-solve consistency check (1e-6 tolerance) still guards
      // the result.
      const double snapped = std::round(z * 1e6) / 1e6;
      updates.push_back(
          AtomicUpdate{translation.cells[i], old_value, rel::Value(snapped)});
    }
  }
  return Repair(std::move(updates));
}

}  // namespace internal

Result<RepairOutcome> RepairEngine::ComputeRepair(
    const rel::Database& db, const cons::ConstraintSet& constraints,
    const std::vector<FixedValue>& fixed_values, const Repair* warm_start,
    const cons::GroundProgram* ground) const {
  obs::Span compute_span(
      options_.run != nullptr ? options_.run : options_.milp.run,
      "repair.compute");
  IncrementalRepairSession session(db, constraints, options_, ground);
  DART_RETURN_IF_ERROR(session.Start(fixed_values, warm_start));
  SolveInLockstep({&session});
  return session.Finish();
}

void OrderUpdatesForDisplay(const Translation& translation, Repair* repair) {
  auto occurrences = [&](const rel::CellRef& cell) {
    const int index = translation.CellIndex(cell);
    return index >= 0 ? translation.occurrence_counts[index] : 0;
  };
  std::stable_sort(repair->updates().begin(), repair->updates().end(),
                   [&](const AtomicUpdate& a, const AtomicUpdate& b) {
                     const int oa = occurrences(a.cell);
                     const int ob = occurrences(b.cell);
                     if (oa != ob) return oa > ob;
                     return a.cell < b.cell;
                   });
}

}  // namespace dart::repair
