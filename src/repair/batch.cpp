#include "repair/batch.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "obs/context.h"
#include "repair/incremental.h"
#include "util/task_pool.h"

namespace dart::repair {

std::vector<Result<RepairOutcome>> ComputeRepairBatch(
    const std::vector<BatchRepairRequest>& requests,
    const cons::ConstraintSet& constraints,
    const RepairEngineOptions& options) {
  obs::RunContext* const run =
      options.run != nullptr ? options.run : options.milp.run;
  obs::Span batch_span(run, "repair.batch");
  const int64_t batch_span_id = batch_span.id();

  std::vector<std::unique_ptr<IncrementalRepairSession>> sessions(
      requests.size());
  std::vector<Status> started(requests.size(), Status::Ok());
  std::vector<size_t> valid;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].db == nullptr || requests[i].ground == nullptr) {
      started[i] = Status::InvalidArgument(
          "BatchRepairRequest requires non-null db and ground program");
      continue;
    }
    RepairEngineOptions doc_options = options;
    doc_options.translator.weights.insert(doc_options.translator.weights.end(),
                                          requests[i].weights.begin(),
                                          requests[i].weights.end());
    sessions[i] = std::make_unique<IncrementalRepairSession>(
        *requests[i].db, constraints, std::move(doc_options),
        requests[i].ground);
    valid.push_back(i);
  }

  // Each Start touches only its own session, so the per-document consistency
  // check, translation and decomposition fan out across the pool. Workers
  // carry no span stack from this thread; nest each document explicitly.
  util::ParallelFor(std::max(1, options.milp.search.num_threads), valid,
                    [&](size_t i) {
                      obs::Span doc_span(run, "repair.batch.document",
                                         batch_span_id);
                      started[i] = sessions[i]->Start({}, nullptr);
                    });

  std::vector<IncrementalRepairSession*> active;
  for (size_t i : valid) {
    if (started[i].ok()) active.push_back(sessions[i].get());
  }
  SolveInLockstep(active);

  std::vector<Result<RepairOutcome>> out;
  out.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!started[i].ok()) {
      out.push_back(started[i]);
    } else {
      out.push_back(sessions[i]->Finish());
    }
  }
  return out;
}

}  // namespace dart::repair
