#include "estimate/walk_runner.h"

#include <algorithm>

#include "obs/profiler.h"
#include "util/check.h"

namespace histwalk::estimate {

uint64_t TracedWalk::StepsWithinBudget(uint64_t budget) const {
  // unique_queries is non-decreasing; binary search the cut point.
  auto it = std::upper_bound(unique_queries.begin(), unique_queries.end(),
                             budget);
  return static_cast<uint64_t>(it - unique_queries.begin());
}

WalkTrace::WalkTrace(core::Walker& walker, const RunOptions& options)
    : walker_(walker), options_(options) {
  HW_CHECK_MSG(options.max_steps > 0 || options.query_budget > 0,
               "TraceWalk needs a stop condition");
  // A trace bounded by steps alone ends at max_steps unless a step fails
  // or an adaptive stop fires: allocate it once, on the constructing
  // thread, rather than regrow it on whichever thread takes the steps.
  // (With a query budget, max_steps is only a cap and may be far off.)
  if (options.query_budget == 0) {
    trace_.nodes.reserve(options.max_steps);
    trace_.degrees.reserve(options.max_steps);
    trace_.unique_queries.reserve(options.max_steps);
  }
}

bool WalkTrace::Done() {
  if (done_ || in_step_) return done_;
  if (options_.max_steps > 0 && trace_.nodes.size() >= options_.max_steps) {
    trace_.final_status = util::Status::Ok();
    done_ = true;
  } else if (options_.progress != nullptr && options_.progress->ShouldStop()) {
    // Cooperative adaptive stop: the ensemble reached its CI target.
    trace_.final_status = util::Status::Ok();
    done_ = true;
  }
  return done_;
}

bool WalkTrace::TakeStep() {
  HW_PROF_SCOPE("walker/step");
#ifndef HISTWALK_DISABLE_TRACING
  // One span per step, held open across a park; the access layer's
  // cache-probe instants land inside it on the same (per-walker) track.
  obs::Tracer* tracer = options_.tracer;
  if (tracer != nullptr && !in_step_) {
    tracer->Begin(options_.trace_track, "step",
                  "\"index\":" + std::to_string(trace_.nodes.size()));
  }
#endif
  in_step_ = true;
  auto step = walker_.Step();
  if (!step.ok() && util::IsParked(step.status())) return false;
  in_step_ = false;
  access::NodeAccess* access = walker_.access();
  if (!step.ok()) {
    trace_.final_status = step.status();
    done_ = true;
  } else if (uint64_t cost = access->unique_query_count();
             options_.query_budget > 0 && cost > options_.query_budget) {
    // This step overshot the budget; it is not part of the budget-b walk.
    trace_.final_status = util::Status::Ok();
    done_ = true;
  } else {
    graph::NodeId node = *step;
    trace_.nodes.push_back(node);
    auto degree = access->SummaryDegree(node);
    HW_CHECK(degree.ok());
    trace_.degrees.push_back(*degree);
    trace_.unique_queries.push_back(cost);
    if (options_.progress != nullptr) {
      options_.progress->OnStep(options_.progress_walker, node, *degree, cost);
    }
  }
#ifndef HISTWALK_DISABLE_TRACING
  if (tracer != nullptr) tracer->End(options_.trace_track, "step");
#endif
  return true;
}

TracedWalk TraceWalk(core::Walker& walker, const RunOptions& options) {
  WalkTrace walk(walker, options);
  // Without a scheduler, a parked step is re-run until its access serves it.
  while (!walk.Done()) walk.TakeStep();
  return std::move(walk).Take();
}

}  // namespace histwalk::estimate
