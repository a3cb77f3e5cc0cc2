#ifndef HISTWALK_ESTIMATE_WALK_RUNNER_H_
#define HISTWALK_ESTIMATE_WALK_RUNNER_H_

#include <cstdint>
#include <vector>

#include "core/walker.h"
#include "obs/progress.h"
#include "obs/trace.h"

// Drives a walker and records the per-step trace every downstream consumer
// needs: the visited node, its degree (free response metadata) and the
// cumulative unique-query cost. Because query accounting is monotone, one
// trace serves every budget checkpoint <= the run's budget — the
// error-vs-query-cost curves take prefixes instead of re-running walks.

namespace histwalk::estimate {

struct TracedWalk {
  std::vector<graph::NodeId> nodes;      // X_1 .. X_T (start excluded)
  std::vector<uint32_t> degrees;         // deg(X_t)
  std::vector<uint64_t> unique_queries;  // charged queries after step t
  // OK when the run ended by max_steps; a budget stop (util::IsBudgetStop:
  // kResourceExhausted for the access's own budget, kBudgetExhausted for a
  // shared group quota) when a spent budget cut it; other codes indicate
  // setup errors.
  util::Status final_status;

  uint64_t num_steps() const { return nodes.size(); }

  // Number of steps whose cumulative query cost is <= budget.
  uint64_t StepsWithinBudget(uint64_t budget) const;
};

struct RunOptions {
  uint64_t max_steps = 0;     // 0 = no step limit (budget must stop the run)
  uint64_t query_budget = 0;  // 0 = rely on the access's own budget/limit
  // Optional tracer: each step becomes a span on `trace_track` (the
  // walker's own track), with the access layer's cache-probe instants
  // nesting inside it. Null = no tracing.
  obs::Tracer* tracer = nullptr;
  uint32_t trace_track = 0;
  // Optional streaming telemetry: every recorded step is fed to
  // progress->OnStep(progress_walker, ...), and the walk additionally
  // stops (with an OK status) when progress->ShouldStop() latches —
  // the adaptive-stopping hook. Observation is pure (no fetches, no
  // RNG), so a tracker whose stop rule is disabled cannot change the
  // trace. Null = no telemetry.
  obs::ProgressTracker* progress = nullptr;
  uint32_t progress_walker = 0;
};

// One walk's trace under construction, as a resumable state: TraceWalk's
// loop body split into "is the walk done?" and "take one step", so a step
// scheduler (estimate::StepPool) can interleave many walks on few threads
// and set a step aside while its neighbor query is parked.
class WalkTrace {
 public:
  // `walker` (already Reset) must outlive this object.
  WalkTrace(core::Walker& walker, const RunOptions& options);

  // True once a stop condition fired or a step failed; the trace is then
  // final. Checked between steps only: a parked step is never done.
  bool Done();

  // Takes one step — or re-runs the parked one — and records it. False
  // when the step parked on a pending fetch (util::IsParked): nothing was
  // recorded or consumed, and the same call is to be repeated once the
  // fetch landed. A parked step's trace span stays open across the park.
  bool TakeStep();

  // The finished trace. Call once, after Done().
  TracedWalk Take() && { return std::move(trace_); }

 private:
  core::Walker& walker_;
  RunOptions options_;
  TracedWalk trace_;
  bool done_ = false;
  bool in_step_ = false;  // a step began (its span is open) but parked
};

// Steps `walker` (already Reset) until a stop condition fires. With
// query_budget > 0 the run stops at the first step whose cumulative unique
// query count EXCEEDS the budget; that step is excluded from the trace, so
// a budget-b trace is byte-identical to the prefix of a larger-budget trace
// cut at b (walks keep taking free steps among already-queried nodes until
// a new query would overshoot — the natural "spend the whole budget"
// semantics).
TracedWalk TraceWalk(core::Walker& walker, const RunOptions& options);

}  // namespace histwalk::estimate

#endif  // HISTWALK_ESTIMATE_WALK_RUNNER_H_
