#include "estimate/ensemble_runner.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>

#include "util/random.h"

namespace histwalk::estimate {

uint64_t EnsembleResult::num_steps() const {
  uint64_t steps = 0;
  for (const TracedWalk& trace : traces) steps += trace.num_steps();
  return steps;
}

uint64_t EnsembleResult::SharedHistorySavings() const {
  if (charged_queries >= summed_stats.unique_queries) return 0;
  return summed_stats.unique_queries - charged_queries;
}

MergedSamples EnsembleResult::Merged() const {
  MergedSamples merged;
  merged.nodes.reserve(num_steps());
  merged.degrees.reserve(num_steps());
  for (const TracedWalk& trace : traces) {
    merged.nodes.insert(merged.nodes.end(), trace.nodes.begin(),
                        trace.nodes.end());
    merged.degrees.insert(merged.degrees.end(), trace.degrees.begin(),
                          trace.degrees.end());
  }
  return merged;
}

namespace {

// One walker of a run as a StepPool task: Reset, then WalkTrace steps until
// done, parking whenever its view's miss has to wait for the resolver.
class WalkerTask final : public StepPool::Task {
 public:
  WalkerTask(core::EnsembleMember& member, graph::NodeId start,
             const RunOptions& run, TracedWalk* out)
      : member_(member),
        out_(out),
        progress_(run.progress),
        progress_walker_(run.progress_walker) {
    member_.access->set_waiter(this);
    reset_ = member_.walker->Reset(start);
    // Built here, on the run's own thread, so the trace's buffers stay out
    // of the steppers' malloc arenas (which hold long-lived cache entries).
    if (reset_.ok()) walk_.emplace(*member_.walker, run);
  }
  ~WalkerTask() override { member_.access->set_waiter(nullptr); }

  bool Run() override {
    if (!reset_.ok()) {
      out_->final_status = reset_;
      return Finish();
    }
    while (!walk_->Done()) {
      if (!walk_->TakeStep()) return false;  // parked
    }
    *out_ = std::move(*walk_).Take();
    return Finish();
  }

  void OnFetched(util::Result<access::AsyncFetcher::Fetched> fetched) override {
    member_.access->Land(std::move(fetched));
    Resume();
  }

 private:
  bool Finish() {
    if (progress_ != nullptr) progress_->FinishWalker(progress_walker_);
    return true;
  }

  core::EnsembleMember& member_;
  TracedWalk* out_;
  obs::ProgressTracker* progress_;
  uint32_t progress_walker_;
  util::Status reset_;
  std::optional<WalkTrace> walk_;
};

}  // namespace

util::Result<EnsembleResult> RunEnsemble(access::SharedAccessGroup& group,
                                         access::AsyncFetcher& resolver,
                                         const core::WalkerSpec& spec,
                                         const EnsembleOptions& options) {
  unsigned steppers = options.num_threads;
  if (steppers == 0) {
    steppers = std::min(std::max(1u, std::thread::hardware_concurrency()),
                        std::max(1u, options.num_walkers));
  }
  StepPool pool(steppers);
  return RunEnsemble(group, resolver, spec, options, pool);
}

util::Result<EnsembleResult> RunEnsemble(access::SharedAccessGroup& group,
                                         access::AsyncFetcher& resolver,
                                         const core::WalkerSpec& spec,
                                         const EnsembleOptions& options,
                                         StepPool& pool) {
  if (options.num_walkers == 0) {
    return util::Status::InvalidArgument("ensemble needs at least one walker");
  }
  if (options.max_steps == 0 && options.query_budget == 0) {
    return util::Status::InvalidArgument(
        "ensemble needs a stop condition (max_steps or query_budget)");
  }
  uint64_t num_nodes = group.backend()->num_nodes();
  if (num_nodes == 0) {
    return util::Status::FailedPrecondition("backend has no nodes");
  }

  HW_ASSIGN_OR_RETURN(
      std::vector<core::EnsembleMember> members,
      core::MakeEnsemble(spec, group, resolver, options.num_walkers,
                         options.seed));

  EnsembleResult result;
  // Start nodes come from their own sub-seed stream (offset past any walker
  // index) and are drawn serially, so they never depend on scheduling.
  util::Random start_rng(util::SubSeed(options.seed, uint64_t{1} << 32));
  result.starts.resize(options.num_walkers);
  for (uint32_t i = 0; i < options.num_walkers; ++i) {
    result.starts[i] =
        static_cast<graph::NodeId>(start_rng.UniformIndex(num_nodes));
  }
  result.traces.resize(options.num_walkers);

  // Per-walker trace tracks, registered serially BEFORE the walkers start
  // so track ids are a function of walker index, never of scheduling.
  std::vector<uint32_t> trace_tracks(options.num_walkers, 0);
  if (options.tracer != nullptr) {
    for (uint32_t i = 0; i < options.num_walkers; ++i) {
      trace_tracks[i] =
          options.tracer->RegisterTrack("walker " + std::to_string(i));
      members[i].access->set_trace(options.tracer, trace_tracks[i]);
    }
  }

  const uint64_t charged_before = group.charged_queries();
  const access::HistoryCacheStats cache_before = group.cache().stats();

  {
    std::vector<std::unique_ptr<WalkerTask>> tasks;
    std::vector<StepPool::Task*> runnable;
    tasks.reserve(options.num_walkers);
    runnable.reserve(options.num_walkers);
    for (uint32_t i = 0; i < options.num_walkers; ++i) {
      tasks.push_back(std::make_unique<WalkerTask>(
          members[i], result.starts[i],
          RunOptions{.max_steps = options.max_steps,
                     .query_budget = options.query_budget,
                     .tracer = options.tracer,
                     .trace_track = trace_tracks[i],
                     .progress = options.progress,
                     .progress_walker = i},
          &result.traces[i]));
      runnable.push_back(tasks.back().get());
    }
    pool.Run(runnable, &resolver);
  }

  uint64_t private_bytes = 0;
  result.walker_stats.reserve(options.num_walkers);
  for (const core::EnsembleMember& member : members) {
    const access::QueryStats& stats = member.access->stats();
    result.walker_stats.push_back(stats);
    result.summed_stats.total_queries += stats.total_queries;
    result.summed_stats.unique_queries += stats.unique_queries;
    result.summed_stats.cache_hits += stats.cache_hits;
    private_bytes += member.access->private_history_bytes();
  }
  result.charged_queries = group.charged_queries() - charged_before;
  result.cache_stats = group.cache().stats();
  result.cache_stats.hits -= cache_before.hits;
  result.cache_stats.misses -= cache_before.misses;
  result.cache_stats.insertions -= cache_before.insertions;
  result.cache_stats.evictions -= cache_before.evictions;
  result.history_bytes = group.cache().MemoryBytes() + private_bytes;
  return result;
}

}  // namespace histwalk::estimate
