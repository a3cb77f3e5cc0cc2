#include "estimate/ensemble_runner.h"

#include "util/parallel.h"
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

util::Result<EnsembleResult> RunEnsemble(access::SharedAccessGroup& group,
                                         access::AsyncFetcher& resolver,
                                         const core::WalkerSpec& spec,
                                         const EnsembleOptions& options) {
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

  // Per-walker trace tracks, registered serially BEFORE the parallel
  // section so track ids are a function of walker index, never of
  // scheduling.
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

  util::ParallelFor(
      options.num_walkers,
      [&](size_t i) {
        core::EnsembleMember& member = members[i];
        util::Status reset = member.walker->Reset(result.starts[i]);
        if (!reset.ok()) {
          result.traces[i].final_status = reset;
          if (options.progress != nullptr) {
            options.progress->FinishWalker(static_cast<uint32_t>(i));
          }
          return;
        }
        result.traces[i] = TraceWalk(
            *member.walker,
            {.max_steps = options.max_steps,
             .query_budget = options.query_budget,
             .tracer = options.tracer,
             .trace_track = trace_tracks[i],
             .progress = options.progress,
             .progress_walker = static_cast<uint32_t>(i)});
        if (options.progress != nullptr) {
          options.progress->FinishWalker(static_cast<uint32_t>(i));
        }
      },
      options.num_threads == 0 ? options.num_walkers : options.num_threads);

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
