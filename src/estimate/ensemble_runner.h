#ifndef HISTWALK_ESTIMATE_ENSEMBLE_RUNNER_H_
#define HISTWALK_ESTIMATE_ENSEMBLE_RUNNER_H_

#include <cstdint>
#include <vector>

#include "access/shared_access.h"
#include "core/walker_factory.h"
#include "estimate/step_pool.h"
#include "estimate/walk_runner.h"
#include "net/request_pipeline.h"

// Concurrent walker ensembles over shared history.
//
// RunEnsemble drives N independent walkers on a step pool (StepPool: a few
// stepper threads multiplexing resumable walkers), all drawing from one
// SharedAccessGroup: one backend, one bounded HistoryCache, one
// service-billed query counter. Cache misses resolve through the run's
// resolver — a net::RequestPipeline at depth 0 (inline: each fetch on the
// missing walker's stepper) or depth D (pipelined: the walker parks while
// idle steppers carry batched fetches), or a service's per-tenant adapter
// — which collapses concurrent misses on one node into one fetch. Walker i's RNG and start node derive from
// deterministic sub-seeds of `seed`, and each per-walker trace depends
// only on that walker's own draws — never on what the cache, the resolver
// or the other walkers did — so the merged ensemble is reproducible
// bit-for-bit across runs, thread schedules and pipeline depths. Which
// walker paid for which fetch varies with interleaving; with a cache that
// never evicts, the total bill does not.
//
// Exception: a group-level query_budget breaks the bit-for-bit guarantee.
// Which walker loses the race for the last unit of budget — and therefore
// where its trace is cut by ResourceExhausted — depends on scheduling. Use
// the per-walker `query_budget` below (deterministic cut on each walker's
// own unique-query count) when reproducible traces matter; reserve the
// group budget for modelling a hard service-side quota.

namespace histwalk::estimate {

struct EnsembleOptions {
  uint32_t num_walkers = 8;
  uint64_t seed = 1;
  // Per-walker stop conditions with TraceWalk semantics; at least one must
  // be set. query_budget cuts each trace at that walker's own unique-query
  // count (its standalone cost), keeping the cut deterministic.
  uint64_t max_steps = 0;
  uint64_t query_budget = 0;
  // Steppers of the run's own step pool (0 = min(hardware concurrency,
  // num_walkers)). A parked walker holds no stepper, so a few steppers keep
  // a depth-D pipeline full. Unused when the caller passes its own pool.
  unsigned num_threads = 0;
  // Optional tracer (must outlive the run). Walker i's steps and cache
  // probes land on a "walker i" track, registered serially at run start so
  // track ids never depend on scheduling. With one walker the trace bytes
  // are identical across num_threads values (pinned by obs_trace_test);
  // multi-walker traces are valid but interleaving-dependent.
  obs::Tracer* tracer = nullptr;
  // Optional streaming telemetry (must outlive the run): walker i feeds
  // progress->OnStep(i, ...) and publishes its final state via
  // FinishWalker(i) when its walk ends. With the tracker's stop rule
  // disabled, observation cannot change any trace; with it enabled,
  // walkers halt cooperatively once the ensemble CI target is reached
  // (the cut point is interleaving-dependent by design).
  obs::ProgressTracker* progress = nullptr;
};

// Per-step samples of all walkers concatenated in walker order — the
// deterministic flat view the estimators consume.
struct MergedSamples {
  std::vector<graph::NodeId> nodes;
  std::vector<uint32_t> degrees;
};

struct EnsembleResult {
  std::vector<graph::NodeId> starts;  // starts[i] seeds walker i
  std::vector<TracedWalk> traces;     // traces[i] belongs to walker i

  // Per-walker QueryStats, standalone semantics (deterministic), and their
  // sum: total/unique/cache_hits as if each walker were accounted alone.
  std::vector<access::QueryStats> walker_stats;
  access::QueryStats summed_stats;
  // Backend fetches this run actually issued — what the service bills the
  // whole ensemble. <= summed_stats.unique_queries when the cache is big
  // enough; evictions push it back up. The resolver's singleflight makes it
  // a function of the walks whenever the cache does not evict.
  uint64_t charged_queries = 0;
  // Cache activity attributable to THIS run: hits/misses/insertions/
  // evictions are deltas over the run; entries/bytes are the resident state
  // after it (so successive ensembles on one group each report their own
  // traffic, matching charged_queries' windowing).
  access::HistoryCacheStats cache_stats;
  // Total history footprint after the run: resident cache bytes plus each
  // walker's private membership bits.
  uint64_t history_bytes = 0;
  // The per-run pipeline's wire traffic (batching and singleflight-dedup
  // effectiveness), filled by the pipeline's owner — api::Sampler in
  // inline and pipelined mode. All zeros for a service session, whose
  // shared pipeline reports per tenant (RequestPipeline::tenant_stats).
  net::RequestPipelineStats pipeline_stats;

  uint64_t num_steps() const;
  // Queries the ensemble saved by sharing history, versus N isolated
  // walkers (0 if duplicate concurrent fetches ever exceed the overlap).
  uint64_t SharedHistorySavings() const;
  MergedSamples Merged() const;
};

// Runs the ensemble described by `options` against `group`, resolving
// cache misses through `resolver` (see access/async_fetcher.h). Walkers
// are built from `spec` (see core::MakeEnsemble) and run on `pool`, which
// other runs may share; the first overload starts a pool for this run
// alone. The group is NOT reset first, so successive ensembles can keep
// accumulating shared history; charged_queries reports only this run's
// fetches.
util::Result<EnsembleResult> RunEnsemble(access::SharedAccessGroup& group,
                                         access::AsyncFetcher& resolver,
                                         const core::WalkerSpec& spec,
                                         const EnsembleOptions& options);
util::Result<EnsembleResult> RunEnsemble(access::SharedAccessGroup& group,
                                         access::AsyncFetcher& resolver,
                                         const core::WalkerSpec& spec,
                                         const EnsembleOptions& options,
                                         StepPool& pool);

}  // namespace histwalk::estimate

#endif  // HISTWALK_ESTIMATE_ENSEMBLE_RUNNER_H_
