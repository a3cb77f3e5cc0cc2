// Microbenchmarks (M3): the net/ request pipeline. Real-time throughput of
// deduplicated, batched fetching at several in-flight depths, plus full
// async ensembles whose counters expose the SIMULATED wall-clock the
// LatencyModel charges — the acceptance metric for pipelining: identical
// traces, fewer simulated seconds as depth grows. sim_wall_s falling from
// the depth-1 row to the depth-8 row of the same benchmark is the headline.

#include <benchmark/benchmark.h>

#include <vector>

#include "access/graph_access.h"
#include "access/shared_access.h"
#include "api/sampler.h"
#include "core/walker_factory.h"
#include "experiment/datasets.h"
#include "net/remote_backend.h"
#include "net/request_pipeline.h"
#include "util/parallel.h"
#include "util/random.h"

namespace {

using namespace histwalk;

const experiment::Dataset& FixtureDataset() {
  static const experiment::Dataset* dataset = new experiment::Dataset(
      experiment::BuildDataset(experiment::DatasetId::kFacebook));
  return *dataset;
}

// Raw pipeline throughput: 8 submitter threads fetch random nodes through
// one pipeline (at most `depth` batches in flight, carried by the blocked
// submitters themselves) over a latency-modelled remote backend.
// items_per_second is real time; sim_wall_s is what the model says the
// same traffic costs on the wire at that depth.
void BM_PipelineFetchThroughput(benchmark::State& state) {
  const experiment::Dataset& dataset = FixtureDataset();
  const uint32_t depth = static_cast<uint32_t>(state.range(0));
  constexpr size_t kSubmitters = 8;
  constexpr size_t kFetchesPerSubmitter = 512;

  double sim_wall = 0.0, wire_requests = 0.0, mean_batch = 0.0;
  double dedup = 0.0;
  for (auto _ : state) {
    access::GraphAccess inner(&dataset.graph, &dataset.attributes);
    net::RemoteBackend remote(&inner, {.seed = 7, .max_in_flight = depth});
    access::SharedAccessGroup group(&remote);
    net::RequestPipeline pipeline(&group, {.depth = depth, .max_batch = 8});
    const uint64_t n = dataset.graph.num_nodes();
    util::ParallelFor(
        kSubmitters,
        [&](size_t task) {
          util::Random rng(util::SubSeed(7, task));
          for (size_t i = 0; i < kFetchesPerSubmitter; ++i) {
            auto fetched = pipeline.FetchShared(
                static_cast<graph::NodeId>(rng.UniformIndex(n)));
            benchmark::DoNotOptimize(fetched);
          }
        },
        kSubmitters);
    sim_wall = static_cast<double>(remote.sim_now_us()) / 1e6;
    net::RequestPipelineStats stats = pipeline.stats();
    wire_requests = static_cast<double>(stats.wire_requests);
    mean_batch = stats.MeanBatchSize();
    dedup = static_cast<double>(stats.dedup_joins + stats.late_hits);
  }
  state.SetItemsProcessed(state.iterations() * kSubmitters *
                          kFetchesPerSubmitter);
  state.counters["sim_wall_s"] = sim_wall;
  state.counters["wire_requests"] = wire_requests;
  state.counters["mean_batch"] = mean_batch;
  state.counters["dedup_hits"] = dedup;
}

BENCHMARK(BM_PipelineFetchThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// End-to-end: an 8-walker CNRW async ensemble per depth, assembled through
// the api/ facade. Traces are bit-identical across rows (the runner's
// contract); only sim_wall_s and the wire counters move — the "walk, not
// wait" effect isolated.
void BM_AsyncEnsembleDepth(benchmark::State& state) {
  const experiment::Dataset& dataset = FixtureDataset();
  const uint32_t depth = static_cast<uint32_t>(state.range(0));
  double sim_wall = 0.0, charged = 0.0, wire_requests = 0.0, dedup = 0.0;
  for (auto _ : state) {
    auto sampler = api::SamplerBuilder()
                       .OverGraph(&dataset.graph, &dataset.attributes)
                       .WithRemoteWire({.seed = 13})
                       .RunPipelined({.depth = depth, .max_batch = 8})
                       .WithWalker({.type = core::WalkerType::kCnrw})
                       .WithEnsemble(/*num_walkers=*/8, /*seed=*/42)
                       .StopAfterSteps(1000)
                       .Build();
    if (!sampler.ok()) {
      state.SkipWithError("sampler build failed");
      return;
    }
    auto handle = (*sampler)->Run();
    auto result = handle.ok()
                      ? handle->Wait()
                      : util::Result<api::RunReport>(handle.status());
    if (!result.ok()) {
      state.SkipWithError("async ensemble failed");
      return;
    }
    benchmark::DoNotOptimize(result->ensemble.num_steps());
    sim_wall = static_cast<double>(result->sim_wall_us) / 1e6;
    charged = static_cast<double>(result->charged_queries);
    wire_requests =
        static_cast<double>(result->ensemble.pipeline_stats.wire_requests);
    dedup = static_cast<double>(result->ensemble.pipeline_stats.dedup_joins);
  }
  state.SetItemsProcessed(state.iterations() * 8 * 1000);
  state.counters["sim_wall_s"] = sim_wall;
  state.counters["charged_queries"] = charged;
  state.counters["wire_requests"] = wire_requests;
  state.counters["dedup_joins"] = dedup;
}

BENCHMARK(BM_AsyncEnsembleDepth)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The same crawl under a Twitter-grade quota (15 calls / 15 min): batching
// spends one token per REQUEST, so larger batches stretch the same budget
// over far less simulated time.
void BM_AsyncEnsembleRateLimited(benchmark::State& state) {
  const experiment::Dataset& dataset = FixtureDataset();
  const uint32_t max_batch = static_cast<uint32_t>(state.range(0));
  double sim_hours = 0.0, rate_stall_s = 0.0;
  for (auto _ : state) {
    auto sampler =
        api::SamplerBuilder()
            .OverGraph(&dataset.graph, &dataset.attributes)
            .WithRemoteWire({.seed = 13,
                             .max_in_flight = 4,
                             .rate_limit = access::RateLimitPolicy::Twitter()})
            .RunPipelined({.depth = 4, .max_batch = max_batch})
            .WithWalker({.type = core::WalkerType::kCnrw})
            .WithEnsemble(/*num_walkers=*/8, /*seed=*/42)
            .StopAfterSteps(300)
            .Build();
    if (!sampler.ok()) {
      state.SkipWithError("sampler build failed");
      return;
    }
    auto handle = (*sampler)->Run();
    auto result = handle.ok()
                      ? handle->Wait()
                      : util::Result<api::RunReport>(handle.status());
    if (!result.ok()) {
      state.SkipWithError("async ensemble failed");
      return;
    }
    benchmark::DoNotOptimize(result->ensemble.num_steps());
    sim_hours = static_cast<double>(result->sim_wall_us) / 3.6e9;
    rate_stall_s = static_cast<double>(
                       (*sampler)->remote()->latency_model().rate_limited_us()) /
                   1e6;
  }
  state.counters["sim_hours"] = sim_hours;
  state.counters["rate_stall_s"] = rate_stall_s;
}

BENCHMARK(BM_AsyncEnsembleRateLimited)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
