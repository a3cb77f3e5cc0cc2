#include <gtest/gtest.h>

#include "access/graph_access.h"
#include "estimate/ensemble_runner.h"
#include "graph/generators.h"
#include "net/remote_backend.h"
#include "net/request_pipeline.h"
#include "util/random.h"

// The acceptance contract of pipelined fetching: the resolver's depth
// changes WHEN responses arrive (simulated wall-clock), never WHAT the
// walkers do. Merged traces and per-walker QueryStats must be bit-identical
// between depth 0 (inline: each fetch on the missing walker's stepper) and
// every depth D, while the RemoteBackend's simulated clock shows depth > 1
// finishing the same crawl sooner.

namespace histwalk::estimate {
namespace {

graph::Graph TestGraph() {
  util::Random rng(99);
  return graph::MakeWattsStrogatz(/*n=*/600, /*k=*/6, /*beta=*/0.2, rng);
}

const EnsembleOptions kOptions{.num_walkers = 6, .seed = 3,
                               .max_steps = 150};

// Runs a CNRW ensemble over `group` through a per-run pipeline of
// `pipeline_options`, filling pipeline_stats the way api::Sampler does.
EnsembleResult RunThroughPipeline(
    access::SharedAccessGroup& group,
    const net::RequestPipelineOptions& pipeline_options,
    const EnsembleOptions& options = kOptions) {
  net::RequestPipeline pipeline(&group, pipeline_options);
  auto result =
      RunEnsemble(group, pipeline, {.type = core::WalkerType::kCnrw}, options);
  if (!result.ok()) {
    ADD_FAILURE() << "RunEnsemble failed: " << result.status();
    return EnsembleResult{};
  }
  result->pipeline_stats = pipeline.stats();
  return *std::move(result);
}

void ExpectSameRun(const EnsembleResult& a, const EnsembleResult& b) {
  ASSERT_EQ(a.starts, b.starts);
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (size_t i = 0; i < a.traces.size(); ++i) {
    EXPECT_EQ(a.traces[i].nodes, b.traces[i].nodes) << "walker " << i;
    EXPECT_EQ(a.traces[i].degrees, b.traces[i].degrees) << "walker " << i;
    EXPECT_EQ(a.traces[i].unique_queries, b.traces[i].unique_queries)
        << "walker " << i;
  }
  ASSERT_EQ(a.walker_stats.size(), b.walker_stats.size());
  for (size_t i = 0; i < a.walker_stats.size(); ++i) {
    EXPECT_EQ(a.walker_stats[i].total_queries,
              b.walker_stats[i].total_queries) << "walker " << i;
    EXPECT_EQ(a.walker_stats[i].unique_queries,
              b.walker_stats[i].unique_queries) << "walker " << i;
    EXPECT_EQ(a.walker_stats[i].cache_hits, b.walker_stats[i].cache_hits)
        << "walker " << i;
  }
}

TEST(PipelineDepthTest, DepthZeroMatchesEveryDepthBitForBit) {
  graph::Graph graph = TestGraph();
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup inline_group(&backend);
  const EnsembleResult inline_run =
      RunThroughPipeline(inline_group, {.depth = 0});
  // Depth 0 still goes through the pipeline: one wire request per fetch.
  EXPECT_EQ(inline_run.pipeline_stats.wire_requests,
            inline_run.charged_queries);

  for (uint32_t depth : {1u, 2u, 4u}) {
    access::SharedAccessGroup group(&backend);
    const EnsembleResult run =
        RunThroughPipeline(group, {.depth = depth, .max_batch = 4});
    ExpectSameRun(inline_run, run);
    // With a cache that never evicts, the bill is a function of the walks.
    EXPECT_EQ(run.charged_queries, inline_run.charged_queries)
        << "depth " << depth;
    // The pipeline actually carried the misses.
    EXPECT_GT(run.pipeline_stats.wire_requests, 0u);
    EXPECT_EQ(run.pipeline_stats.wire_items, run.charged_queries);
    // Lookup conservation pins the no-double-count guarantee: every
    // Neighbors() call is exactly one cache lookup, and the pipeline adds
    // lookups only on its (hit-only) late-hit path — its submit-time probe
    // peeks with the stats-free Contains(). Before that fix, every
    // submitted miss counted twice and this identity broke by
    // pipeline_stats.submitted.
    EXPECT_EQ(run.cache_stats.hits + run.cache_stats.misses,
              run.summed_stats.total_queries + run.pipeline_stats.late_hits)
        << "depth " << depth;
  }
}

TEST(PipelineDepthTest, DepthZeroMatchesDepthThreeUnderBoundedCache) {
  graph::Graph graph = TestGraph();
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessOptions group_options{
      .cache = {.capacity = 64, .num_shards = 4}};
  access::SharedAccessGroup inline_group(&backend, group_options);
  access::SharedAccessGroup group(&backend, group_options);
  ExpectSameRun(RunThroughPipeline(inline_group, {.depth = 0}),
                RunThroughPipeline(group, {.depth = 3, .max_batch = 4}));
}

TEST(PipelineDepthTest, RunsAreReproducibleAtEveryDepth) {
  graph::Graph graph = TestGraph();
  access::GraphAccess backend(&graph, nullptr);
  for (uint32_t depth : {0u, 4u}) {
    access::SharedAccessGroup group_a(&backend);
    access::SharedAccessGroup group_b(&backend);
    const EnsembleResult a = RunThroughPipeline(group_a, {.depth = depth});
    const EnsembleResult b = RunThroughPipeline(group_b, {.depth = depth});
    ExpectSameRun(a, b);
    EXPECT_EQ(a.charged_queries, b.charged_queries) << "depth " << depth;
  }
}

TEST(PipelineDepthTest, DeeperPipelineShrinksSimulatedWallClock) {
  graph::Graph graph = TestGraph();
  access::GraphAccess inner(&graph, nullptr);

  auto sim_wall_at_depth = [&](uint32_t depth) {
    net::RemoteBackend remote(&inner, {.seed = 11, .max_in_flight = depth});
    access::SharedAccessGroup group(&remote);
    RunThroughPipeline(group, {.depth = depth, .max_batch = 8},
                       {.num_walkers = 8, .seed = 5, .max_steps = 200});
    return remote.sim_now_us();
  };

  uint64_t serial = sim_wall_at_depth(1);
  uint64_t overlapped = sim_wall_at_depth(8);
  EXPECT_GT(serial, 0u);
  // Overlapping + batching must buy a measurable chunk of simulated time.
  EXPECT_LT(overlapped * 2, serial);
}

TEST(PipelineDepthTest, GroupBudgetSurfacesTypedStatusAtEveryDepth) {
  graph::Graph graph = TestGraph();
  access::GraphAccess backend(&graph, nullptr);
  for (uint32_t depth : {0u, 2u}) {
    access::SharedAccessGroup group(&backend, {.query_budget = 40});
    const EnsembleResult run = RunThroughPipeline(
        group, {.depth = depth, .max_batch = 4},
        {.num_walkers = 4, .seed = 9, .max_steps = 10'000});
    EXPECT_EQ(group.charged_queries(), 40u) << "depth " << depth;
    bool any_exhausted = false;
    for (const TracedWalk& trace : run.traces) {
      if (trace.final_status.code() == util::StatusCode::kBudgetExhausted) {
        any_exhausted = true;
      }
    }
    EXPECT_TRUE(any_exhausted) << "depth " << depth;
  }
}

}  // namespace
}  // namespace histwalk::estimate
