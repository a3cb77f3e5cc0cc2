#include <gtest/gtest.h>

#include "access/graph_access.h"
#include "estimate/ensemble_runner.h"
#include "graph/generators.h"
#include "net/request_pipeline.h"
#include "util/random.h"

namespace histwalk::estimate {
namespace {

graph::Graph TestGraph() {
  util::Random rng(99);
  return graph::MakeWattsStrogatz(/*n=*/600, /*k=*/6, /*beta=*/0.2, rng);
}

EnsembleResult RunCnrwEnsemble(const graph::Graph& graph,
                               const EnsembleOptions& options,
                               uint64_t cache_capacity = 0) {
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group(
      &backend, {.cache = {.capacity = cache_capacity, .num_shards = 4}});
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto result =
      RunEnsemble(group, resolver, {.type = core::WalkerType::kCnrw}, options);
  if (!result.ok()) {
    ADD_FAILURE() << "RunEnsemble failed: " << result.status();
    return EnsembleResult{};
  }
  return *std::move(result);
}

TEST(EnsembleRunnerTest, RunsAllWalkersToStepLimit) {
  graph::Graph graph = TestGraph();
  EnsembleResult result =
      RunCnrwEnsemble(graph, {.num_walkers = 8, .seed = 5, .max_steps = 100});
  ASSERT_EQ(result.traces.size(), 8u);
  ASSERT_EQ(result.starts.size(), 8u);
  for (const TracedWalk& trace : result.traces) {
    EXPECT_TRUE(trace.final_status.ok());
    EXPECT_EQ(trace.num_steps(), 100u);
  }
  EXPECT_EQ(result.num_steps(), 800u);
}

TEST(EnsembleRunnerTest, BitIdenticalAcrossRunsAndThreadCounts) {
  graph::Graph graph = TestGraph();
  EnsembleOptions serial{.num_walkers = 8, .seed = 7, .max_steps = 200,
                         .num_threads = 1};
  EnsembleOptions threaded = serial;
  threaded.num_threads = 4;

  EnsembleResult a = RunCnrwEnsemble(graph, serial);
  EnsembleResult b = RunCnrwEnsemble(graph, threaded);
  EnsembleResult c = RunCnrwEnsemble(graph, threaded);

  ASSERT_EQ(a.starts, b.starts);
  ASSERT_EQ(a.starts, c.starts);
  for (size_t i = 0; i < a.traces.size(); ++i) {
    EXPECT_EQ(a.traces[i].nodes, b.traces[i].nodes) << "walker " << i;
    EXPECT_EQ(a.traces[i].nodes, c.traces[i].nodes) << "walker " << i;
    EXPECT_EQ(a.traces[i].degrees, b.traces[i].degrees);
    EXPECT_EQ(a.traces[i].unique_queries, b.traces[i].unique_queries);
  }
  // Per-walker accounting is deterministic too (standalone semantics).
  EXPECT_EQ(a.summed_stats.unique_queries, b.summed_stats.unique_queries);
  EXPECT_EQ(a.summed_stats.total_queries, b.summed_stats.total_queries);
}

TEST(EnsembleRunnerTest, DeterminismHoldsUnderBoundedCache) {
  graph::Graph graph = TestGraph();
  EnsembleOptions options{.num_walkers = 6, .seed = 11, .max_steps = 150};
  EnsembleResult a = RunCnrwEnsemble(graph, options, /*cache_capacity=*/32);
  EnsembleResult b = RunCnrwEnsemble(graph, options, /*cache_capacity=*/32);
  for (size_t i = 0; i < a.traces.size(); ++i) {
    EXPECT_EQ(a.traces[i].nodes, b.traces[i].nodes);
    EXPECT_EQ(a.traces[i].unique_queries, b.traces[i].unique_queries);
  }
  // And the trace is independent of the cache bound entirely: history
  // changes what queries cost, never where the walk goes.
  EnsembleResult unbounded = RunCnrwEnsemble(graph, options, /*cache_capacity=*/0);
  for (size_t i = 0; i < a.traces.size(); ++i) {
    EXPECT_EQ(a.traces[i].nodes, unbounded.traces[i].nodes);
  }
}

TEST(EnsembleRunnerTest, DifferentSeedsDiffer) {
  graph::Graph graph = TestGraph();
  EnsembleResult a = RunCnrwEnsemble(graph, {.num_walkers = 4, .seed = 1,
                                 .max_steps = 50});
  EnsembleResult b = RunCnrwEnsemble(graph, {.num_walkers = 4, .seed = 2,
                                 .max_steps = 50});
  bool any_difference = a.starts != b.starts;
  for (size_t i = 0; i < a.traces.size() && !any_difference; ++i) {
    any_difference = a.traces[i].nodes != b.traces[i].nodes;
  }
  EXPECT_TRUE(any_difference);
}

TEST(EnsembleRunnerTest, WalkersWithinOneEnsembleAreIndependent) {
  graph::Graph graph = TestGraph();
  EnsembleResult result = RunCnrwEnsemble(graph, {.num_walkers = 8, .seed = 3,
                                      .max_steps = 50});
  // Sub-seeded walkers must not mirror each other even from equal starts.
  for (size_t i = 1; i < result.traces.size(); ++i) {
    EXPECT_NE(result.traces[0].nodes, result.traces[i].nodes);
  }
}

TEST(EnsembleRunnerTest, MergedConcatenatesInWalkerOrder) {
  graph::Graph graph = TestGraph();
  EnsembleResult result = RunCnrwEnsemble(graph, {.num_walkers = 3, .seed = 5,
                                      .max_steps = 40});
  MergedSamples merged = result.Merged();
  ASSERT_EQ(merged.nodes.size(), result.num_steps());
  ASSERT_EQ(merged.degrees.size(), result.num_steps());
  size_t offset = 0;
  for (const TracedWalk& trace : result.traces) {
    for (size_t t = 0; t < trace.num_steps(); ++t) {
      EXPECT_EQ(merged.nodes[offset + t], trace.nodes[t]);
      EXPECT_EQ(merged.degrees[offset + t], trace.degrees[t]);
    }
    offset += trace.num_steps();
  }
}

TEST(EnsembleRunnerTest, SharedHistorySavesQueries) {
  graph::Graph graph = TestGraph();
  EnsembleResult result = RunCnrwEnsemble(graph, {.num_walkers = 8, .seed = 5,
                                      .max_steps = 300});
  // Unbounded cache: the group never re-fetches, so the service bill is at
  // most the summed standalone cost, and overlapping walks make it less.
  EXPECT_LE(result.charged_queries, result.summed_stats.unique_queries);
  EXPECT_GT(result.SharedHistorySavings(), 0u);
  EXPECT_EQ(result.cache_stats.evictions, 0u);
  EXPECT_GT(result.history_bytes, 0u);
}

TEST(EnsembleRunnerTest, PerWalkerBudgetCutsTraces) {
  graph::Graph graph = TestGraph();
  EnsembleResult result = RunCnrwEnsemble(graph, {.num_walkers = 4, .seed = 9,
                                      .max_steps = 10'000,
                                      .query_budget = 25});
  for (const TracedWalk& trace : result.traces) {
    EXPECT_GT(trace.num_steps(), 0u);
    // The cut is on the walker's own unique-query count.
    EXPECT_LE(trace.unique_queries.back(), 25u);
  }
}

TEST(EnsembleRunnerTest, GroupBudgetExhaustionStopsWalkers) {
  graph::Graph graph = TestGraph();
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group(&backend, {.query_budget = 40});
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto result = RunEnsemble(
      group, resolver, {.type = core::WalkerType::kCnrw},
      {.num_walkers = 4, .seed = 9, .max_steps = 10'000});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(group.charged_queries(), 40u);
  bool any_exhausted = false;
  for (const TracedWalk& trace : result->traces) {
    // Group-budget refusal surfaces as the typed kBudgetExhausted (never
    // the per-access kResourceExhausted).
    EXPECT_NE(trace.final_status.code(),
              util::StatusCode::kResourceExhausted);
    if (trace.final_status.code() == util::StatusCode::kBudgetExhausted) {
      any_exhausted = true;
      EXPECT_TRUE(util::IsBudgetStop(trace.final_status));
    }
  }
  EXPECT_TRUE(any_exhausted);
}

TEST(EnsembleRunnerTest, SuccessiveEnsemblesReportPerRunCacheStats) {
  graph::Graph graph = TestGraph();
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group(&backend);
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto first = RunEnsemble(group, resolver, {.type = core::WalkerType::kCnrw},
                           {.num_walkers = 4, .seed = 1, .max_steps = 100});
  auto second =
      RunEnsemble(group, resolver, {.type = core::WalkerType::kCnrw},
                  {.num_walkers = 4, .seed = 2, .max_steps = 100});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Each result reports its own cache traffic; the deltas sum back to the
  // group's lifetime counters.
  access::HistoryCacheStats lifetime = group.cache().stats();
  EXPECT_EQ(first->cache_stats.hits + second->cache_stats.hits,
            lifetime.hits);
  EXPECT_EQ(first->cache_stats.insertions + second->cache_stats.insertions,
            lifetime.insertions);
  // Every backend fetch inserts exactly once (unbounded cache; concurrent
  // misses on one node share one fetch).
  EXPECT_EQ(second->cache_stats.insertions, second->charged_queries);
  // The second run walks over history the first run built: it inserts
  // less than it would on a fresh group.
  EXPECT_LT(second->charged_queries, second->summed_stats.unique_queries);
}

TEST(EnsembleRunnerTest, RejectsBadOptions) {
  graph::Graph graph = TestGraph();
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group(&backend);
  net::RequestPipeline resolver(&group, {.depth = 0});
  EXPECT_EQ(RunEnsemble(group, resolver, {.type = core::WalkerType::kCnrw},
                        {.num_walkers = 0, .max_steps = 10})
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(RunEnsemble(group, resolver, {.type = core::WalkerType::kCnrw},
                        {.num_walkers = 4})
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
  // Walker construction errors propagate (GNRW needs a grouping).
  EXPECT_EQ(RunEnsemble(group, resolver, {.type = core::WalkerType::kGnrw},
                        {.num_walkers = 4, .max_steps = 10})
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace histwalk::estimate
