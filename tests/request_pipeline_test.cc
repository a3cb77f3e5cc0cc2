#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <unordered_set>
#include <vector>

#include "access/graph_access.h"
#include "access/shared_access.h"
#include "graph/generators.h"
#include "net/request_pipeline.h"

namespace histwalk::net {
namespace {

using access::HistoryCache;

// Backend decorator whose batch endpoint blocks until the test releases a
// permit — lets a test hold the (depth=1) worker busy while more fetches
// queue up behind it, making batch composition deterministic.
class GateBackend final : public access::AccessBackend {
 public:
  explicit GateBackend(const access::AccessBackend* inner) : inner_(inner) {}

  util::Result<std::span<const graph::NodeId>> FetchNeighbors(
      graph::NodeId v) const override {
    Await();
    return inner_->FetchNeighbors(v);
  }

  std::vector<util::Result<std::span<const graph::NodeId>>>
  FetchNeighborsBatch(std::span<const graph::NodeId> ids) const override {
    Await();
    RecordBatch(ids.size());
    return inner_->FetchNeighborsBatch(ids);
  }

  util::Result<double> FetchAttribute(graph::NodeId v,
                                      attr::AttrId attr) const override {
    return inner_->FetchAttribute(v, attr);
  }
  util::Result<uint32_t> FetchSummaryDegree(graph::NodeId v) const override {
    return inner_->FetchSummaryDegree(v);
  }
  uint64_t num_nodes() const override { return inner_->num_nodes(); }
  std::string name() const override { return "gate(" + inner_->name() + ")"; }

  // Allows `n` further wire calls through the gate.
  void Release(uint64_t n) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      permits_ += n;
    }
    cv_.notify_all();
  }

  // Wire calls that have reached the gate (blocked or passed through).
  uint64_t arrivals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return arrivals_;
  }

  std::vector<size_t> batch_sizes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_sizes_;
  }

 private:
  void Await() const {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrivals_;
    cv_.wait(lock, [this] { return permits_ > 0; });
    --permits_;
  }
  void RecordBatch(size_t n) const {
    std::lock_guard<std::mutex> lock(mu_);
    batch_sizes_.push_back(n);
  }

  const access::AccessBackend* inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable uint64_t permits_ = 0;
  mutable uint64_t arrivals_ = 0;
  mutable std::vector<size_t> batch_sizes_;
};

class RequestPipelineTest : public testing::Test {
 protected:
  RequestPipelineTest() : graph_(graph::MakeCycle(256)),
                          backend_(&graph_, nullptr) {}
  graph::Graph graph_;
  access::GraphAccess backend_;
};

TEST_F(RequestPipelineTest, FetchFillsSharedCache) {
  access::SharedAccessGroup group(&backend_);
  RequestPipeline pipeline(&group, {.depth = 2, .max_batch = 4});
  auto fetched = pipeline.FetchShared(7);
  ASSERT_TRUE(fetched.ok());
  ASSERT_NE(fetched->entry, nullptr);
  EXPECT_TRUE(fetched->charged_this_call);
  EXPECT_EQ(fetched->entry->size(), 2u);
  EXPECT_TRUE(group.cache().Contains(7));
  EXPECT_EQ(group.charged_queries(), 1u);
  RequestPipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.wire_requests, 1u);
  EXPECT_EQ(stats.wire_items, 1u);
}

TEST_F(RequestPipelineTest, CachedNodeIsAnsweredWithoutWireTraffic) {
  access::SharedAccessGroup group(&backend_);
  RequestPipeline pipeline(&group, {});
  ASSERT_TRUE(pipeline.FetchShared(3).ok());
  auto again = pipeline.FetchShared(3);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->charged_this_call);
  EXPECT_EQ(pipeline.stats().late_hits, 1u);
  EXPECT_EQ(pipeline.stats().wire_requests, 1u);
  EXPECT_EQ(group.charged_queries(), 1u);
}

TEST_F(RequestPipelineTest, SingleflightCollapsesConcurrentMisses) {
  GateBackend gated(&backend_);
  access::SharedAccessGroup group(&gated);
  RequestPipeline pipeline(&group, {.depth = 2, .max_batch = 4});

  constexpr int kWaiters = 6;
  std::atomic<int> charged_count{0};
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    threads.emplace_back([&] {
      auto fetched = pipeline.FetchShared(42);
      if (fetched.ok() && fetched->entry != nullptr) {
        ok_count.fetch_add(1);
        if (fetched->charged_this_call) charged_count.fetch_add(1);
      }
    });
  }
  // Wait (bounded) until all waiters have landed on the one in-flight
  // fetch, then open the gate.
  for (int spin = 0; spin < 20'000; ++spin) {
    RequestPipelineStats stats = pipeline.stats();
    if (stats.submitted + stats.dedup_joins + stats.late_hits >= kWaiters) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  gated.Release(1'000'000);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(ok_count.load(), kWaiters);
  // One wire fetch, one group charge, exactly one caller reports paying.
  EXPECT_EQ(charged_count.load(), 1);
  EXPECT_EQ(group.charged_queries(), 1u);
  RequestPipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.wire_requests, 1u);
  EXPECT_EQ(stats.dedup_joins + stats.late_hits,
            static_cast<uint64_t>(kWaiters - 1));
}

TEST_F(RequestPipelineTest, QueuedSameShardMissesCoalesceIntoOneBatch) {
  GateBackend gated(&backend_);
  access::SharedAccessGroup group(
      &gated, {.cache = {.capacity = 0, .num_shards = 4}});
  RequestPipeline pipeline(&group, {.depth = 1, .max_batch = 8});

  // A decoy fetch occupies the single worker at the gate (arrivals()==1
  // certifies the worker POPPED it, so later submits can't join its batch).
  std::thread decoy([&] { EXPECT_TRUE(pipeline.FetchShared(0).ok()); });
  while (gated.arrivals() < 1) std::this_thread::yield();

  // ...while 5 ids of ONE cache shard — a different shard than the decoy's,
  // so they can't merge with it — pile up in that shard's queue.
  const uint32_t decoy_shard = HistoryCache::ShardOf(0, 4);
  std::vector<graph::NodeId> same_shard;
  uint32_t target_shard = (decoy_shard + 1) % 4;
  for (graph::NodeId v = 1; same_shard.size() < 5 && v < 256; ++v) {
    if (HistoryCache::ShardOf(v, 4) == target_shard) {
      same_shard.push_back(v);
    }
  }
  ASSERT_EQ(same_shard.size(), 5u);
  std::vector<std::thread> waiters;
  for (graph::NodeId v : same_shard) {
    waiters.emplace_back([&pipeline, v] {
      EXPECT_TRUE(pipeline.FetchShared(v).ok());
    });
  }
  while (pipeline.stats().submitted <
         1u + static_cast<uint64_t>(same_shard.size())) {
    std::this_thread::yield();
  }
  gated.Release(1'000'000);
  decoy.join();
  for (auto& waiter : waiters) waiter.join();

  // The decoy went alone; the 5 same-shard ids rode one batched request.
  RequestPipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.wire_requests, 2u);
  EXPECT_EQ(stats.wire_items, 6u);
  std::vector<size_t> batches = gated.batch_sizes();
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0], 1u);
  EXPECT_EQ(batches[1], 5u);
  EXPECT_EQ(group.charged_queries(), 6u);  // batching saves time, not bill
}

TEST_F(RequestPipelineTest, BudgetRefusalIsTypedAndUnissued) {
  access::SharedAccessGroup group(&backend_, {.query_budget = 2});
  RequestPipeline pipeline(&group, {.depth = 1, .max_batch = 4});
  EXPECT_TRUE(pipeline.FetchShared(1).ok());
  EXPECT_TRUE(pipeline.FetchShared(2).ok());
  auto refused = pipeline.FetchShared(3);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kBudgetExhausted);
  RequestPipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.budget_refusals, 1u);
  EXPECT_EQ(stats.wire_items, 2u);  // the refused id never hit the wire
  EXPECT_EQ(group.charged_queries(), 2u);
}

TEST_F(RequestPipelineTest, ErrorsPropagateAndRefundTheCharge) {
  access::SharedAccessGroup group(&backend_, {.query_budget = 5});
  RequestPipeline pipeline(&group, {});
  auto bad = pipeline.FetchShared(99'999);  // beyond the 256-node cycle
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kOutOfRange);
  // The failed fetch refunded its budget unit.
  EXPECT_EQ(group.remaining_budget(), 5u);
}

// ---- WaitHistogram ----------------------------------------------------------

TEST(WaitHistogramTest, QuantilesAreBucketUpperBounds) {
  WaitHistogram histogram;
  EXPECT_EQ(histogram.Quantile(0.99), 0u);
  for (uint64_t wait : {0ull, 0ull, 1ull, 2ull, 3ull, 6ull, 100ull}) {
    histogram.Record(wait);
  }
  EXPECT_EQ(histogram.count, 7u);
  EXPECT_EQ(histogram.max, 100u);
  EXPECT_DOUBLE_EQ(histogram.Mean(), 112.0 / 7.0);
  EXPECT_EQ(histogram.Quantile(0.0), 0u);
  // Buckets: {0,0} in [0], {1} in [1,2), {2,3} in [2,4), {6} in [4,8),
  // {100} in [64,128). Quantiles report the holding bucket's upper bound.
  EXPECT_EQ(histogram.Quantile(0.25), 0u);
  EXPECT_EQ(histogram.Quantile(0.5), 3u);    // true median 2, bound 3
  EXPECT_EQ(histogram.Quantile(0.75), 7u);   // true p75 6, bound 7
  EXPECT_EQ(histogram.Quantile(1.0), 100u);  // clamped to the observed max
  // The quantile never under-reports: it is >= the true quantile.
  EXPECT_GE(histogram.Quantile(0.9), 6u);
}

// ---- TenantQueue (the fair scheduler, deterministic and thread-free) -------

TEST(TenantQueueTest, FairSchedulerBoundsVictimWaitUnderAGreedyTenant) {
  // One shard keeps the drain order purely about tenant scheduling.
  TenantQueue queue(PipelineSchedulerPolicy::kFairWeighted, /*num_shards=*/1);
  const TenantId greedy = queue.AddTenant(/*weight=*/1);
  const TenantId victim = queue.AddTenant(/*weight=*/1);
  for (graph::NodeId v = 0; v < 100; ++v) queue.Enqueue(greedy, v);
  for (graph::NodeId v = 100; v < 103; ++v) queue.Enqueue(victim, v);

  constexpr uint32_t kMaxBatch = 4;
  uint64_t victim_max_wait = 0;
  TenantQueue::Batch batch;
  while (queue.PickBatch(kMaxBatch, &batch)) {
    if (batch.tenant == victim) {
      for (uint64_t wait : batch.waits) {
        victim_max_wait = std::max(victim_max_wait, wait);
      }
    }
  }
  // However deep the greedy queue (100 ids), the victim's ids drain within
  // one scheduling cycle: at most one greedy batch ahead of them.
  EXPECT_LE(victim_max_wait, uint64_t{kMaxBatch});
  EXPECT_EQ(queue.queued(), 0u);
}

TEST(TenantQueueTest, FifoDrainMakesVictimsWaitBehindTheGreedyQueue) {
  TenantQueue queue(PipelineSchedulerPolicy::kFifo, /*num_shards=*/1);
  const TenantId greedy = queue.AddTenant(1);
  const TenantId victim = queue.AddTenant(1);
  for (graph::NodeId v = 0; v < 100; ++v) queue.Enqueue(greedy, v);
  queue.Enqueue(victim, 200);

  uint64_t victim_wait = 0;
  TenantQueue::Batch batch;
  while (queue.PickBatch(4, &batch)) {
    if (batch.tenant == victim) victim_wait = batch.waits[0];
  }
  // Arrival order: all 100 greedy ids drain first.
  EXPECT_EQ(victim_wait, 100u);
}

TEST(TenantQueueTest, WeightsSkewTheDrainRatio) {
  TenantQueue queue(PipelineSchedulerPolicy::kFairWeighted, 1);
  const TenantId heavy = queue.AddTenant(/*weight=*/3);
  const TenantId light = queue.AddTenant(/*weight=*/1);
  for (graph::NodeId v = 0; v < 120; ++v) queue.Enqueue(heavy, v);
  for (graph::NodeId v = 200; v < 240; ++v) queue.Enqueue(light, v);

  // While both have work, a weight-3 tenant drains 3 batches per cycle to
  // the light tenant's 1.
  uint32_t heavy_picks = 0;
  uint32_t light_picks = 0;
  TenantQueue::Batch batch;
  for (int pick = 0; pick < 40 && queue.PickBatch(1, &batch); ++pick) {
    if (batch.tenant == heavy) ++heavy_picks;
    if (batch.tenant == light) ++light_picks;
  }
  EXPECT_EQ(heavy_picks, 30u);
  EXPECT_EQ(light_picks, 10u);
}

TEST(TenantQueueTest, BatchesStayWithinOneTenantAndShard) {
  TenantQueue queue(PipelineSchedulerPolicy::kFairWeighted, /*num_shards=*/4);
  const TenantId a = queue.AddTenant(1);
  const TenantId b = queue.AddTenant(1);
  for (graph::NodeId v = 0; v < 64; ++v) {
    queue.Enqueue(v % 2 == 0 ? a : b, v);
  }
  TenantQueue::Batch batch;
  while (queue.PickBatch(8, &batch)) {
    ASSERT_FALSE(batch.ids.empty());
    const uint32_t shard = HistoryCache::ShardOf(batch.ids[0], 4);
    for (graph::NodeId v : batch.ids) {
      EXPECT_EQ(HistoryCache::ShardOf(v, 4), shard);
    }
  }
}

// ---- multi-tenant pipeline --------------------------------------------------

TEST_F(RequestPipelineTest, CrossTenantSingleflightChargesOneWireFetch) {
  GateBackend gated(&backend_);
  HistoryCache shared_cache({.num_shards = 4});
  access::SharedAccessGroup group_a(&gated, shared_cache);
  access::SharedAccessGroup group_b(&gated, shared_cache);
  RequestPipeline pipeline({.depth = 1, .max_batch = 4});
  const TenantId a = pipeline.AddTenant(&group_a);
  const TenantId b = pipeline.AddTenant(&group_b);

  // Tenant A's fetch reaches the gate (in flight, unfulfilled)...
  std::thread first([&] {
    auto fetched = pipeline.FetchSharedFor(a, 42);
    ASSERT_TRUE(fetched.ok());
    EXPECT_TRUE(fetched->charged_this_call);
  });
  while (gated.arrivals() < 1) std::this_thread::yield();
  // ...so tenant B's miss on the same node must join it, not refetch.
  std::thread second([&] {
    auto fetched = pipeline.FetchSharedFor(b, 42);
    ASSERT_TRUE(fetched.ok());
    EXPECT_FALSE(fetched->charged_this_call);
  });
  while (pipeline.tenant_stats(b).dedup_joins < 1) std::this_thread::yield();
  gated.Release(1'000'000);
  first.join();
  second.join();

  // One wire item total, billed to the creator tenant only; the response
  // is shared history for both.
  EXPECT_EQ(pipeline.stats().wire_items, 1u);
  EXPECT_EQ(group_a.charged_queries(), 1u);
  EXPECT_EQ(group_b.charged_queries(), 0u);
  EXPECT_EQ(pipeline.tenant_stats(a).submitted, 1u);
  EXPECT_EQ(pipeline.tenant_stats(b).dedup_joins, 1u);
  EXPECT_TRUE(shared_cache.Contains(42));
}

TEST_F(RequestPipelineTest, IsolatedTenantsFetchSeparately) {
  access::SharedAccessGroup group_a(&backend_);
  access::SharedAccessGroup group_b(&backend_);
  RequestPipeline pipeline(
      {.depth = 1, .max_batch = 4, .cross_tenant_dedup = false});
  const TenantId a = pipeline.AddTenant(&group_a);
  const TenantId b = pipeline.AddTenant(&group_b);

  ASSERT_TRUE(pipeline.FetchSharedFor(a, 7).ok());
  auto fetched_b = pipeline.FetchSharedFor(b, 7);
  ASSERT_TRUE(fetched_b.ok());
  // No sharing: tenant B paid for its own copy into its own cache.
  EXPECT_TRUE(fetched_b->charged_this_call);
  EXPECT_EQ(group_a.charged_queries(), 1u);
  EXPECT_EQ(group_b.charged_queries(), 1u);
  EXPECT_TRUE(group_a.cache().Contains(7));
  EXPECT_TRUE(group_b.cache().Contains(7));
  EXPECT_EQ(pipeline.stats().wire_items, 2u);
}

TEST_F(RequestPipelineTest, PerTenantStatsStayExactAndAggregate) {
  HistoryCache shared_cache({.num_shards = 4});
  access::SharedAccessGroup group_a(&backend_, shared_cache);
  access::SharedAccessGroup group_b(&backend_, shared_cache);
  RequestPipeline pipeline({.depth = 2, .max_batch = 4});
  const TenantId a = pipeline.AddTenant(&group_a, /*weight=*/2);
  const TenantId b = pipeline.AddTenant(&group_b);

  for (graph::NodeId v = 0; v < 10; ++v) {
    ASSERT_TRUE(pipeline.FetchSharedFor(a, v).ok());
  }
  for (graph::NodeId v = 10; v < 14; ++v) {
    ASSERT_TRUE(pipeline.FetchSharedFor(b, v).ok());
  }
  // Tenant B re-reads tenant A's history: a late hit, no wire traffic.
  auto reread = pipeline.FetchSharedFor(b, 3);
  ASSERT_TRUE(reread.ok());
  EXPECT_FALSE(reread->charged_this_call);

  TenantPipelineStats stats_a = pipeline.tenant_stats(a);
  TenantPipelineStats stats_b = pipeline.tenant_stats(b);
  EXPECT_EQ(stats_a.submitted, 10u);
  EXPECT_EQ(stats_b.submitted, 4u);
  EXPECT_EQ(stats_b.late_hits, 1u);
  EXPECT_EQ(stats_a.wire_items, 10u);
  EXPECT_EQ(stats_b.wire_items, 4u);
  // Every drained id recorded one wait sample.
  EXPECT_EQ(stats_a.wait.count, 10u);
  EXPECT_EQ(stats_b.wait.count, 4u);
  EXPECT_EQ(stats_a.queue_depth, 0u);  // quiescent
  EXPECT_EQ(stats_b.queue_depth, 0u);

  RequestPipelineStats aggregate = pipeline.stats();
  EXPECT_EQ(aggregate.submitted, stats_a.submitted + stats_b.submitted);
  EXPECT_EQ(aggregate.wire_items, stats_a.wire_items + stats_b.wire_items);
  EXPECT_EQ(aggregate.late_hits, 1u);
  EXPECT_EQ(aggregate.queue_depth, 0u);
  EXPECT_EQ(group_a.charged_queries() + group_b.charged_queries(), 14u);

  // Removing a quiescent tenant folds its counters into the cumulative
  // aggregate (stats() stays monotone) and frees its slot for reuse.
  pipeline.RemoveTenant(a);
  EXPECT_EQ(pipeline.tenant_stats(a).submitted, 0u);  // per-tenant view reset
  EXPECT_EQ(pipeline.stats().submitted, aggregate.submitted);
  EXPECT_EQ(pipeline.stats().wire_items, aggregate.wire_items);

  // A later tenant recycles the slot with fresh accounting; a long-lived
  // pipeline stays O(concurrent tenants), not O(sessions ever served).
  access::SharedAccessGroup group_c(&backend_, shared_cache);
  const TenantId c = pipeline.AddTenant(&group_c, /*weight=*/1);
  EXPECT_EQ(c, a);  // the freed slot, reused
  EXPECT_EQ(pipeline.num_tenants(), 2u);
  ASSERT_TRUE(pipeline.FetchSharedFor(c, 20).ok());
  EXPECT_EQ(pipeline.tenant_stats(c).submitted, 1u);
  EXPECT_EQ(pipeline.stats().submitted, aggregate.submitted + 1);
}

TEST_F(RequestPipelineTest, PerTenantBudgetsRefuseIndependently) {
  HistoryCache shared_cache({.num_shards = 4});
  access::SharedAccessGroup group_a(&backend_, shared_cache,
                                    {.query_budget = 1});
  access::SharedAccessGroup group_b(&backend_, shared_cache);
  RequestPipeline pipeline({.depth = 1, .max_batch = 2});
  const TenantId a = pipeline.AddTenant(&group_a);
  const TenantId b = pipeline.AddTenant(&group_b);

  ASSERT_TRUE(pipeline.FetchSharedFor(a, 1).ok());
  auto refused = pipeline.FetchSharedFor(a, 2);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kBudgetExhausted);
  // Tenant B is not affected by A's exhausted quota — including for the
  // very node A was refused.
  EXPECT_TRUE(pipeline.FetchSharedFor(b, 2).ok());
  EXPECT_EQ(pipeline.tenant_stats(a).budget_refusals, 1u);
  EXPECT_EQ(pipeline.tenant_stats(b).budget_refusals, 0u);
  EXPECT_EQ(group_b.charged_queries(), 1u);
}

TEST_F(RequestPipelineTest, JoinerRetriesWhenCreatorsBudgetRefusesTheFlight) {
  // Regression: a cross-tenant singleflight join must not inherit the
  // CREATOR's budget refusal — the joiner's own quota may be fine, so it
  // resubmits under its own tenant and pays for its own fetch.
  GateBackend gated(&backend_);
  HistoryCache shared_cache({.num_shards = 4});
  access::SharedAccessGroup group_a(&gated, shared_cache, {.query_budget = 1});
  access::SharedAccessGroup group_b(&gated, shared_cache);
  RequestPipeline pipeline({.depth = 1, .max_batch = 4});
  const TenantId a = pipeline.AddTenant(&group_a);
  const TenantId b = pipeline.AddTenant(&group_b);

  // Spend A's whole quota.
  gated.Release(1);
  ASSERT_TRUE(pipeline.FetchSharedFor(a, 1).ok());
  EXPECT_EQ(group_a.remaining_budget(), 0u);

  // A decoy holds the single worker at the gate...
  std::thread decoy([&] { EXPECT_TRUE(pipeline.FetchSharedFor(b, 9).ok()); });
  while (gated.arrivals() < 2) std::this_thread::yield();
  // ...while broke tenant A creates the in-flight entry for node 2...
  std::thread broke([&] {
    auto refused = pipeline.FetchSharedFor(a, 2);
    EXPECT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), util::StatusCode::kBudgetExhausted);
  });
  while (pipeline.tenant_stats(a).submitted < 2) std::this_thread::yield();
  // ...and solvent tenant B joins that (doomed) flight.
  std::thread joiner([&] {
    auto fetched = pipeline.FetchSharedFor(b, 2);
    EXPECT_TRUE(fetched.ok());
    if (fetched.ok()) {
      // The retry made B the creator of its own, charged flight.
      EXPECT_TRUE(fetched->charged_this_call);
    }
  });
  while (pipeline.tenant_stats(b).dedup_joins < 1) std::this_thread::yield();
  gated.Release(1'000'000);
  decoy.join();
  broke.join();
  joiner.join();

  EXPECT_EQ(group_a.charged_queries(), 1u);  // only its first fetch
  EXPECT_EQ(group_b.charged_queries(), 2u);  // the decoy + the retried node
  EXPECT_TRUE(shared_cache.Contains(2));
  EXPECT_EQ(pipeline.tenant_stats(a).budget_refusals, 1u);
}

// ---- parking (FetchOrPark: the step scheduler's entry point) ----------------

// Records the outcome a parked fetch hands its waiter.
struct RecordingWaiter final : access::FetchWaiter {
  std::atomic<int> calls{0};
  std::optional<util::Result<access::AsyncFetcher::Fetched>> fetched;
  void OnFetched(util::Result<access::AsyncFetcher::Fetched> reply) override {
    fetched.emplace(std::move(reply));
    calls.fetch_add(1);
  }
};

TEST_F(RequestPipelineTest, ParkedJoinIsDeliveredOnceByTheBatch) {
  access::SharedAccessGroup group(&backend_);
  RequestPipeline pipeline(&group, {.depth = 1, .max_batch = 4});
  RecordingWaiter creator;
  RecordingWaiter joiner;
  // At depth > 0 nothing runs at submit: both calls park, the second as a
  // singleflight join on the first's flight.
  EXPECT_FALSE(pipeline.FetchOrPark(42, &creator).has_value());
  EXPECT_FALSE(pipeline.FetchOrPark(42, &joiner).has_value());
  EXPECT_EQ(pipeline.stats().submitted, 1u);
  EXPECT_EQ(pipeline.stats().dedup_joins, 1u);
  EXPECT_EQ(creator.calls.load(), 0);

  // Whoever runs the batch delivers to every waiter, exactly once each.
  EXPECT_TRUE(pipeline.RunQueuedBatch());
  EXPECT_FALSE(pipeline.RunQueuedBatch());  // nothing left
  ASSERT_EQ(creator.calls.load(), 1);
  ASSERT_EQ(joiner.calls.load(), 1);
  ASSERT_TRUE(creator.fetched->ok());
  ASSERT_TRUE(joiner.fetched->ok());
  EXPECT_TRUE((*creator.fetched)->charged_this_call);
  EXPECT_FALSE((*joiner.fetched)->charged_this_call);
  EXPECT_EQ((*creator.fetched)->entry, (*joiner.fetched)->entry);
  EXPECT_EQ(group.charged_queries(), 1u);
  EXPECT_EQ(pipeline.stats().wire_requests, 1u);
}

TEST_F(RequestPipelineTest, LateHitAnswersAParkingCallAtOnce) {
  access::SharedAccessGroup group(&backend_);
  RequestPipeline pipeline(&group, {.depth = 2});
  ASSERT_TRUE(pipeline.FetchShared(3).ok());
  RecordingWaiter waiter;
  auto now = pipeline.FetchOrPark(3, &waiter);
  ASSERT_TRUE(now.has_value());
  ASSERT_TRUE(now->ok());
  EXPECT_FALSE((*now)->charged_this_call);
  EXPECT_EQ(waiter.calls.load(), 0);  // answered in place, never parked
  EXPECT_EQ(pipeline.stats().late_hits, 1u);
  EXPECT_EQ(group.charged_queries(), 1u);
}

TEST_F(RequestPipelineTest, DepthZeroCreatorResolvesInPlace) {
  access::SharedAccessGroup group(&backend_);
  RequestPipeline pipeline(&group, {.depth = 0});
  RecordingWaiter waiter;
  auto now = pipeline.FetchOrPark(5, &waiter);
  ASSERT_TRUE(now.has_value());
  ASSERT_TRUE(now->ok());
  EXPECT_TRUE((*now)->charged_this_call);
  EXPECT_EQ(waiter.calls.load(), 0);
  EXPECT_FALSE(pipeline.RunQueuedBatch());  // depth 0 queues nothing
  EXPECT_EQ(pipeline.stats().wire_requests, 1u);
}

TEST_F(RequestPipelineTest, ParkedJoinRefusedByAnotherTenantsBudgetResubmits) {
  HistoryCache shared_cache({.num_shards = 4});
  access::SharedAccessGroup group_a(&backend_, shared_cache,
                                    {.query_budget = 1});
  access::SharedAccessGroup group_b(&backend_, shared_cache);
  RequestPipeline pipeline({.depth = 1, .max_batch = 4});
  const TenantId a = pipeline.AddTenant(&group_a);
  const TenantId b = pipeline.AddTenant(&group_b);
  ASSERT_TRUE(pipeline.FetchSharedFor(a, 1).ok());  // spends A's quota

  RecordingWaiter broke;
  RecordingWaiter solvent;
  EXPECT_FALSE(pipeline.FetchOrParkFor(a, 2, &broke).has_value());
  EXPECT_FALSE(pipeline.FetchOrParkFor(b, 2, &solvent).has_value());
  EXPECT_EQ(pipeline.tenant_stats(b).dedup_joins, 1u);

  // A's batch is refused by A's budget: A hears the refusal, while B's
  // join is resubmitted as B's own flight instead of inheriting it.
  EXPECT_TRUE(pipeline.RunQueuedBatch());
  ASSERT_EQ(broke.calls.load(), 1);
  EXPECT_EQ(broke.fetched->status().code(),
            util::StatusCode::kBudgetExhausted);
  EXPECT_EQ(solvent.calls.load(), 0);
  EXPECT_EQ(pipeline.tenant_stats(b).submitted, 1u);

  EXPECT_TRUE(pipeline.RunQueuedBatch());
  ASSERT_EQ(solvent.calls.load(), 1);
  ASSERT_TRUE(solvent.fetched->ok());
  EXPECT_TRUE((*solvent.fetched)->charged_this_call);
  EXPECT_EQ(group_a.charged_queries(), 1u);
  EXPECT_EQ(group_b.charged_queries(), 1u);
  EXPECT_TRUE(shared_cache.Contains(2));
  // Both tenants are quiescent again.
  pipeline.RemoveTenant(a);
  pipeline.RemoveTenant(b);
}

TEST_F(RequestPipelineTest, SingleflightTableSurvivesGrowthAndCollisions) {
  // Thousands of flights open at once: the singleflight table doubles many
  // times past its first cells with flights (and joiners) inside. The
  // nodes are random, not consecutive — multiplicative hashing spreads a
  // run of consecutive ids with no collision at all — so probe chains
  // form, and each batch's detach runs backward-shift erases through them.
  constexpr graph::NodeId kGraphNodes = 1 << 18;
  constexpr size_t kFlights = 6000;
  const graph::Graph graph = graph::MakeCycle(kGraphNodes);
  access::GraphAccess backend(&graph, nullptr);
  HistoryCache shared_cache({.num_shards = 4});
  access::SharedAccessGroup group_a(&backend, shared_cache);
  access::SharedAccessGroup group_b(&backend, shared_cache);
  std::vector<graph::NodeId> nodes;
  {
    std::mt19937 rng(7);
    std::unordered_set<graph::NodeId> seen;
    while (nodes.size() < kFlights) {
      const graph::NodeId v = rng() % kGraphNodes;
      if (seen.insert(v).second) nodes.push_back(v);
    }
  }
  std::vector<RecordingWaiter> creators(kFlights);
  std::vector<RecordingWaiter> joiners(kFlights / 4);
  {
    RequestPipeline pipeline({.depth = 1, .max_batch = 8});
    const TenantId a = pipeline.AddTenant(&group_a);
    const TenantId b = pipeline.AddTenant(&group_b);
    for (size_t i = 0; i < kFlights; ++i) {
      ASSERT_FALSE(
          pipeline.FetchOrParkFor(a, nodes[i], &creators[i]).has_value());
    }
    // The second tenant joins every fourth flight.
    for (size_t i = 0; i < joiners.size(); ++i) {
      ASSERT_FALSE(
          pipeline.FetchOrParkFor(b, nodes[4 * i], &joiners[i]).has_value());
    }
    EXPECT_EQ(pipeline.stats().queue_depth, kFlights);

    while (pipeline.RunQueuedBatch()) {
    }
    for (size_t i = 0; i < kFlights; ++i) {
      ASSERT_EQ(creators[i].calls.load(), 1) << i;
      ASSERT_TRUE(creators[i].fetched->ok()) << i;
      const auto& fetched = **creators[i].fetched;
      EXPECT_TRUE(fetched.charged_this_call);
      // Its own node's list: the two cycle neighbors.
      const graph::NodeId v = nodes[i];
      const std::vector<graph::NodeId> expected = {
          (v + kGraphNodes - 1) % kGraphNodes, (v + 1) % kGraphNodes};
      ASSERT_EQ(fetched.entry->size(), 2u) << i;
      EXPECT_TRUE(std::is_permutation(fetched.entry->begin(),
                                      fetched.entry->begin() + 2,
                                      expected.begin()))
          << i;
    }
    for (size_t i = 0; i < joiners.size(); ++i) {
      ASSERT_EQ(joiners[i].calls.load(), 1) << i;
      ASSERT_TRUE(joiners[i].fetched->ok()) << i;
      EXPECT_FALSE((*joiners[i].fetched)->charged_this_call);
      EXPECT_EQ((*joiners[i].fetched)->entry,
                (*creators[4 * i].fetched)->entry);
    }

    const RequestPipelineStats stats = pipeline.stats();
    EXPECT_EQ(stats.submitted, kFlights);
    EXPECT_EQ(stats.wire_items, stats.submitted);
    EXPECT_EQ(stats.dedup_joins, joiners.size());
    EXPECT_EQ(pipeline.tenant_stats(b).dedup_joins, joiners.size());
    EXPECT_EQ(pipeline.tenant_stats(b).submitted, 0u);
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(group_a.charged_queries(), kFlights);
    EXPECT_EQ(group_b.charged_queries(), 0u);
    // Both tenants are quiescent: every waiter's flight left the table.
    pipeline.RemoveTenant(a);
    pipeline.RemoveTenant(b);
  }  // the destructor checks the table is empty
}

TEST_F(RequestPipelineTest, AtMostDepthBatchesRunAtOnce) {
  GateBackend gated(&backend_);
  access::SharedAccessGroup group(
      &gated, {.cache = {.capacity = 0, .num_shards = 4}});
  RequestPipeline pipeline(&group, {.depth = 2, .max_batch = 8});
  // One id per shard: four batches queued.
  std::vector<RecordingWaiter> waiters(4);
  std::vector<bool> shard_taken(4, false);
  size_t queued = 0;
  for (graph::NodeId v = 0; queued < 4 && v < 256; ++v) {
    const uint32_t shard = HistoryCache::ShardOf(v, 4);
    if (shard_taken[shard]) continue;
    shard_taken[shard] = true;
    EXPECT_FALSE(pipeline.FetchOrPark(v, &waiters[queued++]).has_value());
  }
  ASSERT_EQ(queued, 4u);

  // Four would-be runners race for the batches; only `depth` get one.
  std::atomic<int> refused{0};
  std::vector<std::thread> runners;
  for (int t = 0; t < 4; ++t) {
    runners.emplace_back([&] {
      if (!pipeline.RunQueuedBatch()) refused.fetch_add(1);
    });
  }
  while (gated.arrivals() < 2 || refused.load() < 2) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(gated.arrivals(), 2u);  // still only two on the wire
  EXPECT_EQ(refused.load(), 2);
  gated.Release(1'000'000);
  for (auto& runner : runners) runner.join();
  while (pipeline.RunQueuedBatch()) {
  }
  for (const RecordingWaiter& waiter : waiters) {
    EXPECT_EQ(waiter.calls.load(), 1);
  }
  EXPECT_EQ(pipeline.stats().wire_requests, 4u);
}

TEST_F(RequestPipelineTest, DestructorWaitsForABatchAnotherThreadRuns) {
  // A stepper may still be inside a per-run pipeline's batch — delivering
  // to the run's last walker — when the run's owner destroys the pipeline.
  GateBackend gated(&backend_);
  access::SharedAccessGroup group(&gated);
  auto* pipeline = new RequestPipeline(&group, {.depth = 1});
  RecordingWaiter waiter;
  EXPECT_FALSE(pipeline->FetchOrPark(9, &waiter).has_value());
  std::thread runner([pipeline] { EXPECT_TRUE(pipeline->RunQueuedBatch()); });
  while (gated.arrivals() < 1) std::this_thread::yield();

  std::atomic<bool> destroyed{false};
  std::thread destroyer([pipeline, &destroyed] {
    delete pipeline;
    destroyed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(destroyed.load());  // still waiting for the batch
  gated.Release(1'000'000);
  runner.join();
  destroyer.join();
  EXPECT_TRUE(destroyed.load());
  EXPECT_EQ(waiter.calls.load(), 1);
}

TEST_F(RequestPipelineTest, DestructorDrainsQueuedFetches) {
  GateBackend gated(&backend_);
  access::SharedAccessGroup group(&gated);
  std::vector<std::thread> waiters;
  std::atomic<int> resolved{0};
  {
    RequestPipeline pipeline(&group, {.depth = 1, .max_batch = 2});
    for (graph::NodeId v = 0; v < 6; ++v) {
      waiters.emplace_back([&pipeline, &resolved, v] {
        auto fetched = pipeline.FetchShared(v);
        if (fetched.ok()) resolved.fetch_add(1);
      });
    }
    while (pipeline.stats().submitted < 6u) std::this_thread::yield();
    gated.Release(1'000'000);
    // Destroy the pipeline while fetches may still be queued: the
    // destructor must drain them (not drop them) before joining workers.
  }
  for (auto& waiter : waiters) waiter.join();
  EXPECT_EQ(resolved.load(), 6);
}

}  // namespace
}  // namespace histwalk::net
