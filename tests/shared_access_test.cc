#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "access/graph_access.h"
#include "access/shared_access.h"
#include "graph/generators.h"
#include "net/request_pipeline.h"

namespace histwalk::access {
namespace {

// Forwards to `inner`, but holds every FetchNeighbors call until Release(),
// so a test can line a second caller up behind a fetch in flight.
class GatedBackend final : public AccessBackend {
 public:
  explicit GatedBackend(const AccessBackend* inner) : inner_(inner) {}

  util::Result<std::span<const graph::NodeId>> FetchNeighbors(
      graph::NodeId v) const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++fetches_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return inner_->FetchNeighbors(v);
  }
  util::Result<double> FetchAttribute(graph::NodeId v,
                                      attr::AttrId attr) const override {
    return inner_->FetchAttribute(v, attr);
  }
  util::Result<uint32_t> FetchSummaryDegree(graph::NodeId v) const override {
    return inner_->FetchSummaryDegree(v);
  }
  uint64_t num_nodes() const override { return inner_->num_nodes(); }
  std::string name() const override { return "gated"; }

  // Blocks until a fetch has reached the backend.
  void WaitForFetch() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return fetches_ > 0; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  int fetches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fetches_;
  }

 private:
  const AccessBackend* inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int fetches_ = 0;
  bool released_ = false;
};

class SharedAccessTest : public testing::Test {
 protected:
  SharedAccessTest() : graph_(graph::MakeCycle(8)), backend_(&graph_, nullptr) {}
  graph::Graph graph_;
  GraphAccess backend_;
};

TEST_F(SharedAccessTest, ViewServesNeighborsAndMetadata) {
  SharedAccessGroup group(&backend_);
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto view = group.MakeView(resolver);
  auto ns = view->Neighbors(0);
  ASSERT_TRUE(ns.ok());
  ASSERT_EQ(ns->size(), 2u);
  EXPECT_EQ((*ns)[0], 1u);
  EXPECT_EQ((*ns)[1], 7u);
  EXPECT_EQ(view->SummaryDegree(3).value(), 2u);
  EXPECT_EQ(view->num_nodes(), 8u);
  EXPECT_EQ(view->Neighbors(99).status().code(),
            util::StatusCode::kOutOfRange);
}

TEST_F(SharedAccessTest, PerViewAccountingMatchesStandaloneSemantics) {
  SharedAccessGroup group(&backend_);
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto view = group.MakeView(resolver);
  EXPECT_TRUE(view->Neighbors(0).ok());
  EXPECT_TRUE(view->Neighbors(1).ok());
  EXPECT_TRUE(view->Neighbors(0).ok());  // own repeat
  const QueryStats& stats = view->stats();
  EXPECT_EQ(stats.total_queries, 3u);
  EXPECT_EQ(stats.unique_queries, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(view->charged_fetches(), 2u);
  EXPECT_EQ(group.charged_queries(), 2u);
}

TEST_F(SharedAccessTest, SecondWalkerFreeRidesOnSharedHistory) {
  SharedAccessGroup group(&backend_);
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto a = group.MakeView(resolver);
  auto b = group.MakeView(resolver);
  EXPECT_TRUE(a->Neighbors(0).ok());
  EXPECT_TRUE(a->Neighbors(1).ok());
  // b asks for the same nodes: charged nothing, but its own accounting
  // still records them as ITS unique queries (standalone cost).
  EXPECT_TRUE(b->Neighbors(0).ok());
  EXPECT_TRUE(b->Neighbors(1).ok());
  EXPECT_EQ(b->stats().unique_queries, 2u);
  EXPECT_EQ(b->charged_fetches(), 0u);
  EXPECT_EQ(group.charged_queries(), 2u);
  // The ensemble saving is the gap: 4 standalone uniques, 2 charged.
  EXPECT_EQ(a->stats().unique_queries + b->stats().unique_queries, 4u);
}

// Regression: two walkers missing one node at the same instant pay for it
// once. The second caller joins the first's flight (singleflight) even at
// depth 0, where the first caller runs the fetch on its own thread.
TEST_F(SharedAccessTest, ConcurrentMissesOnOneNodeChargeOnceAtDepthZero) {
  GatedBackend gated(&backend_);
  SharedAccessGroup group(&gated);
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto a = group.MakeView(resolver);
  auto b = group.MakeView(resolver);
  std::thread first([&] { EXPECT_TRUE(a->Neighbors(0).ok()); });
  gated.WaitForFetch();  // a's fetch is on the wire, held there
  std::thread second([&] { EXPECT_TRUE(b->Neighbors(0).ok()); });
  // Hold the wire until b has joined; the deadline turns a regression
  // (b fetching on its own) into a failure instead of a hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (resolver.stats().dedup_joins == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gated.Release();
  first.join();
  second.join();

  EXPECT_EQ(resolver.stats().dedup_joins, 1u);
  EXPECT_EQ(gated.fetches(), 1);
  EXPECT_EQ(group.charged_queries(), 1u);
  EXPECT_EQ(group.cache().stats().insertions, 1u);
  EXPECT_EQ(a->charged_fetches(), 1u);
  EXPECT_EQ(b->charged_fetches(), 0u);
  // Both walkers still count the node as their own unique query.
  EXPECT_EQ(a->stats().unique_queries, 1u);
  EXPECT_EQ(b->stats().unique_queries, 1u);
}

TEST_F(SharedAccessTest, GroupBudgetIsSharedAndClamps) {
  SharedAccessGroup group(&backend_, {.query_budget = 3});
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto a = group.MakeView(resolver);
  auto b = group.MakeView(resolver);
  EXPECT_TRUE(a->Neighbors(0).ok());
  EXPECT_TRUE(a->Neighbors(1).ok());
  EXPECT_TRUE(b->Neighbors(2).ok());
  EXPECT_EQ(group.remaining_budget(), 0u);
  // A fresh fetch is refused for either view...
  EXPECT_EQ(a->Neighbors(3).status().code(),
            util::StatusCode::kBudgetExhausted);
  EXPECT_EQ(b->Neighbors(3).status().code(),
            util::StatusCode::kBudgetExhausted);
  // ...but shared history still answers, even for a node b never fetched.
  EXPECT_TRUE(b->Neighbors(0).ok());
  // The refused calls left accounting untouched.
  EXPECT_EQ(a->stats().total_queries, 2u);
  EXPECT_EQ(group.charged_queries(), 3u);
}

// Regression: the group-budget refusal must be the TYPED budget status, so
// callers can tell "the shared quota ran out" (kBudgetExhausted) apart from
// a per-access budget stop (kResourceExhausted) and from real errors.
TEST_F(SharedAccessTest, GroupBudgetRefusalIsTypedBudgetExhausted) {
  SharedAccessGroup group(&backend_, {.query_budget = 1});
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto view = group.MakeView(resolver);
  EXPECT_TRUE(view->Neighbors(0).ok());
  util::Status refusal = view->Neighbors(1).status();
  EXPECT_EQ(refusal.code(), util::StatusCode::kBudgetExhausted);
  EXPECT_NE(refusal.code(), util::StatusCode::kResourceExhausted);
  EXPECT_TRUE(util::IsBudgetStop(refusal));
  // The per-access budget (GraphAccess) keeps its own, distinct code.
  GraphAccess budgeted(&graph_, nullptr, {.query_budget = 1});
  EXPECT_TRUE(budgeted.Neighbors(0).ok());
  EXPECT_EQ(budgeted.Neighbors(1).status().code(),
            util::StatusCode::kResourceExhausted);
}

TEST_F(SharedAccessTest, EvictionForcesRecharge) {
  // Capacity 1: alternating between two nodes evicts on every switch.
  SharedAccessGroup group(&backend_,
                          {.cache = {.capacity = 1, .num_shards = 1}});
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto view = group.MakeView(resolver);
  EXPECT_TRUE(view->Neighbors(0).ok());
  EXPECT_TRUE(view->Neighbors(1).ok());  // evicts 0
  EXPECT_TRUE(view->Neighbors(0).ok());  // miss again: recharged
  EXPECT_EQ(group.charged_queries(), 3u);
  EXPECT_EQ(group.cache().stats().evictions, 2u);
  // Per-view accounting still sees node 0 as one unique + one repeat: the
  // walker's standalone cost is independent of the eviction policy.
  EXPECT_EQ(view->stats().unique_queries, 2u);
  EXPECT_EQ(view->stats().cache_hits, 1u);
}

TEST_F(SharedAccessTest, SpanSurvivesEvictionOfItsEntry) {
  SharedAccessGroup group(&backend_,
                          {.cache = {.capacity = 1, .num_shards = 1}});
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto view = group.MakeView(resolver);
  auto ns = view->Neighbors(0);
  ASSERT_TRUE(ns.ok());
  auto other = group.MakeView(resolver);
  EXPECT_TRUE(other->Neighbors(1).ok());  // evicts node 0's entry
  EXPECT_FALSE(group.cache().Contains(0));
  // The first view's span still reads valid data (retained handle).
  EXPECT_EQ((*ns)[0], 1u);
  EXPECT_EQ((*ns)[1], 7u);
}

TEST_F(SharedAccessTest, ViewResetLeavesGroupStateAlone) {
  SharedAccessGroup group(&backend_);
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto view = group.MakeView(resolver);
  EXPECT_TRUE(view->Neighbors(0).ok());
  view->ResetAccounting();
  EXPECT_EQ(view->stats().total_queries, 0u);
  EXPECT_EQ(view->charged_fetches(), 0u);
  // Shared history survives: re-asking is a group-level cache hit, so the
  // charge counter does not move.
  EXPECT_TRUE(view->Neighbors(0).ok());
  EXPECT_EQ(group.charged_queries(), 1u);
  EXPECT_EQ(view->stats().unique_queries, 1u);
}

TEST_F(SharedAccessTest, GroupResetClearsCacheAndCharges) {
  SharedAccessGroup group(&backend_);
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto view = group.MakeView(resolver);
  EXPECT_TRUE(view->Neighbors(0).ok());
  group.ResetAll();
  EXPECT_EQ(group.charged_queries(), 0u);
  EXPECT_EQ(group.cache().entry_count(), 0u);
  EXPECT_TRUE(view->Neighbors(0).ok());  // re-fetched for real
  EXPECT_EQ(group.charged_queries(), 1u);
}

TEST_F(SharedAccessTest, HistoryBytesReportsCacheAndPrivateBits) {
  SharedAccessGroup group(&backend_);
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto a = group.MakeView(resolver);
  auto b = group.MakeView(resolver);
  // 8 nodes -> 1 byte of membership bits per view, even before any query.
  EXPECT_EQ(a->private_history_bytes(), 1u);
  EXPECT_EQ(a->HistoryBytes(), 1u);
  EXPECT_TRUE(a->Neighbors(0).ok());
  EXPECT_EQ(a->HistoryBytes(), group.cache().MemoryBytes() + 1u);
  // Equal-sized views report the same footprint (shared cache + own bits).
  EXPECT_EQ(a->HistoryBytes(), b->HistoryBytes());
}

TEST_F(SharedAccessTest, GroupsOverOneExternalCacheShareHistory) {
  // The cross-tenant seam: two groups (tenants) over one externally owned
  // cache. Each keeps its own billing; either one's fetches are history
  // for both.
  HistoryCache shared_cache({.num_shards = 4});
  SharedAccessGroup tenant_a(&backend_, shared_cache);
  net::RequestPipeline resolver_a(&tenant_a, {.depth = 0});
  SharedAccessGroup tenant_b(&backend_, shared_cache);
  net::RequestPipeline resolver_b(&tenant_b, {.depth = 0});
  EXPECT_TRUE(tenant_a.uses_shared_cache());
  EXPECT_TRUE(tenant_b.uses_shared_cache());
  EXPECT_EQ(&tenant_a.cache(), &shared_cache);

  auto a = tenant_a.MakeView(resolver_a);
  auto b = tenant_b.MakeView(resolver_b);
  EXPECT_TRUE(a->Neighbors(0).ok());
  EXPECT_TRUE(a->Neighbors(1).ok());
  // Tenant B free-rides on A's history: its standalone accounting still
  // counts the nodes, but its group is billed nothing.
  EXPECT_TRUE(b->Neighbors(0).ok());
  EXPECT_TRUE(b->Neighbors(1).ok());
  EXPECT_TRUE(b->Neighbors(2).ok());  // B's own new node
  EXPECT_EQ(b->stats().unique_queries, 3u);
  EXPECT_EQ(tenant_a.charged_queries(), 2u);
  EXPECT_EQ(tenant_b.charged_queries(), 1u);
  EXPECT_EQ(shared_cache.stats().entries, 3u);
}

TEST_F(SharedAccessTest, PerTenantBudgetsAreIndependentOverSharedCache) {
  HistoryCache shared_cache({.num_shards = 4});
  SharedAccessGroup tenant_a(&backend_, shared_cache, {.query_budget = 1});
  net::RequestPipeline resolver_a(&tenant_a, {.depth = 0});
  SharedAccessGroup tenant_b(&backend_, shared_cache);
  net::RequestPipeline resolver_b(&tenant_b, {.depth = 0});
  auto a = tenant_a.MakeView(resolver_a);
  auto b = tenant_b.MakeView(resolver_b);
  EXPECT_TRUE(a->Neighbors(0).ok());
  // A's own quota refuses its next NEW node...
  auto refused = a->Neighbors(1);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kBudgetExhausted);
  // ...but B fetches it on its own (unlimited) budget, after which A can
  // read it as shared history without a charge.
  EXPECT_TRUE(b->Neighbors(1).ok());
  EXPECT_TRUE(a->Neighbors(1).ok());
  EXPECT_EQ(tenant_a.charged_queries(), 1u);
  EXPECT_EQ(tenant_b.charged_queries(), 1u);
}

TEST_F(SharedAccessTest, AttributeForwardsToBackend) {
  attr::AttributeTable attrs(8);
  ASSERT_TRUE(attrs.AddColumn("age", {1, 2, 3, 4, 5, 6, 7, 8}).ok());
  GraphAccess backend(&graph_, &attrs);
  SharedAccessGroup group(&backend);
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto view = group.MakeView(resolver);
  EXPECT_EQ(view->Attribute(2, 0).value(), 3.0);
  EXPECT_EQ(view->Attribute(99, 0).status().code(),
            util::StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace histwalk::access
