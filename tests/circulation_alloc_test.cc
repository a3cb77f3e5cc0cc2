// Counts heap allocations made while CNRW walks, through a replaced global
// operator new. It lives in its own test binary because the replacement
// applies to the whole program.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "access/graph_access.h"
#include "core/cnrw.h"
#include "graph/generators.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace histwalk::core {
namespace {

TEST(CirculationAllocTest, FreshCnrwWalkAllocatesRarely) {
  // A walk that keeps crossing new edges: 50k steps over a 20k-node social
  // surrogate add tens of thousands of circulation states. One heap
  // allocation per state (or two, as a node-based map with a vector per
  // edge makes) would blow far past the bound.
  util::Random graph_rng(2015);
  graph::Graph g = graph::MakeSocialSurrogate(
      graph::SocialSurrogateParams{.num_nodes = 20000}, graph_rng);
  graph::NodeId start = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.Degree(v) > g.Degree(start)) start = v;
  }
  access::GraphAccess access(&g, nullptr);
  CirculatedNeighborsWalk walker(&access, 1);
  ASSERT_TRUE(walker.Reset(start).ok());

  constexpr uint64_t kSteps = 50000;
  const uint64_t before = g_allocations.load();
  for (uint64_t i = 0; i < kSteps; ++i) ASSERT_TRUE(walker.Step().ok());
  const uint64_t allocations = g_allocations.load() - before;

  RecordProperty("allocations", static_cast<int>(allocations));
  EXPECT_LT(allocations, kSteps / 100);
  // The walk really did build history: without it the bound proves nothing.
  EXPECT_GT(walker.HistoryBytes(), 20000u * 4);
}

TEST(CirculationAllocTest, CounterSeesAllocations) {
  // Guards the test above against a replacement that is not linked in.
  static int* volatile sink;
  const uint64_t before = g_allocations.load();
  sink = new int(7);
  delete sink;
  EXPECT_EQ(g_allocations.load() - before, 1u);
}

}  // namespace
}  // namespace histwalk::core
