#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "access/graph_access.h"
#include "attr/grouping.h"
#include "core/cnrw.h"
#include "core/gnrw.h"
#include "core/metropolis_hastings_walk.h"
#include "core/non_backtracking_walk.h"
#include "core/simple_random_walk.h"
#include "core/walker_factory.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace histwalk::core {
namespace {

using access::GraphAccess;
using graph::NodeId;

// Follows a walk externally and records, for every directed edge
// (prev -> cur), the sequence of successors chosen after traversing it.
// This is the view in which CNRW's circulation invariant is stated.
std::map<std::pair<NodeId, NodeId>, std::vector<NodeId>> SuccessorLog(
    Walker& walker, NodeId start, int steps) {
  std::map<std::pair<NodeId, NodeId>, std::vector<NodeId>> log;
  EXPECT_TRUE(walker.Reset(start).ok());
  NodeId prev = graph::kInvalidNode;
  NodeId cur = start;
  for (int i = 0; i < steps; ++i) {
    auto next = walker.Step();
    EXPECT_TRUE(next.ok()) << next.status();
    if (!next.ok()) break;
    if (prev != graph::kInvalidNode) {
      log[{prev, cur}].push_back(*next);
    }
    prev = cur;
    cur = *next;
  }
  return log;
}

// Asserts that `successors` consists of consecutive permutations of
// `expected_support` (the without-replacement rounds), ignoring a trailing
// partial round.
void ExpectCirculatedRounds(const std::vector<NodeId>& successors,
                            const std::set<NodeId>& expected_support) {
  const size_t round = expected_support.size();
  for (size_t begin = 0; begin + round <= successors.size();
       begin += round) {
    std::set<NodeId> seen(successors.begin() + begin,
                          successors.begin() + begin + round);
    EXPECT_EQ(seen, expected_support)
        << "round starting at position " << begin;
  }
}

TEST(SimpleRandomWalkTest, StepMovesToANeighbor) {
  graph::Graph g = graph::MakeCycle(5);
  GraphAccess access(&g, nullptr);
  SimpleRandomWalk walker(&access, 1);
  ASSERT_TRUE(walker.Reset(0).ok());
  for (int i = 0; i < 50; ++i) {
    NodeId before = walker.current();
    auto after = walker.Step();
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(g.HasEdge(before, *after));
  }
}

TEST(SimpleRandomWalkTest, StepBeforeResetFails) {
  graph::Graph g = graph::MakeCycle(5);
  GraphAccess access(&g, nullptr);
  SimpleRandomWalk walker(&access, 1);
  auto result = walker.Step();
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(SimpleRandomWalkTest, ResetToUnknownNodeFails) {
  graph::Graph g = graph::MakeCycle(5);
  GraphAccess access(&g, nullptr);
  SimpleRandomWalk walker(&access, 1);
  EXPECT_EQ(walker.Reset(99).code(), util::StatusCode::kOutOfRange);
}

TEST(SimpleRandomWalkTest, DeterministicGivenSeed) {
  graph::Graph g = graph::MakeComplete(8);
  GraphAccess a1(&g, nullptr), a2(&g, nullptr);
  SimpleRandomWalk w1(&a1, 77), w2(&a2, 77);
  ASSERT_TRUE(w1.Reset(0).ok());
  ASSERT_TRUE(w2.Reset(0).ok());
  for (int i = 0; i < 200; ++i) {
    auto s1 = w1.Step(), s2 = w2.Step();
    ASSERT_TRUE(s1.ok() && s2.ok());
    EXPECT_EQ(*s1, *s2);
  }
}

TEST(SimpleRandomWalkTest, TransitionIsUniformOverNeighbors) {
  // From the hub of a star, each leaf should be hit equally often.
  graph::Graph g = graph::MakeStar(5);
  GraphAccess access(&g, nullptr);
  SimpleRandomWalk walker(&access, 3);
  std::map<NodeId, int> counts;
  constexpr int kRounds = 20000;
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(walker.Reset(0).ok());
    auto next = walker.Step();
    ASSERT_TRUE(next.ok());
    ++counts[*next];
  }
  for (NodeId leaf = 1; leaf < 5; ++leaf) {
    EXPECT_NEAR(counts[leaf] / static_cast<double>(kRounds), 0.25, 0.02);
  }
}

TEST(SimpleRandomWalkTest, BudgetExhaustionSurfacesAndPositionHolds) {
  graph::Graph g = graph::MakePath(10);
  GraphAccess access(&g, nullptr, {.query_budget = 1});
  SimpleRandomWalk walker(&access, 1);
  ASSERT_TRUE(walker.Reset(5).ok());
  ASSERT_TRUE(walker.Step().ok());  // queries node 5
  NodeId held = walker.current();
  // Unless the walk bounced back to 5, the next step needs a new query.
  if (held != 5) {
    auto result = walker.Step();
    EXPECT_EQ(result.status().code(),
              util::StatusCode::kResourceExhausted);
    EXPECT_EQ(walker.current(), held);
  }
}

TEST(MetropolisHastingsTest, BiasIsUniform) {
  graph::Graph g = graph::MakeComplete(4);
  GraphAccess access(&g, nullptr);
  MetropolisHastingsWalk walker(&access, 1);
  EXPECT_EQ(walker.bias(), StationaryBias::kUniform);
  EXPECT_EQ(walker.name(), "MHRW");
}

TEST(MetropolisHastingsTest, AlwaysAcceptsTowardLowerDegree) {
  // Hub -> leaf proposals always accept (deg hub / deg leaf >= 1).
  graph::Graph g = graph::MakeStar(6);
  GraphAccess access(&g, nullptr);
  MetropolisHastingsWalk walker(&access, 2);
  ASSERT_TRUE(walker.Reset(0).ok());
  auto next = walker.Step();
  ASSERT_TRUE(next.ok());
  EXPECT_NE(*next, 0u);
}

TEST(MetropolisHastingsTest, RejectionKeepsPosition) {
  // Leaf -> hub proposals accept with 1/5 only; rejections must keep the
  // walk at the leaf and still count as samples.
  graph::Graph g = graph::MakeStar(6);
  GraphAccess access(&g, nullptr);
  MetropolisHastingsWalk walker(&access, 3);
  int stays = 0;
  constexpr int kRounds = 5000;
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(walker.Reset(1).ok());
    auto next = walker.Step();
    ASSERT_TRUE(next.ok());
    if (*next == 1u) ++stays;
  }
  EXPECT_NEAR(stays / static_cast<double>(kRounds), 0.8, 0.03);
}

TEST(MetropolisHastingsTest, UniformStationaryDistributionOnStar) {
  // The star is maximally degree-skewed: SRW spends half its time on the
  // hub, MHRW must spend ~1/n on it (time-averaged).
  graph::Graph g = graph::MakeStar(6);
  GraphAccess access(&g, nullptr);
  MetropolisHastingsWalk walker(&access, 4);
  ASSERT_TRUE(walker.Reset(0).ok());
  std::map<NodeId, int> counts;
  constexpr int kSteps = 120000;
  for (int i = 0; i < kSteps; ++i) {
    auto next = walker.Step();
    ASSERT_TRUE(next.ok());
    ++counts[*next];
  }
  for (NodeId v = 0; v < 6; ++v) {
    EXPECT_NEAR(counts[v] / static_cast<double>(kSteps), 1.0 / 6.0, 0.02)
        << "node " << v;
  }
}

TEST(NonBacktrackingTest, NeverBacktracksWhenAvoidable) {
  graph::Graph g = graph::MakeComplete(6);
  GraphAccess access(&g, nullptr);
  NonBacktrackingWalk walker(&access, 5);
  ASSERT_TRUE(walker.Reset(0).ok());
  NodeId prev = graph::kInvalidNode;
  NodeId cur = 0;
  for (int i = 0; i < 2000; ++i) {
    auto next = walker.Step();
    ASSERT_TRUE(next.ok());
    if (prev != graph::kInvalidNode) {
      EXPECT_NE(*next, prev) << "backtracked at step " << i;
    }
    prev = cur;
    cur = *next;
  }
}

TEST(NonBacktrackingTest, ForcedBacktrackAtDeadEnd) {
  graph::Graph g = graph::MakePath(3);  // 0 - 1 - 2
  GraphAccess access(&g, nullptr);
  NonBacktrackingWalk walker(&access, 6);
  ASSERT_TRUE(walker.Reset(1).ok());
  auto first = walker.Step();
  ASSERT_TRUE(first.ok());
  NodeId end = *first;  // 0 or 2, degree 1
  auto second = walker.Step();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 1u) << "dead end " << end << " must return";
}

TEST(NonBacktrackingTest, UniformOverNonPreviousNeighbors) {
  // At the hub arriving from leaf 1, the next leaf is uniform over 2..4.
  graph::Graph g = graph::MakeStar(5);
  GraphAccess access(&g, nullptr);
  std::map<NodeId, int> counts;
  constexpr int kRounds = 30000;
  for (int i = 0; i < kRounds; ++i) {
    NonBacktrackingWalk walker(&access, 1000 + i);
    ASSERT_TRUE(walker.Reset(1).ok());
    ASSERT_TRUE(walker.Step().ok());  // 1 -> 0 (forced)
    auto next = walker.Step();        // 0 -> ? avoiding 1
    ASSERT_TRUE(next.ok());
    EXPECT_NE(*next, 1u);
    ++counts[*next];
  }
  for (NodeId leaf = 2; leaf < 5; ++leaf) {
    EXPECT_NEAR(counts[leaf] / static_cast<double>(kRounds), 1.0 / 3.0,
                0.02);
  }
}

TEST(CnrwTest, CirculationInvariantPerDirectedEdge) {
  // For every incoming edge (u, v), the successors drawn after traversing
  // it must cover N(v) exactly once per round (the without-replacement
  // behaviour of Algorithm 1).
  graph::Graph g = graph::MakeComplete(4);
  GraphAccess access(&g, nullptr);
  CirculatedNeighborsWalk walker(&access, 7);
  auto log = SuccessorLog(walker, 0, 20000);
  ASSERT_FALSE(log.empty());
  for (const auto& [edge, successors] : log) {
    auto ns = g.Neighbors(edge.second);
    std::set<NodeId> support(ns.begin(), ns.end());
    ExpectCirculatedRounds(successors, support);
  }
}

TEST(CnrwTest, CirculationInvariantOnIrregularGraph) {
  util::Random rng(8);
  graph::Graph g = graph::LargestComponent(graph::MakeErdosRenyi(30, 0.2, rng));
  GraphAccess access(&g, nullptr);
  CirculatedNeighborsWalk walker(&access, 9);
  auto log = SuccessorLog(walker, 0, 50000);
  for (const auto& [edge, successors] : log) {
    auto ns = g.Neighbors(edge.second);
    std::set<NodeId> support(ns.begin(), ns.end());
    ExpectCirculatedRounds(successors, support);
  }
}

TEST(CnrwTest, HistoryGrowsAndResetClearsIt) {
  graph::Graph g = graph::MakeComplete(6);
  GraphAccess access(&g, nullptr);
  for (WalkerType type :
       {WalkerType::kCnrw, WalkerType::kCnrwNode, WalkerType::kNbCnrw}) {
    WalkerSpec spec;
    spec.type = type;
    auto walker = MakeWalker(spec, &access, 10);
    ASSERT_TRUE(walker.ok()) << walker.status();
    ASSERT_TRUE((*walker)->Reset(0).ok());
    uint64_t empty_bytes = (*walker)->HistoryBytes();
    for (int i = 0; i < 500; ++i) ASSERT_TRUE((*walker)->Step().ok());
    EXPECT_GT((*walker)->HistoryBytes(), empty_bytes) << (*walker)->name();
    ASSERT_TRUE((*walker)->Reset(0).ok());
    EXPECT_EQ((*walker)->HistoryBytes(), empty_bytes) << (*walker)->name();
  }
}

TEST(CnrwTest, TwoNodeGraphAlternates) {
  graph::Graph g = graph::MakePath(2);
  GraphAccess access(&g, nullptr);
  CirculatedNeighborsWalk walker(&access, 11);
  ASSERT_TRUE(walker.Reset(0).ok());
  NodeId expected = 1;
  for (int i = 0; i < 20; ++i) {
    auto next = walker.Step();
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(*next, expected);
    expected = 1 - expected;
  }
}

TEST(NodeCnrwTest, CirculationKeyedOnNodeOnly) {
  // Successors of node v, pooled over ALL incoming edges, form rounds
  // covering N(v) — the node-based design of section 3.2.
  graph::Graph g = graph::MakeComplete(4);
  GraphAccess access(&g, nullptr);
  NodeCirculatedWalk walker(&access, 12);
  ASSERT_TRUE(walker.Reset(0).ok());
  std::map<NodeId, std::vector<NodeId>> per_node;
  NodeId cur = 0;
  for (int i = 0; i < 12000; ++i) {
    auto next = walker.Step();
    ASSERT_TRUE(next.ok());
    per_node[cur].push_back(*next);
    cur = *next;
  }
  for (const auto& [node, successors] : per_node) {
    auto ns = g.Neighbors(node);
    std::set<NodeId> support(ns.begin(), ns.end());
    ExpectCirculatedRounds(successors, support);
  }
}

TEST(NbCnrwTest, NeverBacktracksAndCirculates) {
  graph::Graph g = graph::MakeComplete(5);
  GraphAccess access(&g, nullptr);
  NonBacktrackingCirculatedWalk walker(&access, 13);
  ASSERT_TRUE(walker.Reset(0).ok());
  std::map<std::pair<NodeId, NodeId>, std::vector<NodeId>> log;
  NodeId prev = graph::kInvalidNode, cur = 0;
  for (int i = 0; i < 30000; ++i) {
    auto next = walker.Step();
    ASSERT_TRUE(next.ok());
    if (prev != graph::kInvalidNode) {
      EXPECT_NE(*next, prev);
      log[{prev, cur}].push_back(*next);
    }
    prev = cur;
    cur = *next;
  }
  for (const auto& [edge, successors] : log) {
    auto ns = g.Neighbors(edge.second);
    std::set<NodeId> support(ns.begin(), ns.end());
    support.erase(edge.first);  // NB support excludes the incoming node
    ExpectCirculatedRounds(successors, support);
  }
}

// FNV-1a over a walk's trace (node and degree per step). The walk is reset
// to its start halfway through, so the digest also pins that Reset clears
// the circulation history.
uint64_t TraceDigest(Walker& walker, const graph::Graph& g, NodeId start,
                     int steps) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  EXPECT_TRUE(walker.Reset(start).ok());
  for (int i = 0; i < steps; ++i) {
    if (i == steps / 2) {
      EXPECT_TRUE(walker.Reset(start).ok());
    }
    auto next = walker.Step();
    EXPECT_TRUE(next.ok()) << next.status();
    if (!next.ok()) break;
    mix(*next);
    mix(g.Degree(*next));
  }
  return h;
}

// Walks recorded before the circulation history moved to a flat table.
// Any change to how the CNRW family stores or draws its history must leave
// every trace bit-identical: same candidates, same RNG calls, same swaps.
TEST(CirculatedWalkersTest, TracesMatchPinnedDigests) {
  util::Random graph_rng(2015);
  graph::Graph g = graph::MakeSocialSurrogate(
      graph::SocialSurrogateParams{.num_nodes = 3000}, graph_rng);
  NodeId start = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.Degree(v) > g.Degree(start)) start = v;
  }
  GraphAccess access(&g, nullptr);
  struct Pinned {
    WalkerType type;
    uint64_t seed;
    uint64_t digest;
  };
  const Pinned pinned[] = {
      {WalkerType::kCnrw, 1, 0x85770f569e27645bull},
      {WalkerType::kCnrw, 2, 0x73416ce856be5fcdull},
      {WalkerType::kCnrw, 3, 0xfa474e806e1610c8ull},
      {WalkerType::kCnrwNode, 1, 0xde761cffc09212b1ull},
      {WalkerType::kCnrwNode, 2, 0x96ddb7ff5ed6c457ull},
      {WalkerType::kCnrwNode, 3, 0xcae2002a23d8eb25ull},
      {WalkerType::kNbCnrw, 1, 0xb4fedc11a9fb6547ull},
      {WalkerType::kNbCnrw, 2, 0xa80dbe91c06e40bdull},
      {WalkerType::kNbCnrw, 3, 0xbd48abea04a862e6ull},
  };
  for (const Pinned& p : pinned) {
    WalkerSpec spec;
    spec.type = p.type;
    auto walker = MakeWalker(spec, &access, p.seed);
    ASSERT_TRUE(walker.ok()) << walker.status();
    uint64_t digest = TraceDigest(**walker, g, start, 20000);
    EXPECT_EQ(digest, p.digest) << (*walker)->name() << " seed " << p.seed
                                << std::hex << " digest 0x" << digest;
  }
}

TEST(GnrwTest, GlobalRoundCoversAllNeighborsOnce) {
  // Theorem 4's load-bearing invariant: per incoming edge, every global
  // round of deg(v) draws covers N(v) exactly once, whatever the grouping.
  graph::Graph g = graph::MakeComplete(6);
  std::vector<attr::GroupId> labels{0, 0, 0, 1, 1, 1};
  auto grouping = attr::MakeFixedGrouping(labels, 2, "planted");
  GraphAccess access(&g, nullptr);
  GroupbyNeighborsWalk walker(&access, grouping.get(), 14);
  auto log = SuccessorLog(walker, 0, 30000);
  ASSERT_FALSE(log.empty());
  for (const auto& [edge, successors] : log) {
    auto ns = g.Neighbors(edge.second);
    std::set<NodeId> support(ns.begin(), ns.end());
    ExpectCirculatedRounds(successors, support);
  }
}

TEST(GnrwTest, StrataAlternateWithinRounds) {
  // K6 with a 3/3 coloring: each N(v) splits 2 (own color) vs 3. Within a
  // global round of 5, the stratum cycles are (2 distinct, 2 distinct, 1
  // leftover) — so positions (0,1) and (2,3) of every round must be in
  // different strata.
  graph::Graph g = graph::MakeComplete(6);
  std::vector<attr::GroupId> labels{0, 0, 0, 1, 1, 1};
  auto grouping = attr::MakeFixedGrouping(labels, 2, "planted");
  GraphAccess access(&g, nullptr);
  GroupbyNeighborsWalk walker(&access, grouping.get(), 18);
  auto log = SuccessorLog(walker, 0, 30000);
  for (const auto& [edge, successors] : log) {
    for (size_t r = 0; r + 4 <= successors.size(); r += 5) {
      EXPECT_NE(labels[successors[r]], labels[successors[r + 1]])
          << "stratum repeated in cycle 1 of the round at " << r;
      EXPECT_NE(labels[successors[r + 2]], labels[successors[r + 3]])
          << "stratum repeated in cycle 2 of the round at " << r;
    }
  }
}

TEST(GnrwTest, MembersCirculateWithinGroup) {
  graph::Graph g = graph::MakeComplete(6);
  std::vector<attr::GroupId> labels{0, 0, 0, 1, 1, 1};
  auto grouping = attr::MakeFixedGrouping(labels, 2, "planted");
  GraphAccess access(&g, nullptr);
  GroupbyNeighborsWalk walker(&access, grouping.get(), 15);
  auto log = SuccessorLog(walker, 0, 40000);
  for (const auto& [edge, successors] : log) {
    auto ns = g.Neighbors(edge.second);
    // Per-group successor subsequences are without-replacement rounds.
    for (attr::GroupId group : {0u, 1u}) {
      std::set<NodeId> support;
      for (NodeId w : ns) {
        if (labels[w] == group) support.insert(w);
      }
      if (support.empty()) continue;
      std::vector<NodeId> in_group;
      for (NodeId s : successors) {
        if (labels[s] == group) in_group.push_back(s);
      }
      ExpectCirculatedRounds(in_group, support);
    }
  }
}

TEST(GnrwTest, SingleGroupReducesToCnrwInvariant) {
  graph::Graph g = graph::MakeComplete(5);
  auto grouping =
      attr::MakeFixedGrouping(std::vector<attr::GroupId>(5, 0), 1, "one");
  GraphAccess access(&g, nullptr);
  GroupbyNeighborsWalk walker(&access, grouping.get(), 16);
  auto log = SuccessorLog(walker, 0, 20000);
  for (const auto& [edge, successors] : log) {
    auto ns = g.Neighbors(edge.second);
    std::set<NodeId> support(ns.begin(), ns.end());
    ExpectCirculatedRounds(successors, support);
  }
}

TEST(GnrwTest, NameIncludesGrouping) {
  graph::Graph g = graph::MakeComplete(4);
  auto grouping = attr::MakeMd5Grouping(3);
  GraphAccess access(&g, nullptr);
  GroupbyNeighborsWalk walker(&access, grouping.get(), 17);
  EXPECT_EQ(walker.name(), "GNRW(by_md5)");
}

TEST(WalkerFactoryTest, CreatesEveryType) {
  graph::Graph g = graph::MakeComplete(4);
  GraphAccess access(&g, nullptr);
  auto grouping = attr::MakeMd5Grouping(2);
  for (WalkerType type :
       {WalkerType::kSrw, WalkerType::kMhrw, WalkerType::kNbSrw,
        WalkerType::kCnrw, WalkerType::kCnrwNode, WalkerType::kNbCnrw,
        WalkerType::kGnrw}) {
    WalkerSpec spec{.type = type, .grouping = grouping.get()};
    auto walker = MakeWalker(spec, &access, 1);
    ASSERT_TRUE(walker.ok()) << WalkerTypeName(type);
    EXPECT_TRUE((*walker)->Reset(0).ok());
    EXPECT_TRUE((*walker)->Step().ok());
  }
}

TEST(WalkerFactoryTest, GnrwWithoutGroupingFails) {
  graph::Graph g = graph::MakeComplete(4);
  GraphAccess access(&g, nullptr);
  auto walker = MakeWalker({.type = WalkerType::kGnrw}, &access, 1);
  EXPECT_FALSE(walker.ok());
}

TEST(WalkerFactoryTest, NullAccessFails) {
  auto walker = MakeWalker({.type = WalkerType::kSrw}, nullptr, 1);
  EXPECT_FALSE(walker.ok());
}

TEST(WalkerFactoryTest, DisplayNames) {
  EXPECT_EQ(WalkerSpec{.type = WalkerType::kSrw}.DisplayName(), "SRW");
  auto grouping = attr::MakeMd5Grouping(2);
  WalkerSpec gnrw{.type = WalkerType::kGnrw, .grouping = grouping.get()};
  EXPECT_EQ(gnrw.DisplayName(), "GNRW(by_md5)");
  WalkerSpec labeled{.type = WalkerType::kCnrw, .label = "custom"};
  EXPECT_EQ(labeled.DisplayName(), "custom");
}

TEST(WalkerFactoryTest, MemorylessWalkersReportZeroHistory) {
  graph::Graph g = graph::MakeComplete(4);
  GraphAccess access(&g, nullptr);
  SimpleRandomWalk srw(&access, 1);
  NonBacktrackingWalk nb(&access, 1);
  ASSERT_TRUE(srw.Reset(0).ok());
  ASSERT_TRUE(nb.Reset(0).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(srw.Step().ok());
    ASSERT_TRUE(nb.Step().ok());
  }
  EXPECT_EQ(srw.HistoryBytes(), 0u);
  EXPECT_EQ(nb.HistoryBytes(), 0u);
}

}  // namespace
}  // namespace histwalk::core
