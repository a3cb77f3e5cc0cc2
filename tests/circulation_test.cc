#include "core/circulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <vector>

namespace histwalk::core {
namespace {

using graph::NodeId;

constexpr uint64_t kKey = EdgeKey(3, 4);

TEST(CirculationTableTest, StateIsCreatedOnFirstDraw) {
  util::Random rng(1);
  CirculationTable table;
  std::vector<NodeId> candidates{1, 2, 3};
  EXPECT_FALSE(table.Contains(kKey));
  EXPECT_EQ(table.Remaining(kKey), 0u);
  table.Draw(kKey, candidates, rng);
  EXPECT_TRUE(table.Contains(kKey));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Remaining(kKey), 2u);
}

TEST(CirculationTableTest, OneRoundCoversEveryCandidateOnce) {
  util::Random rng(1);
  CirculationTable table;
  std::vector<NodeId> candidates{10, 20, 30, 40, 50};
  std::multiset<NodeId> drawn;
  for (int i = 0; i < 5; ++i) drawn.insert(table.Draw(kKey, candidates, rng));
  EXPECT_EQ(drawn.size(), 5u);
  for (NodeId c : candidates) EXPECT_EQ(drawn.count(c), 1u);
}

TEST(CirculationTableTest, EveryRoundIsAPermutation) {
  util::Random rng(2);
  CirculationTable table;
  std::vector<NodeId> candidates{1, 2, 3, 4};
  for (int round = 0; round < 10; ++round) {
    std::set<NodeId> seen;
    for (int i = 0; i < 4; ++i) seen.insert(table.Draw(kKey, candidates, rng));
    EXPECT_EQ(seen.size(), 4u) << "round " << round;
  }
}

TEST(CirculationTableTest, WithinRoundCountsDifferByAtMostOne) {
  // The paper's equation (31): after M draws the per-candidate counts
  // differ by at most 1.
  util::Random rng(3);
  CirculationTable table;
  std::vector<NodeId> candidates{7, 8, 9};
  std::map<NodeId, int> counts;
  for (int m = 1; m <= 50; ++m) {
    ++counts[table.Draw(kKey, candidates, rng)];
    int lo = INT32_MAX, hi = 0;
    for (NodeId c : candidates) {
      lo = std::min(lo, counts[c]);
      hi = std::max(hi, counts[c]);
    }
    EXPECT_LE(hi - lo, 1) << "after " << m << " draws";
  }
}

TEST(CirculationTableTest, FirstDrawIsUniform) {
  std::map<NodeId, int> counts;
  constexpr int kTrials = 30000;
  std::vector<NodeId> candidates{1, 2, 3};
  for (int t = 0; t < kTrials; ++t) {
    util::Random rng(1000 + t);
    CirculationTable table;
    ++counts[table.Draw(kKey, candidates, rng)];
  }
  for (NodeId c : {1u, 2u, 3u}) {
    EXPECT_NEAR(counts[c] / static_cast<double>(kTrials), 1.0 / 3.0, 0.02);
  }
}

TEST(CirculationTableTest, SecondDrawUniformOverRemaining) {
  // Given the first draw, the second is uniform over the other two.
  std::map<NodeId, int> second_given_first_is_1;
  int first_is_1 = 0;
  std::vector<NodeId> candidates{1, 2, 3};
  for (int t = 0; t < 30000; ++t) {
    util::Random rng(5000 + t);
    CirculationTable table;
    NodeId first = table.Draw(kKey, candidates, rng);
    NodeId second = table.Draw(kKey, candidates, rng);
    EXPECT_NE(first, second);
    if (first == 1) {
      ++first_is_1;
      ++second_given_first_is_1[second];
    }
  }
  ASSERT_GT(first_is_1, 1000);
  EXPECT_NEAR(second_given_first_is_1[2] / static_cast<double>(first_is_1),
              0.5, 0.03);
}

TEST(CirculationTableTest, SingleCandidateAlwaysReturned) {
  util::Random rng(4);
  CirculationTable table;
  std::vector<NodeId> candidates{42};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(table.Draw(kKey, candidates, rng), 42u);
}

TEST(CirculationTableTest, RemainingDecrementsAndResets) {
  util::Random rng(5);
  CirculationTable table;
  std::vector<NodeId> candidates{1, 2, 3};
  table.Draw(kKey, candidates, rng);
  EXPECT_EQ(table.Remaining(kKey), 2u);
  table.Draw(kKey, candidates, rng);
  EXPECT_EQ(table.Remaining(kKey), 1u);
  table.Draw(kKey, candidates, rng);
  EXPECT_EQ(table.Remaining(kKey), 0u);
  table.Draw(kKey, candidates, rng);  // new round
  EXPECT_EQ(table.Remaining(kKey), 2u);
}

TEST(CirculationTableTest, LaterCallsIgnoreTheirCandidates) {
  // The list is copied once, on the first draw for a key.
  util::Random rng(6);
  CirculationTable table;
  std::vector<NodeId> first{1, 2, 3};
  std::vector<NodeId> other{8, 9};
  std::set<NodeId> seen{table.Draw(kKey, first, rng)};
  for (int i = 0; i < 29; ++i) seen.insert(table.Draw(kKey, other, rng));
  EXPECT_EQ(seen, (std::set<NodeId>{1, 2, 3}));
}

TEST(CirculationTableTest, ExcludedCandidateIsNeverDrawn) {
  // NB-CNRW's N(v) \ {u}: every occurrence of the excluded node is left out.
  util::Random rng(7);
  CirculationTable table;
  std::vector<NodeId> candidates{5, 6, 5, 7};
  std::set<NodeId> seen;
  for (int i = 0; i < 20; ++i) {
    seen.insert(table.Draw(kKey, candidates, rng, /*excluded=*/5));
  }
  EXPECT_EQ(seen, (std::set<NodeId>{6, 7}));
  table.Draw(kKey, candidates, rng, 5);
  EXPECT_EQ(table.Remaining(kKey), 1u);
}

TEST(CirculationTableTest, KeysAreIndependent) {
  util::Random rng(8);
  CirculationTable table;
  std::vector<NodeId> a{1, 2, 3}, b{4, 5};
  table.Draw(EdgeKey(1, 2), a, rng);
  EXPECT_EQ(table.Remaining(EdgeKey(1, 2)), 2u);
  EXPECT_FALSE(table.Contains(EdgeKey(2, 1)));
  table.Draw(EdgeKey(2, 1), b, rng);
  EXPECT_EQ(table.Remaining(EdgeKey(2, 1)), 1u);
  EXPECT_EQ(table.Remaining(EdgeKey(1, 2)), 2u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(CirculationTableTest, GrowthKeepsEveryKey) {
  // 100k keys force many index doublings and rehashes; every state must
  // still be found with its own progress.
  util::Random rng(9);
  CirculationTable table;
  std::vector<NodeId> candidates{1, 2, 3, 4};
  constexpr uint32_t kKeys = 100000;
  for (uint32_t k = 0; k < kKeys; ++k) {
    // Keys drawn once or twice, so Remaining tells them apart.
    uint64_t key = EdgeKey(k, k * 7 + 1);
    table.Draw(key, candidates, rng);
    if (k % 2 == 0) table.Draw(key, candidates, rng);
  }
  EXPECT_EQ(table.size(), kKeys);
  for (uint32_t k = 0; k < kKeys; ++k) {
    uint64_t key = EdgeKey(k, k * 7 + 1);
    ASSERT_TRUE(table.Contains(key)) << k;
    EXPECT_EQ(table.Remaining(key), k % 2 == 0 ? 2u : 3u) << k;
  }
  EXPECT_FALSE(table.Contains(EdgeKey(kKeys, 0)));
}

TEST(CirculationTableTest, EarlyStateSurvivesLaterChunks) {
  // The first state's order lives in the first chunk; many later chunks
  // must neither move nor overwrite it.
  util::Random rng(10);
  CirculationTable table;
  std::vector<NodeId> early{1, 2, 3, 4, 5, 6, 7, 8};
  std::set<NodeId> first_round;
  for (int i = 0; i < 3; ++i) first_round.insert(table.Draw(kKey, early, rng));

  std::vector<NodeId> filler(1000);
  std::iota(filler.begin(), filler.end(), 100);
  for (uint32_t k = 0; k < 2000; ++k) {
    table.Draw(EdgeKey(k + 10, 0), filler, rng);
  }
  ASSERT_GT(table.pool_blocks(), 100u);

  EXPECT_EQ(table.Remaining(kKey), 5u);
  for (int i = 0; i < 5; ++i) first_round.insert(table.Draw(kKey, early, rng));
  EXPECT_EQ(first_round, std::set<NodeId>(early.begin(), early.end()));
  std::set<NodeId> second_round;
  for (int i = 0; i < 8; ++i) second_round.insert(table.Draw(kKey, early, rng));
  EXPECT_EQ(second_round, first_round);
}

TEST(CirculationTableTest, OversizedListsGetTheirOwnBlock) {
  util::Random rng(11);
  CirculationTable table;
  constexpr uint32_t kQuarter = CirculationTable::kChunkNodes / 4;
  std::vector<NodeId> small{1, 2, 3};
  table.Draw(EdgeKey(1, 0), small, rng);
  EXPECT_EQ(table.pool_blocks(), 1u);
  EXPECT_EQ(table.pool_bytes(), CirculationTable::kChunkBytes);

  // A quarter chunk still fits the current chunk.
  std::vector<NodeId> quarter(kQuarter, 7);
  table.Draw(EdgeKey(2, 0), quarter, rng);
  EXPECT_EQ(table.pool_blocks(), 1u);

  // One more node and the list gets an exact block of its own...
  std::vector<NodeId> oversized(kQuarter + 1);
  std::iota(oversized.begin(), oversized.end(), 0);
  table.Draw(EdgeKey(3, 0), oversized, rng);
  EXPECT_EQ(table.pool_blocks(), 2u);
  EXPECT_EQ(table.pool_bytes(), CirculationTable::kChunkBytes +
                                    oversized.size() * sizeof(NodeId));

  // ...and the next small list still goes to the current chunk.
  table.Draw(EdgeKey(4, 0), small, rng);
  EXPECT_EQ(table.pool_blocks(), 2u);
  // The block holds the whole list: the rest of the first round (one
  // draw was made on creation) covers every candidate but that one.
  std::set<NodeId> seen;
  for (uint32_t i = 1; i < oversized.size(); ++i) {
    seen.insert(table.Draw(EdgeKey(3, 0), oversized, rng));
  }
  EXPECT_EQ(seen.size(), oversized.size() - 1);
  EXPECT_EQ(table.Remaining(EdgeKey(3, 0)), 0u);
}

TEST(CirculationTableTest, MemoryGrowsWithStatesAndResetReleasesIt) {
  util::Random rng(12);
  CirculationTable table;
  const uint64_t empty = table.MemoryBytes();
  std::vector<NodeId> candidates{1, 2, 3, 4, 5, 6, 7, 8};
  for (uint32_t k = 0; k < 100; ++k) table.Draw(k, candidates, rng);
  EXPECT_GT(table.MemoryBytes(), empty + 100 * 8 * sizeof(NodeId));
  table.Reset();
  EXPECT_EQ(table.MemoryBytes(), empty);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.Contains(0));
  // Usable again after Reset.
  table.Draw(0, candidates, rng);
  EXPECT_EQ(table.Remaining(0), 7u);
}

TEST(EdgeKeyTest, UniquePerDirectedEdge) {
  EXPECT_NE(EdgeKey(1, 2), EdgeKey(2, 1));
  EXPECT_EQ(EdgeKey(1, 2), EdgeKey(1, 2));
  EXPECT_NE(EdgeKey(0, 7), EdgeKey(7, 0));
}

}  // namespace
}  // namespace histwalk::core
