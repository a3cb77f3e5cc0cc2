#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <list>
#include <unordered_map>
#include <vector>

#include "access/history_cache.h"
#include "util/parallel.h"
#include "util/random.h"

namespace histwalk::access {
namespace {

std::vector<graph::NodeId> List(std::initializer_list<graph::NodeId> ids) {
  return std::vector<graph::NodeId>(ids);
}

// A neighbor list of `degree` entries.
std::vector<graph::NodeId> OfDegree(size_t degree) {
  return std::vector<graph::NodeId>(degree, 0);
}

// The mixed-length payload of node `v` in the concurrent tests: 1 + v % 40
// consecutive ids starting at v, so lengths straddle the level cap of 31
// and a torn or mismatched handle is detectable from its contents alone.
constexpr graph::NodeId kMaxRampLength = 40;
std::vector<graph::NodeId> Ramp(graph::NodeId v) {
  std::vector<graph::NodeId> list(1 + v % kMaxRampLength);
  for (size_t i = 0; i < list.size(); ++i) {
    list[i] = v + static_cast<graph::NodeId>(i);
  }
  return list;
}

// Counts the passes of the hand that resident `key` survives in a full
// two-slot, one-shard cache whose hand sits on `key` and whose other slot
// holds a one-element list: each Put of a fresh one-element list passes
// the hand over `key` once (decrementing its count) and evicts the filler
// behind it, until `key`'s count is worn down to zero and the next pass
// evicts `key` itself.
int PassesSurvived(HistoryCache& cache, graph::NodeId key,
                   graph::NodeId& next_filler) {
  for (int passes = 0; passes <= 64; ++passes) {
    cache.Put(next_filler++, List({0}));
    if (!cache.Contains(key)) return passes;
  }
  return -1;  // never evicted: the count is not bounded
}

TEST(HistoryCacheTest, GetMissThenPutThenHit) {
  HistoryCache cache({.capacity = 0, .num_shards = 4});
  EXPECT_EQ(cache.Get(7), nullptr);
  auto stored = cache.Put(7, List({1, 2, 3}));
  ASSERT_NE(stored, nullptr);
  auto entry = cache.Get(7);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(*entry, List({1, 2, 3}));
  HistoryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(HistoryCacheTest, EvictsUnreferencedEntriesClockOrder) {
  // One shard so the clock ring is global and fully observable. Entries
  // insert unreferenced; Get sets the reference bit, which buys exactly
  // one second chance when the sweeping hand passes.
  HistoryCache cache({.capacity = 3, .num_shards = 1});
  cache.Put(1, List({10}));
  cache.Put(2, List({20}));
  cache.Put(3, List({30}));
  // Touch 1: the hand will clear its bit and move on, evicting 2 instead.
  EXPECT_NE(cache.Get(1), nullptr);
  cache.Put(4, List({40}));  // evicts 2 (1 got its second chance)
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
  cache.Put(5, List({50}));  // hand sits on 3 (unreferenced): evicted next
  EXPECT_FALSE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.entry_count(), 3u);
}

TEST(HistoryCacheTest, PutIsIdempotentForResidentKeys) {
  HistoryCache cache({.capacity = 2, .num_shards = 1});
  auto first = cache.Put(9, List({1, 2}));
  auto second = cache.Put(9, List({1, 2}));
  EXPECT_EQ(first.get(), second.get());  // one copy, no double insert
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(HistoryCacheTest, EvictedEntryHandleStaysValid) {
  HistoryCache cache({.capacity = 1, .num_shards = 1});
  auto pinned = cache.Put(1, List({1, 2, 3}));
  cache.Put(2, List({4}));  // evicts 1
  EXPECT_FALSE(cache.Contains(1));
  // The handle still owns the data (buffer-pool pinning semantics).
  EXPECT_EQ(*pinned, List({1, 2, 3}));
}

TEST(HistoryCacheTest, ShardingIsDeterministic) {
  // Shard assignment is a pure function of (id, num_shards): stable within
  // a process, across processes and across platforms.
  for (uint32_t shards : {1u, 2u, 8u, 13u}) {
    for (graph::NodeId v = 0; v < 1000; ++v) {
      uint32_t s = HistoryCache::ShardOf(v, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, HistoryCache::ShardOf(v, shards));
    }
  }
  // The mix actually spreads consecutive ids (not all in one shard).
  std::vector<uint32_t> counts(8, 0);
  for (graph::NodeId v = 0; v < 800; ++v) {
    ++counts[HistoryCache::ShardOf(v, 8)];
  }
  for (uint32_t c : counts) {
    EXPECT_GT(c, 0u);
    EXPECT_LT(c, 800u);
  }
}

TEST(HistoryCacheTest, CapacitySplitsAcrossShards) {
  HistoryCache cache({.capacity = 8, .num_shards = 4});
  EXPECT_EQ(cache.shard_capacity(), 2u);
  // 100 distinct inserts can leave at most shard_capacity per shard.
  for (graph::NodeId v = 0; v < 100; ++v) cache.Put(v, List({v}));
  EXPECT_LE(cache.entry_count(), 8u);
  EXPECT_EQ(cache.stats().evictions, 100u - cache.entry_count());
}

TEST(HistoryCacheTest, MemoryBytesGrowAndClearResets) {
  HistoryCache cache({.capacity = 0, .num_shards = 2});
  EXPECT_EQ(cache.MemoryBytes(), 0u);
  cache.Put(1, List({1, 2, 3, 4, 5}));
  uint64_t one = cache.MemoryBytes();
  EXPECT_GT(one, 5 * sizeof(graph::NodeId));
  cache.Put(2, List({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_GT(cache.MemoryBytes(), one);
  cache.Clear();
  EXPECT_EQ(cache.MemoryBytes(), 0u);
  EXPECT_EQ(cache.entry_count(), 0u);
  // Cumulative counters survive a Clear (they describe the crawl, not the
  // resident set).
  EXPECT_EQ(cache.stats().insertions, 2u);
}

TEST(HistoryCacheTest, BoundedBytesUnderChurn) {
  HistoryCache bounded({.capacity = 16, .num_shards = 4});
  HistoryCache unbounded({.capacity = 0, .num_shards = 4});
  for (graph::NodeId v = 0; v < 500; ++v) {
    bounded.Put(v, List({v, v + 1, v + 2}));
    unbounded.Put(v, List({v, v + 1, v + 2}));
  }
  EXPECT_LT(bounded.MemoryBytes(), unbounded.MemoryBytes() / 10);
  EXPECT_EQ(unbounded.stats().evictions, 0u);
  EXPECT_GT(bounded.stats().evictions, 400u);
}

TEST(HistoryCacheTest, ConcurrentHitCountingIsExact) {
  HistoryCache cache({.capacity = 0, .num_shards = 8});
  constexpr uint32_t kNodes = 64;
  for (graph::NodeId v = 0; v < kNodes; ++v) cache.Put(v, List({v}));
  uint64_t misses_before = cache.stats().misses;

  constexpr size_t kTasks = 32;
  constexpr size_t kLookupsPerTask = 500;
  std::atomic<uint64_t> observed_hits{0};
  util::ParallelFor(kTasks, [&](size_t task) {
    uint64_t local = 0;
    for (size_t i = 0; i < kLookupsPerTask; ++i) {
      graph::NodeId v = static_cast<graph::NodeId>((task * 31 + i) % kNodes);
      if (cache.Get(v) != nullptr) ++local;
    }
    observed_hits.fetch_add(local);
  });

  // Every lookup hits (all keys resident, nothing evicts), and the shard
  // counters must agree exactly with what callers observed.
  EXPECT_EQ(observed_hits.load(), kTasks * kLookupsPerTask);
  HistoryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, kTasks * kLookupsPerTask);
  EXPECT_EQ(stats.misses, misses_before);
}

// Pins the documented stats() consistency guarantee: a snapshot taken WHILE
// writers insert and evict is not point-in-time across shards, but each
// shard is snapshotted atomically, so the per-shard identity
// entries == insertions - evictions survives aggregation, the capacity
// bound holds, and cumulative counters are monotone between snapshots.
TEST(HistoryCacheTest, StatsSnapshotConsistentUnderConcurrentWriters) {
  HistoryCache cache({.capacity = 32, .num_shards = 4});
  constexpr size_t kWriters = 8;
  constexpr size_t kReaderTask = kWriters;  // one extra task snapshots
  constexpr size_t kPutsPerWriter = 4000;
  const uint64_t max_resident =
      uint64_t{cache.num_shards()} * cache.shard_capacity();

  std::atomic<bool> writers_running{true};
  std::atomic<size_t> writers_done{0};
  std::atomic<uint64_t> snapshots_taken{0};
  util::ParallelFor(
      kWriters + 1,
      [&](size_t task) {
        if (task == kReaderTask) {
          // At least one snapshot even if scheduling ran the writers first;
          // in the common interleaving this loop races them continuously.
          HistoryCacheStats prev;
          do {
            HistoryCacheStats snap = cache.stats();
            // The load-bearing identity, mid-churn.
            ASSERT_EQ(snap.entries, snap.insertions - snap.evictions);
            ASSERT_LE(snap.entries, max_resident);
            // Cumulative counters only grow.
            ASSERT_GE(snap.hits, prev.hits);
            ASSERT_GE(snap.misses, prev.misses);
            ASSERT_GE(snap.insertions, prev.insertions);
            ASSERT_GE(snap.evictions, prev.evictions);
            prev = snap;
            snapshots_taken.fetch_add(1, std::memory_order_relaxed);
          } while (writers_running.load(std::memory_order_acquire));
          return;
        }
        for (size_t i = 0; i < kPutsPerWriter; ++i) {
          graph::NodeId v =
              static_cast<graph::NodeId>((task * 131 + i * 7) % 512);
          if (i % 3 == 0) {
            cache.Get(v);
          } else {
            cache.Put(v, List({v, v + 1}));
          }
        }
        // Last writer out releases the reader.
        if (writers_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            kWriters) {
          writers_running.store(false, std::memory_order_release);
        }
      },
      /*num_threads=*/kWriters + 1);

  EXPECT_GT(snapshots_taken.load(), 0u);
  // Quiescent state: the same identities hold exactly.
  HistoryCacheStats final_stats = cache.stats();
  EXPECT_EQ(final_stats.entries,
            final_stats.insertions - final_stats.evictions);
  EXPECT_LE(final_stats.entries, max_resident);
}

TEST(HistoryCacheTest, PutReportsWhetherEntryWasNew) {
  HistoryCache cache({.capacity = 0, .num_shards = 2});
  bool inserted = false;
  cache.Put(1, List({2, 3}), &inserted);
  EXPECT_TRUE(inserted);
  cache.Put(1, List({2, 3}), &inserted);
  EXPECT_FALSE(inserted);  // resident: the journaling layer must not relog
  cache.Put(2, List({1}), &inserted);
  EXPECT_TRUE(inserted);
}

TEST(HistoryCacheTest, ExportShardReadsClockOrderFromHand) {
  // The export contract since the clock redesign: entries come out in ring
  // order starting at the hand (next eviction candidate first). A Get no
  // longer reorders anything — recency lives in reference bits, which are
  // deliberately not exported.
  HistoryCache cache({.capacity = 0, .num_shards = 1});
  cache.Put(1, List({10}));
  cache.Put(2, List({20}));
  cache.Put(3, List({30}));
  EXPECT_NE(cache.Get(1), nullptr);  // marks 1's ref bit; order unchanged
  std::vector<HistoryCache::ExportedEntry> exported = cache.ExportShard(0);
  ASSERT_EQ(exported.size(), 3u);
  EXPECT_EQ(exported[0].node, 1u);
  EXPECT_EQ(exported[1].node, 2u);
  EXPECT_EQ(exported[2].node, 3u);
  EXPECT_EQ(*exported[0].neighbors, List({10}));

  // In a full bounded shard the hand moves with evictions, and the export
  // rotates with it: the next victim always leads.
  HistoryCache bounded({.capacity = 3, .num_shards = 1});
  bounded.Put(1, List({10}));
  bounded.Put(2, List({20}));
  bounded.Put(3, List({30}));
  bounded.Put(4, List({40}));  // evicts 1, hand now on ring slot of 2
  std::vector<HistoryCache::ExportedEntry> rotated = bounded.ExportShard(0);
  ASSERT_EQ(rotated.size(), 3u);
  EXPECT_EQ(rotated[0].node, 2u);  // next eviction candidate first
  EXPECT_EQ(rotated[1].node, 3u);
  EXPECT_EQ(rotated[2].node, 4u);
}

TEST(HistoryCacheTest, ExportThenBulkPutReconstructsClockOrder) {
  HistoryCache source({.capacity = 0, .num_shards = 1});
  source.Put(1, List({10}));
  source.Put(2, List({20}));
  source.Put(3, List({30}));
  EXPECT_NE(source.Get(2), nullptr);  // ref bit only; ring order stays 1,2,3

  std::vector<HistoryCache::ExportedEntry> exported = source.ExportShard(0);
  std::vector<HistoryCache::ImportEntry> imports;
  for (const auto& e : exported) {
    imports.push_back({e.node, std::span<const graph::NodeId>(*e.neighbors)});
  }
  // Replay into a cache too small for everything: the victim must be the
  // entry the source's hand would reach first (node 1 — unreferenced and
  // at the front of the exported clock order).
  HistoryCache bounded({.capacity = 2, .num_shards = 1});
  bounded.BulkPut(imports);
  EXPECT_FALSE(bounded.Contains(1));
  EXPECT_TRUE(bounded.Contains(3));
  EXPECT_TRUE(bounded.Contains(2));

  // Replay into a same-shape cache: contents and order round-trip exactly.
  HistoryCache restored({.capacity = 0, .num_shards = 1});
  EXPECT_EQ(restored.BulkPut(imports), 3u);
  std::vector<HistoryCache::ExportedEntry> replayed = restored.ExportShard(0);
  ASSERT_EQ(replayed.size(), exported.size());
  for (size_t i = 0; i < exported.size(); ++i) {
    EXPECT_EQ(replayed[i].node, exported[i].node);
    EXPECT_EQ(*replayed[i].neighbors, *exported[i].neighbors);
  }
  EXPECT_EQ(restored.stats().insertions, 3u);
  EXPECT_EQ(restored.stats().entries, 3u);
}

TEST(HistoryCacheTest, BulkPutIsIdempotentAndCountsNewEntriesOnly) {
  HistoryCache cache({.capacity = 0, .num_shards = 4});
  std::vector<graph::NodeId> a = List({1, 2});
  std::vector<graph::NodeId> b = List({3});
  std::vector<HistoryCache::ImportEntry> imports = {
      {10, std::span<const graph::NodeId>(a)},
      {11, std::span<const graph::NodeId>(b)},
      {10, std::span<const graph::NodeId>(a)},  // duplicate within the batch
  };
  EXPECT_EQ(cache.BulkPut(imports), 2u);
  EXPECT_EQ(cache.BulkPut(imports), 0u);  // all resident now
  EXPECT_EQ(cache.stats().insertions, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(HistoryCacheTest, ExportShardIsConsistentUnderConcurrentWriters) {
  HistoryCache cache({.capacity = 0, .num_shards = 4});
  constexpr uint32_t kWriters = 4;
  constexpr graph::NodeId kPerWriter = 500;
  std::atomic<bool> stop{false};
  std::vector<std::vector<HistoryCache::ExportedEntry>> exports;
  util::ParallelFor(kWriters + 1, [&](size_t task) {
    if (task < kWriters) {
      for (graph::NodeId i = 0; i < kPerWriter; ++i) {
        graph::NodeId v = static_cast<graph::NodeId>(task) * kPerWriter + i;
        cache.Put(v, List({v, v + 1}));
      }
      stop.store(true, std::memory_order_relaxed);
    } else {
      // Export every shard repeatedly while the writers run; every view
      // must be internally consistent (ids unique, payloads correct).
      while (!stop.load(std::memory_order_relaxed)) {
        for (uint32_t s = 0; s < cache.num_shards(); ++s) {
          exports.push_back(cache.ExportShard(s));
        }
      }
    }
  });
  for (const auto& view : exports) {
    std::vector<bool> seen(kWriters * kPerWriter, false);
    for (const auto& e : view) {
      ASSERT_LT(e.node, kWriters * kPerWriter);
      EXPECT_FALSE(seen[e.node]) << "duplicate node in one shard export";
      seen[e.node] = true;
      EXPECT_EQ(*e.neighbors, List({e.node, e.node + 1}));
    }
  }
}

TEST(HistoryCacheTest, ZeroShardOptionClampsToOne) {
  HistoryCache cache({.capacity = 2, .num_shards = 0});
  EXPECT_EQ(cache.num_shards(), 1u);
  cache.Put(1, List({1}));
  EXPECT_TRUE(cache.Contains(1));
}

// The documented no-side-effects guarantee: Contains and stats must not
// perturb hit/miss counters OR the clock state. If Contains marked the
// reference bit, probing a would-be victim would grant it a second chance
// and shift the eviction onto its neighbor.
TEST(HistoryCacheTest, ContainsAndStatsAreSideEffectFree) {
  HistoryCache cache({.capacity = 2, .num_shards = 1});
  cache.Put(1, List({10}));
  cache.Put(2, List({20}));
  HistoryCacheStats before = cache.stats();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(cache.Contains(1));
    EXPECT_FALSE(cache.Contains(99));
    (void)cache.stats();
  }
  HistoryCacheStats after = cache.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  // Node 1 is the hand's next victim; 100 Contains probes must not have
  // made it look recently used.
  cache.Put(3, List({30}));
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(HistoryCacheTest, GetBatchMatchesSingleGetSemantics) {
  HistoryCache cache({.capacity = 0, .num_shards = 4});
  for (graph::NodeId v = 0; v < 16; ++v) cache.Put(v, List({v, v + 1}));

  // Mixed hits and misses across shards, duplicates included.
  std::vector<graph::NodeId> ids = {3, 100, 7, 3, 200, 15, 0};
  std::vector<HistoryCache::Entry> out(ids.size());
  cache.GetBatch(ids, out.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < 16) {
      ASSERT_NE(out[i], nullptr) << "id " << ids[i];
      EXPECT_EQ(*out[i], List({ids[i], ids[i] + 1}));
    } else {
      EXPECT_EQ(out[i], nullptr);
    }
  }
  // Accounting identical to one-at-a-time Gets: 5 hits, 2 misses.
  HistoryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.misses, 2u);

  // The batch marked reference bits just like Get would: a batch-touched
  // entry survives the sweep in a bounded shard.
  HistoryCache bounded({.capacity = 2, .num_shards = 1});
  bounded.Put(1, List({1}));
  bounded.Put(2, List({2}));
  std::vector<graph::NodeId> touch = {1};
  std::vector<HistoryCache::Entry> touched(1);
  bounded.GetBatch(touch, touched.data());
  bounded.Put(3, List({3}));  // hand skips referenced 1, evicts 2
  EXPECT_TRUE(bounded.Contains(1));
  EXPECT_FALSE(bounded.Contains(2));
}

TEST(HistoryCacheTest, PutBatchReturnsHandlesAndInsertedFlags) {
  HistoryCache cache({.capacity = 0, .num_shards = 4});
  cache.Put(11, List({5}));  // resident before the batch

  std::vector<graph::NodeId> a = List({1, 2});
  std::vector<graph::NodeId> b = List({3});
  std::vector<HistoryCache::ImportEntry> imports = {
      {10, std::span<const graph::NodeId>(a)},
      {11, std::span<const graph::NodeId>(b)},  // loses to the resident copy
      {12, std::span<const graph::NodeId>(b)},
      {10, std::span<const graph::NodeId>(a)},  // duplicate within the batch
  };
  std::vector<HistoryCache::Entry> out(imports.size());
  bool inserted[4] = {};
  EXPECT_EQ(cache.PutBatch(imports, out.data(), inserted), 2u);
  EXPECT_TRUE(inserted[0]);
  EXPECT_FALSE(inserted[1]);
  EXPECT_TRUE(inserted[2]);
  EXPECT_FALSE(inserted[3]);
  EXPECT_EQ(*out[0], List({1, 2}));
  EXPECT_EQ(*out[1], List({5}));  // Put semantics: resident copy wins
  EXPECT_EQ(*out[2], List({3}));
  EXPECT_EQ(out[0].get(), out[3].get());  // duplicate got the same block
  EXPECT_EQ(cache.stats().insertions, 3u);
  EXPECT_EQ(cache.stats().entries, 3u);
}

// Clock vs strict LRU: on a skewed (zipf-ish) hit-heavy key stream the
// second-chance approximation must track strict LRU's hit rate within a
// small band — the whole justification for trading the splice away.
TEST(HistoryCacheTest, ClockHitRateTracksStrictLruWithinBand) {
  // Minimal strict-LRU reference (the pre-clock design, single shard).
  struct StrictLru {
    size_t capacity;
    std::list<graph::NodeId> lru;  // front = most recently used
    std::unordered_map<graph::NodeId, std::list<graph::NodeId>::iterator> map;
    uint64_t hits = 0, lookups = 0;
    bool GetOrInsert(graph::NodeId v) {
      ++lookups;
      auto it = map.find(v);
      if (it != map.end()) {
        ++hits;
        lru.splice(lru.begin(), lru, it->second);
        return true;
      }
      if (map.size() >= capacity) {
        map.erase(lru.back());
        lru.pop_back();
      }
      lru.push_front(v);
      map[v] = lru.begin();
      return false;
    }
  };

  constexpr size_t kCapacity = 128;
  constexpr uint32_t kKeys = 1024;
  StrictLru lru{kCapacity};
  HistoryCache clock_cache({.capacity = kCapacity, .num_shards = 1});

  // Zipf-ish skew: key = kKeys * u^5 concentrates mass on low ids —
  // ~2/3 of draws land inside the 128-key working set — giving a
  // hit-heavy stream at capacity/keys = 1/8.
  util::Random rng(1234);
  for (int i = 0; i < 200000; ++i) {
    double u = rng.UniformDouble();
    graph::NodeId v = static_cast<graph::NodeId>(
        static_cast<double>(kKeys - 1) * u * u * u * u * u);
    lru.GetOrInsert(v);
    if (clock_cache.Get(v) == nullptr) {
      clock_cache.Put(v, List({v}));
    }
  }
  double lru_rate =
      static_cast<double>(lru.hits) / static_cast<double>(lru.lookups);
  double clock_rate = clock_cache.stats().HitRate();
  EXPECT_GT(lru_rate, 0.5);  // the stream really is hit-heavy
  EXPECT_NEAR(clock_rate, lru_rate, 0.05);
}

// Degree-weighted retention: an entry's level is its list length, capped
// at 31. An un-hit entry of degree d starts at count d - 1 and survives
// exactly d - 1 passes of the hand; a one-element list is plain CLOCK.
TEST(HistoryCacheTest, UnhitEntrySurvivesDegreeMinusOnePasses) {
  for (size_t degree : {1u, 2u, 3u, 7u, 31u, 40u, 500u}) {
    HistoryCache cache({.capacity = 2, .num_shards = 1});
    cache.Put(1, OfDegree(degree));
    cache.Put(2, List({0}));  // ring [1, 2], hand on 1
    graph::NodeId filler = 100;
    const int level = static_cast<int>(std::min<size_t>(degree, 31));
    EXPECT_EQ(PassesSurvived(cache, 1, filler), level - 1)
        << "degree " << degree;
  }
}

TEST(HistoryCacheTest, HitRestoresEntryToItsLevel) {
  for (graph::NodeId degree : {1u, 5u, 31u, 64u}) {
    const int level = static_cast<int>(std::min<graph::NodeId>(degree, 31));
    HistoryCache cache({.capacity = 2, .num_shards = 1});
    cache.Put(1, OfDegree(degree));
    cache.Put(2, List({0}));
    graph::NodeId filler = 100;
    // Wear the count down to zero (level - 1 passes), then hit: the count
    // goes back to the full level, one more than at insert.
    for (int pass = 0; pass < level - 1; ++pass) {
      cache.Put(filler++, List({0}));
      ASSERT_TRUE(cache.Contains(1)) << "degree " << degree;
    }
    EXPECT_NE(cache.Get(1), nullptr);
    EXPECT_EQ(PassesSurvived(cache, 1, filler), level) << "degree " << degree;

    // A resident Put is a touch too, and repeated hits do not stack past
    // the level.
    HistoryCache touched({.capacity = 2, .num_shards = 1});
    touched.Put(1, OfDegree(degree));
    touched.Put(2, List({0}));
    for (int i = 0; i < 3; ++i) EXPECT_NE(touched.Get(1), nullptr);
    bool inserted = true;
    touched.Put(1, OfDegree(degree), &inserted);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(PassesSurvived(touched, 1, filler), level)
        << "degree " << degree;
  }
}

// The sweep's bound: with every slot at the top level the hand decrements
// each slot 31 times before the first one reaches zero, so one eviction
// costs exactly 31 laps — and still happens.
TEST(HistoryCacheTest, ShardAtTopLevelStillEvictsAfterBoundedSweep) {
  constexpr uint64_t kCapacity = 4;
  HistoryCache cache({.capacity = kCapacity, .num_shards = 1});
  for (graph::NodeId v = 0; v < kCapacity; ++v) {
    cache.Put(v, OfDegree(100));
    EXPECT_NE(cache.Get(v), nullptr);  // count 31 everywhere
  }
  bool inserted = false;
  cache.Put(99, List({0}), &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_FALSE(cache.Contains(0));  // the hand's first slot went first
  for (graph::NodeId v = 1; v < kCapacity; ++v) EXPECT_TRUE(cache.Contains(v));
  EXPECT_EQ(cache.stats().evictions, 1u);
  HistoryCacheShardHeat heat = cache.shard_heat(0);
  EXPECT_EQ(heat.evictions, 1u);
  EXPECT_EQ(heat.sweep.count, 1u);
  EXPECT_EQ(heat.sweep.max, 31 * kCapacity);
}

// Reference counts are not persisted: a snapshot replay through BulkPut
// reseeds each from its list length (level - 1), whether the source entry
// had just been hit or had been worn down to zero by the hand.
TEST(HistoryCacheTest, BulkPutReseedsCountsFromListLength) {
  constexpr size_t kDegree = 4;
  auto replay_passes = [](const HistoryCache& source) {
    std::vector<HistoryCache::ExportedEntry> exported = source.ExportShard(0);
    std::vector<HistoryCache::ImportEntry> imports;
    for (const auto& e : exported) {
      if (e.node != 1) continue;  // the degree-4 entry alone
      imports.push_back({e.node, std::span<const graph::NodeId>(*e.neighbors)});
    }
    HistoryCache restored({.capacity = 2, .num_shards = 1});
    EXPECT_EQ(restored.BulkPut(imports), 1u);
    restored.Put(2, List({0}));  // ring [1, 2], hand on 1
    graph::NodeId filler = 100;
    return PassesSurvived(restored, 1, filler);
  };

  HistoryCache hit_source({.capacity = 0, .num_shards = 1});
  hit_source.Put(1, OfDegree(kDegree));
  EXPECT_NE(hit_source.Get(1), nullptr);  // count at the level, 4
  EXPECT_EQ(replay_passes(hit_source), static_cast<int>(kDegree) - 1);

  HistoryCache worn_source({.capacity = 2, .num_shards = 1});
  worn_source.Put(1, OfDegree(kDegree));
  worn_source.Put(2, List({0}));
  graph::NodeId filler = 100;
  for (size_t pass = 0; pass + 1 < kDegree; ++pass) {
    worn_source.Put(filler++, List({0}));
  }
  ASSERT_TRUE(worn_source.Contains(1));  // count worn down to 0
  EXPECT_EQ(replay_passes(worn_source), static_cast<int>(kDegree) - 1);
}

// Why the weight: a walk with pi ~ deg comes back to a node in proportion
// to its degree. On a key stream drawn with probability proportional to
// each key's list length, the degree-weighted cache must beat plain
// one-bit CLOCK (kept here as a reference) by a tenth of its hit rate,
// and with one-element lists it must BE plain CLOCK, hit for hit.
TEST(HistoryCacheTest, DegreeWeightedClockBeatsOneBitClockOnStationaryStream) {
  // One-bit second-chance CLOCK: the previous policy, single shard.
  struct OneBitClock {
    explicit OneBitClock(size_t c) : capacity(c) {}
    size_t capacity;
    std::vector<graph::NodeId> keys;
    std::vector<uint8_t> ref;
    std::unordered_map<graph::NodeId, size_t> slot_of;
    size_t hand = 0;
    uint64_t hits = 0, lookups = 0;
    void GetOrInsert(graph::NodeId v) {
      ++lookups;
      auto it = slot_of.find(v);
      if (it != slot_of.end()) {
        ++hits;
        ref[it->second] = 1;
        return;
      }
      if (keys.size() < capacity) {
        slot_of[v] = keys.size();
        keys.push_back(v);
        ref.push_back(0);
        return;
      }
      while (ref[hand] != 0) {
        ref[hand] = 0;
        hand = (hand + 1) % capacity;
      }
      slot_of.erase(keys[hand]);
      keys[hand] = v;
      slot_of[v] = hand;
      hand = (hand + 1) % capacity;
    }
  };

  constexpr size_t kCapacity = 128;
  constexpr uint32_t kKeys = 1024;
  // Heavy-tailed degrees: most keys have a handful of neighbors, a few
  // have dozens. Draws are proportional to degree via the cumulative sum.
  util::Random rng(4321);
  std::vector<size_t> degree(kKeys);
  std::vector<double> cumulative(kKeys);
  double total = 0.0;
  for (uint32_t k = 0; k < kKeys; ++k) {
    double u = rng.UniformDouble();
    degree[k] = 1 + static_cast<size_t>(40.0 * u * u * u);
    total += static_cast<double>(degree[k]);
    cumulative[k] = total;
  }

  OneBitClock reference(kCapacity);
  HistoryCache weighted({.capacity = kCapacity, .num_shards = 1});
  HistoryCache unit({.capacity = kCapacity, .num_shards = 1});
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.UniformDouble() * total;
    const graph::NodeId v = static_cast<graph::NodeId>(
        std::upper_bound(cumulative.begin(), cumulative.end(), x) -
        cumulative.begin());
    ASSERT_LT(v, kKeys);
    reference.GetOrInsert(v);
    if (weighted.Get(v) == nullptr) weighted.Put(v, OfDegree(degree[v]));
    if (unit.Get(v) == nullptr) unit.Put(v, List({v}));
  }
  // Level 1 everywhere is exactly the one-bit policy.
  EXPECT_EQ(unit.stats().hits, reference.hits);
  const double clock_rate = static_cast<double>(reference.hits) /
                            static_cast<double>(reference.lookups);
  const double weighted_rate = weighted.stats().HitRate();
  // Measured: 0.300 against 0.252. Ask for a tenth more hits.
  EXPECT_GT(weighted_rate, 1.1 * clock_rate)
      << "weighted " << weighted_rate << " vs one-bit " << clock_rate;
}

// Concurrent Get/Put/Clear/ExportShard stress on the lock-light design:
// stats identities modulo Clear, every export internally consistent, and
// no pinned handle ever observes freed or corrupt payload. Lists of mixed
// lengths (1 to 40) give the entries every retention level, so concurrent
// hits race the hand's decrements at every count.
TEST(HistoryCacheTest, ConcurrentGetPutClearExportStress) {
  HistoryCache cache({.capacity = 64, .num_shards = 4});
  constexpr uint32_t kKeys = 512;
  constexpr size_t kWorkers = 8;
  std::atomic<bool> stop{false};
  std::atomic<size_t> workers_done{0};
  std::atomic<uint64_t> validated_handles{0};

  // One thread per task: the exporter and clearer spin/run alongside every
  // churn worker instead of queueing behind them.
  util::ParallelFor(kWorkers + 2, [&](size_t task) {
    if (task == kWorkers) {
      // Exporter: every snapshot must be internally consistent mid-churn.
      while (!stop.load(std::memory_order_relaxed)) {
        for (uint32_t s = 0; s < cache.num_shards(); ++s) {
          auto view = cache.ExportShard(s);
          std::vector<bool> seen(kKeys, false);
          for (const auto& e : view) {
            ASSERT_LT(e.node, kKeys);
            ASSERT_FALSE(seen[e.node]);
            seen[e.node] = true;
            ASSERT_EQ(*e.neighbors, Ramp(e.node));
          }
        }
      }
      return;
    }
    if (task == kWorkers + 1) {
      // Clearer: wipes the cache a few times mid-run.
      for (int i = 0; i < 3; ++i) {
        cache.Clear();
        HistoryCacheStats snap = cache.stats();
        // Identity relaxes to <= after Clear re-baselines it.
        ASSERT_LE(snap.entries, snap.insertions - snap.evictions);
      }
      return;
    }
    util::Random rng(static_cast<uint64_t>(task) * 77 + 1);
    uint64_t local_validated = 0;
    HistoryCache::Entry pinned[4];
    for (int i = 0; i < 20000; ++i) {
      graph::NodeId v = static_cast<graph::NodeId>(rng.UniformInt(kKeys));
      HistoryCache::Entry entry = cache.Get(v);
      if (entry == nullptr) {
        entry = cache.Put(v, Ramp(v));
      }
      ASSERT_NE(entry, nullptr);
      // Retain a few handles across further churn, then validate their
      // payload still reads back intact (pinning survives eviction/Clear).
      pinned[i % 4] = std::move(entry);
      const HistoryCache::Entry& check = pinned[(i + 2) % 4];
      if (check != nullptr) {
        const graph::NodeId first = (*check)[0];
        ASSERT_EQ(check->size(), 1 + first % kMaxRampLength);
        for (size_t j = 1; j < check->size(); ++j) {
          ASSERT_EQ((*check)[j], first + j);
        }
        ++local_validated;
      }
    }
    validated_handles.fetch_add(local_validated, std::memory_order_relaxed);
    // Last churn worker out releases the exporter.
    if (workers_done.fetch_add(1, std::memory_order_acq_rel) + 1 == kWorkers) {
      stop.store(true, std::memory_order_release);
    }
  },
  /*num_threads=*/kWorkers + 2);

  EXPECT_GT(validated_handles.load(), 0u);
  HistoryCacheStats final_stats = cache.stats();
  EXPECT_LE(final_stats.entries,
            uint64_t{cache.num_shards()} * cache.shard_capacity());
  // Counters stayed exact through the churn: every lookup was either a hit
  // or a miss, and misses were followed by a Put attempt.
  EXPECT_EQ(final_stats.hits + final_stats.misses,
            uint64_t{kWorkers} * 20000);
}

}  // namespace
}  // namespace histwalk::access
