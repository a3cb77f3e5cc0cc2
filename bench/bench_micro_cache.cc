// Microbenchmarks (M2): the history-cache subsystem. Raw shard-local
// Get/Put cost, then full 8-walker ensembles at several cache capacities —
// making the section 3.3 space/queries trade measurable: a smaller cache
// evicts more, re-fetches more (higher charged cost), but caps
// history_bytes. Counters report hit rate, evictions, charged vs standalone
// queries and resident bytes per capacity setting.
//
// The BM_Contended* family is the tracked perf trajectory (BENCH_cache.json
// via scripts/bench_report.py): N threads hammering a hit-heavy zipf key
// stream, measured against SpliceLruCache — a verbatim copy of the
// pre-clock splice-under-mutex design — so the read-path speedup of the
// striped clock cache stays measurable forever, not just in the PR that
// introduced it.

#include <benchmark/benchmark.h>

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "access/graph_access.h"
#include "access/history_cache.h"
#include "access/shared_access.h"
#include "api/sampler.h"
#include "core/walker_factory.h"
#include "experiment/datasets.h"
#include "util/random.h"

namespace {

using namespace histwalk;

const experiment::Dataset& FixtureDataset() {
  static const experiment::Dataset* dataset = new experiment::Dataset(
      experiment::BuildDataset(experiment::DatasetId::kFacebook));
  return *dataset;
}

// Raw cache ops: hit path (Get of a resident key, LRU splice under the
// shard lock).
void BM_CacheGetHit(benchmark::State& state) {
  const experiment::Dataset& dataset = FixtureDataset();
  access::HistoryCache cache({.capacity = 0, .num_shards = 8});
  uint64_t n = dataset.graph.num_nodes();
  for (graph::NodeId v = 0; v < n; ++v) {
    cache.Put(v, dataset.graph.Neighbors(v));
  }
  util::Random rng(7);
  for (auto _ : state) {
    auto entry = cache.Get(static_cast<graph::NodeId>(rng.UniformIndex(n)));
    benchmark::DoNotOptimize(entry);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["hit_rate"] = cache.stats().HitRate();
}

// Churn path: Put into a full cache, paying one eviction per insert.
void BM_CachePutEvict(benchmark::State& state) {
  const experiment::Dataset& dataset = FixtureDataset();
  uint64_t capacity = static_cast<uint64_t>(state.range(0));
  access::HistoryCache cache({.capacity = capacity, .num_shards = 8});
  uint64_t n = dataset.graph.num_nodes();
  util::Random rng(7);
  for (auto _ : state) {
    graph::NodeId v = static_cast<graph::NodeId>(rng.UniformIndex(n));
    auto entry = cache.Put(v, dataset.graph.Neighbors(v));
    benchmark::DoNotOptimize(entry);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["evictions"] =
      static_cast<double>(cache.stats().evictions);
  state.counters["resident_bytes"] =
      static_cast<double>(cache.MemoryBytes());
}

BENCHMARK(BM_CachePutEvict)->Arg(64)->Arg(256);
BENCHMARK(BM_CacheGetHit);

// End-to-end: 8 concurrent CNRW walkers over one shared cache, assembled
// through the api/ facade. Arg 0 is the unbounded seed behaviour; 64 and
// 256 bound the history. charged vs standalone queries quantifies what the
// bound costs in re-fetches.
void BM_EnsembleCacheBounded(benchmark::State& state) {
  const experiment::Dataset& dataset = FixtureDataset();
  uint64_t capacity = static_cast<uint64_t>(state.range(0));
  double hit_rate = 0.0, evictions = 0.0, charged = 0.0, standalone = 0.0;
  double bytes = 0.0;
  for (auto _ : state) {
    auto sampler = api::SamplerBuilder()
                       .OverGraph(&dataset.graph, &dataset.attributes)
                       .WithCache({.capacity = capacity, .num_shards = 8})
                       .RunInline()
                       .WithWalker({.type = core::WalkerType::kCnrw})
                       .WithEnsemble(/*num_walkers=*/8, /*seed=*/42)
                       .StopAfterSteps(2000)
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
      state.SkipWithError("ensemble failed");
      return;
    }
    benchmark::DoNotOptimize(result->ensemble.num_steps());
    hit_rate = result->ensemble.cache_stats.HitRate();
    evictions = static_cast<double>(result->ensemble.cache_stats.evictions);
    charged = static_cast<double>(result->charged_queries);
    standalone =
        static_cast<double>(result->ensemble.summed_stats.unique_queries);
    bytes = static_cast<double>(result->ensemble.history_bytes);
  }
  state.SetItemsProcessed(state.iterations() * 8 * 2000);
  state.counters["hit_rate"] = hit_rate;
  state.counters["evictions"] = evictions;
  state.counters["charged_queries"] = charged;
  state.counters["standalone_queries"] = standalone;
  state.counters["history_bytes"] = bytes;
}

BENCHMARK(BM_EnsembleCacheBounded)->Arg(0)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- contended perf trajectory ---------------------------------------------

// Verbatim reproduction of the pre-clock HistoryCache hot path (PR 1-5
// design): striped shards, each a std::mutex + LRU list + map, every Get
// taking the exclusive lock to splice the touched node to the front. Kept
// here as the fixed baseline the clock design is measured against.
class SpliceLruCache {
 public:
  using Entry = std::shared_ptr<const std::vector<graph::NodeId>>;

  SpliceLruCache(uint64_t capacity, uint32_t num_shards)
      : num_shards_(num_shards == 0 ? 1 : num_shards) {
    shard_capacity_ =
        capacity == 0 ? 0 : (capacity + num_shards_ - 1) / num_shards_;
    shards_ = std::make_unique<Shard[]>(num_shards_);
  }

  Entry Get(graph::NodeId v) {
    Shard& shard = shards_[ShardOf(v)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(v);
    if (it == shard.map.end()) return Entry();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    return it->second.entry;
  }

  Entry Put(graph::NodeId v, std::span<const graph::NodeId> neighbors) {
    Shard& shard = shards_[ShardOf(v)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(v);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
      return it->second.entry;
    }
    if (shard_capacity_ != 0 && shard.map.size() >= shard_capacity_) {
      graph::NodeId victim = shard.lru.back();
      shard.lru.pop_back();
      shard.map.erase(victim);
    }
    auto entry = std::make_shared<const std::vector<graph::NodeId>>(
        neighbors.begin(), neighbors.end());
    shard.lru.push_front(v);
    shard.map.emplace(v, Slot{entry, shard.lru.begin()});
    return entry;
  }

 private:
  struct Slot {
    Entry entry;
    std::list<graph::NodeId>::iterator lru_pos;
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<graph::NodeId, Slot> map;
    std::list<graph::NodeId> lru;
  };

  uint32_t ShardOf(graph::NodeId v) const {
    uint64_t h = static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
    return static_cast<uint32_t>(h % num_shards_);
  }

  uint32_t num_shards_;
  uint64_t shard_capacity_;
  std::unique_ptr<Shard[]> shards_;
};

constexpr uint32_t kContendedKeys = 4096;
constexpr size_t kContendedDegree = 16;
constexpr size_t kContendedBatch = 64;
constexpr size_t kStreamLen = 1 << 16;

// Zipf-ish skew shared by all contended benchmarks: kKeys * u^5
// concentrates the stream on a small hot set, so almost every access is a
// hit — the regime where the old design serializes reads on the splice.
// Streams are pregenerated per thread so the timed region measures cache
// work, not the PRNG, for the old and new designs alike.
std::vector<graph::NodeId> ZipfStream(uint64_t seed) {
  util::Random rng(seed);
  std::vector<graph::NodeId> stream(kStreamLen);
  for (graph::NodeId& v : stream) {
    double u = rng.UniformDouble();
    v = static_cast<graph::NodeId>(static_cast<double>(kContendedKeys - 1) *
                                   u * u * u * u * u);
  }
  return stream;
}

std::vector<graph::NodeId> ContendedPayload(graph::NodeId v) {
  std::vector<graph::NodeId> neighbors(kContendedDegree);
  for (size_t i = 0; i < kContendedDegree; ++i) {
    neighbors[i] = static_cast<graph::NodeId>(v + i);
  }
  return neighbors;
}

// Hit path under contention, clock design: shared lock + flat-index probe +
// atomic reference count, one Get per step.
void BM_ContendedGetHitClock(benchmark::State& state) {
  static access::HistoryCache* cache = nullptr;
  if (state.thread_index() == 0) {
    cache = new access::HistoryCache({.capacity = 0, .num_shards = 8});
    for (graph::NodeId v = 0; v < kContendedKeys; ++v) {
      cache->Put(v, ContendedPayload(v));
    }
  }
  const std::vector<graph::NodeId> stream =
      ZipfStream(100 + static_cast<uint64_t>(state.thread_index()));
  size_t i = 0;
  for (auto _ : state) {
    auto entry = cache->Get(stream[i]);
    benchmark::DoNotOptimize(entry);
    i = (i + 1) % kStreamLen;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["hit_rate"] = cache->stats().HitRate();
    delete cache;
    cache = nullptr;
  }
}

// Hit path under contention, the walkers' borrowed form (SharedAccess's):
// striped shared lock + flat-index probe + a hazard-slot store, no
// refcount. One registered reader per thread, alternating its two slots as
// a view does. Diagnostic: compare it with BM_ContendedGetHitClock.
void BM_ContendedBorrowHit(benchmark::State& state) {
  static access::HistoryCache* cache = nullptr;
  static std::vector<access::HistoryCache::Reader*>* readers = nullptr;
  if (state.thread_index() == 0) {
    cache = new access::HistoryCache({.capacity = 0, .num_shards = 8});
    for (graph::NodeId v = 0; v < kContendedKeys; ++v) {
      cache->Put(v, ContendedPayload(v));
    }
    // Registered here, before the timed loop: the other threads start
    // before the cache exists and first touch it inside the loop.
    readers = new std::vector<access::HistoryCache::Reader*>();
    for (int t = 0; t < state.threads(); ++t) {
      readers->push_back(cache->RegisterReader());
    }
  }
  const std::vector<graph::NodeId> stream =
      ZipfStream(100 + static_cast<uint64_t>(state.thread_index()));
  size_t i = 0;
  size_t slot = 0;
  for (auto _ : state) {
    const auto* block = cache->Borrow(
        stream[i], *(*readers)[state.thread_index()], slot);
    benchmark::DoNotOptimize(block);
    slot ^= 1;
    i = (i + 1) % kStreamLen;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["hit_rate"] = cache->stats().HitRate();
    for (access::HistoryCache::Reader* reader : *readers) {
      cache->UnregisterReader(reader);
    }
    delete readers;
    readers = nullptr;
    delete cache;
    cache = nullptr;
  }
}

// Hit path under contention, pre-change baseline: exclusive lock + map find
// + splice per Get.
void BM_ContendedGetHitSpliceLru(benchmark::State& state) {
  static SpliceLruCache* cache = nullptr;
  if (state.thread_index() == 0) {
    cache = new SpliceLruCache(/*capacity=*/0, /*num_shards=*/8);
    for (graph::NodeId v = 0; v < kContendedKeys; ++v) {
      cache->Put(v, ContendedPayload(v));
    }
  }
  const std::vector<graph::NodeId> stream =
      ZipfStream(100 + static_cast<uint64_t>(state.thread_index()));
  size_t i = 0;
  for (auto _ : state) {
    auto entry = cache->Get(stream[i]);
    benchmark::DoNotOptimize(entry);
    i = (i + 1) % kStreamLen;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete cache;
    cache = nullptr;
  }
}

// The new hot path as the pipeline actually drives it: batch-aware stepping
// through GetBatch, one shared-lock acquisition per shard per 64-key batch.
// Throughput here against BM_ContendedGetHitSpliceLru is the headline
// contended_speedup number in BENCH_cache.json — batched clock reads vs the
// pre-change per-step splice-under-mutex reads, same zipf stream.
void BM_ContendedGetBatchClock(benchmark::State& state) {
  static access::HistoryCache* cache = nullptr;
  if (state.thread_index() == 0) {
    cache = new access::HistoryCache({.capacity = 0, .num_shards = 8});
    for (graph::NodeId v = 0; v < kContendedKeys; ++v) {
      cache->Put(v, ContendedPayload(v));
    }
  }
  const std::vector<graph::NodeId> stream =
      ZipfStream(100 + static_cast<uint64_t>(state.thread_index()));
  std::vector<access::HistoryCache::Entry> out(kContendedBatch);
  size_t i = 0;
  for (auto _ : state) {
    cache->GetBatch(
        std::span<const graph::NodeId>(stream.data() + i, kContendedBatch),
        out.data());
    benchmark::DoNotOptimize(out.data());
    i = (i + kContendedBatch) % (kStreamLen - kContendedBatch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kContendedBatch));
  if (state.thread_index() == 0) {
    state.counters["hit_rate"] = cache->stats().HitRate();
    delete cache;
    cache = nullptr;
  }
}

// A contended walker STEP: look the node up, then actually consume the
// response (degree + first neighbor) the way every walker does. This is
// the workload the arena layout targets: an ArrayBlock reads size and
// payload from the lines the refcount touch already pulled in, where the
// baseline's shared_ptr<vector> chases control block -> vector object ->
// heap buffer. Step throughput, batched clock vs per-step splice-LRU, is
// the headline contended_speedup in BENCH_cache.json.
void BM_ContendedStepSpliceLru(benchmark::State& state) {
  static SpliceLruCache* cache = nullptr;
  if (state.thread_index() == 0) {
    cache = new SpliceLruCache(/*capacity=*/0, /*num_shards=*/8);
    for (graph::NodeId v = 0; v < kContendedKeys; ++v) {
      cache->Put(v, ContendedPayload(v));
    }
  }
  const std::vector<graph::NodeId> stream =
      ZipfStream(300 + static_cast<uint64_t>(state.thread_index()));
  size_t i = 0;
  uint64_t consumed = 0;
  for (auto _ : state) {
    auto entry = cache->Get(stream[i]);
    consumed += entry->size() + (*entry)[0];
    benchmark::DoNotOptimize(consumed);
    i = (i + 1) % kStreamLen;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete cache;
    cache = nullptr;
  }
}

void BM_ContendedStepClock(benchmark::State& state) {
  static access::HistoryCache* cache = nullptr;
  if (state.thread_index() == 0) {
    cache = new access::HistoryCache({.capacity = 0, .num_shards = 8});
    for (graph::NodeId v = 0; v < kContendedKeys; ++v) {
      cache->Put(v, ContendedPayload(v));
    }
  }
  const std::vector<graph::NodeId> stream =
      ZipfStream(300 + static_cast<uint64_t>(state.thread_index()));
  size_t i = 0;
  uint64_t consumed = 0;
  for (auto _ : state) {
    auto entry = cache->Get(stream[i]);
    consumed += entry->size() + (*entry)[0];
    benchmark::DoNotOptimize(consumed);
    i = (i + 1) % kStreamLen;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete cache;
    cache = nullptr;
  }
}

void BM_ContendedStepBatchClock(benchmark::State& state) {
  static access::HistoryCache* cache = nullptr;
  if (state.thread_index() == 0) {
    cache = new access::HistoryCache({.capacity = 0, .num_shards = 8});
    for (graph::NodeId v = 0; v < kContendedKeys; ++v) {
      cache->Put(v, ContendedPayload(v));
    }
  }
  const std::vector<graph::NodeId> stream =
      ZipfStream(300 + static_cast<uint64_t>(state.thread_index()));
  std::vector<access::HistoryCache::Entry> out(kContendedBatch);
  size_t i = 0;
  uint64_t consumed = 0;
  for (auto _ : state) {
    cache->GetBatch(
        std::span<const graph::NodeId>(stream.data() + i, kContendedBatch),
        out.data());
    for (const auto& entry : out) {
      consumed += entry->size() + (*entry)[0];
    }
    benchmark::DoNotOptimize(consumed);
    i = (i + kContendedBatch) % (kStreamLen - kContendedBatch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kContendedBatch));
  if (state.thread_index() == 0) {
    delete cache;
    cache = nullptr;
  }
}

// Mixed hit-heavy churn (~17% misses through bounded capacity): the
// realistic crawl regime — mostly re-reads, occasional new fetches landing
// plus evictions.
void BM_ContendedMixedClock(benchmark::State& state) {
  static access::HistoryCache* cache = nullptr;
  if (state.thread_index() == 0) {
    cache = new access::HistoryCache(
        {.capacity = kContendedKeys / 2, .num_shards = 8});
    for (graph::NodeId v = 0; v < kContendedKeys / 2; ++v) {
      cache->Put(v, ContendedPayload(v));
    }
  }
  const std::vector<graph::NodeId> stream =
      ZipfStream(200 + static_cast<uint64_t>(state.thread_index()));
  size_t i = 0;
  for (auto _ : state) {
    graph::NodeId v = stream[i];
    auto entry = cache->Get(v);
    if (entry == nullptr) {
      entry = cache->Put(v, ContendedPayload(v));
    }
    benchmark::DoNotOptimize(entry);
    i = (i + 1) % kStreamLen;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["hit_rate"] = cache->stats().HitRate();
    delete cache;
    cache = nullptr;
  }
}

void BM_ContendedMixedSpliceLru(benchmark::State& state) {
  static SpliceLruCache* cache = nullptr;
  if (state.thread_index() == 0) {
    cache = new SpliceLruCache(kContendedKeys / 2, /*num_shards=*/8);
    for (graph::NodeId v = 0; v < kContendedKeys / 2; ++v) {
      cache->Put(v, ContendedPayload(v));
    }
  }
  const std::vector<graph::NodeId> stream =
      ZipfStream(200 + static_cast<uint64_t>(state.thread_index()));
  size_t i = 0;
  for (auto _ : state) {
    graph::NodeId v = stream[i];
    auto entry = cache->Get(v);
    if (entry == nullptr) {
      entry = cache->Put(v, ContendedPayload(v));
    }
    benchmark::DoNotOptimize(entry);
    i = (i + 1) % kStreamLen;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete cache;
    cache = nullptr;
  }
}

BENCHMARK(BM_ContendedGetHitClock)->Threads(1)->Threads(8)->UseRealTime();
BENCHMARK(BM_ContendedBorrowHit)->Threads(1)->Threads(8)->UseRealTime();
BENCHMARK(BM_ContendedGetHitSpliceLru)->Threads(1)->Threads(8)->UseRealTime();
BENCHMARK(BM_ContendedGetBatchClock)->Threads(1)->Threads(8)->UseRealTime();
BENCHMARK(BM_ContendedStepSpliceLru)->Threads(1)->Threads(8)->UseRealTime();
BENCHMARK(BM_ContendedStepClock)->Threads(1)->Threads(8)->UseRealTime();
BENCHMARK(BM_ContendedStepBatchClock)->Threads(1)->Threads(8)->UseRealTime();
BENCHMARK(BM_ContendedMixedClock)->Threads(8)->UseRealTime();
BENCHMARK(BM_ContendedMixedSpliceLru)->Threads(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
