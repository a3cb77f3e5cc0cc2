#include "access/history_cache.h"

#include <mutex>
#include <shared_mutex>

#include "obs/profiler.h"
#include "util/check.h"

namespace histwalk::access {
namespace {

// A batch's positions grouped by shard: shard s's positions, in batch
// order, are order[s == 0 ? 0 : ends[s-1] .. ends[s]).
struct ShardGroups {
  std::vector<uint32_t> order;     // positions, shard by shard
  std::vector<uint32_t> shard_of;  // shard of each position
  std::vector<uint32_t> ends;      // end of shard s's run in `order`
};

// Groups positions [0, n), n >= 1, of a batch, where position i belongs to
// shard shard_at(i) < num_shards. Returns that shard when every position
// shares one (the one-shard fast path; `*groups` is then left unset).
// Otherwise returns num_shards and points `*groups` at a stable counting
// sort. The sort runs in thread-local scratch: landed batches run on the
// steppers, so at steady state grouping allocates nothing.
template <typename ShardAt>
uint32_t GroupByShard(size_t n, uint32_t num_shards, ShardAt shard_at,
                      const ShardGroups** groups) {
  thread_local ShardGroups scratch;
  scratch.shard_of.resize(n);
  scratch.ends.assign(num_shards, 0);
  // Counting pass; shard_of caches each position's hash for placement.
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = shard_at(i);
    scratch.shard_of[i] = s;
    ++scratch.ends[s];
  }
  const uint32_t first = scratch.shard_of[0];
  if (scratch.ends[first] == n) return first;
  uint32_t running = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    const uint32_t count = scratch.ends[s];
    scratch.ends[s] = running;
    running += count;
  }
  // Placement pass: advances ends[s] from the start to the end of shard
  // s's run.
  scratch.order.resize(n);
  for (size_t i = 0; i < n; ++i) {
    scratch.order[scratch.ends[scratch.shard_of[i]]++] =
        static_cast<uint32_t>(i);
  }
  *groups = &scratch;
  return num_shards;
}

}  // namespace

HistoryCache::HistoryCache(HistoryCacheOptions options) : options_(options) {
  num_shards_ = options_.num_shards == 0 ? 1 : options_.num_shards;
  shards_pow2_ = (num_shards_ & (num_shards_ - 1)) == 0;
  if (options_.capacity == 0) {
    shard_capacity_ = 0;
  } else {
    // Ceiling split so num_shards * shard_capacity >= capacity; a skewed
    // key distribution can therefore hold slightly more than `capacity` in
    // total, never less per shard than its fair share.
    shard_capacity_ = (options_.capacity + num_shards_ - 1) / num_shards_;
    if (shard_capacity_ == 0) shard_capacity_ = 1;
  }
  shards_ = std::make_unique<Shard[]>(num_shards_);
  if (options_.profile_locks) {
    for (uint32_t s = 0; s < num_shards_; ++s) {
      shards_[s].mu.attach_counters(&shards_[s].lock_counters);
    }
  }
}

void HistoryCache::FlatIndex::InsertNoGrow(graph::NodeId key, Slot* slot) {
  const uint32_t mask = static_cast<uint32_t>(cells_.size()) - 1;
  uint32_t i = Home(key, mask);
  while (cells_[i].slot != nullptr) i = (i + 1) & mask;
  cells_[i] = Cell{key, slot};
}

void HistoryCache::FlatIndex::Insert(graph::NodeId key, Slot* slot) {
  // Keep load under 3/4 so probe chains stay short and Find always
  // terminates on an empty cell.
  if (cells_.empty() || (size_ + 1) * 4 > cells_.size() * 3) Grow();
  InsertNoGrow(key, slot);
  ++size_;
}

void HistoryCache::FlatIndex::Grow() {
  std::vector<Cell> old = std::move(cells_);
  cells_.assign(old.empty() ? 64 : old.size() * 2, Cell{0, nullptr});
  for (const Cell& cell : old) {
    if (cell.slot != nullptr) InsertNoGrow(cell.key, cell.slot);
  }
}

bool HistoryCache::FlatIndex::Erase(graph::NodeId key) {
  if (cells_.empty()) return false;
  const uint32_t mask = static_cast<uint32_t>(cells_.size()) - 1;
  uint32_t i = Home(key, mask);
  while (true) {
    if (cells_[i].slot == nullptr) return false;
    if (cells_[i].key == key) break;
    i = (i + 1) & mask;
  }
  // Backward-shift deletion: walk the probe chain after the hole and pull
  // back every cell whose home position does not lie in the cyclic
  // interval (i, j] — i.e. every cell the hole would otherwise cut off
  // from its home.
  uint32_t j = i;
  while (true) {
    j = (j + 1) & mask;
    if (cells_[j].slot == nullptr) break;
    const uint32_t h = Home(cells_[j].key, mask);
    const bool movable = (j > i) ? (h <= i || h > j) : (h <= i && h > j);
    if (movable) {
      cells_[i] = cells_[j];
      i = j;
    }
  }
  cells_[i].slot = nullptr;
  --size_;
  return true;
}

uint32_t HistoryCache::ShardOf(graph::NodeId v, uint32_t num_shards) {
  HW_DCHECK(num_shards > 0);
  // Fibonacci hashing: spreads consecutive node ids across shards while
  // staying bit-reproducible everywhere.
  uint64_t h = static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  return static_cast<uint32_t>(h % num_shards);
}

uint64_t HistoryCache::EntryBytes(
    const util::ArrayBlock<graph::NodeId>& block) {
  // The one refcounted payload block plus the per-entry bookkeeping (index
  // slot, ring slot and its unique_ptr); approximate, but monotone in list
  // length and stable across runs.
  return block.allocated_bytes() + sizeof(Slot) + sizeof(void*) +
         sizeof(graph::NodeId) + sizeof(uint32_t);
}

HistoryCache::Entry HistoryCache::Get(graph::NodeId v) {
  HW_PROF_SCOPE("cache/get");
  Shard& shard = shards_[ShardIndexOf(v)];
  std::shared_lock<util::RwSpinLock> lock(shard.mu);
  Slot* slot = shard.index.Find(v);
  if (slot == nullptr) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return Entry();
  }
  // The whole recency update: at most one relaxed store, no exclusive
  // lock, no list manipulation. The sweeping hand (under the exclusive
  // lock) wears the count down one pass at a time.
  Touch(*slot);
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  return slot->entry;
}

void HistoryCache::GetBatch(std::span<const graph::NodeId> ids, Entry* out) {
  HW_PROF_SCOPE("cache/get_batch");
  const size_t n = ids.size();
  if (n == 0) return;
  // Per-shard lookup body, run under one shared acquisition per shard.
  auto lookup = [](Shard& shard, graph::NodeId id, Entry& slot_out,
                   uint64_t& hits, uint64_t& misses) {
    Slot* slot = shard.index.Find(id);
    if (slot == nullptr) {
      ++misses;
      slot_out = Entry();
      return;
    }
    Touch(*slot);
    ++hits;
    slot_out = slot->entry;
  };
  const ShardGroups* groups = nullptr;
  const uint32_t only = GroupByShard(
      n, num_shards_, [&](size_t i) { return ShardIndexOf(ids[i]); },
      &groups);
  if (only != num_shards_) {
    Shard& shard = shards_[only];
    std::shared_lock<util::RwSpinLock> lock(shard.mu);
    uint64_t hits = 0, misses = 0;
    for (size_t i = 0; i < n; ++i) lookup(shard, ids[i], out[i], hits, misses);
    if (hits != 0) shard.hits.fetch_add(hits, std::memory_order_relaxed);
    if (misses != 0) shard.misses.fetch_add(misses, std::memory_order_relaxed);
    return;
  }
  const std::vector<uint32_t>& order = groups->order;
  thread_local std::vector<Slot*> run;
  run.resize(n);
  uint32_t begin = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const uint32_t end = groups->ends[s];
    if (begin == end) continue;
    Shard& shard = shards_[s];
    std::shared_lock<util::RwSpinLock> lock(shard.mu);
    uint64_t hits = 0, misses = 0;
    // Two passes under one acquisition: resolve every probe first,
    // prefetching the payload block whose header the refcount bump in the
    // commit pass will write — the probes overlap the block-line fills.
    for (uint32_t j = begin; j < end; ++j) {
      Slot* slot = shard.index.Find(ids[order[j]]);
      run[j] = slot;
      if (slot != nullptr) __builtin_prefetch(slot->entry.get(), 1, 3);
    }
    for (uint32_t j = begin; j < end; ++j) {
      Slot* slot = run[j];
      const uint32_t i = order[j];
      if (slot == nullptr) {
        ++misses;
        out[i] = Entry();
        continue;
      }
      Touch(*slot);
      ++hits;
      out[i] = slot->entry;
    }
    if (hits != 0) shard.hits.fetch_add(hits, std::memory_order_relaxed);
    if (misses != 0) shard.misses.fetch_add(misses, std::memory_order_relaxed);
    begin = end;
  }
}

HistoryCache::Entry HistoryCache::PutLocked(
    Shard& shard, graph::NodeId v, std::span<const graph::NodeId> neighbors,
    bool* inserted) {
  Slot* resident = shard.index.Find(v);
  if (resident != nullptr) {
    // Lost a fetch race with another walker; keep the resident entry and
    // treat the duplicate store as a touch.
    if (inserted != nullptr) *inserted = false;
    Touch(*resident);
    return resident->entry;
  }
  Entry entry = Entry::Copy(neighbors);
  const uint64_t entry_bytes = EntryBytes(*entry);
  const uint8_t level = LevelOf(neighbors.size());
  // New entries start one below their level: an un-hit entry of degree d
  // survives d - 1 passes of the hand, so a one-element list is
  // reclaimable on the first pass, same as an un-hit LRU entry.
  const uint8_t initial_ref = level - 1;
  if (shard_capacity_ != 0 && shard.ring.size() >= shard_capacity_) {
    // GCLOCK sweep: advance the hand, decrementing reference counts, until
    // a zero count turns up. Readers are excluded, so a count cannot rise
    // behind the hand; every count is at most kMaxLevel, so the sweep ends
    // within kMaxLevel laps plus one step.
    HW_PROF_SCOPE("cache/sweep");
    const uint32_t ring_size = static_cast<uint32_t>(shard.ring.size());
    uint32_t pos = shard.hand;
    uint64_t steps = 0;
    for (;;) {
      std::atomic<uint8_t>& ref = shard.ring[pos]->ref;
      const uint8_t count = ref.load(std::memory_order_relaxed);
      if (count == 0) break;
      ref.store(count - 1, std::memory_order_relaxed);
      if (++pos == ring_size) pos = 0;
      ++steps;
    }
    shard.sweep.Record(steps);
    Slot& victim = *shard.ring[pos];
    shard.index.Erase(victim.key);
    shard.bytes -= victim.bytes;
    ++shard.evictions;
    victim.key = v;
    victim.entry = std::move(entry);
    victim.bytes = entry_bytes;
    victim.level = level;
    victim.ref.store(initial_ref, std::memory_order_relaxed);
    shard.index.Insert(v, &victim);
    shard.hand = (pos + 1) % ring_size;
    shard.bytes += entry_bytes;
    ++shard.insertions;
    if (inserted != nullptr) *inserted = true;
    return victim.entry;
  }
  auto slot = std::make_unique<Slot>();
  slot->key = v;
  slot->entry = std::move(entry);
  slot->bytes = entry_bytes;
  slot->level = level;
  slot->ref.store(initial_ref, std::memory_order_relaxed);
  Slot& stored = *slot;
  shard.index.Insert(v, &stored);
  shard.ring.push_back(std::move(slot));
  shard.bytes += entry_bytes;
  ++shard.insertions;
  if (inserted != nullptr) *inserted = true;
  return stored.entry;
}

HistoryCache::Entry HistoryCache::Put(graph::NodeId v,
                                      std::span<const graph::NodeId> neighbors,
                                      bool* inserted) {
  HW_PROF_SCOPE("cache/put");
  Shard& shard = shards_[ShardIndexOf(v)];
  std::unique_lock<util::RwSpinLock> lock(shard.mu);
  return PutLocked(shard, v, neighbors, inserted);
}

std::vector<HistoryCache::ExportedEntry> HistoryCache::ExportShard(
    uint32_t shard_index) const {
  HW_CHECK(shard_index < num_shards_);
  const Shard& shard = shards_[shard_index];
  std::vector<ExportedEntry> out;
  // Shared suffices: the export mutates nothing, and shared mode excludes
  // writers, which is all consistency needs.
  std::shared_lock<util::RwSpinLock> lock(shard.mu);
  const size_t ring_size = shard.ring.size();
  out.reserve(ring_size);
  // Walk the ring in clock order starting at the hand, so the export reads
  // next-eviction-candidate first (the Put() replay order that reconstructs
  // the ring with the hand normalized to slot 0).
  for (size_t i = 0; i < ring_size; ++i) {
    const Slot& slot = *shard.ring[(shard.hand + i) % ring_size];
    out.push_back(ExportedEntry{slot.key, slot.entry});
  }
  return out;
}

uint64_t HistoryCache::PutBatch(std::span<const ImportEntry> entries,
                                Entry* out_entries, bool* inserted) {
  const size_t n = entries.size();
  if (n == 0) return 0;
  uint64_t new_entries = 0;
  // Lands position i in `shard`, whose exclusive lock the caller holds.
  auto land = [&](Shard& shard, size_t i) {
    bool was_inserted = false;
    Entry entry = PutLocked(shard, entries[i].node, entries[i].neighbors,
                            &was_inserted);
    if (was_inserted) ++new_entries;
    if (out_entries != nullptr) out_entries[i] = std::move(entry);
    if (inserted != nullptr) inserted[i] = was_inserted;
  };
  // Group by shard so each touched shard's exclusive lock is taken once,
  // then insert each group in its original order (preserving clock order
  // reconstruction for per-shard inputs).
  const ShardGroups* groups = nullptr;
  const uint32_t only = GroupByShard(
      n, num_shards_, [&](size_t i) { return ShardIndexOf(entries[i].node); },
      &groups);
  if (only != num_shards_) {
    Shard& shard = shards_[only];
    std::unique_lock<util::RwSpinLock> lock(shard.mu);
    for (size_t i = 0; i < n; ++i) land(shard, i);
    return new_entries;
  }
  uint32_t begin = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const uint32_t end = groups->ends[s];
    if (begin == end) continue;
    Shard& shard = shards_[s];
    std::unique_lock<util::RwSpinLock> lock(shard.mu);
    for (uint32_t j = begin; j < end; ++j) land(shard, groups->order[j]);
    begin = end;
  }
  return new_entries;
}

bool HistoryCache::Contains(graph::NodeId v) const {
  const Shard& shard = shards_[ShardIndexOf(v)];
  std::shared_lock<util::RwSpinLock> lock(shard.mu);
  // Deliberately no counter bumps and no reference-count mark: Contains
  // must not make an entry look recently used or skew hit-rate stats.
  return shard.index.Find(v) != nullptr;
}

void HistoryCache::Clear() {
  for (uint32_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    std::unique_lock<util::RwSpinLock> lock(shard.mu);
    shard.index.Clear();
    shard.ring.clear();
    shard.hand = 0;
    shard.bytes = 0;
  }
}

HistoryCacheShardHeat HistoryCache::shard_heat(uint32_t shard_index) const {
  HW_CHECK(shard_index < num_shards_);
  const Shard& shard = shards_[shard_index];
  HistoryCacheShardHeat heat;
  std::shared_lock<util::RwSpinLock> lock(shard.mu);
  heat.hits = shard.hits.load(std::memory_order_relaxed);
  heat.misses = shard.misses.load(std::memory_order_relaxed);
  heat.insertions = shard.insertions;
  heat.evictions = shard.evictions;
  heat.entries = shard.index.size();
  heat.bytes = shard.bytes;
  heat.sweep = shard.sweep;
  const util::RwSpinLockCounters& lc = shard.lock_counters;
  heat.lock_shared_acquires =
      lc.shared_acquires.load(std::memory_order_relaxed);
  heat.lock_shared_contended =
      lc.shared_contended.load(std::memory_order_relaxed);
  heat.lock_exclusive_acquires =
      lc.exclusive_acquires.load(std::memory_order_relaxed);
  heat.lock_exclusive_contended =
      lc.exclusive_contended.load(std::memory_order_relaxed);
  return heat;
}

HistoryCacheStats HistoryCache::stats() const {
  HistoryCacheStats total;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const Shard& shard = shards_[s];
    std::shared_lock<util::RwSpinLock> lock(shard.mu);
    total.hits += shard.hits.load(std::memory_order_relaxed);
    total.misses += shard.misses.load(std::memory_order_relaxed);
    total.insertions += shard.insertions;
    total.evictions += shard.evictions;
    total.entries += shard.index.size();
    total.bytes += shard.bytes;
  }
  return total;
}

}  // namespace histwalk::access
