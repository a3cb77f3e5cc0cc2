#include "access/history_cache.h"

#include <algorithm>
#include <functional>
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

HistoryCache::~HistoryCache() {
  for (Reader* reader = readers_.load(std::memory_order_relaxed);
       reader != nullptr;) {
    Reader* next = reader->next_;
    delete reader;
    reader = next;
  }
}

void HistoryCache::FlatIndex::InsertNoGrow(const Cell& cell) {
  const uint32_t mask = static_cast<uint32_t>(cells_.size()) - 1;
  uint32_t i = Home(cell.key, mask);
  while (cells_[i].block != nullptr) i = (i + 1) & mask;
  cells_[i] = cell;
}

void HistoryCache::FlatIndex::Insert(const Cell& cell) {
  // Keep load under 3/4 so probe chains stay short and Find always
  // terminates on an empty cell.
  if (cells_.empty() || (size_ + 1) * 4 > cells_.size() * 3) Grow();
  InsertNoGrow(cell);
  ++size_;
}

void HistoryCache::FlatIndex::Grow() {
  std::vector<Cell> old = std::move(cells_);
  cells_.assign(old.empty() ? 64 : old.size() * 2, Cell{0, 0, nullptr});
  for (const Cell& cell : old) {
    if (cell.block != nullptr) InsertNoGrow(cell);
  }
}

bool HistoryCache::FlatIndex::Erase(graph::NodeId key) {
  if (cells_.empty()) return false;
  const uint32_t mask = static_cast<uint32_t>(cells_.size()) - 1;
  uint32_t i = Home(key, mask);
  while (true) {
    if (cells_[i].block == nullptr) return false;
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
    if (cells_[j].block == nullptr) break;
    const uint32_t h = Home(cells_[j].key, mask);
    const bool movable = (j > i) ? (h <= i || h > j) : (h <= i && h > j);
    if (movable) {
      cells_[i] = cells_[j];
      i = j;
    }
  }
  cells_[i].block = nullptr;
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

uint64_t HistoryCache::EntryBytes(const Block& block) {
  // The one refcounted payload block plus the per-entry bookkeeping (index
  // slot, ring slot and its unique_ptr); approximate, but monotone in list
  // length and stable across runs.
  return block.allocated_bytes() + sizeof(Slot) + sizeof(void*) +
         sizeof(graph::NodeId) + sizeof(uint32_t);
}

void HistoryCache::SumTallies(const Shard& shard, uint64_t* hits,
                              uint64_t* misses) {
  for (const ShardLock::Stripe& stripe : shard.mu.stripes()) {
    *hits += stripe.local.hits.load(std::memory_order_relaxed);
    *misses += stripe.local.misses.load(std::memory_order_relaxed);
  }
}

template <typename OnHit>
void HistoryCache::Probe(graph::NodeId v, OnHit&& on_hit) {
  Shard& shard = shards_[ShardIndexOf(v)];
  std::shared_lock<ShardLock> lock(shard.mu);
  ReaderTally& tally = shard.mu.local();
  const FlatIndex::Cell* cell = shard.index.Find(v);
  if (cell == nullptr) {
    tally.misses.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The whole recency update: at most one relaxed store, no exclusive
  // lock, no list manipulation. The sweeping hand (under the exclusive
  // lock) wears the count down one pass at a time. An unbounded shard has
  // no hand, so its counts are never read and the hit skips the slot.
  if (shard_capacity_ != 0) Touch(*shard.ring[cell->pos]);
  tally.hits.fetch_add(1, std::memory_order_relaxed);
  on_hit(shard, *cell);
}

HistoryCache::Entry HistoryCache::Get(graph::NodeId v) {
  HW_PROF_SCOPE("cache/get");
  Entry entry;
  Probe(v, [&](const Shard& shard, const FlatIndex::Cell& cell) {
    entry = shard.ring[cell.pos]->entry;
  });
  return entry;
}

const HistoryCache::Block* HistoryCache::Borrow(graph::NodeId v,
                                                Reader& reader, size_t slot) {
  HW_PROF_SCOPE("cache/get");
  const Block* block = nullptr;
  Probe(v, [&](const Shard&, const FlatIndex::Cell& cell) {
    // Stored under the shared lock: an eviction of this block runs under
    // the exclusive lock, after this store, and so retires it instead of
    // dropping it while the slot may name it.
    block = cell.block;
    reader.slots_[slot].store(block, std::memory_order_release);
  });
  return block;
}

HistoryCache::Reader* HistoryCache::RegisterReader() {
  std::lock_guard<std::mutex> lock(readers_mu_);
  reader_slots_.fetch_add(kReaderSlots, std::memory_order_relaxed);
  for (Reader* reader = readers_.load(std::memory_order_relaxed);
       reader != nullptr; reader = reader->next_) {
    if (!reader->in_use_) {
      reader->in_use_ = true;
      return reader;
    }
  }
  auto* reader = new Reader();
  reader->in_use_ = true;
  reader->next_ = readers_.load(std::memory_order_relaxed);
  readers_.store(reader, std::memory_order_release);
  return reader;
}

void HistoryCache::UnregisterReader(Reader* reader) {
  for (size_t i = 0; i < kReaderSlots; ++i) reader->Release(i);
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    reader->in_use_ = false;
    reader_slots_.fetch_sub(kReaderSlots, std::memory_order_relaxed);
  }
  for (uint32_t s = 0; s < num_shards_; ++s) {
    Reclaim(shards_[s], /*wait=*/true);
  }
}

void HistoryCache::RetireLocked(Shard& shard, Entry& entry) {
  // A reader's registration happens before its first Borrow, whose shared
  // unlock this exclusive section acquired: a reader that may name the
  // block is already counted here.
  if (reader_slots_.load(std::memory_order_relaxed) != 0) {
    shard.retired.push_back(std::move(entry));
  } else {
    entry.reset();
  }
}

void HistoryCache::UnlockAndReclaim(Shard& shard,
                                    std::unique_lock<ShardLock>& lock) {
  const bool due =
      shard.retired.size() >=
      2 * reader_slots_.load(std::memory_order_relaxed) + kRetireFloor;
  lock.unlock();
  if (due) Reclaim(shard, /*wait=*/false);
}

void HistoryCache::Reclaim(Shard& shard, bool wait) {
  // One pass per shard at a time: a pass holds the blocks it took where no
  // other pass can see them, so an unregistration's pass must wait for it
  // to put back what it kept. A due pass that finds one running skips; the
  // running pass or a later one covers its blocks.
  std::unique_lock<std::mutex> pass(shard.reclaim_mu, std::defer_lock);
  if (wait) {
    pass.lock();
  } else if (!pass.try_lock()) {
    return;
  }
  thread_local std::vector<Entry> taken;
  {
    std::unique_lock<ShardLock> lock(shard.mu);
    taken.swap(shard.retired);
  }
  FreeUnnamed(taken);
  if (taken.empty()) return;
  std::unique_lock<ShardLock> lock(shard.mu);
  for (Entry& entry : taken) shard.retired.push_back(std::move(entry));
  taken.clear();
}

void HistoryCache::FreeUnnamed(std::vector<Entry>& retired) const {
  // Every retired block was unreachable from the index before the list
  // was taken, so no slot can start naming it; a slot read here names it
  // only if its owner may still be reading it. The acquire loads order the
  // owner's reads of a block it has moved off before the free below.
  thread_local std::vector<const Block*> named;
  named.clear();
  for (const Reader* reader = readers_.load(std::memory_order_acquire);
       reader != nullptr; reader = reader->next_) {
    for (const auto& slot : reader->slots_) {
      const Block* block = slot.load(std::memory_order_acquire);
      if (block != nullptr) named.push_back(block);
    }
  }
  std::sort(named.begin(), named.end(), std::less<const Block*>());
  auto unnamed =
      std::partition(retired.begin(), retired.end(), [&](const Entry& entry) {
        return std::binary_search(named.begin(), named.end(), entry.get(),
                                  std::less<const Block*>());
      });
  retired.erase(unnamed, retired.end());
}

void HistoryCache::GetBatch(std::span<const graph::NodeId> ids, Entry* out) {
  HW_PROF_SCOPE("cache/get_batch");
  const size_t n = ids.size();
  if (n == 0) return;
  // Per-shard lookup body, run under one shared acquisition per shard.
  auto lookup = [](Shard& shard, graph::NodeId id, Entry& slot_out,
                   uint64_t& hits, uint64_t& misses) {
    Slot* slot = shard.Find(id);
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
    std::shared_lock<ShardLock> lock(shard.mu);
    uint64_t hits = 0, misses = 0;
    for (size_t i = 0; i < n; ++i) lookup(shard, ids[i], out[i], hits, misses);
    ReaderTally& tally = shard.mu.local();
    if (hits != 0) tally.hits.fetch_add(hits, std::memory_order_relaxed);
    if (misses != 0) tally.misses.fetch_add(misses, std::memory_order_relaxed);
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
    std::shared_lock<ShardLock> lock(shard.mu);
    uint64_t hits = 0, misses = 0;
    // Two passes under one acquisition: resolve every probe first,
    // prefetching the payload block whose header the refcount bump in the
    // commit pass will write — the probes overlap the block-line fills.
    for (uint32_t j = begin; j < end; ++j) {
      Slot* slot = shard.Find(ids[order[j]]);
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
    ReaderTally& tally = shard.mu.local();
    if (hits != 0) tally.hits.fetch_add(hits, std::memory_order_relaxed);
    if (misses != 0) tally.misses.fetch_add(misses, std::memory_order_relaxed);
    begin = end;
  }
}

HistoryCache::Entry HistoryCache::PutLocked(
    Shard& shard, graph::NodeId v, std::span<const graph::NodeId> neighbors,
    bool* inserted) {
  Slot* resident = shard.Find(v);
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
    RetireLocked(shard, victim.entry);
    victim.key = v;
    victim.entry = std::move(entry);
    victim.bytes = entry_bytes;
    victim.level = level;
    victim.ref.store(initial_ref, std::memory_order_relaxed);
    shard.index.Insert({v, pos, victim.entry.get()});
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
  shard.index.Insert({v, static_cast<uint32_t>(shard.ring.size()),
                      stored.entry.get()});
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
  std::unique_lock<ShardLock> lock(shard.mu);
  Entry entry = PutLocked(shard, v, neighbors, inserted);
  UnlockAndReclaim(shard, lock);
  return entry;
}

std::vector<HistoryCache::ExportedEntry> HistoryCache::ExportShard(
    uint32_t shard_index) const {
  HW_CHECK(shard_index < num_shards_);
  const Shard& shard = shards_[shard_index];
  std::vector<ExportedEntry> out;
  // Shared suffices: the export mutates nothing, and shared mode excludes
  // writers, which is all consistency needs.
  std::shared_lock<ShardLock> lock(shard.mu);
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
    std::unique_lock<ShardLock> lock(shard.mu);
    for (size_t i = 0; i < n; ++i) land(shard, i);
    UnlockAndReclaim(shard, lock);
    return new_entries;
  }
  uint32_t begin = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const uint32_t end = groups->ends[s];
    if (begin == end) continue;
    Shard& shard = shards_[s];
    std::unique_lock<ShardLock> lock(shard.mu);
    for (uint32_t j = begin; j < end; ++j) land(shard, groups->order[j]);
    UnlockAndReclaim(shard, lock);
    begin = end;
  }
  return new_entries;
}

bool HistoryCache::Contains(graph::NodeId v) const {
  const Shard& shard = shards_[ShardIndexOf(v)];
  std::shared_lock<ShardLock> lock(shard.mu);
  // Deliberately no counter bumps and no reference-count mark: Contains
  // must not make an entry look recently used or skew hit-rate stats.
  return shard.index.Find(v) != nullptr;
}

void HistoryCache::Clear() {
  for (uint32_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    std::unique_lock<ShardLock> lock(shard.mu);
    for (const std::unique_ptr<Slot>& slot : shard.ring) {
      RetireLocked(shard, slot->entry);
    }
    shard.index.Clear();
    shard.ring.clear();
    shard.hand = 0;
    shard.bytes = 0;
    UnlockAndReclaim(shard, lock);
  }
}

HistoryCacheShardHeat HistoryCache::shard_heat(uint32_t shard_index) const {
  HW_CHECK(shard_index < num_shards_);
  const Shard& shard = shards_[shard_index];
  HistoryCacheShardHeat heat;
  std::shared_lock<ShardLock> lock(shard.mu);
  SumTallies(shard, &heat.hits, &heat.misses);
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
    std::shared_lock<ShardLock> lock(shard.mu);
    SumTallies(shard, &total.hits, &total.misses);
    total.insertions += shard.insertions;
    total.evictions += shard.evictions;
    total.entries += shard.index.size();
    total.bytes += shard.bytes;
  }
  return total;
}

uint64_t HistoryCache::retired_count() const {
  uint64_t total = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    std::shared_lock<ShardLock> lock(shards_[s].mu);
    total += shards_[s].retired.size();
  }
  return total;
}

}  // namespace histwalk::access
