#ifndef HISTWALK_ACCESS_HISTORY_CACHE_H_
#define HISTWALK_ACCESS_HISTORY_CACHE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "obs/histogram.h"
#include "util/arena.h"
#include "util/rw_spinlock.h"

// Capacity-bounded store of neighbor-query responses — the sampler's
// "history" (section 2.1) promoted from an implementation detail of
// GraphAccess to a first-class subsystem.
//
// The cache is sharded: a node id maps to a shard by a fixed multiplicative
// hash, and each shard runs an independent degree-weighted CLOCK ring under
// its own lock, so concurrent walkers sharing one cache contend only per
// shard. Each response is one refcounted util::BlockRef allocation, read
// one of two ways:
//   * Get() hands out a pinned handle (a refcount bump): eviction drops the
//     cache's reference while the holder's keeps the span valid — the
//     analogue of page pinning in a buffer pool. The pipeline's late-hit
//     probe, the history tier, exports and tests read this way.
//   * Borrow() is the walkers' hit path (SharedAccess). It leaves the
//     refcount alone and names the block in one of the caller's hazard
//     slots instead; see "Reclamation" below.
//
// Retention is weighted by the walk's stationary distribution. SRW, CNRW,
// NB-CNRW and GNRW all keep pi(v) proportional to deg(v) (the source paper's
// theorems), so a node's degree predicts how often any walker comes back to
// query it again. Each entry carries a level, clamp(|N(v)|, 1, 31) — its
// own list length, so the cache needs no walker or graph input — and a
// multi-bit reference count (GCLOCK):
//   * a new entry starts at level - 1;
//   * a hit raises the count to the level (test first, store only if
//     lower, so a resident entry at its level costs the hit no write);
//   * the sweeping hand, under the exclusive lock, evicts a count of 0 and
//     decrements anything else.
// One eviction therefore takes at most 31 laps plus one step, and the
// amortized sweep is bounded by the credit hits and inserts hand out. A
// one-element list has level 1, which is exactly one-bit second-chance
// CLOCK. The weight assumes a walk with pi ~ deg; a Metropolis-Hastings
// walk (uniform pi) gains nothing from it.
//
// The hit path writes only the calling thread's own lines, because every
// shared line a hit writes is one the other steppers' hits must wait on:
//   * the shard lock is a util::StripedRwLock: a reader counts itself into
//     its own thread's stripe, and the shard's hit and miss tallies live on
//     that same stripe;
//   * a borrowed hit stores the block pointer into the caller's hazard
//     slot, a line only that caller writes, instead of bumping the
//     refcount;
//   * recency is the per-entry reference count, raised only while below the
//     entry's level — the one write a hit may make to a shared line. An
//     unbounded cache never evicts, so its hits skip the count.
// Writers (Put / eviction / Clear / BulkPut) raise the lock's flag and wait
// for every stripe to drain. The key -> entry index is a flat
// open-addressed table (power-of-two capacity, linear probing,
// backward-shift deletion) whose cells hold each entry's block pointer:
// a hit probes one contiguous cell array, and a borrowed hit on an
// unbounded cache reads nothing else but the block the walker reads
// anyway. bench_micro_cache's BM_Contended* family measures the hit path
// against the retained splice-LRU baseline, pinned (Get) and borrowed
// (BM_ContendedBorrowHit).
//
// Reclamation. A borrower registers a Reader — kReaderSlots hazard slots
// on one cache line — for its lifetime. Borrow() finds the block and
// stores its pointer into a slot (release) under the shard's shared lock,
// so an eviction, which runs under the exclusive lock, always comes after
// that store and sees it. Eviction and Clear move the victim's handle onto
// the shard's retired list (or drop it at once while no reader is
// registered). Once a list reaches 2 x the registered slots + kRetireFloor,
// the thread that filled it runs a pass: it takes the list, and outside the
// shard lock it reads every slot (acquire), frees each block no slot names
// and puts the rest back. A pass keeps at most one block per slot, so it
// frees at least half the list: freeing stays O(1) amortized per eviction.
// Passes on one shard run one at a time. Unregistering a reader runs a
// pass over every shard, waiting out any running one, so the retired lists
// are empty once the last reader is gone.
//
// `capacity` bounds the number of cached responses (0 = unbounded, the
// seed's behaviour). The bound is enforced per shard (ceil(capacity /
// num_shards) each), which keeps eviction decisions local and — because
// sharding is deterministic — reproducible across runs. This makes the
// O(K)-space discussion of section 3.3 a measurable knob: a bounded cache
// trades re-queries (charged again on re-fetch) for memory.

namespace histwalk::access {

struct HistoryCacheOptions {
  // Maximum number of cached neighbor lists; 0 means unbounded.
  uint64_t capacity = 0;
  // Number of independent clock shards; clamped to >= 1.
  uint32_t num_shards = 8;
  // Attach util::RwSpinLockCounters to every shard lock, so shard_heat()
  // reports shared/exclusive acquisition and contention counts. Off by
  // default: attached counters cost two relaxed fetch_adds per
  // acquisition on the hottest lock in the stack (detached: one load and
  // a predicted branch). crawl_cli --serve turns it on.
  bool profile_locks = false;
};

struct HistoryCacheStats {
  uint64_t hits = 0;        // Get() found the entry
  uint64_t misses = 0;      // Get() did not
  uint64_t insertions = 0;  // Put() stored a new entry
  uint64_t evictions = 0;   // entries displaced by the capacity bound
  uint64_t entries = 0;     // currently resident
  uint64_t bytes = 0;       // current footprint (HistoryBytes-compatible)

  double HitRate() const {
    uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

// Point-in-time view of one shard — the scrapeable heatmap that makes
// shard imbalance (a hot shard soaking up the hits, a cold one churning
// its clock) visible without perturbing the cache. Counter semantics
// match HistoryCacheStats; `sweep` is the distribution of clock-hand
// steps per eviction (0 = the hand's first candidate was unreferenced; a
// fat tail means the shard's working set is referenced wall-to-wall and
// eviction is scanning hard). Lock counters are zero unless
// HistoryCacheOptions::profile_locks was set.
struct HistoryCacheShardHeat {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;
  obs::Log2Histogram sweep;  // clock-hand steps per eviction
  uint64_t lock_shared_acquires = 0;
  uint64_t lock_shared_contended = 0;
  uint64_t lock_exclusive_acquires = 0;
  uint64_t lock_exclusive_contended = 0;
};

class HistoryCache {
 public:
  // A cached response: a pinned handle to one refcounted block holding the
  // neighbor list (util/arena.h). Holding the handle keeps the list alive
  // even after the entry is evicted.
  using Entry = util::BlockRef<graph::NodeId>;
  // The block an Entry points at; what Borrow() lends.
  using Block = util::ArrayBlock<graph::NodeId>;

  // Hazard slots per Reader: SharedAccess alternates between two, so the
  // span a walker is still reading survives the next Neighbors() call.
  static constexpr size_t kReaderSlots = 2;

  // A borrower's hazard slots, on a cache line of their own: only the
  // owner writes them (Borrow, Release), and reclamation reads them. The
  // owner is one thread at a time.
  class alignas(64) Reader {
   public:
    // Empties slot `i`: the block it named may be freed from now on.
    void Release(size_t i) {
      slots_[i].store(nullptr, std::memory_order_release);
    }

   private:
    friend class HistoryCache;
    std::array<std::atomic<const Block*>, kReaderSlots> slots_{};
    Reader* next_ = nullptr;  // registry link, immutable once published
    bool in_use_ = false;     // under readers_mu_
  };

  explicit HistoryCache(HistoryCacheOptions options = {});
  ~HistoryCache();

  HistoryCache(const HistoryCache&) = delete;
  HistoryCache& operator=(const HistoryCache&) = delete;

  // Looks up the response for `v`, raising its clock reference count to
  // its level (the recency signal; a count already at its level is left
  // unwritten). Returns a pinned handle, or a null one on miss.
  // Thread-safe and lock-light: hits share the shard lock with each other
  // and never exclude other readers; hit/miss counters are exact under
  // concurrency.
  Entry Get(graph::NodeId v);

  // Registers a borrower for Borrow() and returns its slots, all empty.
  // Pair with UnregisterReader; the cache must outlive the registration.
  // Thread-safe.
  Reader* RegisterReader();
  // Empties `reader`'s slots and returns them to the cache, then frees
  // every retired block no remaining slot names. Thread-safe.
  void UnregisterReader(Reader* reader);

  // The borrowed hit: Get() without the refcount. On a hit, stores the
  // block into `reader`'s slot `slot` under the shard's shared lock and
  // returns it; the block then stays valid, even if evicted, until that
  // slot is next written or the reader is unregistered. On a miss, returns
  // nullptr and leaves the slot alone. Counts and raises the reference
  // count exactly like Get. Thread-safe across readers.
  const Block* Borrow(graph::NodeId v, Reader& reader, size_t slot);

  // Batched Get: `out[i]` receives the entry for `ids[i]` (null on miss).
  // Lookups are grouped by shard and each touched shard's lock is acquired
  // once in shared mode for its whole group — the batch-stepping analogue
  // of BulkPut. Hit/miss accounting and reference-count marking match
  // one-at-a-time Get exactly. `out` must have ids.size() elements.
  void GetBatch(std::span<const graph::NodeId> ids, Entry* out);

  // Stores the response for `v`, evicting via the shard's clock hand if the
  // shard is full; the new entry's reference count starts at its level
  // minus one. If `v` is already resident the existing entry is returned
  // unchanged and touched like a hit (idempotent under concurrent
  // double-fetch). Thread-safe. `inserted`, when non-null, reports whether
  // this call created a new entry (false = the id was already resident) —
  // the signal the journaling layer uses to log each response exactly
  // once.
  Entry Put(graph::NodeId v, std::span<const graph::NodeId> neighbors,
            bool* inserted = nullptr);

  // Membership probe with NO side effects of any kind: no stats counters,
  // no reference-count marking, no eviction-order perturbation. Probing a
  // would-be victim with Contains() leaves it exactly as evictable as
  // before — the guarantee the pipeline's late-hit probe relies on.
  bool Contains(graph::NodeId v) const;

  // Drops every entry and resets entries/bytes; cumulative counters
  // (hits/misses/insertions/evictions) are preserved.
  void Clear();

  // Aggregated over all shards. Consistency under concurrent writers: each
  // shard's writer-side counters (insertions/evictions/entries/bytes) are
  // snapshotted under that shard's lock, but shards are read one after
  // another, so the aggregate is NOT a point-in-time snapshot of the whole
  // cache. Reading stats perturbs nothing (no reference counts, no
  // counters). What IS guaranteed, because every per-shard snapshot is
  // internally consistent:
  //   * entries == insertions - evictions, as long as Clear() has not been
  //     called (the identity holds per shard, so it survives summation;
  //     Clear() drops residents WITHOUT counting them as capacity
  //     evictions, re-baselining the identity);
  //   * entries never exceeds num_shards * shard_capacity when bounded;
  //   * cumulative counters (hits/misses/insertions/evictions) are
  //     monotone non-decreasing across successive stats() calls from one
  //     thread. hits/misses are lock-free per-stripe atomics bumped by
  //     concurrent readers, so a snapshot may lag in-flight lookups by a
  //     few counts; at quiescence they are exact.
  HistoryCacheStats stats() const;
  // Per-shard slice of stats() plus the sweep-length distribution and
  // (when profile_locks is on) shard-lock contention counters; taken
  // under the shard's shared lock, so it is internally consistent the
  // same way one shard's stats() contribution is.
  HistoryCacheShardHeat shard_heat(uint32_t shard) const;
  bool profile_locks() const { return options_.profile_locks; }
  // Evicted or cleared entries a reader slot may still name, awaiting
  // reclamation (not counted in entries or bytes).
  uint64_t retired_count() const;
  uint64_t entry_count() const { return stats().entries; }
  // Approximate heap footprint of resident entries, in bytes — the access
  // layer's contribution to HistoryBytes() reporting.
  uint64_t MemoryBytes() const { return stats().bytes; }

  uint32_t num_shards() const { return num_shards_; }
  uint64_t capacity() const { return options_.capacity; }
  // Per-shard slice of the capacity bound (0 = unbounded).
  uint64_t shard_capacity() const { return shard_capacity_; }

  // Deterministic shard assignment: depends only on `v` and `num_shards`,
  // never on run order or platform.
  static uint32_t ShardOf(graph::NodeId v, uint32_t num_shards);

  // ---- export/import seam (the store layer's view of the cache) ----------

  // One exported cache entry: the node id and a pinned handle to its
  // neighbor list (valid even if the entry is evicted after the export).
  struct ExportedEntry {
    graph::NodeId node;
    Entry neighbors;
  };

  // Point-in-time snapshot of one shard, taken under that shard's lock, so
  // it is internally consistent even while other threads insert. Entries
  // come out in CLOCK order starting at the hand — the next eviction
  // candidate to be examined first (ring position is the recency
  // structure; reference counts are deliberately not exported). Replaying
  // the export through Put() in order reconstructs the ring with the hand
  // normalized to slot 0, so a BulkPut round-trip reproduces residency and
  // the scan order exactly, and reseeds every count from its list length
  // (level - 1, as for any insert). Only the counts differ, by at most 30
  // laps of the hand: the source's count lies anywhere in [0, level] (0
  // for an entry the hand has worn down, the level for one just hit),
  // while the replay grants level - 1 <= 30. Shards are exported
  // independently, so a whole-cache export under concurrent writers is a
  // per-shard-consistent prefix, not a global point-in-time snapshot — the
  // same contract as stats().
  std::vector<ExportedEntry> ExportShard(uint32_t shard) const;

  // A (node, neighbors) pair headed into the cache from a store load.
  struct ImportEntry {
    graph::NodeId node;
    std::span<const graph::NodeId> neighbors;
  };

  // Batched Put: entries are grouped by shard and each touched shard's
  // group lands under a single exclusive lock acquisition, in the order
  // given — feed a shard's ExportShard() output to reproduce its clock
  // order exactly. Grouping runs on thread-local scratch and a one-shard
  // batch (the pipeline's, drained from one shard's queue) skips it, so a
  // landed batch allocates only its entries' blocks. Per-entry results
  // mirror Put(): when non-null, `out_entries[i]` receives the pinned
  // handle (resident or fresh) and `inserted[i]` whether entry i was
  // genuinely new; both must then have entries.size() elements. Counted
  // as insertions, so the entries == insertions - evictions identity is
  // preserved. Returns the number of entries that were actually new.
  // Thread-safe.
  uint64_t PutBatch(std::span<const ImportEntry> entries,
                    Entry* out_entries = nullptr, bool* inserted = nullptr);

  // Bulk insert with Put() semantics — PutBatch without per-entry results
  // (the store layer's load path).
  uint64_t BulkPut(std::span<const ImportEntry> entries) {
    return PutBatch(entries);
  }

 private:
  // Highest retention level: a list of 31 or more neighbors survives up to
  // 31 passes of the hand after its last hit.
  static constexpr uint8_t kMaxLevel = 31;
  // A retired list's reclamation threshold above 2 x the registered slots
  // (see "Reclamation" above).
  static constexpr uint64_t kRetireFloor = 32;

  // One clock-ring position. `ref` is the multi-bit reference count:
  // raised to `level` by a hit (Get/Borrow on a bounded shard, GetBatch, a
  // resident Put) under the SHARED lock, decremented and consumed by the sweeping hand under the exclusive lock
  // — hence atomic. `level` is clamp(|N(v)|, 1, kMaxLevel), written only
  // under the exclusive lock when the slot takes a new entry; it sits in
  // the padding byte beside `ref`.
  struct Slot {
    graph::NodeId key = 0;
    Entry entry;
    std::atomic<uint8_t> ref{0};
    uint8_t level = 1;
    uint64_t bytes = 0;  // EntryBytes at insert, for O(1) evict accounting
  };

  // Flat open-addressed key -> entry index: one contiguous cell array,
  // power-of-two capacity with linear probing, backward-shift deletion (no
  // tombstones, so probe chains never rot under the Put/evict churn of a
  // full cache). A cell holds the entry's block and its ring position, so
  // a borrowed hit on an unbounded shard (no counts to raise) reads the
  // cell and then only the block the walker reads anyway. All mutation
  // happens under the shard's exclusive lock; concurrent Find()s run under
  // the shared lock and touch nothing.
  class FlatIndex {
   public:
    struct Cell {
      graph::NodeId key;
      uint32_t pos;        // ring position of the entry's Slot
      const Block* block;  // the Slot's block; nullptr marks an empty cell
    };

    // The cell holding `key`, or nullptr.
    const Cell* Find(graph::NodeId key) const {
      if (cells_.empty()) return nullptr;
      const uint32_t mask = static_cast<uint32_t>(cells_.size()) - 1;
      for (uint32_t i = Home(key, mask);; i = (i + 1) & mask) {
        const Cell& cell = cells_[i];
        if (cell.block == nullptr) return nullptr;
        if (cell.key == key) return &cell;
      }
    }

    // `key` must not already be present; `block` is non-null.
    void Insert(const Cell& cell);
    // True if `key` was present and removed.
    bool Erase(graph::NodeId key);
    void Clear() {
      cells_.clear();
      size_ = 0;
    }
    size_t size() const { return size_; }

   private:

    static uint32_t Home(graph::NodeId key, uint32_t mask) {
      // High multiplicative-hash bits, distinct from the low bits ShardOf
      // consumes, so one shard's keys still spread within its table.
      uint64_t h = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull;
      return static_cast<uint32_t>(h >> 32) & mask;
    }
    void InsertNoGrow(const Cell& cell);
    void Grow();

    std::vector<Cell> cells_;
    size_t size_ = 0;
  };
  // One reader stripe's share of a shard's lookup counts, kept on the
  // stripe's own line beside its reader count.
  struct ReaderTally {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
  };
  using ShardLock = util::StripedRwLock<ReaderTally>;

  struct Shard {
    // Shared by the hit path (Get/Borrow/GetBatch/Contains/stats/
    // ExportShard), exclusive for mutation (Put/PutBatch/Clear). A striped
    // spinlock, not std::shared_mutex: the critical sections are a few
    // probes long, and pthread_rwlock overhead would be several times the
    // work guarded. Its stripes also hold the shard's hit/miss tallies.
    mutable ShardLock mu;
    FlatIndex index;  // key -> slot
    // The clock ring; unique_ptr keeps Slot addresses (and their atomics)
    // stable while the vector grows.
    std::vector<std::unique_ptr<Slot>> ring;
    uint32_t hand = 0;  // next eviction scan position
    uint64_t insertions = 0;  // writer-side, under exclusive mu
    uint64_t evictions = 0;
    uint64_t bytes = 0;
    // Clock-hand steps per eviction; writer-side, under exclusive mu.
    obs::Log2Histogram sweep;
    // Handles evicted or cleared while a reader was registered, each kept
    // until no reader slot names its block; under exclusive mu.
    std::vector<Entry> retired;
    // Held for a whole Reclaim pass, before mu.
    std::mutex reclaim_mu;
    // Contention telemetry sink; only wired to mu when profile_locks.
    util::RwSpinLockCounters lock_counters;

    // The slot holding `key`, or nullptr.
    Slot* Find(graph::NodeId key) const {
      const FlatIndex::Cell* cell = index.Find(key);
      return cell == nullptr ? nullptr : ring[cell->pos].get();
    }
  };

  static uint64_t EntryBytes(const Block& block);

  // Sums a shard's hit and miss tallies over its reader stripes.
  static void SumTallies(const Shard& shard, uint64_t* hits,
                         uint64_t* misses);

  // One lookup under the shard's shared lock: counts a hit or a miss on
  // the calling thread's stripe, and on a hit raises the reference count
  // and calls on_hit(shard, cell) before the lock is released.
  template <typename OnHit>
  void Probe(graph::NodeId v, OnHit&& on_hit);

  // Retention level of a list of `degree` neighbors (see kMaxLevel).
  static uint8_t LevelOf(size_t degree) {
    return static_cast<uint8_t>(
        degree < 1 ? 1 : (degree > kMaxLevel ? kMaxLevel : degree));
  }

  // A hit's recency update: raise `slot`'s count to its level. The test
  // comes first so an entry already at its level costs the hit no store.
  static void Touch(Slot& slot) {
    if (slot.ref.load(std::memory_order_relaxed) < slot.level) {
      slot.ref.store(slot.level, std::memory_order_relaxed);
    }
  }

  // Insert under an already-held exclusive shard lock (shared by Put and
  // PutBatch).
  Entry PutLocked(Shard& shard, graph::NodeId v,
                  std::span<const graph::NodeId> neighbors, bool* inserted);

  // Under the exclusive lock: moves `entry` onto the shard's retired list
  // while any reader is registered, else drops it.
  void RetireLocked(Shard& shard, Entry& entry);
  // Releases `lock` (exclusive on `shard`), then runs a Reclaim pass if
  // the shard's retired list has reached the threshold.
  void UnlockAndReclaim(Shard& shard, std::unique_lock<ShardLock>& lock);
  // Takes the shard's retired list, frees outside the shard lock every
  // block no reader slot names, and puts the rest back. With `wait`, waits
  // for a pass already running on the shard; without, skips.
  void Reclaim(Shard& shard, bool wait);
  // Drops the handles in `retired` whose blocks no reader slot names.
  void FreeUnnamed(std::vector<Entry>& retired) const;

  // ShardOf(v, num_shards_), with the modulo strength-reduced to a mask
  // when num_shards_ is a power of two (the common case — the default is
  // 8). Bit-identical to the static method; just cheaper on the hot path.
  uint32_t ShardIndexOf(graph::NodeId v) const {
    uint64_t h = static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
    return static_cast<uint32_t>(shards_pow2_ ? (h & (num_shards_ - 1))
                                              : (h % num_shards_));
  }

  HistoryCacheOptions options_;
  uint32_t num_shards_;
  bool shards_pow2_;
  uint64_t shard_capacity_;  // 0 = unbounded
  std::unique_ptr<Shard[]> shards_;
  // Reader registry: a list that only grows, so reclamation walks it
  // without a lock; freed readers are reused. Registration takes the mutex.
  std::mutex readers_mu_;
  std::atomic<Reader*> readers_{nullptr};
  std::atomic<uint64_t> reader_slots_{0};  // kReaderSlots per live reader
};

}  // namespace histwalk::access

#endif  // HISTWALK_ACCESS_HISTORY_CACHE_H_
