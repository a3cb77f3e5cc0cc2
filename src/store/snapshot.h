#ifndef HISTWALK_STORE_SNAPSHOT_H_
#define HISTWALK_STORE_SNAPSHOT_H_

#include <string>

#include "access/history_cache.h"
#include "util/status.h"

// Versioned, checksummed binary image of a HistoryCache — the durable half
// of the paper's "history is an asset" thesis: neighbor lists crawled today
// warm-start every crawl tomorrow.
//
// File layout (all integers little-endian, see store/format.h):
//
//   header   magic 'HWSS' | version u32 | num_shards u32 | reserved u32
//   dir      per shard: offset u64 | length u64 | crc32 u32 | entries u32
//   hdr_crc  u32 over header+dir
//   sections per shard, back to back: per entry
//              node u32 | degree u32 | degree * neighbor u32
//
// Per-shard sections are the parallelism seam: save serializes shards
// concurrently (util::ParallelFor) and load verifies + inserts them
// concurrently. Within a section, entries come out in clock order starting
// at the eviction hand (HistoryCache::ExportShard) — next eviction
// candidate first — so loading into a cache with the same shard count
// reproduces residency and the eviction scan order, with the hand
// normalized to slot 0. Clock reference counts are not persisted: the load
// reseeds each from its list length (level - 1, as for any insert), which
// differs from the saved count by at most 30 laps of the hand.
//
// Crash safety: WriteSnapshot writes to `path`.tmp and renames, so `path`
// always holds either the previous complete snapshot or the new one, never
// a torn write. Load validates the header CRC and every section CRC and
// returns kDataLoss on any mismatch or truncation; kFailedPrecondition on a
// version from a different format generation; kNotFound when the file does
// not exist (a clean cold start, not an error).

namespace histwalk::store {

// A pinned, per-shard export of a cache's contents (ExportShard output per
// shard). Holding the image keeps every neighbor list alive independent of
// the cache it came from — the seam that lets background checkpointing
// serialize and write a snapshot AFTER the insert path has moved on (and
// even after the cache itself is gone).
using ExportedCacheImage =
    std::vector<std::vector<access::HistoryCache::ExportedEntry>>;

// Pins the cache's current contents, shard by shard (each shard exported
// under its own lock — the per-shard-consistent contract of ExportShard).
// Cost is O(entries) handle copies, no serialization and no IO.
ExportedCacheImage ExportCacheImage(const access::HistoryCache& cache);

struct SnapshotMeta {
  uint32_t version = 0;
  uint32_t num_shards = 0;   // cache shard geometry at save time
  uint64_t entries = 0;      // neighbor lists in the snapshot
  uint64_t file_bytes = 0;   // total file size
};

// Serializes the cache's current contents. Each shard is exported under its
// own lock, so saving while walkers insert yields a per-shard-consistent
// image (the same contract as HistoryCache::stats()). `num_threads` feeds
// ParallelFor (0 = hardware concurrency).
util::Result<SnapshotMeta> WriteSnapshot(const access::HistoryCache& cache,
                                         const std::string& path,
                                         unsigned num_threads = 0);

// Serializes an already-pinned image (same format, same tmp+rename
// discipline). What HistoryStore's background checkpoint thread calls: the
// expensive serialization/CRC/IO runs here, decoupled from the cache.
util::Result<SnapshotMeta> WriteSnapshot(const ExportedCacheImage& image,
                                         const std::string& path,
                                         unsigned num_threads = 0);

// Validates and loads `path` into `cache` (BulkPut semantics: idempotent,
// evicting if the cache is smaller than the snapshot, counted as
// insertions). The cache need not share the snapshot's shard geometry;
// exact eviction-order reproduction additionally requires equal num_shards.
util::Result<SnapshotMeta> LoadSnapshot(const std::string& path,
                                        access::HistoryCache& cache,
                                        unsigned num_threads = 0);

// Header/directory validation only — cheap existence + integrity probe.
util::Result<SnapshotMeta> InspectSnapshot(const std::string& path);

}  // namespace histwalk::store

#endif  // HISTWALK_STORE_SNAPSHOT_H_
