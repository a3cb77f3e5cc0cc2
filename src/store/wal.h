#ifndef HISTWALK_STORE_WAL_H_
#define HISTWALK_STORE_WAL_H_

#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "access/history_cache.h"
#include "util/status.h"

// Append-only write-ahead log of neighbor-list insertions. Between
// snapshots, every response the crawl fetches is appended here; replaying
// the log on top of the last snapshot reconstructs the cache a crashed
// crawl had built, so the next run re-walks its cached prefix for free
// instead of re-paying the service.
//
// File layout (little-endian, see store/format.h):
//
//   header   magic 'HWWL' | version u32
//   records  length u32 | crc32(payload) u32 | payload
//            payload = node u32 | degree u32 | degree * neighbor u32
//
// Writes are group commits: the caller encodes any number of records into
// one buffer (EncodeRecord) and hands it to WriteGroup, which writes the
// buffer and flushes the stream once. The bytes on disk depend only on the
// record order, never on how the records were grouped.
//
// Crash-safety contract:
//  * A record is visible iff fully written; replay applies records in
//    order until the first incomplete one.
//  * A record is flushed before the WriteGroup (or Append) call carrying
//    it returns. A process crash mid-group can tear the group: replay keeps
//    the group's fully written prefix and drops the rest as a torn tail.
//    store::HistoryStore queues records behind an in-flight group, so a
//    crash there also loses the queued ones (see store/history_store.h).
//  * A torn tail (crash mid-write: the file ends inside a record, or the
//    final record fails its CRC) is TOLERATED: replay drops the tail,
//    reports it, and Open() repairs the file by truncating to the last
//    valid boundary so new appends never land after garbage.
//  * Corruption anywhere else — bad magic, a CRC mismatch with more data
//    after it, a record length past kMaxWalRecordPayload — is kDataLoss:
//    the log cannot be trusted past that point and is never silently
//    half-replayed.
//  * Scope: the contract covers PROCESS death (kill -9, crash, OOM).
//    Writes are flushed, not fsync'd, so power loss or a kernel crash can
//    drop page-cache writes beyond what replay can repair.

namespace histwalk::store {

struct WalScan {
  uint64_t valid_records = 0;
  uint64_t valid_bytes = 0;      // prefix length ending at a record boundary
  bool torn_tail = false;        // bytes after the last valid boundary
  uint64_t dropped_bytes = 0;    // size of that torn tail
};

// Validates `path` without touching any cache. kNotFound if the file does
// not exist; kDataLoss on interior corruption.
util::Result<WalScan> ScanWal(const std::string& path);

struct WalReplayReport {
  uint64_t records_applied = 0;   // valid records walked
  uint64_t records_inserted = 0;  // of those, entries new to the cache
  bool recovered_torn_tail = false;
  uint64_t dropped_bytes = 0;
};

// Replays every valid record into `cache` (Put semantics: idempotent,
// evicting). Tolerates a torn tail; fails with kDataLoss on interior
// corruption, applying nothing in that case. kNotFound when there is no
// log yet.
util::Result<WalReplayReport> ReplayWal(const std::string& path,
                                        access::HistoryCache& cache);

class WalWriter {
 public:
  // Opens `path` for appending, creating it (with a fresh header) if
  // missing, and repairing a torn tail by truncation first. Refuses a log
  // with interior corruption (kDataLoss) or a foreign version
  // (kFailedPrecondition). Not thread-safe — callers (store::HistoryStore)
  // serialize appends.
  static util::Result<std::unique_ptr<WalWriter>> Open(
      const std::string& path);

  ~WalWriter();  // flushes

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Appends one framed record (length, CRC, payload) for `v` to `out`.
  // Any number of records encoded back to back form a valid group.
  static void EncodeRecord(graph::NodeId v,
                           std::span<const graph::NodeId> neighbors,
                           std::string& out);

  // Writes `records` — `count` records from EncodeRecord — and flushes
  // once.
  util::Status WriteGroup(std::string_view records, uint64_t count);

  // A one-record group.
  util::Status Append(graph::NodeId v,
                      std::span<const graph::NodeId> neighbors);
  util::Status Flush();

  // Truncates the log back to a bare header — called by checkpointing once
  // the logged entries are folded into a snapshot.
  util::Status Reset();

  const std::string& path() const { return path_; }
  // True when Open() found and truncated a torn tail (crash mid-append).
  bool repaired_torn_tail() const { return repaired_torn_tail_; }
  uint64_t repaired_dropped_bytes() const { return repaired_dropped_bytes_; }
  // Total file bytes including the header and any pre-existing records —
  // the size checkpoint policies threshold on.
  uint64_t file_bytes() const { return file_bytes_; }
  uint64_t records_appended() const { return records_appended_; }

 private:
  explicit WalWriter(std::string path);

  std::string path_;
  std::ofstream out_;
  uint64_t file_bytes_ = 0;
  uint64_t records_appended_ = 0;
  bool repaired_torn_tail_ = false;
  uint64_t repaired_dropped_bytes_ = 0;
};

}  // namespace histwalk::store

#endif  // HISTWALK_STORE_WAL_H_
