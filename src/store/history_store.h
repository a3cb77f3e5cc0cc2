#ifndef HISTWALK_STORE_HISTORY_STORE_H_
#define HISTWALK_STORE_HISTORY_STORE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "access/history_cache.h"
#include "access/history_journal.h"
#include "obs/trace.h"
#include "store/snapshot.h"
#include "store/wal.h"

// The durable history subsystem: one snapshot file + one WAL, managed
// together. Build a SharedAccessGroup with the store as its journal
// (SharedAccessOptions::journal) and every neighbor list the crawl fetches
// through the request pipeline, at any depth, is journaled as it lands in
// the shared cache; LoadInto() rebuilds that
// cache in a fresh process, so crawls resume across restarts and a second
// sampling task starts warm (the paper's history reuse, made persistent).
//
// One store journals ONE cache: the first cache that journals into it is
// bound to it for the store's lifetime, and folds snapshot that cache. A
// batch from any other cache is refused (kFailedPrecondition, counted in
// append_failures): a fold of one cache would retire WAL segments holding
// the other's records. Caches shared by several groups (the service's
// cross-tenant cache) are one cache.
//
// Group commit: an inserting thread encodes its batch's records into a
// shared queue under a short queue lock and never waits on another
// thread's write. If no writer is active it becomes the writer: under the
// journal lock it swaps the queue out, writes it as one group (one write,
// one flush), runs the checkpoint threshold check, and repeats until it
// finds the queue empty — giving up the role in that same queue critical
// section, so no record is ever stranded. A thread that finds a writer
// active returns at once; the writer takes its records. Hence:
//  * a record is flushed before the active writer gives up its role;
//  * with no journal call in progress, every inserted record is in the
//    file;
//  * Flush(), Checkpoint(), WaitForIdle(), stats() and the destructor
//    drain the queue first;
//  * a process crash can lose the records queued behind one in-flight
//    write (not just the record being written). A resumed crawl fetches
//    and bills those again; its walks do not change.
//
// Recovery order (LoadInto): snapshot first, then the rotated-out fold
// segment (if a background checkpoint was interrupted — see below), then
// the active WAL. All replays are idempotent inserts, so the segments may
// overlap the snapshot without harm. Missing files are a clean cold start,
// not an error.
//
// Checkpointing: once the WAL grows past `checkpoint_wal_bytes`, the store
// folds the CURRENT cache contents into a fresh snapshot (atomic
// tmp+rename) and retires the logged records. Two modes:
//
//  * background_checkpoint = true (default): the writer whose group write
//    tripped the threshold only ROTATES the WAL (the active log is renamed
//    to `<wal_path>.fold` and a fresh one opened — a few syscalls) and
//    pins an in-memory export of the cache; a dedicated checkpoint thread
//    serializes and writes the snapshot and then deletes the fold
//    segment. Inserts never stall on serialization or disk IO — the
//    ROADMAP "background checkpointing off the insert path" item. Crash
//    windows are safe by construction:
//      - crash before the snapshot rename -> old snapshot + fold segment +
//        active WAL replay to the full history;
//      - crash after the rename, before the fold delete -> the fold
//        segment overlaps the new snapshot; replaying it is idempotent,
//        and the next checkpoint (or Checkpoint()) deletes it.
//    The rotation invariant that makes the fold loss-free: a cache insert
//    always lands BEFORE its journal append, so every record in the
//    rotated-out segment is in the cache when the post-rotation export
//    pins it (minus entries a bounded cache evicted — the cache is the
//    source of truth, as in the inline mode). Rotated segments form a
//    LIST (`<wal>.fold`, then `<wal>.fold.2`, `<wal>.fold.3`, ... in
//    rotation order): while one fold is in flight, a second tripping
//    write still rotates the active WAL into a fresh queued segment —
//    the WAL never grows past threshold + one group — and re-pins a
//    newer cache export that supersedes any fold already queued (the
//    newest export covers every earlier segment's records, so at most one
//    fold waits behind the in-flight one regardless of how many segments
//    rotation queued). A successful fold retires every segment the pinned
//    export covered, oldest first. The segment count is capped
//    (kMaxFoldSegments); in the pathological case of folds failing
//    repeatedly the WAL falls back to growing past the threshold rather
//    than littering the directory.
//  * background_checkpoint = false: the fold (snapshot write included)
//    runs on the writer under the journal lock, stalling the next group
//    write for the length of one snapshot write.
//
// (Like the WAL itself, checkpointing covers process death, not power
// loss: files are flushed, never fsync'd — see the note in store/format.h.)
//
// Journal errors (disk full, ...) never fail the crawl: OnCacheInsertBatch
// is fire-and-forget by interface; failures are counted in stats() and the
// first one is kept in last_error().

namespace histwalk::store {

struct HistoryStoreOptions {
  // Snapshot written by Checkpoint() and loaded by LoadInto().
  std::string snapshot_path;
  // Separate read source for LoadInto(), when resuming FROM one file while
  // checkpointing TO another; "" = snapshot_path.
  std::string load_snapshot_path;
  // false = LoadInto() skips the snapshot (WAL replay still runs): the
  // store only WRITES snapshot_path. Lets a save-only caller reuse a path
  // an earlier run wrote without silently warm-starting from it.
  bool load_snapshot = true;
  // "" disables the WAL entirely: the store is snapshot-only and durability
  // is whatever the caller's explicit Checkpoint() calls provide.
  std::string wal_path;
  // Fold the WAL into a fresh snapshot once it exceeds this many bytes;
  // 0 = never checkpoint automatically.
  uint64_t checkpoint_wal_bytes = 8ull * 1024 * 1024;
  // Run automatic folds on a background thread (see the mode comparison
  // above). The tripping writer still pays the WAL rotation plus an
  // O(entries) pin-export of the cache; serialization and disk IO move
  // off-path.
  bool background_checkpoint = true;
  // Threads for parallel snapshot save/load (0 = hardware concurrency).
  unsigned num_threads = 0;
};

struct HistoryStoreStats {
  uint64_t loaded_snapshot_entries = 0;
  uint64_t replayed_wal_records = 0;
  uint64_t replayed_wal_inserted = 0;
  bool recovered_torn_tail = false;
  uint64_t appended_records = 0;
  // Records DROPPED from the journal (a failed group write, a group that
  // arrived while the WAL could not be reopened after a failed rotation, or
  // a batch from a cache other than the bound one).
  uint64_t append_failures = 0;
  uint64_t checkpoints = 0;
  // Failed fold attempts (snapshot write, WAL rotation) — no record was
  // dropped: the WAL and/or fold segment still hold everything, and the
  // next attempt retries.
  uint64_t checkpoint_failures = 0;
  uint64_t wal_bytes = 0;  // current active-WAL size (0 when disabled)
  // True while rotated-out fold segments exist on disk (a background
  // checkpoint is in flight, failed, or was interrupted by a crash).
  bool fold_segment_pending = false;
  // How many rotated-out segments exist right now (the fold queue depth).
  uint64_t fold_segments_queued = 0;
};

class HistoryStore final : public access::HistoryJournal {
 public:
  // Opens (creating or repairing as needed) the WAL when configured, and
  // adopts a leftover fold segment from an interrupted background
  // checkpoint. Refuses corrupt files with kDataLoss — recovery policy is
  // the caller's call, never silent.
  static util::Result<std::unique_ptr<HistoryStore>> Open(
      HistoryStoreOptions options);

  // Drains the queue, finishes any in-flight background checkpoint, then
  // flushes the WAL.
  ~HistoryStore() override;

  // Rebuilds `cache` from the snapshot (if any), the fold segment (if a
  // background checkpoint was interrupted) and the WAL (if any).
  // Tolerates a torn WAL tail (reported in stats()); fails with kDataLoss
  // on interior corruption of any file.
  util::Status LoadInto(access::HistoryCache& cache);

  // access::HistoryJournal — called by the access layer once per landed
  // batch. Queues the inserted entries' records for the next group write
  // (see "Group commit" above) and auto-checkpoints past the threshold.
  // Thread-safe.
  void OnCacheInsertBatch(std::span<const access::HistoryCache::ImportEntry>
                              entries,
                          const bool* inserted,
                          access::HistoryCache& cache) override;

  // One inserted entry: OnCacheInsertBatch with a batch of one.
  void OnCacheInsert(graph::NodeId v, std::span<const graph::NodeId> neighbors,
                     access::HistoryCache& cache);

  // Drains the queue, then folds `cache` into a fresh snapshot now,
  // truncates the WAL and deletes any fold segment. Synchronous; waits for
  // an in-flight background checkpoint first.
  util::Status Checkpoint(const access::HistoryCache& cache);

  // Drains the queue and flushes the WAL.
  util::Status Flush();

  // Attaches (or detaches, with nullptr) a tracer: journal appends become
  // instants and checkpoints 'X' complete events on a "store" track. The
  // tracer must outlive the attachment; attach before journaling starts.
  void set_tracer(obs::Tracer* tracer);

  // Drains the queue, then blocks until no background checkpoint is queued
  // or running. Tests and shutdown sequencing use this; ~HistoryStore calls
  // it implicitly.
  void WaitForIdle();

  // Drains the queue, then reads the counters.
  HistoryStoreStats stats();
  // OK, or the first journaling failure since construction.
  util::Status last_error() const;

  const HistoryStoreOptions& options() const { return options_; }

  // "<wal_path>.fold": the first rotated-out WAL segment's name. Later
  // segments queued while a fold is in flight are "<wal_path>.fold.<N>"
  // with N increasing in rotation order.
  std::string fold_path() const { return options_.wal_path + ".fold"; }

  // Cap on simultaneously existing fold segments; past it, a tripping
  // insert stops rotating and the active WAL grows instead.
  static constexpr size_t kMaxFoldSegments = 8;

 private:
  // Tests hold the writer role through it to exercise the queue.
  friend class HistoryStoreTestPeer;

  explicit HistoryStore(HistoryStoreOptions options);

  // Swaps the queue out and writes it as one group, then runs the
  // checkpoint threshold check. Returns false (writing nothing) when the
  // queue was empty; with `release_role` the writer role is given up in
  // that same queue critical section. Called under mu_.
  bool WritePendingLocked(bool release_role);
  // WritePendingLocked until the queue is empty, keeping the role as is.
  void DrainLocked() {
    while (WritePendingLocked(/*release_role=*/false)) {
    }
  }
  util::Status CheckpointLocked(const access::HistoryCache& cache);
  // Rotates the active WAL out to a fresh fold segment and pins a cache
  // export for the checkpoint thread (superseding any queued fold). Called
  // under mu_ by the writer.
  void RequestBackgroundFold(const access::HistoryCache& cache);
  void CheckpointThreadLoop();
  // Adopts fold segments left on disk by an interrupted background
  // checkpoint, in rotation order. Called at Open.
  void AdoptFoldSegments();
  // The name the next rotation parks the active WAL under.
  std::string NextFoldSegmentPath();
  // Deletes the oldest `count` fold segments (their records are covered by
  // the snapshot just written). Called under mu_.
  void RetireFoldSegments(size_t count);
  void SyncFoldStats();
  // `dropped_records` selects which failure counter the error lands in:
  // > 0 adds that many lost journal records to append_failures; 0 counts a
  // failed fold attempt (durability intact) in checkpoint_failures.
  void RecordError(const util::Status& status, uint64_t dropped_records);

  HistoryStoreOptions options_;
  std::unique_ptr<WalWriter> wal_;  // null when the WAL is disabled
  obs::Tracer* tracer_ = nullptr;
  uint32_t trace_track_ = 0;  // "store" track when tracer_ set

  // The cache this store journals; set by the first journal call.
  std::atomic<access::HistoryCache*> bound_cache_{nullptr};

  // The group-commit queue. Lock order: mu_ before queue_mu_.
  std::mutex queue_mu_;
  std::string pending_;           // encoded records, in journal order
  uint64_t pending_records_ = 0;
  bool writer_active_ = false;    // some thread holds the writer role
  std::string draining_;          // swapped with pending_ under mu_

  mutable std::mutex mu_;  // serializes group writes, checkpoints, stats
  HistoryStoreStats stats_;
  util::Status last_error_;

  // Background-checkpoint state, all under mu_. Segment coverage is
  // tracked with MONOTONE counters (segments ever rotated / ever retired)
  // rather than list sizes, so a fold retires exactly the segments its
  // export covers even when earlier folds shrank the list — or new
  // rotations grew it — while the export waited or wrote.
  std::vector<std::string> fold_segments_;  // on disk, oldest first
  uint64_t rotated_total_ = 0;    // segments ever pushed onto the list
  uint64_t retired_total_ = 0;    // segments ever retired off its front
  uint64_t next_fold_seq_ = 2;    // suffix for the next numbered segment
  bool ckpt_inflight_ = false;    // image pinned or snapshot being written
  bool stopping_ = false;
  ExportedCacheImage ckpt_image_;   // the in-flight fold's pinned export
  uint64_t ckpt_covers_ = 0;        // export covers rotations < this count
  bool queued_fold_ = false;        // a newer export awaits the thread
  ExportedCacheImage queued_image_;
  uint64_t queued_covers_ = 0;
  std::condition_variable ckpt_cv_;  // wakes the checkpoint thread
  std::condition_variable idle_cv_;  // wakes WaitForIdle / Checkpoint
  std::thread checkpoint_thread_;    // joined by the destructor
};

}  // namespace histwalk::store

#endif  // HISTWALK_STORE_HISTORY_STORE_H_
