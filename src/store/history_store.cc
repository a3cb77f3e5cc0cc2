#include "store/history_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "obs/profiler.h"
#include "util/check.h"

namespace histwalk::store {

HistoryStore::HistoryStore(HistoryStoreOptions options)
    : options_(std::move(options)) {}

util::Result<std::unique_ptr<HistoryStore>> HistoryStore::Open(
    HistoryStoreOptions options) {
  HW_CHECK(!options.snapshot_path.empty());
  std::unique_ptr<HistoryStore> store(new HistoryStore(std::move(options)));
  if (!store->options_.wal_path.empty()) {
    auto wal = WalWriter::Open(store->options_.wal_path);
    if (!wal.ok()) return wal.status();
    store->wal_ = *std::move(wal);
    store->stats_.wal_bytes = store->wal_->file_bytes();
    // Open() may already have repaired a crash's torn tail; surface that
    // here since the subsequent replay sees only the repaired file.
    store->stats_.recovered_torn_tail = store->wal_->repaired_torn_tail();
    // Leftover fold segments mean a background checkpoint never finished
    // (crash or write failure). Adopt them: LoadInto replays them, and the
    // next fold — which snapshots the rebuilt cache, a superset of every
    // segment — retires them.
    store->AdoptFoldSegments();
    if (store->options_.checkpoint_wal_bytes != 0 &&
        store->options_.background_checkpoint) {
      store->checkpoint_thread_ =
          std::thread([s = store.get()] { s->CheckpointThreadLoop(); });
    }
  }
  return store;
}

HistoryStore::~HistoryStore() {
  {
    // A fold this drain trips is finished by the checkpoint thread below.
    std::lock_guard<std::mutex> lock(mu_);
    DrainLocked();
  }
  if (checkpoint_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    ckpt_cv_.notify_all();
    checkpoint_thread_.join();
  }
  Flush();
}

util::Status HistoryStore::LoadInto(access::HistoryCache& cache) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.load_snapshot) {
    const std::string& snapshot_path = options_.load_snapshot_path.empty()
                                           ? options_.snapshot_path
                                           : options_.load_snapshot_path;
    auto snapshot = LoadSnapshot(snapshot_path, cache, options_.num_threads);
    if (snapshot.ok()) {
      stats_.loaded_snapshot_entries += snapshot->entries;
    } else if (snapshot.status().code() != util::StatusCode::kNotFound) {
      return snapshot.status();
    }
  }
  if (!options_.wal_path.empty()) {
    // Fold segments first, oldest first (they predate the active WAL),
    // then the active WAL on top; all replays are idempotent.
    std::vector<std::string> replay_paths = fold_segments_;
    replay_paths.push_back(options_.wal_path);
    for (const std::string& path : replay_paths) {
      auto replay = ReplayWal(path, cache);
      if (replay.ok()) {
        stats_.replayed_wal_records += replay->records_applied;
        stats_.replayed_wal_inserted += replay->records_inserted;
        stats_.recovered_torn_tail |= replay->recovered_torn_tail;
      } else if (replay.status().code() != util::StatusCode::kNotFound) {
        return replay.status();
      }
    }
  }
  return util::Status::Ok();
}

void HistoryStore::OnCacheInsert(graph::NodeId v,
                                 std::span<const graph::NodeId> neighbors,
                                 access::HistoryCache& cache) {
  const access::HistoryCache::ImportEntry entry{v, neighbors};
  const bool inserted = true;
  OnCacheInsertBatch({&entry, 1}, &inserted, cache);
}

void HistoryStore::OnCacheInsertBatch(
    std::span<const access::HistoryCache::ImportEntry> entries,
    const bool* inserted, access::HistoryCache& cache) {
  if (options_.wal_path.empty()) return;  // WAL disabled (immutable config)
  const uint64_t count =
      static_cast<uint64_t>(std::count(inserted, inserted + entries.size(),
                                       true));
  if (count == 0) return;
  HW_PROF_SCOPE("store/append");
  access::HistoryCache* bound = nullptr;
  if (!bound_cache_.compare_exchange_strong(bound, &cache) &&
      bound != &cache) {
    std::lock_guard<std::mutex> lock(mu_);
    RecordError(util::Status::FailedPrecondition(
                    "history store already journals another cache"),
                count);
    return;
  }
  {
    std::lock_guard<std::mutex> queue(queue_mu_);
    for (size_t i = 0; i < entries.size(); ++i) {
      if (!inserted[i]) continue;
      WalWriter::EncodeRecord(entries[i].node, entries[i].neighbors,
                              pending_);
      // Emitted under the queue lock: enqueue order is journal order, so
      // store-track event order equals journal order.
      HW_TRACE_INSTANT_ARGS(
          tracer_, trace_track_, "journal_append",
          "\"node\":" + std::to_string(entries[i].node) +
              ",\"neighbors\":" +
              std::to_string(entries[i].neighbors.size()));
    }
    pending_records_ += count;
    // The active writer re-checks the queue before giving up its role, so
    // it takes these records; never wait on its write.
    if (writer_active_) return;
    writer_active_ = true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  while (WritePendingLocked(/*release_role=*/true)) {
  }
}

bool HistoryStore::WritePendingLocked(bool release_role) {
  uint64_t records = 0;
  {
    std::lock_guard<std::mutex> queue(queue_mu_);
    if (pending_records_ == 0) {
      if (release_role) writer_active_ = false;
      return false;
    }
    draining_.swap(pending_);
    records = pending_records_;
    pending_records_ = 0;
  }
  util::Status status;
  if (wal_ == nullptr) {
    // A rotation's reopen failed earlier (transient IO error); retry it
    // here so journaling self-heals. Until it succeeds, every dropped
    // group is counted as append failures.
    auto reopened = WalWriter::Open(options_.wal_path);
    if (reopened.ok()) {
      wal_ = *std::move(reopened);
    } else {
      status = reopened.status();
    }
  }
  if (status.ok()) status = wal_->WriteGroup(draining_, records);
  draining_.clear();
  if (!status.ok()) {
    RecordError(status, records);
    return true;
  }
  stats_.appended_records += records;
  stats_.wal_bytes = wal_->file_bytes();
  if (options_.checkpoint_wal_bytes == 0 ||
      wal_->file_bytes() < options_.checkpoint_wal_bytes) {
    return true;
  }
  // Records were queued, so a cache is bound.
  access::HistoryCache& cache = *bound_cache_.load();
  if (options_.background_checkpoint) {
    // Rotate + pin here (cheap), serialize + write on the checkpoint
    // thread: the writer never waits for a snapshot write. While a fold
    // is already in flight the rotation still happens — the active WAL is
    // parked on the fold segment list instead of growing past the
    // threshold — and the freshly pinned export supersedes any fold
    // already queued.
    RequestBackgroundFold(cache);
  } else {
    // Inline fold, still under mu_. Holding the lock is what makes the
    // fold loss-free with a single WAL: every record the reset erases was
    // written before it, and its cache insert landed before it was
    // queued, so it is in this snapshot; records queued meanwhile land in
    // the fresh WAL afterwards — never dropped. The cost is that the next
    // group write stalls for the length of one snapshot write each time
    // the threshold trips.
    RecordError(CheckpointLocked(cache), /*dropped_records=*/0);
  }
  return true;
}

void HistoryStore::AdoptFoldSegments() {
  fold_segments_.clear();
  std::error_code ec;
  if (std::filesystem::exists(fold_path(), ec) && !ec) {
    fold_segments_.push_back(fold_path());
  }
  // Numbered segments ("<wal>.fold.<N>") were rotated after the bare one;
  // adopt them in ascending-N (rotation) order. Matching is on FILENAME
  // (the configured path may spell the directory differently than the
  // iterator, e.g. a doubled slash).
  std::vector<std::pair<uint64_t, std::string>> numbered;
  const std::string prefix =
      std::filesystem::path(fold_path()).filename().string() + ".";
  std::filesystem::path dir =
      std::filesystem::path(options_.wal_path).parent_path();
  if (dir.empty()) dir = ".";
  std::filesystem::directory_iterator it(dir, ec);
  if (!ec) {
    for (const auto& entry : it) {
      const std::string filename = entry.path().filename().string();
      if (filename.rfind(prefix, 0) != 0) continue;
      const std::string suffix = filename.substr(prefix.size());
      char* end = nullptr;
      const uint64_t seq = std::strtoull(suffix.c_str(), &end, 10);
      if (suffix.empty() || end == nullptr || *end != '\0') continue;
      numbered.emplace_back(seq, entry.path().string());
      if (seq >= next_fold_seq_) next_fold_seq_ = seq + 1;
    }
  }
  std::sort(numbered.begin(), numbered.end());
  for (auto& [seq, path] : numbered) {
    fold_segments_.push_back(std::move(path));
  }
  rotated_total_ = fold_segments_.size();
  retired_total_ = 0;
  SyncFoldStats();
}

std::string HistoryStore::NextFoldSegmentPath() {
  // The bare ".fold" name is only (re)used when no segment exists at all,
  // so on-disk segments are always the bare name followed by ascending
  // numbers — the adoption order above matches rotation order.
  std::error_code ec;
  if (fold_segments_.empty() && !(std::filesystem::exists(fold_path(), ec) &&
                                  !ec)) {
    return fold_path();
  }
  return fold_path() + "." + std::to_string(next_fold_seq_++);
}

void HistoryStore::RetireFoldSegments(size_t count) {
  count = std::min(count, fold_segments_.size());
  for (size_t i = 0; i < count; ++i) {
    std::remove(fold_segments_[i].c_str());
  }
  fold_segments_.erase(fold_segments_.begin(),
                       fold_segments_.begin() + static_cast<long>(count));
  retired_total_ += count;
  SyncFoldStats();
}

void HistoryStore::SyncFoldStats() {
  stats_.fold_segment_pending = !fold_segments_.empty();
  stats_.fold_segments_queued = fold_segments_.size();
}

void HistoryStore::RequestBackgroundFold(const access::HistoryCache& cache) {
  if (fold_segments_.size() < kMaxFoldSegments) {
    // Rotate the active log out of the way so post-rotation appends are
    // never retired by this fold. Past the segment cap (folds failing
    // repeatedly) the WAL grows instead — bounded litter over unbounded.
    util::Status flushed = wal_->Flush();
    if (!flushed.ok()) {
      RecordError(flushed, /*dropped_records=*/0);
      return;
    }
    const std::string segment = NextFoldSegmentPath();
    wal_.reset();  // closes the file
    if (std::rename(options_.wal_path.c_str(), segment.c_str()) != 0) {
      RecordError(
          util::Status::Internal("wal rotation rename failed for " +
                                 options_.wal_path),
          /*dropped_records=*/0);
      // Fall through to reopen the (un-renamed) log and keep journaling.
    } else {
      fold_segments_.push_back(segment);
      ++rotated_total_;
      SyncFoldStats();
    }
    auto reopened = WalWriter::Open(options_.wal_path);
    if (!reopened.ok()) {
      // No active WAL for now: each subsequent group write retries the
      // reopen (and counts its records as append failures until one
      // succeeds — see WritePendingLocked), matching the fire-and-forget
      // journal contract.
      RecordError(reopened.status(), /*dropped_records=*/0);
      return;
    }
    wal_ = *std::move(reopened);
    stats_.wal_bytes = wal_->file_bytes();
  }
  // Pin the export on the inserting thread — the only thread with a
  // guaranteed-live cache reference. A newer export covers every segment
  // rotated so far, so it supersedes any fold still waiting for the
  // checkpoint thread (at most one fold queues behind the in-flight one).
  if (!ckpt_inflight_) {
    ckpt_image_ = ExportCacheImage(cache);
    ckpt_covers_ = rotated_total_;
    ckpt_inflight_ = true;
    ckpt_cv_.notify_one();
  } else {
    queued_image_ = ExportCacheImage(cache);
    queued_covers_ = rotated_total_;
    queued_fold_ = true;
  }
}

void HistoryStore::CheckpointThreadLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    ckpt_cv_.wait(lock, [this] { return stopping_ || ckpt_inflight_; });
    if (!ckpt_inflight_) {
      HW_CHECK(stopping_);
      return;
    }
    ExportedCacheImage image = std::move(ckpt_image_);
    ckpt_image_.clear();
    const uint64_t covers = ckpt_covers_;
    lock.unlock();
    // The expensive part — serialization, CRC, disk write, atomic rename —
    // runs with the journal unlocked: inserts keep landing meanwhile.
    auto written =
        WriteSnapshot(image, options_.snapshot_path, options_.num_threads);
    image.clear();
    lock.lock();
    if (written.ok()) {
      ++stats_.checkpoints;
      // Only the segments the pinned export covered are retired — counted
      // against the monotone rotation clock, so segments rotated while
      // this fold waited or wrote (which the export does NOT cover) are
      // never touched; they stay for the queued fold.
      RetireFoldSegments(covers > retired_total_
                             ? static_cast<size_t>(covers - retired_total_)
                             : 0);
    } else {
      // Keep the fold segments: they still hold the records the snapshot
      // failed to capture, and recovery replays them.
      RecordError(written.status(), /*dropped_records=*/0);
    }
    if (queued_fold_ && !stopping_) {
      // A rotation queued a newer export while we were writing: fold it
      // now. (On a failed write the queued export still covers at least
      // as much, so retrying with it is strictly better.)
      ckpt_image_ = std::move(queued_image_);
      queued_image_.clear();
      ckpt_covers_ = queued_covers_;
      queued_fold_ = false;
      continue;  // stay in flight
    }
    ckpt_inflight_ = false;
    idle_cv_.notify_all();
  }
}

util::Status HistoryStore::Checkpoint(const access::HistoryCache& cache) {
  std::unique_lock<std::mutex> lock(mu_);
  DrainLocked();
  idle_cv_.wait(lock, [this] { return !ckpt_inflight_; });
  return CheckpointLocked(cache);
}

util::Status HistoryStore::CheckpointLocked(
    const access::HistoryCache& cache) {
  HW_PROF_SCOPE("store/checkpoint");
  const uint64_t ckpt_start_us =
      tracer_ != nullptr ? tracer_->NowUs() : 0;
  auto written =
      WriteSnapshot(cache, options_.snapshot_path, options_.num_threads);
  if (!written.ok()) return written.status();
  if (tracer_ != nullptr) {
    tracer_->Complete(trace_track_, "checkpoint", ckpt_start_us,
                      tracer_->NowUs() - ckpt_start_us,
                      "\"entries\":" + std::to_string(cache.stats().entries));
  }
  if (wal_ != nullptr) {
    HW_RETURN_IF_ERROR(wal_->Reset());
    stats_.wal_bytes = wal_->file_bytes();
  }
  // The snapshot just written covers every fold segment's records (they
  // are cache contents); retire them all.
  RetireFoldSegments(fold_segments_.size());
  ++stats_.checkpoints;
  return util::Status::Ok();
}

void HistoryStore::set_tracer(obs::Tracer* tracer) {
  std::scoped_lock lock(mu_, queue_mu_);
  tracer_ = tracer;
  if (tracer_ != nullptr) trace_track_ = tracer_->RegisterTrack("store");
}

util::Status HistoryStore::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  DrainLocked();
  if (wal_ == nullptr) return util::Status::Ok();
  return wal_->Flush();
}

void HistoryStore::WaitForIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  DrainLocked();
  idle_cv_.wait(lock, [this] { return !ckpt_inflight_; });
}

HistoryStoreStats HistoryStore::stats() {
  std::lock_guard<std::mutex> lock(mu_);
  DrainLocked();
  return stats_;
}

util::Status HistoryStore::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

void HistoryStore::RecordError(const util::Status& status,
                               uint64_t dropped_records) {
  if (status.ok()) return;
  if (dropped_records > 0) {
    stats_.append_failures += dropped_records;
  } else {
    ++stats_.checkpoint_failures;
  }
  if (last_error_.ok()) last_error_ = status;
}

}  // namespace histwalk::store
