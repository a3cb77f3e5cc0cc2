#include "store/history_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "access/graph_access.h"
#include "access/shared_access.h"
#include "core/walker_factory.h"
#include "estimate/ensemble_runner.h"
#include "estimate/walk_runner.h"
#include "graph/generators.h"
#include "net/request_pipeline.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/status.h"

namespace histwalk::store {

// Reaches the group-commit queue: holding the writer role stands in for a
// writer thread that has taken the role and not yet written.
class HistoryStoreTestPeer {
 public:
  static void SetWriterRole(HistoryStore& store, bool held) {
    std::lock_guard<std::mutex> queue(store.queue_mu_);
    store.writer_active_ = held;
  }
  static uint64_t QueuedRecords(HistoryStore& store) {
    std::lock_guard<std::mutex> queue(store.queue_mu_);
    return store.pending_records_;
  }
};

namespace {

std::string TempPath(const std::string& name) {
  std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

graph::Graph TestGraph() {
  util::Random rng(7);
  return graph::MakeWattsStrogatz(/*n=*/600, /*k=*/6, /*beta=*/0.15, rng);
}

// Walks `steps` CNRW steps over a group journaling into a store, returning
// the trace. `budget` 0 = unlimited.
estimate::TracedWalk CrawlOnce(const graph::Graph& graph,
                               access::SharedAccessGroup& group,
                               uint64_t seed, uint64_t steps) {
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto view = group.MakeView(resolver);
  auto walker =
      core::MakeWalker({.type = core::WalkerType::kCnrw}, view.get(), seed);
  EXPECT_TRUE(walker.ok());
  util::Random start_rng(seed ^ 0x5bd1e995u);
  graph::NodeId start =
      static_cast<graph::NodeId>(start_rng.UniformIndex(graph.num_nodes()));
  EXPECT_TRUE((*walker)->Reset(start).ok());
  return estimate::TraceWalk(**walker, {.max_steps = steps});
}

TEST(HistoryStoreTest, JournalsSyncMissesAndRebuildsAcrossProcesses) {
  const std::string snap = TempPath("hs_sync.hwss");
  const std::string wal = TempPath("hs_sync.hwwl");
  graph::Graph graph = TestGraph();

  uint64_t first_entries = 0;
  {
    // "Process 1": crawl with an attached store, then exit WITHOUT an
    // explicit save — the WAL alone must carry the history.
    auto store = HistoryStore::Open(
        {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
    ASSERT_TRUE(store.ok()) << store.status();
    access::GraphAccess backend(&graph, nullptr);
    access::SharedAccessGroup group(&backend, {.journal = store->get()});
    CrawlOnce(graph, group, /*seed=*/3, /*steps=*/800);
    first_entries = group.cache().stats().entries;
    EXPECT_GT(first_entries, 0u);
    EXPECT_EQ((*store)->stats().appended_records, first_entries);
  }
  {
    // "Process 2": a fresh store over the same files rebuilds the cache.
    auto store = HistoryStore::Open(
        {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
    ASSERT_TRUE(store.ok()) << store.status();
    access::HistoryCache cache({.num_shards = 8});
    ASSERT_TRUE((*store)->LoadInto(cache).ok());
    EXPECT_EQ(cache.stats().entries, first_entries);
    EXPECT_EQ((*store)->stats().replayed_wal_records, first_entries);
    EXPECT_EQ((*store)->stats().loaded_snapshot_entries, 0u);
  }
}

TEST(HistoryStoreTest, JournalsPipelineFetchesToo) {
  const std::string snap = TempPath("hs_pipe.hwss");
  const std::string wal = TempPath("hs_pipe.hwwl");
  graph::Graph graph = TestGraph();

  auto store = HistoryStore::Open(
      {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
  ASSERT_TRUE(store.ok()) << store.status();
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group(
      &backend, {.cache = {.num_shards = 8}, .journal = store->get()});
  net::RequestPipeline pipeline(&group, {.depth = 4, .max_batch = 8});
  auto run = estimate::RunEnsemble(
      group, pipeline, {.type = core::WalkerType::kCnrw},
      {.num_walkers = 4, .seed = 11, .max_steps = 200});
  ASSERT_TRUE(run.ok()) << run.status();

  // Every entry the pipeline inserted was journaled exactly once.
  EXPECT_EQ((*store)->stats().appended_records, group.cache().stats().entries);
  EXPECT_EQ((*store)->stats().append_failures, 0u);
  EXPECT_TRUE((*store)->last_error().ok());

  access::HistoryCache rebuilt({.num_shards = 8});
  ASSERT_TRUE((*store)->LoadInto(rebuilt).ok());
  EXPECT_EQ(rebuilt.stats().entries, group.cache().stats().entries);
}

TEST(HistoryStoreTest, AutoCheckpointFoldsWalIntoSnapshot) {
  // Default mode: the fold runs on the background checkpoint thread.
  const std::string snap = TempPath("hs_ckpt.hwss");
  const std::string wal = TempPath("hs_ckpt.hwwl");
  graph::Graph graph = TestGraph();

  auto store = HistoryStore::Open({.snapshot_path = snap,
                                   .wal_path = wal,
                                   // Tiny threshold: force several folds.
                                   .checkpoint_wal_bytes = 2048});
  ASSERT_TRUE(store.ok()) << store.status();
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group(&backend, {.journal = store->get()});
  CrawlOnce(graph, group, /*seed=*/5, /*steps=*/1200);
  (*store)->WaitForIdle();

  HistoryStoreStats stats = (*store)->stats();
  EXPECT_GT(stats.checkpoints, 0u);
  // Unlike the inline mode, the active WAL may overshoot the threshold by
  // whatever lands while a fold is in flight (the no-stall trade-off); the
  // rotation still retired every pre-rotation byte from it.
  EXPECT_FALSE(stats.fold_segment_pending);  // fold segments retired
  EXPECT_TRUE((*store)->last_error().ok());

  // Snapshot + residual WAL together still reproduce the full history.
  auto reopened = HistoryStore::Open(
      {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
  ASSERT_TRUE(reopened.ok());
  access::HistoryCache rebuilt({.num_shards = 8});
  ASSERT_TRUE((*reopened)->LoadInto(rebuilt).ok());
  EXPECT_EQ(rebuilt.stats().entries, group.cache().stats().entries);
  EXPECT_GT((*reopened)->stats().loaded_snapshot_entries, 0u);
}

TEST(HistoryStoreTest, InlineCheckpointStillFoldsOnTheInsertPath) {
  // background_checkpoint = false preserves the PR-3 inline fold exactly:
  // checkpoints are synchronous, so no WaitForIdle is needed and no fold
  // segment ever exists.
  const std::string snap = TempPath("hs_ckpt_inline.hwss");
  const std::string wal = TempPath("hs_ckpt_inline.hwwl");
  graph::Graph graph = TestGraph();

  auto store = HistoryStore::Open({.snapshot_path = snap,
                                   .wal_path = wal,
                                   .checkpoint_wal_bytes = 2048,
                                   .background_checkpoint = false});
  ASSERT_TRUE(store.ok()) << store.status();
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group(&backend, {.journal = store->get()});
  CrawlOnce(graph, group, /*seed=*/5, /*steps=*/1200);

  HistoryStoreStats stats = (*store)->stats();
  EXPECT_GT(stats.checkpoints, 0u);
  EXPECT_LT(stats.wal_bytes, 2048u + 512u);
  EXPECT_FALSE(stats.fold_segment_pending);

  access::HistoryCache rebuilt({.num_shards = 8});
  auto reopened = HistoryStore::Open(
      {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE((*reopened)->LoadInto(rebuilt).ok());
  EXPECT_EQ(rebuilt.stats().entries, group.cache().stats().entries);
}

TEST(HistoryStoreTest, InterruptedBackgroundFoldRecoversFromFoldSegment) {
  // The documented crash window: the WAL was rotated out to the fold
  // segment but the process died before the snapshot landed. Recovery must
  // replay snapshot + fold segment + active WAL.
  const std::string snap = TempPath("hs_fold.hwss");
  const std::string wal = TempPath("hs_fold.hwwl");
  const std::string fold = wal + ".fold";
  graph::Graph graph = TestGraph();

  uint64_t total_entries = 0;
  {
    // Build a WAL with some records, then simulate the crash: rename it to
    // the fold segment by hand (exactly what rotation does) and journal a
    // few more records into a fresh active WAL. No snapshot is written.
    auto store = HistoryStore::Open(
        {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
    ASSERT_TRUE(store.ok());
    access::GraphAccess backend(&graph, nullptr);
    access::SharedAccessGroup group(&backend, {.journal = store->get()});
    CrawlOnce(graph, group, /*seed=*/13, /*steps=*/400);
    total_entries = group.cache().stats().entries;
  }
  ASSERT_EQ(std::rename(wal.c_str(), fold.c_str()), 0);
  {
    auto store = HistoryStore::Open(
        {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
    ASSERT_TRUE(store.ok());
    access::GraphAccess backend(&graph, nullptr);
    access::SharedAccessGroup group(&backend, {.journal = store->get()});
    // Pre-warm from the fold so the "post-rotation" crawl extends it the
    // way a real crashed process would have.
    ASSERT_TRUE((*store)->LoadInto(group.cache()).ok());
    CrawlOnce(graph, group, /*seed=*/14, /*steps=*/400);
    total_entries = group.cache().stats().entries;
  }

  // "Restart": the store adopts the fold segment and recovery sees all of
  // snapshot-less fold + active WAL.
  auto store = HistoryStore::Open(
      {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->stats().fold_segment_pending);
  access::HistoryCache rebuilt({.num_shards = 8});
  ASSERT_TRUE((*store)->LoadInto(rebuilt).ok());
  EXPECT_EQ(rebuilt.stats().entries, total_entries);

  // An explicit checkpoint folds everything into the snapshot and retires
  // the segment.
  ASSERT_TRUE((*store)->Checkpoint(rebuilt).ok());
  EXPECT_FALSE((*store)->stats().fold_segment_pending);
  EXPECT_FALSE(std::ifstream(fold).good());
}

TEST(HistoryStoreTest, BackgroundFoldLosesNothingUnderConcurrentInserts) {
  // Pipeline-driven concurrent inserts trip background folds mid-crawl;
  // afterwards snapshot + segments must reproduce every cached entry.
  const std::string snap = TempPath("hs_bg_conc.hwss");
  const std::string wal = TempPath("hs_bg_conc.hwwl");
  graph::Graph graph = TestGraph();

  auto store = HistoryStore::Open({.snapshot_path = snap,
                                   .wal_path = wal,
                                   .checkpoint_wal_bytes = 4096});
  ASSERT_TRUE(store.ok());
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group(
      &backend, {.cache = {.num_shards = 8}, .journal = store->get()});
  net::RequestPipeline pipeline(&group, {.depth = 4, .max_batch = 8});
  auto run = estimate::RunEnsemble(
      group, pipeline, {.type = core::WalkerType::kCnrw},
      {.num_walkers = 4, .seed = 29, .max_steps = 400});
  ASSERT_TRUE(run.ok()) << run.status();
  (*store)->WaitForIdle();
  EXPECT_GT((*store)->stats().checkpoints, 0u);
  EXPECT_TRUE((*store)->last_error().ok());

  auto reopened = HistoryStore::Open(
      {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
  ASSERT_TRUE(reopened.ok());
  access::HistoryCache rebuilt({.num_shards = 8});
  ASSERT_TRUE((*reopened)->LoadInto(rebuilt).ok());
  EXPECT_EQ(rebuilt.stats().entries, group.cache().stats().entries);
}

TEST(HistoryStoreTest, StaleWalOverSnapshotReplaysIdempotently) {
  // The documented crash window: snapshot renamed, WAL truncation never
  // happened. Loading must tolerate the full overlap.
  const std::string snap = TempPath("hs_stale.hwss");
  const std::string wal = TempPath("hs_stale.hwwl");
  graph::Graph graph = TestGraph();

  auto store = HistoryStore::Open(
      {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
  ASSERT_TRUE(store.ok());
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group(&backend, {.journal = store->get()});
  CrawlOnce(graph, group, /*seed=*/9, /*steps=*/600);
  // Snapshot the cache WITHOUT resetting the WAL (simulated crash window).
  ASSERT_TRUE(WriteSnapshot(group.cache(), snap).ok());

  auto reopened = HistoryStore::Open(
      {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
  ASSERT_TRUE(reopened.ok());
  access::HistoryCache rebuilt({.num_shards = 8});
  ASSERT_TRUE((*reopened)->LoadInto(rebuilt).ok());
  EXPECT_EQ(rebuilt.stats().entries, group.cache().stats().entries);
  // Replay found every WAL record already resident.
  EXPECT_EQ((*reopened)->stats().replayed_wal_inserted, 0u);
}

TEST(HistoryStoreTest, LoadSnapshotFalseSkipsSnapshotButReplaysWal) {
  const std::string snap = TempPath("hs_noload.hwss");
  const std::string wal = TempPath("hs_noload.hwwl");
  graph::Graph graph = TestGraph();

  // Seed the files: a journaled crawl folded into a snapshot, plus a
  // fresh WAL record afterwards.
  auto store = HistoryStore::Open(
      {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
  ASSERT_TRUE(store.ok());
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group(&backend, {.journal = store->get()});
  CrawlOnce(graph, group, /*seed=*/4, /*steps=*/200);
  ASSERT_TRUE((*store)->Checkpoint(group.cache()).ok());
  CrawlOnce(graph, group, /*seed=*/6, /*steps=*/50);  // post-fold records
  const uint64_t post_fold = (*store)->stats().wal_bytes;
  ASSERT_GT(post_fold, 8u);  // something landed after the reset

  // A save-only consumer of the same paths must come up COLD on the
  // snapshot (it only writes it) while the WAL still replays.
  auto save_only = HistoryStore::Open({.snapshot_path = snap,
                                       .load_snapshot = false,
                                       .wal_path = wal,
                                       .checkpoint_wal_bytes = 0});
  ASSERT_TRUE(save_only.ok());
  access::HistoryCache cache({.num_shards = 8});
  ASSERT_TRUE((*save_only)->LoadInto(cache).ok());
  EXPECT_EQ((*save_only)->stats().loaded_snapshot_entries, 0u);
  EXPECT_GT((*save_only)->stats().replayed_wal_records, 0u);
  EXPECT_LT(cache.stats().entries, group.cache().stats().entries);
}

TEST(HistoryStoreTest, SnapshotOnlyStoreNeedsNoWal) {
  const std::string snap = TempPath("hs_snaponly.hwss");
  graph::Graph graph = TestGraph();
  auto store = HistoryStore::Open({.snapshot_path = snap, .wal_path = ""});
  ASSERT_TRUE(store.ok());

  access::GraphAccess backend(&graph, nullptr);
  // Journaling into a snapshot-only store is a no-op.
  access::SharedAccessGroup group(&backend, {.journal = store->get()});
  CrawlOnce(graph, group, /*seed=*/2, /*steps=*/300);
  EXPECT_EQ((*store)->stats().appended_records, 0u);
  ASSERT_TRUE((*store)->Checkpoint(group.cache()).ok());

  access::HistoryCache rebuilt({.num_shards = 8});
  ASSERT_TRUE((*store)->LoadInto(rebuilt).ok());
  EXPECT_EQ(rebuilt.stats().entries, group.cache().stats().entries);
}

// The resume acceptance property: a crawl cut by a spent budget, resumed in
// a "new process" from the persisted history with the same seed and the
// same per-run budget, produces a merged trace bit-identical to an
// uninterrupted crawl given the combined budget — while re-paying nothing
// for the prefix.
TEST(HistoryStoreTest, ResumedCrawlMatchesUninterruptedTrace) {
  const std::string snap = TempPath("hs_resume.hwss");
  const std::string wal = TempPath("hs_resume.hwwl");
  graph::Graph graph = TestGraph();
  constexpr uint64_t kBudget = 80;
  constexpr uint64_t kSeed = 21;
  constexpr uint64_t kMaxSteps = 100000;

  // Run 1: budget-limited crawl, journaled; "dies" when the budget is cut.
  estimate::TracedWalk first;
  {
    auto store = HistoryStore::Open(
        {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
    ASSERT_TRUE(store.ok());
    access::GraphAccess backend(&graph, nullptr);
    access::SharedAccessGroup group(
        &backend, {.query_budget = kBudget, .journal = store->get()});
    first = CrawlOnce(graph, group, kSeed, kMaxSteps);
    EXPECT_TRUE(util::IsBudgetStop(first.final_status)) << first.final_status;
    EXPECT_EQ(group.charged_queries(), kBudget);
  }

  // Run 2 ("new process"): same seed, same budget, history restored.
  estimate::TracedWalk resumed;
  uint64_t resumed_charges = 0;
  {
    auto store = HistoryStore::Open(
        {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
    ASSERT_TRUE(store.ok());
    access::GraphAccess backend(&graph, nullptr);
    access::SharedAccessGroup group(&backend, {.query_budget = kBudget});
    ASSERT_TRUE((*store)->LoadInto(group.cache()).ok());
    EXPECT_EQ(group.cache().stats().entries, kBudget);
    resumed = CrawlOnce(graph, group, kSeed, kMaxSteps);
    resumed_charges = group.charged_queries();
  }

  // Reference: one uninterrupted crawl with the combined budget.
  estimate::TracedWalk uninterrupted;
  {
    access::GraphAccess backend(&graph, nullptr);
    access::SharedAccessGroup group(&backend,
                                    {.query_budget = 2 * kBudget});
    uninterrupted = CrawlOnce(graph, group, kSeed, kMaxSteps);
  }

  // Bit-identical resumed trace; the first run's prefix is its prefix.
  EXPECT_EQ(resumed.nodes, uninterrupted.nodes);
  EXPECT_EQ(resumed.degrees, uninterrupted.degrees);
  ASSERT_LE(first.nodes.size(), resumed.nodes.size());
  EXPECT_TRUE(std::equal(first.nodes.begin(), first.nodes.end(),
                         resumed.nodes.begin()));
  // And the resume paid only for NEW nodes: exactly its own budget, having
  // re-walked the first run's coverage for free.
  EXPECT_EQ(resumed_charges, kBudget);
  EXPECT_GT(resumed.nodes.size(), first.nodes.size());
}

// Writes a standalone WAL segment file holding records for nodes
// [first, first + count).
void WriteSegment(const std::string& path, graph::NodeId first,
                  uint32_t count) {
  auto wal = WalWriter::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status();
  for (uint32_t i = 0; i < count; ++i) {
    const graph::NodeId v = first + i;
    const std::vector<graph::NodeId> neighbors{v + 1, v + 2};
    ASSERT_TRUE((*wal)->Append(v, neighbors).ok());
  }
  ASSERT_TRUE((*wal)->Flush().ok());
}

TEST(HistoryStoreTest, AdoptsAndReplaysAFoldSegmentList) {
  // A crash can leave SEVERAL rotated-out fold segments (one per
  // threshold trip while earlier folds were still in flight, numbered in
  // rotation order, possibly with retired gaps). Open must adopt all of
  // them, LoadInto must replay all of them, and a checkpoint must retire
  // all of them.
  const std::string snap = TempPath("hs_seglist.hwss");
  const std::string wal = TempPath("hs_seglist.hwwl");
  TempPath("hs_seglist.hwwl.fold");      // clear leftovers
  TempPath("hs_seglist.hwwl.fold.2");
  TempPath("hs_seglist.hwwl.fold.5");
  WriteSegment(wal + ".fold", /*first=*/0, /*count=*/10);
  WriteSegment(wal + ".fold.2", /*first=*/10, /*count=*/10);
  WriteSegment(wal + ".fold.5", /*first=*/20, /*count=*/10);
  WriteSegment(wal, /*first=*/30, /*count=*/5);  // the active WAL

  auto store = HistoryStore::Open(
      {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_TRUE((*store)->stats().fold_segment_pending);
  EXPECT_EQ((*store)->stats().fold_segments_queued, 3u);

  access::HistoryCache cache({.num_shards = 4});
  ASSERT_TRUE((*store)->LoadInto(cache).ok());
  EXPECT_EQ(cache.stats().entries, 35u);
  EXPECT_EQ((*store)->stats().replayed_wal_records, 35u);

  // A checkpoint covers every segment's records; all three are retired.
  ASSERT_TRUE((*store)->Checkpoint(cache).ok());
  EXPECT_FALSE((*store)->stats().fold_segment_pending);
  EXPECT_EQ((*store)->stats().fold_segments_queued, 0u);
  EXPECT_FALSE(std::ifstream(wal + ".fold").good());
  EXPECT_FALSE(std::ifstream(wal + ".fold.2").good());
  EXPECT_FALSE(std::ifstream(wal + ".fold.5").good());

  // Recovery from the folded state alone sees the full history.
  auto reopened = HistoryStore::Open(
      {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->stats().fold_segments_queued, 0u);
  access::HistoryCache rebuilt({.num_shards = 4});
  ASSERT_TRUE((*reopened)->LoadInto(rebuilt).ok());
  EXPECT_EQ(rebuilt.stats().entries, 35u);
}

TEST(HistoryStoreTest, RotationStormUnderBackgroundFoldsIsLossFree) {
  // Concurrent inserts with a tiny threshold force rotations to land
  // while folds are in flight — the queued-fold-segment path. Whatever
  // the interleaving, recovery must see every record, and the segment
  // list must respect its cap.
  const std::string snap = TempPath("hs_storm.hwss");
  const std::string wal = TempPath("hs_storm.hwwl");
  constexpr uint32_t kNodes = 3000;
  {
    auto store = HistoryStore::Open({.snapshot_path = snap,
                                     .wal_path = wal,
                                     .checkpoint_wal_bytes = 512,
                                     .background_checkpoint = true});
    ASSERT_TRUE(store.ok()) << store.status();
    access::HistoryCache cache({.num_shards = 8});
    util::ParallelFor(
        kNodes,
        [&](size_t i) {
          const graph::NodeId v = static_cast<graph::NodeId>(i);
          const std::vector<graph::NodeId> neighbors{v + 1, v + 7};
          // The journal contract: the cache insert lands BEFORE the
          // journal append.
          bool inserted = false;
          cache.Put(v, neighbors, &inserted);
          ASSERT_TRUE(inserted);
          (*store)->OnCacheInsert(v, neighbors, cache);
        },
        /*num_threads=*/8);
    (*store)->WaitForIdle();
    HistoryStoreStats stats = (*store)->stats();
    EXPECT_EQ(stats.appended_records, kNodes);
    EXPECT_EQ(stats.append_failures, 0u);
    EXPECT_GT(stats.checkpoints, 0u);
    EXPECT_LE(stats.fold_segments_queued, HistoryStore::kMaxFoldSegments);
    EXPECT_TRUE((*store)->last_error().ok());
  }
  // "Restart": snapshot + any leftover segments + active WAL must rebuild
  // every inserted record.
  auto store = HistoryStore::Open({.snapshot_path = snap,
                                   .wal_path = wal,
                                   .checkpoint_wal_bytes = 0});
  ASSERT_TRUE(store.ok()) << store.status();
  access::HistoryCache rebuilt({.num_shards = 8});
  ASSERT_TRUE((*store)->LoadInto(rebuilt).ok());
  EXPECT_EQ(rebuilt.stats().entries, kNodes);
}

TEST(HistoryStoreTest, OneStoreJournalsOneCache) {
  // Two caches journaling into one store: a fold pins only one cache and
  // would retire a segment holding the other's records. The store binds
  // the first cache and refuses the second instead of losing records.
  const std::string snap = TempPath("hs_two_caches.hwss");
  const std::string wal = TempPath("hs_two_caches.hwwl");
  constexpr graph::NodeId kNodes = 200;
  {
    auto store = HistoryStore::Open({.snapshot_path = snap,
                                     .wal_path = wal,
                                     .checkpoint_wal_bytes = 512});
    ASSERT_TRUE(store.ok()) << store.status();
    access::HistoryCache first({.num_shards = 4});
    access::HistoryCache second({.num_shards = 4});
    for (graph::NodeId v = 0; v < kNodes; ++v) {
      access::HistoryCache& cache = v % 2 == 0 ? first : second;
      const std::vector<graph::NodeId> neighbors{v + 1, v + 2, v + 3};
      cache.Put(v, neighbors, nullptr);
      (*store)->OnCacheInsert(v, neighbors, cache);
    }
    (*store)->WaitForIdle();
    const HistoryStoreStats stats = (*store)->stats();
    EXPECT_EQ(stats.appended_records, kNodes / 2);
    EXPECT_EQ(stats.append_failures, kNodes / 2);
    EXPECT_GT(stats.checkpoints, 0u);
    EXPECT_EQ((*store)->last_error().code(),
              util::StatusCode::kFailedPrecondition);
  }
  auto reopened = HistoryStore::Open(
      {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  access::HistoryCache rebuilt({.num_shards = 4});
  ASSERT_TRUE((*reopened)->LoadInto(rebuilt).ok());
  // Every record of the bound cache, and nothing of the refused one.
  EXPECT_EQ(rebuilt.stats().entries, kNodes / 2);
  for (graph::NodeId v = 0; v < kNodes; v += 2) {
    EXPECT_NE(rebuilt.Get(v), nullptr) << "node " << v;
  }
}

TEST(HistoryStoreTest, ConcurrentBatchesAreInTheFileOnceEveryCallReturned) {
  // 8 threads land batches through StoreFetchedBatch while rotations trip.
  // The snapshot path is unwritable, so no fold retires a segment: after
  // every round, with the store still open and nothing flushed, the active
  // WAL plus the rotated segments must hold every inserted record exactly
  // once, since a record is written before the last journal call in
  // flight returns. Many short rounds give many chances to strand a record
  // that was queued while the last writer was writing.
  const std::string dir = testing::TempDir() + "/hs_group_commit";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string wal = dir + "/log.hwwl";
  constexpr uint32_t kRounds = 40;
  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kBatches = 12;
  constexpr uint32_t kBatchSize = 9;
  constexpr uint32_t kRoundIds = kThreads * kBatches * kBatchSize;

  auto store = HistoryStore::Open({.snapshot_path = dir + "/missing/s.hwss",
                                   .wal_path = wal,
                                   .checkpoint_wal_bytes = 4096});
  ASSERT_TRUE(store.ok()) << store.status();
  graph::Graph graph;
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group(
      &backend, {.cache = {.num_shards = 8}, .journal = store->get()});
  for (uint32_t round = 0; round < kRounds; ++round) {
    util::ParallelFor(
        kThreads,
        [&](size_t t) {
          std::vector<std::vector<graph::NodeId>> lists(kBatchSize);
          std::vector<access::HistoryCache::ImportEntry> batch(kBatchSize);
          for (uint32_t b = 0; b < kBatches; ++b) {
            for (uint32_t i = 0; i < kBatchSize; ++i) {
              // Neighbouring threads overlap on half their ids, so some
              // entries are resident and must not be journaled twice.
              const auto v = static_cast<graph::NodeId>(
                  round * kRoundIds + t * kBatches * kBatchSize / 2 +
                  b * kBatchSize + i);
              lists[i] = {v + 1, v + 5, v + 9};
              batch[i] = {v, lists[i]};
            }
            group.StoreFetchedBatch(batch);
          }
        },
        kThreads);

    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.is_regular_file()) files.push_back(entry.path().string());
    }
    uint64_t records = 0;
    access::HistoryCache replayed({.num_shards = 8});
    for (const std::string& file : files) {
      auto scan = ScanWal(file);
      ASSERT_TRUE(scan.ok()) << file << ": " << scan.status();
      EXPECT_FALSE(scan->torn_tail) << file;
      records += scan->valid_records;
      ASSERT_TRUE(ReplayWal(file, replayed).ok());
    }
    const uint64_t inserted = group.cache().stats().entries;
    ASSERT_EQ(records, inserted) << "round " << round;
    ASSERT_EQ(replayed.stats().entries, inserted) << "round " << round;
    ASSERT_EQ(HistoryStoreTestPeer::QueuedRecords(**store), 0u);
    if (round + 1 == kRounds) {
      EXPECT_GT(files.size(), 1u) << "no rotation tripped";
    }
  }
  const HistoryStoreStats stats = (*store)->stats();
  EXPECT_EQ(stats.appended_records, group.cache().stats().entries);
  EXPECT_EQ(stats.append_failures, 0u);
  store->reset();
  std::filesystem::remove_all(dir);
}

TEST(HistoryStoreTest, FlushAndCheckpointDrainBehindAnActiveWriter) {
  // While another thread holds the writer role, journal calls return at
  // once and leave their records queued; Flush() and Checkpoint() must
  // write them before returning.
  const std::string snap = TempPath("hs_drain.hwss");
  const std::string wal = TempPath("hs_drain.hwwl");
  auto store = HistoryStore::Open(
      {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
  ASSERT_TRUE(store.ok()) << store.status();
  access::HistoryCache cache({.num_shards = 4});
  auto insert = [&](graph::NodeId v) {
    const std::vector<graph::NodeId> neighbors{v + 1, v + 2};
    cache.Put(v, neighbors, nullptr);
    (*store)->OnCacheInsert(v, neighbors, cache);
  };
  auto records_in_wal = [&]() -> uint64_t {
    auto scan = ScanWal(wal);
    EXPECT_TRUE(scan.ok()) << scan.status();
    return scan.ok() ? scan->valid_records : UINT64_MAX;
  };

  HistoryStoreTestPeer::SetWriterRole(**store, true);
  for (graph::NodeId v = 0; v < 3; ++v) insert(v);
  EXPECT_EQ(HistoryStoreTestPeer::QueuedRecords(**store), 3u);
  EXPECT_EQ(records_in_wal(), 0u);
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ(HistoryStoreTestPeer::QueuedRecords(**store), 0u);
  EXPECT_EQ(records_in_wal(), 3u);

  for (graph::NodeId v = 3; v < 5; ++v) insert(v);
  EXPECT_EQ(HistoryStoreTestPeer::QueuedRecords(**store), 2u);
  ASSERT_TRUE((*store)->Checkpoint(cache).ok());
  // Drained into the WAL, then folded into the snapshot with it.
  EXPECT_EQ(HistoryStoreTestPeer::QueuedRecords(**store), 0u);
  EXPECT_EQ(records_in_wal(), 0u);
  HistoryStoreTestPeer::SetWriterRole(**store, false);
  EXPECT_EQ((*store)->stats().appended_records, 5u);

  auto reopened = HistoryStore::Open(
      {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
  ASSERT_TRUE(reopened.ok());
  access::HistoryCache rebuilt({.num_shards = 4});
  ASSERT_TRUE((*reopened)->LoadInto(rebuilt).ok());
  EXPECT_EQ(rebuilt.stats().entries, 5u);
}

}  // namespace
}  // namespace histwalk::store
