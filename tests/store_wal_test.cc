#include "store/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "access/graph_access.h"
#include "access/shared_access.h"
#include "graph/graph.h"
#include "store/format.h"
#include "store/history_store.h"
#include "util/crc32.h"
#include "util/status.h"

namespace histwalk::store {
namespace {

using access::HistoryCache;

std::string TempPath(const std::string& name) {
  std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());  // tests reuse names across runs
  return path;
}

std::vector<graph::NodeId> List(std::initializer_list<graph::NodeId> ids) {
  return std::vector<graph::NodeId>(ids);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

util::Status AppendSequence(const std::string& path, graph::NodeId from,
                            graph::NodeId to) {
  auto writer = WalWriter::Open(path);
  if (!writer.ok()) return writer.status();
  for (graph::NodeId v = from; v < to; ++v) {
    HW_RETURN_IF_ERROR((*writer)->Append(v, List({v + 1, v + 2})));
  }
  return (*writer)->Flush();
}

// The record format written one field at a time, as the on-disk layout in
// store/wal.h describes it: the reference the group encoder must match.
void ReferenceRecord(graph::NodeId v, const std::vector<graph::NodeId>& nbrs,
                     std::string& out) {
  std::string payload;
  AppendU32(payload, v);
  AppendU32(payload, static_cast<uint32_t>(nbrs.size()));
  for (graph::NodeId n : nbrs) AppendU32(payload, n);
  AppendU32(out, static_cast<uint32_t>(payload.size()));
  AppendU32(out, util::Crc32(payload));
  out += payload;
}

std::string ReferenceHeader() {
  std::string header;
  AppendU32(header, kWalMagic);
  AppendU32(header, kFormatVersion);
  return header;
}

// Records of varied shape: empty lists, long lists, high bits set.
std::vector<std::pair<graph::NodeId, std::vector<graph::NodeId>>>
VariedRecords() {
  std::vector<std::pair<graph::NodeId, std::vector<graph::NodeId>>> records;
  for (graph::NodeId v = 0; v < 40; ++v) {
    std::vector<graph::NodeId> nbrs;
    for (graph::NodeId d = 0; d < (v * 7) % 23; ++d) {
      nbrs.push_back(0x80000000u ^ (v * 2654435761u + d));
    }
    records.emplace_back(v * 3 + 1, std::move(nbrs));
  }
  return records;
}

TEST(WalTest, GroupWritesMatchTheReferenceEncoder) {
  const auto records = VariedRecords();
  std::string expected = ReferenceHeader();
  for (const auto& [v, nbrs] : records) ReferenceRecord(v, nbrs, expected);

  // Groups of 1, 2, 3, ... records; the bytes depend only on record order.
  const std::string path = TempPath("wal_groups.hwwl");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    std::string group;
    size_t next = 0;
    for (size_t size = 1; next < records.size(); ++size) {
      group.clear();
      const size_t end = std::min(records.size(), next + size);
      for (; next < end; ++next) {
        WalWriter::EncodeRecord(records[next].first, records[next].second,
                                group);
      }
      ASSERT_TRUE((*writer)->WriteGroup(group, size).ok());
    }
    EXPECT_EQ((*writer)->file_bytes(), expected.size());
  }
  EXPECT_EQ(ReadBytes(path), expected);
}

TEST(WalTest, StoreBatchPathWritesTheReferenceBytes) {
  // StoreFetchedBatch -> HistoryStore group commit -> WAL: the file holds
  // exactly the inserted entries, in batch order, reference-encoded.
  const auto records = VariedRecords();
  const std::string wal = TempPath("wal_store_batch.hwwl");
  const std::string snap = TempPath("wal_store_batch.hwss");
  graph::Graph graph;
  access::GraphAccess backend(&graph, nullptr);
  std::string expected = ReferenceHeader();
  {
    auto store = HistoryStore::Open(
        {.snapshot_path = snap, .wal_path = wal, .checkpoint_wal_bytes = 0});
    ASSERT_TRUE(store.ok()) << store.status();
    access::SharedAccessGroup group(&backend, {.journal = store->get()});
    std::vector<access::HistoryCache::ImportEntry> batch;
    for (size_t i = 0; i < records.size(); ++i) {
      batch.push_back({records[i].first, records[i].second});
      // Every third entry repeats the previous one: resident, not journaled.
      if (i % 3 == 2) batch.push_back(batch[batch.size() - 2]);
      if (batch.size() >= 7 || i + 1 == records.size()) {
        group.StoreFetchedBatch(batch);
        batch.clear();
      }
      ReferenceRecord(records[i].first, records[i].second, expected);
    }
    EXPECT_EQ((*store)->stats().appended_records, records.size());
  }
  EXPECT_EQ(ReadBytes(wal), expected);
}

TEST(WalTest, AppendThenReplayRestoresEveryRecord) {
  const std::string path = TempPath("wal_basic.hwwl");
  ASSERT_TRUE(AppendSequence(path, 0, 50).ok());

  HistoryCache cache({.num_shards = 4});
  auto replay = ReplayWal(path, cache);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->records_applied, 50u);
  EXPECT_EQ(replay->records_inserted, 50u);
  EXPECT_FALSE(replay->recovered_torn_tail);
  for (graph::NodeId v = 0; v < 50; ++v) {
    auto entry = cache.Get(v);
    ASSERT_NE(entry, nullptr) << "node " << v;
    EXPECT_EQ(*entry, List({v + 1, v + 2}));
  }
}

TEST(WalTest, ReplayIsDeterministic) {
  // Same append sequence -> byte-identical log files -> identical caches.
  const std::string path_a = TempPath("wal_det_a.hwwl");
  const std::string path_b = TempPath("wal_det_b.hwwl");
  ASSERT_TRUE(AppendSequence(path_a, 0, 40).ok());
  ASSERT_TRUE(AppendSequence(path_b, 0, 40).ok());
  EXPECT_EQ(ReadBytes(path_a), ReadBytes(path_b));

  HistoryCache ca({.num_shards = 4});
  HistoryCache cb({.num_shards = 4});
  ASSERT_TRUE(ReplayWal(path_a, ca).ok());
  ASSERT_TRUE(ReplayWal(path_b, cb).ok());
  for (uint32_t s = 0; s < 4; ++s) {
    auto ea = ca.ExportShard(s);
    auto eb = cb.ExportShard(s);
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].node, eb[i].node);
      EXPECT_EQ(*ea[i].neighbors, *eb[i].neighbors);
    }
  }
}

TEST(WalTest, OpenAppendsAfterExistingRecords) {
  const std::string path = TempPath("wal_reopen.hwwl");
  ASSERT_TRUE(AppendSequence(path, 0, 10).ok());
  ASSERT_TRUE(AppendSequence(path, 10, 20).ok());  // second session
  HistoryCache cache({.num_shards = 2});
  auto replay = ReplayWal(path, cache);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records_applied, 20u);
}

TEST(WalTest, TornTailIsToleratedAndReported) {
  const std::string path = TempPath("wal_torn.hwwl");
  ASSERT_TRUE(AppendSequence(path, 0, 30).ok());
  std::string bytes = ReadBytes(path);
  // Crash mid-append: drop the last 7 bytes (inside the final record).
  WriteBytes(path, bytes.substr(0, bytes.size() - 7));

  HistoryCache cache({.num_shards = 2});
  auto replay = ReplayWal(path, cache);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->records_applied, 29u);  // last record dropped
  EXPECT_TRUE(replay->recovered_torn_tail);
  EXPECT_GT(replay->dropped_bytes, 0u);
  EXPECT_NE(cache.Get(28), nullptr);
  EXPECT_EQ(cache.Get(29), nullptr);
}

TEST(WalTest, OpenRepairsTornTailBeforeAppending) {
  const std::string path = TempPath("wal_repair.hwwl");
  ASSERT_TRUE(AppendSequence(path, 0, 10).ok());
  std::string bytes = ReadBytes(path);
  WriteBytes(path, bytes.substr(0, bytes.size() - 3));

  // Re-open for appending: the torn tail must be truncated away so the new
  // record lands at a clean boundary.
  ASSERT_TRUE(AppendSequence(path, 100, 101).ok());
  HistoryCache cache({.num_shards = 2});
  auto replay = ReplayWal(path, cache);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->records_applied, 10u);  // 9 surviving + 1 new
  EXPECT_FALSE(replay->recovered_torn_tail);
  EXPECT_EQ(cache.Get(9), nullptr);          // the torn record stayed dead
  EXPECT_NE(cache.Get(100), nullptr);
}

TEST(WalTest, InteriorCorruptionIsDataLossAndAppliesNothing) {
  const std::string path = TempPath("wal_interior.hwwl");
  ASSERT_TRUE(AppendSequence(path, 0, 20).ok());
  std::string bytes = ReadBytes(path);
  // Corrupt a payload byte well before the end: a CRC mismatch with more
  // records after it is unrecoverable, not a torn tail.
  bytes[bytes.size() / 2] ^= 0x01;
  WriteBytes(path, bytes);

  HistoryCache cache({.num_shards = 2});
  auto replay = ReplayWal(path, cache);
  ASSERT_FALSE(replay.ok());
  EXPECT_TRUE(util::IsDataLoss(replay.status())) << replay.status();
  // All-or-nothing: the prefix before the corruption was NOT applied.
  EXPECT_EQ(cache.stats().entries, 0u);

  // And the writer refuses to append to it.
  auto writer = WalWriter::Open(path);
  ASSERT_FALSE(writer.ok());
  EXPECT_TRUE(util::IsDataLoss(writer.status()));
}

TEST(WalTest, CorruptedLengthFieldIsDataLossNotTornTail) {
  // A bit flip in a record's length field must not be mistaken for a torn
  // write: trusting the bogus length would silently drop every valid
  // record after it.
  const std::string path = TempPath("wal_badlen.hwwl");
  ASSERT_TRUE(AppendSequence(path, 0, 20).ok());
  std::string bytes = ReadBytes(path);
  // Records are uniform: header(8) + 24 bytes each. Overwrite record 5's
  // length field (its first 4 bytes) with a huge value.
  const size_t record5 = 8 + 5 * 24;
  bytes[record5 + 0] = '\xff';
  bytes[record5 + 1] = '\xff';
  bytes[record5 + 2] = '\xff';
  bytes[record5 + 3] = '\x7f';
  WriteBytes(path, bytes);

  HistoryCache cache({.num_shards = 2});
  auto replay = ReplayWal(path, cache);
  ASSERT_FALSE(replay.ok());
  EXPECT_TRUE(util::IsDataLoss(replay.status())) << replay.status();
  EXPECT_EQ(cache.stats().entries, 0u);
  auto writer = WalWriter::Open(path);
  ASSERT_FALSE(writer.ok());
  EXPECT_TRUE(util::IsDataLoss(writer.status()));
}

TEST(WalTest, CrashBeforeHeaderFlushIsRepairedOnOpen) {
  // kill -9 between file creation and the header flush leaves an empty
  // file; the next Open must recreate the header instead of refusing the
  // resume forever.
  const std::string path = TempPath("wal_empty.hwwl");
  WriteBytes(path, "");

  HistoryCache cache({.num_shards = 2});
  auto replay = ReplayWal(path, cache);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->records_applied, 0u);
  EXPECT_TRUE(replay->recovered_torn_tail);

  ASSERT_TRUE(AppendSequence(path, 0, 3).ok());
  auto after = ReplayWal(path, cache);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->records_applied, 3u);
}

TEST(WalTest, PartialHeaderPrefixIsRepairedButForeignBytesAreNot) {
  // 4 bytes of OUR magic = a torn header, repairable.
  const std::string torn = TempPath("wal_torn_header.hwwl");
  WriteBytes(torn, std::string("\x48\x57\x57\x4c", 4));  // "HWWL"
  auto scan = ScanWal(torn);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->torn_tail);
  // 4 bytes of something else = a foreign file, never claimed.
  const std::string foreign = TempPath("wal_foreign.hwwl");
  WriteBytes(foreign, "ELF!");
  auto bad = ScanWal(foreign);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(util::IsDataLoss(bad.status()));
}

TEST(WalTest, MissingFileIsNotFound) {
  HistoryCache cache({.num_shards = 2});
  auto replay = ReplayWal(TempPath("wal_missing.hwwl"), cache);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), util::StatusCode::kNotFound);
}

TEST(WalTest, UnreadableExistingPathIsNotMistakenForMissing) {
  // A path that exists but cannot be read as a file (here: a directory)
  // must NOT report kNotFound — Open() recreates kNotFound logs from
  // scratch, so the confusion would truncate real history.
  const std::string path = TempPath("wal_is_a_dir.hwwl");
  ASSERT_TRUE(std::filesystem::create_directory(path));
  HistoryCache cache({.num_shards = 2});
  auto replay = ReplayWal(path, cache);
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.status().code(), util::StatusCode::kNotFound)
      << replay.status();
  auto writer = WalWriter::Open(path);
  EXPECT_FALSE(writer.ok());
  // And the directory is still there — nothing was truncated or replaced.
  EXPECT_TRUE(std::filesystem::is_directory(path));
  std::filesystem::remove(path);
}

TEST(WalTest, BadMagicIsDataLoss) {
  const std::string path = TempPath("wal_bad_magic.hwwl");
  WriteBytes(path, "definitely not a write-ahead log");
  HistoryCache cache({.num_shards = 2});
  auto replay = ReplayWal(path, cache);
  ASSERT_FALSE(replay.ok());
  EXPECT_TRUE(util::IsDataLoss(replay.status()));
}

TEST(WalTest, ResetTruncatesToBareHeader) {
  const std::string path = TempPath("wal_reset.hwwl");
  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(1, List({2})).ok());
  ASSERT_TRUE((*writer)->Append(2, List({3})).ok());
  uint64_t before = (*writer)->file_bytes();
  ASSERT_TRUE((*writer)->Reset().ok());
  EXPECT_LT((*writer)->file_bytes(), before);

  // Still a valid (now empty) log, and appendable after the reset.
  ASSERT_TRUE((*writer)->Append(7, List({8, 9})).ok());
  ASSERT_TRUE((*writer)->Flush().ok());
  HistoryCache cache({.num_shards = 2});
  auto replay = ReplayWal(path, cache);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->records_applied, 1u);
  EXPECT_NE(cache.Get(7), nullptr);
  EXPECT_EQ(cache.Get(1), nullptr);
}

TEST(WalTest, ScanReportsWithoutTouchingAnything) {
  const std::string path = TempPath("wal_scan.hwwl");
  ASSERT_TRUE(AppendSequence(path, 0, 5).ok());
  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->valid_records, 5u);
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->valid_bytes, ReadBytes(path).size());
}

}  // namespace
}  // namespace histwalk::store
