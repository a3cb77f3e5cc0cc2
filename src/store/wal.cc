#include "store/wal.h"

#include <bit>
#include <cstring>
#include <filesystem>
#include <vector>

#include "store/format.h"
#include "util/crc32.h"

namespace histwalk::store {
namespace {

constexpr size_t kWalHeaderBytes = 8;        // magic + version
constexpr size_t kRecordHeaderBytes = 8;     // length + crc

std::string ExpectedWalHeader() {
  std::string header;
  AppendU32(header, kWalMagic);
  AppendU32(header, kFormatVersion);
  return header;
}

util::Status CheckWalHeader(std::string_view data, const std::string& path) {
  ByteReader reader(data);
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!reader.ReadU32(&magic) || magic != kWalMagic) {
    return util::Status::DataLoss("bad wal magic in " + path);
  }
  if (!reader.ReadU32(&version)) {
    return util::Status::DataLoss("truncated wal header in " + path);
  }
  if (version != kFormatVersion) {
    return util::Status::FailedPrecondition(
        "unsupported wal version " + std::to_string(version) + " in " + path);
  }
  return util::Status::Ok();
}

// Walks records, optionally applying them to `cache`. The scan stops at the
// first incomplete or CRC-failing record; that tail is tolerated iff it
// extends to end-of-file (a torn write), and is interior corruption
// otherwise.
util::Result<WalScan> ScanImpl(std::string_view data, const std::string& path,
                               access::HistoryCache* cache,
                               uint64_t* inserted_out) {
  if (data.size() < kWalHeaderBytes) {
    // A crash between file creation and the header flush leaves a strict
    // prefix of the 8 header bytes (usually zero of them). That is a torn
    // header — repairable like any torn tail — while anything else this
    // short is a foreign file we must not claim.
    if (data == std::string_view(ExpectedWalHeader()).substr(0, data.size())) {
      WalScan scan;
      scan.torn_tail = true;
      scan.dropped_bytes = data.size();
      return scan;
    }
    return util::Status::DataLoss("bad wal magic in " + path);
  }
  HW_RETURN_IF_ERROR(CheckWalHeader(data, path));
  WalScan scan;
  scan.valid_bytes = kWalHeaderBytes;
  ByteReader reader(data.substr(kWalHeaderBytes));
  while (reader.remaining() > 0) {
    uint32_t length = 0;
    uint32_t crc = 0;
    std::string_view payload;
    const bool has_header = reader.remaining() >= kRecordHeaderBytes &&
                            reader.ReadU32(&length) && reader.ReadU32(&crc);
    // A declared length past the record bound cannot come from a torn
    // write (the length field is either absent or correct in one); it is a
    // corrupted length field, and trusting it would misread everything
    // after this record as "past EOF" and silently drop it.
    if (has_header && length > kMaxWalRecordPayload) {
      return util::Status::DataLoss("wal record length corrupt in " + path);
    }
    const bool complete = has_header && reader.ReadBytes(length, &payload);
    if (!complete || util::Crc32(payload) != crc) {
      // The record is unusable. If it runs to EOF it is a torn append;
      // anything after it means the middle of the log rotted.
      scan.torn_tail = true;
      scan.dropped_bytes = data.size() - scan.valid_bytes;
      const bool reaches_eof =
          !complete || kWalHeaderBytes + reader.position() == data.size();
      if (!reaches_eof) {
        return util::Status::DataLoss("wal record crc mismatch mid-log in " +
                                      path);
      }
      break;
    }
    // Decode the payload; a malformed (but CRC-clean) payload is data loss
    // outright — CRCs do not lie about torn writes.
    ByteReader record(payload);
    uint32_t node = 0;
    uint32_t degree = 0;
    if (!record.ReadU32(&node) || !record.ReadU32(&degree) ||
        record.remaining() != static_cast<size_t>(degree) * 4) {
      return util::Status::DataLoss("malformed wal record in " + path);
    }
    if (cache != nullptr) {
      std::vector<graph::NodeId> neighbors(degree);
      for (uint32_t d = 0; d < degree; ++d) {
        uint32_t neighbor = 0;
        record.ReadU32(&neighbor);
        neighbors[d] = neighbor;
      }
      bool inserted = false;
      cache->Put(node, neighbors, &inserted);
      if (inserted && inserted_out != nullptr) ++(*inserted_out);
    }
    ++scan.valid_records;
    scan.valid_bytes = kWalHeaderBytes + reader.position();
  }
  return scan;
}

}  // namespace

util::Result<WalScan> ScanWal(const std::string& path) {
  HW_ASSIGN_OR_RETURN(std::string data, ReadFileBytes(path, "wal"));
  return ScanImpl(data, path, nullptr, nullptr);
}

util::Result<WalReplayReport> ReplayWal(const std::string& path,
                                        access::HistoryCache& cache) {
  HW_ASSIGN_OR_RETURN(std::string data, ReadFileBytes(path, "wal"));
  // Validate fully before applying anything: replay is all-or-nothing with
  // respect to interior corruption.
  HW_ASSIGN_OR_RETURN(WalScan dry, ScanImpl(data, path, nullptr, nullptr));
  uint64_t inserted = 0;
  HW_ASSIGN_OR_RETURN(WalScan scan, ScanImpl(data, path, &cache, &inserted));
  WalReplayReport report;
  report.records_applied = scan.valid_records;
  report.records_inserted = inserted;
  report.recovered_torn_tail = dry.torn_tail;
  report.dropped_bytes = dry.dropped_bytes;
  return report;
}

WalWriter::WalWriter(std::string path) : path_(std::move(path)) {}

util::Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& path) {
  std::unique_ptr<WalWriter> writer(new WalWriter(path));
  auto existing = ScanWal(path);
  if (existing.ok()) {
    // Repair a torn tail before appending: never write after garbage.
    if (existing->torn_tail) {
      std::error_code ec;
      std::filesystem::resize_file(path, existing->valid_bytes, ec);
      if (ec) {
        return util::Status::Internal("cannot truncate torn wal tail in " +
                                      path + ": " + ec.message());
      }
      writer->repaired_torn_tail_ = true;
      writer->repaired_dropped_bytes_ = existing->dropped_bytes;
    }
    writer->file_bytes_ = existing->valid_bytes;
    writer->out_.open(path, std::ios::binary | std::ios::app);
    if (!writer->out_) {
      return util::Status::Internal("cannot open " + path + " for append");
    }
    if (writer->file_bytes_ < kWalHeaderBytes) {
      // The repair ate a torn header (crash before the first flush); the
      // file is empty again, so lay down a fresh header.
      std::string header = ExpectedWalHeader();
      writer->out_.write(header.data(),
                         static_cast<std::streamsize>(header.size()));
      writer->out_.flush();
      if (!writer->out_.good()) {
        return util::Status::Internal("cannot rewrite wal header in " + path);
      }
      writer->file_bytes_ = header.size();
    }
  } else if (existing.status().code() == util::StatusCode::kNotFound) {
    writer->out_.open(path, std::ios::binary | std::ios::trunc);
    if (!writer->out_) {
      return util::Status::Internal("cannot create " + path);
    }
    std::string header;
    AppendU32(header, kWalMagic);
    AppendU32(header, kFormatVersion);
    writer->out_.write(header.data(),
                       static_cast<std::streamsize>(header.size()));
    writer->out_.flush();
    if (!writer->out_.good()) {
      return util::Status::Internal("cannot write wal header to " + path);
    }
    writer->file_bytes_ = header.size();
  } else {
    return existing.status();  // kDataLoss / kFailedPrecondition pass through
  }
  return writer;
}

WalWriter::~WalWriter() { Flush(); }

void WalWriter::EncodeRecord(graph::NodeId v,
                             std::span<const graph::NodeId> neighbors,
                             std::string& out) {
  const size_t payload_bytes = 8 + 4 * neighbors.size();
  const size_t start = out.size();
  out.resize(start + kRecordHeaderBytes + payload_bytes);
  char* record = out.data() + start;
  char* payload = record + kRecordHeaderBytes;
  StoreU32(payload, v);
  StoreU32(payload + 4, static_cast<uint32_t>(neighbors.size()));
  char* cursor = payload + 8;
  static_assert(sizeof(graph::NodeId) == 4);
  if constexpr (std::endian::native == std::endian::little) {
    if (!neighbors.empty()) {
      std::memcpy(cursor, neighbors.data(), 4 * neighbors.size());
    }
  } else {
    for (graph::NodeId neighbor : neighbors) {
      StoreU32(cursor, neighbor);
      cursor += 4;
    }
  }
  StoreU32(record, static_cast<uint32_t>(payload_bytes));
  StoreU32(record + 4,
           util::Crc32(std::string_view(payload, payload_bytes)));
}

util::Status WalWriter::WriteGroup(std::string_view records, uint64_t count) {
  out_.write(records.data(), static_cast<std::streamsize>(records.size()));
  out_.flush();
  if (!out_.good()) {
    return util::Status::Internal("wal append failed for " + path_);
  }
  file_bytes_ += records.size();
  records_appended_ += count;
  return util::Status::Ok();
}

util::Status WalWriter::Append(graph::NodeId v,
                               std::span<const graph::NodeId> neighbors) {
  std::string record;
  EncodeRecord(v, neighbors, record);
  return WriteGroup(record, 1);
}

util::Status WalWriter::Flush() {
  if (!out_.is_open()) return util::Status::Ok();
  out_.flush();
  if (!out_.good()) {
    return util::Status::Internal("wal flush failed for " + path_);
  }
  return util::Status::Ok();
}

util::Status WalWriter::Reset() {
  out_.close();
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    return util::Status::Internal("cannot reset wal " + path_);
  }
  std::string header;
  AppendU32(header, kWalMagic);
  AppendU32(header, kFormatVersion);
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  out_.flush();
  if (!out_.good()) {
    return util::Status::Internal("cannot rewrite wal header in " + path_);
  }
  file_bytes_ = header.size();
  return util::Status::Ok();
}

}  // namespace histwalk::store
