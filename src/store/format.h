#ifndef HISTWALK_STORE_FORMAT_H_
#define HISTWALK_STORE_FORMAT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>

#include "util/status.h"

// Shared on-disk encoding for the store layer's two file kinds:
//
//   snapshot  (store/snapshot.h)  — full HistoryCache image, per-shard
//                                   sections, written atomically
//   WAL       (store/wal.h)       — append-only log of cache insertions,
//                                   replayed on top of a snapshot
//
// Both start with a 4-byte magic and a u32 format-version field, and both
// checksum their payloads with util::Crc32 so corruption surfaces as the
// typed kDataLoss status instead of as silently wrong cache contents. All
// integers are fixed-width little-endian regardless of host byte order —
// files written on one platform load on any other.

namespace histwalk::store {

inline constexpr uint32_t kSnapshotMagic = 0x53535748;  // "HWSS"
inline constexpr uint32_t kWalMagic = 0x4C575748;       // "HWWL"

// Bumped whenever the record layout changes. Readers refuse other versions
// with kFailedPrecondition (a versioning problem, not data loss).
inline constexpr uint32_t kFormatVersion = 1;

// Upper bound on a single WAL record payload (a quarter-billion-neighbor
// list is not a real response). A declared length beyond this is corruption
// of the length field itself, not a torn write — without the bound, a
// bit-flipped length would read as "file ends inside this record" and
// silently truncate everything after it.
inline constexpr uint32_t kMaxWalRecordPayload = 1u << 28;  // 256 MiB

// Durability scope, shared by both file kinds: writes are flushed through
// the C++ stream layer but never fsync'd, so the crash-safety contract
// covers PROCESS death (kill -9, crash, OOM), not power loss or kernel
// crashes — a lost page cache can drop or tear recent writes beyond what
// the formats promise to repair.

// Reads a whole store file into memory. kNotFound ONLY when the file does
// not exist (a clean cold start everywhere in this layer); any other
// open/read failure is kInternal. The distinction is load-bearing:
// WalWriter::Open recreates a kNotFound log from scratch, so a transient
// open failure (permissions, fd exhaustion) must never masquerade as
// "no log yet" and truncate real history.
inline util::Result<std::string> ReadFileBytes(const std::string& path,
                                               const char* kind) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    if (!std::filesystem::exists(path, ec) && !ec) {
      return util::Status::NotFound(std::string("no ") + kind + " at " +
                                    path);
    }
    // Exists but is not a readable regular file (a directory, a special
    // file, or stat itself failed) — never a silent cold start.
    return util::Status::Internal(std::string("cannot open ") + kind +
                                  " at " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::Internal(std::string("cannot open ") + kind +
                                  " at " + path);
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return util::Status::Internal("read failed for " + path);
  }
  return data;
}

// ---- little-endian primitives ----------------------------------------------

inline void AppendU32(std::string& out, uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

// Stores `v` little-endian at `dst` (any alignment): one plain store on a
// little-endian host, byte by byte elsewhere.
inline void StoreU32(char* dst, uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &v, sizeof(v));
  } else {
    dst[0] = static_cast<char>(v & 0xFF);
    dst[1] = static_cast<char>((v >> 8) & 0xFF);
    dst[2] = static_cast<char>((v >> 16) & 0xFF);
    dst[3] = static_cast<char>((v >> 24) & 0xFF);
  }
}

inline void AppendU64(std::string& out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFull));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

// Bounds-checked sequential reader over a byte buffer. Every Read* returns
// false on underrun instead of reading past the end — the caller decides
// whether that underrun means a tolerable truncated tail (WAL) or data
// loss (snapshot).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
    *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (remaining() < 8 || !ReadU32(&lo) || !ReadU32(&hi)) return false;
    *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
  }

  // Hands out a view of the next `n` bytes without copying.
  bool ReadBytes(size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace histwalk::store

#endif  // HISTWALK_STORE_FORMAT_H_
