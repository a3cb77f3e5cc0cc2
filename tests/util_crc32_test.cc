#include "util/crc32.h"

#include <gtest/gtest.h>

#include <string>

namespace histwalk::util {
namespace {

TEST(Crc32Test, KnownAnswerVectors) {
  // The standard check value for CRC-32/IEEE.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "snapshot section payload, split anywhere";
  for (size_t cut = 0; cut <= data.size(); ++cut) {
    uint32_t partial = Crc32(std::string_view(data).substr(0, cut));
    uint32_t full = Crc32(std::string_view(data).substr(cut), partial);
    EXPECT_EQ(full, Crc32(data)) << "cut at " << cut;
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::string data(64, '\x5a');
  const uint32_t good = Crc32(data);
  for (size_t byte = 0; byte < data.size(); byte += 7) {
    std::string flipped = data;
    flipped[byte] ^= 0x10;
    EXPECT_NE(Crc32(flipped), good) << "flip in byte " << byte;
  }
}

// The textbook one-byte-at-a-time CRC, computed bit by bit: the reference
// the table-driven implementation must match exactly.
uint32_t BitwiseCrc32(std::string_view data, uint32_t crc = 0) {
  crc = ~crc;
  for (unsigned char byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Covers the 8-byte main loop, every tail length, and unaligned starts.
  std::string buffer(257 + 8, '\0');
  uint32_t state = 0x9E3779B9u;
  for (char& c : buffer) {
    state = state * 1664525u + 1013904223u;
    c = static_cast<char>(state >> 24);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 257; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      ASSERT_EQ(Crc32(data), BitwiseCrc32(data))
          << "offset " << offset << " length " << length;
      ASSERT_EQ(Crc32(data, 0x12345678u), BitwiseCrc32(data, 0x12345678u))
          << "continued, offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, EmbeddedNulBytesAreHashed) {
  std::string with_nul("ab\0cd", 5);
  std::string without_nul("abcd", 4);
  EXPECT_NE(Crc32(with_nul), Crc32(without_nul));
}

}  // namespace
}  // namespace histwalk::util
