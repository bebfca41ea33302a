#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace livegraph {
namespace {

TEST(Crc32, KnownVectors) {
  // CRC32C ("123456789") == 0xE3069283 is the canonical check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

// RFC 3720 (iSCSI) appendix B.4 test vectors.
TEST(Crc32, Rfc3720Vectors) {
  uint8_t buf[32];
  std::memset(buf, 0x00, sizeof(buf));
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x8A9136AAu);
  std::memset(buf, 0xFF, sizeof(buf));
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x62A8AB43u);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x46DD794Eu);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(31 - i);
  EXPECT_EQ(Crc32c(buf, sizeof(buf)), 0x113FDB5Cu);
}

// Whichever path Crc32c dispatched to must agree with the table loop on
// every alignment (the word loop loads unaligned 8-byte words), every
// tail length, and chained seeds.
TEST(Crc32, DispatchedPathMatchesPortable) {
  constexpr size_t kMaxLength = 4100;
  constexpr size_t kMaxOffset = 7;
  std::vector<uint8_t> data(kMaxLength + kMaxOffset);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint8_t& byte : data) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    byte = static_cast<uint8_t>(x);
  }
  for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
    const uint8_t* p = data.data() + offset;
    for (size_t length = 0; length <= kMaxLength; ++length) {
      ASSERT_EQ(Crc32c(p, length), Crc32cPortable(p, length))
          << "offset " << offset << " length " << length;
    }
    // Chained: a seed carried across an arbitrary (unaligned) split point.
    for (size_t split = 0; split <= 64; ++split) {
      uint32_t seed = Crc32c(p, split);
      ASSERT_EQ(seed, Crc32cPortable(p, split));
      ASSERT_EQ(Crc32c(p + split, 1000, seed),
                Crc32cPortable(p + split, 1000, seed))
          << "offset " << offset << " split " << split;
      ASSERT_EQ(Crc32c(p + split, 1000, seed), Crc32c(p, split + 1000))
          << "chaining must equal one pass over the concatenation";
    }
  }
  for (uint32_t seed : {0u, 1u, 0xFFFFFFFFu, 0xDEADBEEFu}) {
    EXPECT_EQ(Crc32c(data.data() + 3, 77, seed),
              Crc32cPortable(data.data() + 3, 77, seed));
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::string data(256, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); byte += 17) {
    std::string corrupt = data;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x10);
    EXPECT_NE(Crc32c(corrupt.data(), corrupt.size()), clean)
        << "flip at byte " << byte << " undetected";
  }
}

TEST(Crc32, SeedChaining) {
  std::string a = "hello ", b = "world";
  uint32_t whole = Crc32c("hello world", 11);
  uint32_t chained = Crc32c(b.data(), b.size(), Crc32c(a.data(), a.size()));
  EXPECT_EQ(chained, whole);
}

}  // namespace
}  // namespace livegraph
