// Wire-protocol unit tests: frame round trips, and rejection of every
// flavor of damage a network can inflict — truncation, bit flips in header
// and body, bogus lengths — before any field is trusted.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>

#include "server/protocol.h"
#include "server/wire.h"

namespace livegraph {
namespace {

// Splits an encoded frame back into (header, body) for the decode helpers.
struct SplitFrame {
  char header[kFrameHeaderSize];
  std::string body;
};

SplitFrame Split(const std::string& encoded) {
  SplitFrame split{};
  EXPECT_GE(encoded.size(), kFrameHeaderSize)
      << "frame shorter than a header";
  if (encoded.size() >= kFrameHeaderSize) {
    std::memcpy(split.header, encoded.data(), kFrameHeaderSize);
    split.body = encoded.substr(kFrameHeaderSize);
  }
  return split;
}

TEST(WireCodec, FixedWidthRoundTrip) {
  std::string buffer;
  WireWriter writer(&buffer);
  writer.PutU8(0xAB);
  writer.PutU16(0xBEEF);
  writer.PutU32(0xDEADBEEF);
  writer.PutU64(0x0123456789ABCDEFull);
  writer.PutI64(-42);
  writer.PutBytes("payload");

  WireReader reader(buffer);
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  std::string_view bytes;
  ASSERT_TRUE(reader.GetU8(&u8));
  ASSERT_TRUE(reader.GetU16(&u16));
  ASSERT_TRUE(reader.GetU32(&u32));
  ASSERT_TRUE(reader.GetU64(&u64));
  ASSERT_TRUE(reader.GetI64(&i64));
  ASSERT_TRUE(reader.GetBytes(&bytes));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(bytes, "payload");
  EXPECT_TRUE(reader.Exhausted());
}

TEST(WireCodec, ReaderRejectsTruncation) {
  std::string buffer;
  WireWriter writer(&buffer);
  writer.PutU32(7);
  WireReader reader(std::string_view(buffer).substr(0, 3));
  uint32_t value;
  EXPECT_FALSE(reader.GetU32(&value));

  // Length prefix claiming more bytes than the buffer holds.
  std::string lying;
  WireWriter liar(&lying);
  liar.PutU32(100);  // length prefix with no payload behind it
  WireReader lied_to(lying);
  std::string_view bytes;
  EXPECT_FALSE(lied_to.GetBytes(&bytes));
}

TEST(FrameCodec, EncodeDecodeRoundTrip) {
  std::string encoded;
  EncodeFrame(MsgType::kScanBatch, kFlagEndOfStream, "edge-bytes", &encoded);
  EXPECT_EQ(encoded.size(), kFrameHeaderSize + 10);

  SplitFrame split = Split(encoded);
  MsgType type;
  uint8_t flags;
  uint32_t body_size;
  ASSERT_TRUE(DecodeFrameHeader(split.header, &type, &flags, &body_size));
  EXPECT_EQ(type, MsgType::kScanBatch);
  EXPECT_EQ(flags, kFlagEndOfStream);
  EXPECT_EQ(body_size, 10u);
  EXPECT_TRUE(ValidateFrame(split.header, split.body));
}

TEST(FrameCodec, EmptyBodyRoundTrip) {
  std::string encoded;
  EncodeFrame(MsgType::kStats, kFlagNone, "", &encoded);
  SplitFrame split = Split(encoded);
  MsgType type;
  uint8_t flags;
  uint32_t body_size;
  ASSERT_TRUE(DecodeFrameHeader(split.header, &type, &flags, &body_size));
  EXPECT_EQ(body_size, 0u);
  EXPECT_TRUE(ValidateFrame(split.header, split.body));
}

TEST(FrameCodec, AppendsWithoutClearing) {
  // Connections batch multiple frames into one send buffer.
  std::string encoded;
  EncodeFrame(MsgType::kScanBatch, kFlagNone, "first", &encoded);
  size_t first_size = encoded.size();
  EncodeFrame(MsgType::kScanBatch, kFlagEndOfStream, "second", &encoded);
  EXPECT_EQ(encoded.size(), first_size + kFrameHeaderSize + 6);
  SplitFrame first = Split(encoded.substr(0, first_size));
  EXPECT_TRUE(ValidateFrame(first.header, first.body));
  SplitFrame second = Split(encoded.substr(first_size));
  EXPECT_TRUE(ValidateFrame(second.header, second.body));
}

TEST(FrameCodec, RejectsBadMagic) {
  std::string encoded;
  EncodeFrame(MsgType::kHello, kFlagNone, "hi", &encoded);
  encoded[0] ^= 0x01;
  SplitFrame split = Split(encoded);
  MsgType type;
  uint8_t flags;
  uint32_t body_size;
  EXPECT_FALSE(DecodeFrameHeader(split.header, &type, &flags, &body_size));
}

TEST(FrameCodec, RejectsUnknownType) {
  std::string encoded;
  EncodeFrame(MsgType::kHello, kFlagNone, "", &encoded);
  encoded[4] = static_cast<char>(0xF3);  // type byte outside the enum
  SplitFrame split = Split(encoded);
  MsgType type;
  uint8_t flags;
  uint32_t body_size;
  EXPECT_FALSE(DecodeFrameHeader(split.header, &type, &flags, &body_size));
}

TEST(FrameCodec, RejectsOversizedBodyLength) {
  std::string encoded;
  EncodeFrame(MsgType::kGetNode, kFlagNone, "x", &encoded);
  // Overwrite body_size (offset 8) with kMaxFrameBody + 1.
  std::string patched;
  WireWriter writer(&patched);
  writer.PutU32(kMaxFrameBody + 1);
  encoded.replace(8, 4, patched);
  SplitFrame split = Split(encoded);
  MsgType type;
  uint8_t flags;
  uint32_t body_size;
  EXPECT_FALSE(DecodeFrameHeader(split.header, &type, &flags, &body_size));
}

TEST(FrameCodec, CrcCatchesHeaderCorruption) {
  std::string encoded;
  EncodeFrame(MsgType::kScanBatch, kFlagNone, "body", &encoded);
  encoded[5] ^= 0x01;  // flip kFlagEndOfStream on
  SplitFrame split = Split(encoded);
  MsgType type;
  uint8_t flags;
  uint32_t body_size;
  // Structurally still a plausible header ...
  ASSERT_TRUE(DecodeFrameHeader(split.header, &type, &flags, &body_size));
  // ... but the CRC pins the flag byte.
  EXPECT_FALSE(ValidateFrame(split.header, split.body));
}

TEST(FrameCodec, CrcCatchesBodyCorruption) {
  std::string encoded;
  EncodeFrame(MsgType::kAddNode, kFlagNone, "node-properties", &encoded);
  encoded[kFrameHeaderSize + 3] ^= 0x40;
  SplitFrame split = Split(encoded);
  EXPECT_FALSE(ValidateFrame(split.header, split.body));
}

TEST(FrameCodec, CrcCatchesTruncatedBody) {
  std::string encoded;
  EncodeFrame(MsgType::kAddNode, kFlagNone, "twelve-bytes", &encoded);
  SplitFrame split = Split(encoded);
  split.body.resize(split.body.size() - 1);
  EXPECT_FALSE(ValidateFrame(split.header, split.body));
}

TEST(StatusWire, RoundTripsEveryStatus) {
  for (Status status :
       {Status::kOk, Status::kConflict, Status::kTimeout, Status::kNotFound,
        Status::kNotActive, Status::kUnavailable}) {
    EXPECT_EQ(StatusFromWire(StatusToWire(status)), status)
        << StatusName(status);
  }
  // Unknown wire bytes degrade to kUnavailable, never alias onto kOk.
  EXPECT_EQ(StatusFromWire(0xEE), Status::kUnavailable);
}

}  // namespace
}  // namespace livegraph
