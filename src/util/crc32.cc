#include "util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define LIVEGRAPH_CRC32C_SSE42 1
#endif

namespace livegraph {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected CRC32C polynomial

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

#ifdef LIVEGRAPH_CRC32C_SSE42
// One `crc32` instruction per 8-byte word (unaligned loads via memcpy),
// then the tail byte by byte. The instruction implements the same
// reflected Castagnoli step as the table loop, so the two agree bit for
// bit on every input and seed.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t length,
                                                       uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  for (; length >= 8; p += 8, length -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; length > 0; ++p, --length) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

Crc32cFn PickCrc32c() {
#ifdef LIVEGRAPH_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cPortable;
}

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t length, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  const auto& table = Table();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < length; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFF];
  }
  return ~crc;
}

uint32_t Crc32c(const void* data, size_t length, uint32_t seed) {
  // Function-local so a static initializer in another translation unit
  // that checksums something still sees the dispatch resolved.
  static const Crc32cFn impl = PickCrc32c();
  return impl(data, length, seed);
}

}  // namespace livegraph
