#include "common/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace veloce::crc32c {

namespace {

// Table-driven CRC-32C, generated at first use from the Castagnoli
// polynomial (reflected form 0x82F63B78).
struct Table {
  uint32_t t[256];
  Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      t[i] = crc;
    }
  }
};

const Table& GetTable() {
  static const Table* table = new Table();
  return *table;
}

using Kernel = uint32_t (*)(uint32_t, const char*, size_t);

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli CRC:
// one instruction per 8 bytes, then one per tail byte.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data, size_t n) {
  uint64_t crc = init_crc ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, data += 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++data) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*data));
  }
  return crc32 ^ 0xFFFFFFFFu;
}
#endif

Kernel ChooseKernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();  // first use may come from a static initializer
  if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
  return ExtendPortable;
}

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const Table& table = GetTable();
  uint32_t crc = init_crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = table.t[(crc ^ static_cast<unsigned char>(data[i])) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  static const Kernel kernel = ChooseKernel();
  return kernel(init_crc, data, n);
}

}  // namespace veloce::crc32c
