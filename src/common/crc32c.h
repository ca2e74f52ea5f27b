#ifndef VELOCE_COMMON_CRC32C_H_
#define VELOCE_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace veloce::crc32c {

/// Computes the CRC-32C (Castagnoli) of data[0, n), extending `init_crc`.
/// Used to detect corruption in WAL records, SSTable blocks and transport
/// frames. Runs on the SSE4.2 `crc32` instruction when the CPU has it
/// (checked once, at first use), else on ExtendPortable; both give the same
/// value.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The byte-at-a-time table kernel: the fallback on CPUs without SSE4.2 and
/// the reference Extend is tested against. The SQL<->KV transport model
/// calls it directly for its per-row checksums, because Fig 6's Q1 ratio is
/// calibrated to their cost.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// Masked CRCs are stored in files so that computing the CRC of a string
/// containing embedded CRCs doesn't trivially collide (the LevelDB trick).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}
inline uint32_t Unmask(uint32_t masked) {
  const uint32_t rot = masked - 0xa282ead8ul;
  return (rot >> 17) | (rot << 15);
}

}  // namespace veloce::crc32c

#endif  // VELOCE_COMMON_CRC32C_H_
