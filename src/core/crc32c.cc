#include "core/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define RANGESYN_CRC32C_SSE42 1
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#include <arm_acle.h>
#define RANGESYN_CRC32C_ARMV8 1
#endif

namespace rangesyn {
namespace {

/// Byte-at-a-time lookup table for the reflected Castagnoli polynomial,
/// built once at static-init time (256 entries, pure function — no
/// ordering hazard).
std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

// The CRC32C instructions fold eight bytes per step in the same reflected
// bit order as the table, so a little-endian 8-byte load followed by the
// byte tail equals the byte-at-a-time result exactly.
#if defined(RANGESYN_CRC32C_SSE42)
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       std::string_view data) {
  const char* p = data.data();
  size_t n = data.size();
  uint64_t wide = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    wide = _mm_crc32_u64(wide, word);
  }
  auto narrow = static_cast<uint32_t>(wide);
  for (; n > 0; ++p, --n) {
    narrow = _mm_crc32_u8(narrow, static_cast<unsigned char>(*p));
  }
  return ~narrow;
}
#elif defined(RANGESYN_CRC32C_ARMV8)
uint32_t ExtendArmv8(uint32_t crc, std::string_view data) {
  const char* p = data.data();
  size_t n = data.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = __crc32cd(crc, word);
  }
  for (; n > 0; ++p, --n) {
    crc = __crc32cb(crc, static_cast<unsigned char>(*p));
  }
  return ~crc;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, std::string_view);

ExtendFn SelectExtend() {
#if defined(RANGESYN_CRC32C_SSE42)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &ExtendSse42;
  return &Crc32cExtendPortable;
#elif defined(RANGESYN_CRC32C_ARMV8)
  return &ExtendArmv8;  // the build targets CPUs with the CRC32 extension
#else
  return &Crc32cExtendPortable;
#endif
}

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, std::string_view data) {
  const std::array<uint32_t, 256>& table = Table();
  crc = ~crc;
  for (char c : data) {
    crc = table[(crc ^ static_cast<unsigned char>(c)) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32cExtend(uint32_t crc, std::string_view data) {
  static const ExtendFn extend = SelectExtend();
  return extend(crc, data);
}

uint32_t Crc32c(std::string_view data) { return Crc32cExtend(0, data); }

}  // namespace rangesyn
