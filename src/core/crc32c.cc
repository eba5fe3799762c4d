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

/// The reflected Castagnoli polynomial.
constexpr uint32_t kPoly = 0x82f63b78u;

/// Byte-at-a-time lookup table for kPoly, computed at compile time.
constexpr std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = BuildTable();

#if defined(RANGESYN_CRC32C_SSE42)
/// A 32×32 matrix over GF(2), stored as its 32 columns: column i is the
/// image of bit i.
using Gf2Matrix = std::array<uint32_t, 32>;

constexpr uint32_t Gf2Times(const Gf2Matrix& mat, uint32_t vec) {
  uint32_t sum = 0;
  for (int i = 0; vec != 0; ++i, vec >>= 1) {
    if ((vec & 1u) != 0) sum ^= mat[i];
  }
  return sum;
}

/// The operator that feeds `bytes` zero bytes (a power of two) through a
/// raw, un-inverted CRC register: the one-zero-bit step, squared until it
/// covers 8 · bytes bits.
constexpr Gf2Matrix ZerosOperator(size_t bytes) {
  Gf2Matrix op{};
  op[0] = kPoly;
  for (int i = 1; i < 32; ++i) op[i] = 1u << (i - 1);
  for (size_t bits = 1; bits < 8 * bytes; bits *= 2) {
    Gf2Matrix square{};
    for (int i = 0; i < 32; ++i) square[i] = Gf2Times(op, op[i]);
    op = square;
  }
  return op;
}

/// ZerosOperator(bytes) applied one register byte at a time: entry
/// [k][v] is the image of v << 8k.
using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;

constexpr ShiftTable BuildShiftTable(size_t bytes) {
  const Gf2Matrix op = ZerosOperator(bytes);
  ShiftTable table{};
  for (uint32_t v = 0; v < 256; ++v) {
    for (int k = 0; k < 4; ++k) table[k][v] = Gf2Times(op, v << (8 * k));
  }
  return table;
}

constexpr ShiftTable kShortShift = BuildShiftTable(kCrc32cShortBlock);
constexpr ShiftTable kLongShift = BuildShiftTable(kCrc32cLongBlock);

inline uint32_t Shift(const ShiftTable& table, uint64_t crc) {
  return table[0][crc & 0xffu] ^ table[1][(crc >> 8) & 0xffu] ^
         table[2][(crc >> 16) & 0xffu] ^ table[3][(crc >> 24) & 0xffu];
}

inline uint64_t LoadU64(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// Consumes runs of 3 · kBlock bytes from *p: three streams, one per
/// block, run side by side, and the CRC is linear, so shifting the first
/// stream's register over kBlock zero bytes and XOR-ing in the next
/// stream's (started from zero) chains them.
template <size_t kBlock>
__attribute__((target("sse4.2"), always_inline)) inline uint64_t
ExtendThreeWay(uint64_t crc0, const ShiftTable& shift, const char** p,
               size_t* n) {
  while (*n >= 3 * kBlock) {
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    const char* next = *p;
    for (const char* end = next + kBlock; next < end; next += 8) {
      crc0 = _mm_crc32_u64(crc0, LoadU64(next));
      crc1 = _mm_crc32_u64(crc1, LoadU64(next + kBlock));
      crc2 = _mm_crc32_u64(crc2, LoadU64(next + 2 * kBlock));
    }
    crc0 = Shift(shift, crc0) ^ crc1;
    crc0 = Shift(shift, crc0) ^ crc2;
    *p += 3 * kBlock;
    *n -= 3 * kBlock;
  }
  return crc0;
}

// The CRC32C instructions fold eight bytes per step in the same reflected
// bit order as the table, so a little-endian 8-byte load followed by the
// byte tail equals the byte-at-a-time result exactly.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       std::string_view data) {
  const char* p = data.data();
  size_t n = data.size();
  uint32_t narrow = ~crc;
  // Single bytes up to an 8-byte boundary, so every word load is aligned.
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0; ++p, --n) {
    narrow = _mm_crc32_u8(narrow, static_cast<unsigned char>(*p));
  }
  uint64_t wide = narrow;
  wide = ExtendThreeWay<kCrc32cLongBlock>(wide, kLongShift, &p, &n);
  wide = ExtendThreeWay<kCrc32cShortBlock>(wide, kShortShift, &p, &n);
  for (; n >= 8; p += 8, n -= 8) wide = _mm_crc32_u64(wide, LoadU64(p));
  narrow = static_cast<uint32_t>(wide);
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
  crc = ~crc;
  for (char c : data) {
    crc = kTable[(crc ^ static_cast<unsigned char>(c)) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32cExtend(uint32_t crc, std::string_view data) {
  static const ExtendFn extend = SelectExtend();
  return extend(crc, data);
}

uint32_t Crc32c(std::string_view data) { return Crc32cExtend(0, data); }

}  // namespace rangesyn
