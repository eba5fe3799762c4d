#ifndef RANGESYN_CORE_CRC32C_H_
#define RANGESYN_CORE_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rangesyn {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) over
/// `data`. This is the checksum the v2 on-disk formats, RSF1 files and
/// RSP1 frames append as a little-endian trailer: it detects every
/// single-bit and single-byte error and all burst errors up to 32 bits,
/// which is what the exhaustive bit-flip sweeps in
/// serialize_test/engine_test rely on.
///
/// The implementation is picked once, on first use, from the CPU: the
/// SSE4.2 `crc32` instruction on x86-64, the ARMv8 CRC32 instructions on
/// aarch64 builds that target them, and Crc32cExtendPortable everywhere
/// else. Every path returns the same value for the same bytes.
///
/// The x86-64 path runs three independent `crc32` streams side by side
/// (the instruction's latency is three times its issue interval) over
/// runs of 3 · kCrc32cLongBlock bytes, then of 3 · kCrc32cShortBlock
/// bytes, and folds the three partial CRCs together with precomputed
/// zero-shift tables, after Mark Adler's crc32c.c.
uint32_t Crc32c(std::string_view data);

/// Block sizes of the three-stream interleave, exposed so that tests can
/// probe inputs at the block edges.
inline constexpr size_t kCrc32cShortBlock = 256;
inline constexpr size_t kCrc32cLongBlock = 8192;

/// Incremental form: extends a running CRC (pass the previous return
/// value; start from Crc32c of the first piece or 0 for an empty prefix).
uint32_t Crc32cExtend(uint32_t crc, std::string_view data);

/// Byte-at-a-time table implementation of Crc32cExtend. It is the
/// fallback on CPUs without CRC32C instructions and the reference the
/// hardware paths are tested against.
uint32_t Crc32cExtendPortable(uint32_t crc, std::string_view data);

}  // namespace rangesyn

#endif  // RANGESYN_CORE_CRC32C_H_
