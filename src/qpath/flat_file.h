#ifndef RANGESYN_QPATH_FLAT_FILE_H_
#define RANGESYN_QPATH_FLAT_FILE_H_

#include <memory>
#include <string>
#include <string_view>

#include "core/analysis_annotations.h"
#include "core/result.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {

/// RSF1: the one persisted form of a synopsis (DESIGN.md §9.3, §11.3).
/// An RSF1 buffer *is* the runtime representation: a 64-byte header, the
/// 8-byte-aligned i64 and f64 sections exactly as FlatSynopsis addresses
/// them, the source estimator's name, and a CRC32C trailer over
/// everything preceding it. `rangesyn build` writes it to a file; each
/// catalog entry embeds it.
///
///   offset  0  u32  magic "RSF1" (bytes 52 53 46 31)
///           4  u8   version (3; versions 1 and 2 are refused)
///           5  u8   kind (FlatKind)
///           6  u8   aux (rounding / wavelet domain)
///           7  u8   zero
///           8  i64  n
///          16  i64  num_buckets
///          24  i64  padded_size
///          32  i64  i64_count
///          40  i64  f64_count
///          48  i64  storage_words (the source's paper accounting)
///          56  i64  name_bytes
///          64  i64 section, then f64 section (native little-endian)
///              name (name_bytes), zero-padded to a multiple of 8 bytes
///         end-4  u32 CRC32C over [0, end-4)
///
/// Decoding checks the CRC once, validates the structure
/// (FlatSynopsis::FromBuffers checks the counts, the bucket ends and the
/// wavelet height table), and then serves queries straight out of the
/// decoded bytes — no per-section parsing or copies. Numbers are stored
/// native little-endian; decoding fails cleanly on a big-endian host
/// rather than mis-reading.

/// Serializes a flat synopsis into RSF1 bytes.
Result<std::string> EncodeFlatSynopsis(const FlatSynopsis& flat);

/// Decodes RSF1 bytes held in memory (a catalog entry, a test buffer): the
/// bytes are copied once into 8-byte-aligned storage that the returned
/// synopsis owns, then validated exactly as OpenFlatMapped validates a
/// file.
RANGESYN_LENDS_VIEW Result<std::shared_ptr<const FlatSynopsis>>
DecodeFlatSynopsis(std::string_view bytes);

/// Writes RSF1 atomically (temp file + rename + fsync), so a crash
/// mid-save leaves either the old file or the new one.
Status SaveFlatSynopsis(const FlatSynopsis& flat, const std::string& path);

/// Opens an RSF1 file zero-copy: mmap read-only, CRC32C verified once,
/// structure validated, then served from the mapping. The returned
/// synopsis keeps the mapping alive for its own lifetime.
RANGESYN_LENDS_VIEW Result<std::shared_ptr<const FlatSynopsis>>
OpenFlatMapped(const std::string& path);

}  // namespace rangesyn

#endif  // RANGESYN_QPATH_FLAT_FILE_H_
