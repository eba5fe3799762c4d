#ifndef RANGESYN_QPATH_FLAT_FILE_H_
#define RANGESYN_QPATH_FLAT_FILE_H_

#include <memory>
#include <string>

#include "core/analysis_annotations.h"
#include "core/result.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {

/// On-disk companion of the v2 synopsis format, laid out for zero-copy
/// serving (DESIGN.md §11.3). Unlike the v2 stream (length-prefixed
/// vectors, parsed into fresh heap objects), an RSF1 file *is* the
/// runtime representation: a 64-byte header, the 8-byte-aligned i64 and
/// f64 sections exactly as FlatSynopsis addresses them, and a CRC32C
/// trailer over everything preceding it.
///
///   offset  0  u32  magic "RSF1" (bytes 52 53 46 31)
///           4  u8   version (2; version 1 files are refused)
///           5  u8   kind (FlatKind)
///           6  u8   aux (rounding / wavelet domain)
///           7  u8   zero
///           8  i64  n
///          16  i64  num_buckets
///          24  i64  padded_size
///          32  i64  i64_count
///          40  i64  f64_count
///          48  2×i64 reserved (zero)
///          64  i64 section, then f64 section (native little-endian)
///         end-4  u32 CRC32C over [0, end-4)
///
/// OpenFlatMapped checks the CRC once at open, validates the structure
/// (FlatSynopsis::FromBuffers checks the counts, the bucket ends and the
/// wavelet height table), and then serves queries straight out of the
/// mapping — no deserialization allocations, shared read-only pages
/// across processes.
/// Numbers are stored native little-endian; open fails cleanly on a
/// big-endian host rather than mis-reading.

/// Serializes a flat synopsis into RSF1 bytes.
Result<std::string> EncodeFlatSynopsis(const FlatSynopsis& flat);

/// Writes RSF1 atomically (temp file + rename + fsync).
Status SaveFlatSynopsis(const FlatSynopsis& flat, const std::string& path);

/// Opens an RSF1 file zero-copy: mmap read-only, CRC32C verified once,
/// structure validated, then served from the mapping. The returned
/// synopsis keeps the mapping alive for its own lifetime.
RANGESYN_LENDS_VIEW Result<std::shared_ptr<const FlatSynopsis>>
OpenFlatMapped(const std::string& path);

}  // namespace rangesyn

#endif  // RANGESYN_QPATH_FLAT_FILE_H_
