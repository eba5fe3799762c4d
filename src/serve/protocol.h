#ifndef RANGESYN_SERVE_PROTOCOL_H_
#define RANGESYN_SERVE_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis_annotations.h"
#include "core/result.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn::serve {

/// RSP1: the rangesyn serving protocol (DESIGN.md §12.2). A compact
/// length-prefixed binary framing over a byte stream, designed so that a
/// flaky transport can corrupt or truncate a frame but never smuggle a
/// damaged payload past the reader:
///
///   offset  size  field
///        0     4  magic "RSP1"
///        4     1  version (kWireVersion)
///        5     1  message type (MsgType)
///        6     4  payload size, little-endian u32 (<= kMaxPayloadBytes)
///       10     n  payload (per-type layout below)
///     10+n     4  CRC32C over bytes [0, 10+n), little-endian
///
/// Payload layouts (ByteWriter little-endian primitives):
///   kPing / kPong        u64 request_id
///   kQuery               u64 request_id · u32 deadline_ms (0 = none) ·
///                        string key · u32 count · count × (i64 a, i64 b)
///   kQueryOk             u64 request_id · u32 count · count × f64
///   kError               u64 request_id · u8 code (WireError) ·
///                        string message
///
/// A request is answered by exactly one kQueryOk / kPong / kError frame
/// carrying the same request_id; the server never drops a parsed request
/// silently (overload, expiry, and shutdown all produce typed kError
/// frames). Batched submission is first-class: one kQuery frame carries
/// any number of ranges and is answered by one frame.
inline constexpr uint32_t kWireMagic = 0x31505352;  // "RSP1" little-endian
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 10;
inline constexpr size_t kFrameTrailerBytes = 4;
/// Upper bound on one payload — caps a malicious or corrupted size field
/// before the reader allocates (16 MiB ≈ one million batched queries).
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;

enum class MsgType : uint8_t {
  kPing = 1,
  kPong = 2,
  kQuery = 3,
  kQueryOk = 4,
  kError = 5,
};

/// Typed error codes carried by kError frames. Every failure mode a
/// request can hit maps to exactly one of these, so clients (and the
/// chaos soak) can account for every submitted request.
enum class WireError : uint8_t {
  kMalformed = 1,         // unparseable payload, bad range, bad frame
  kOverloaded = 2,        // admission control shed the request
  kDeadlineExceeded = 3,  // the request's own deadline expired server-side
  kNotFound = 4,          // unknown synopsis key
  kInternal = 5,          // evaluation failed (includes injected faults)
  kShuttingDown = 6,      // arrived after drain began
};

/// Stable lower-case token for an error code ("overloaded", ...), used in
/// metric names, loadgen reports, and log events.
std::string_view WireErrorName(WireError code);

/// The Status code a client surfaces for each wire error.
StatusCode WireErrorStatusCode(WireError code);

struct PingMessage {
  uint64_t request_id = 0;
};

struct QueryRequest {
  uint64_t request_id = 0;
  /// Per-request deadline in milliseconds, measured by the server from
  /// the moment the request is admitted; 0 disables it. Propagated into
  /// the evaluation loop as a core Deadline.
  uint32_t deadline_ms = 0;
  std::string key;
  std::vector<FlatQuery> ranges;
};

struct QueryResponse {
  uint64_t request_id = 0;
  std::vector<double> estimates;
};

struct ErrorResponse {
  uint64_t request_id = 0;
  WireError code = WireError::kInternal;
  std::string message;
};

/// One decoded frame: the type plus its raw payload bytes.
struct Frame {
  MsgType type = MsgType::kPing;
  std::string payload;
};

/// One decoded frame whose payload is a view into the buffer it was read
/// into; valid while that buffer holds the frame.
struct FrameView {
  MsgType type = MsgType::kPing;
  std::string_view payload;
};

/// Header fields decoded from the fixed kFrameHeaderBytes prefix.
struct FrameHeader {
  MsgType type = MsgType::kPing;
  uint32_t payload_size = 0;
};

/// Encodes a complete frame (header + payload + CRC trailer).
std::string EncodeFrame(MsgType type, std::string_view payload);

/// Payload size of a kQuery frame carrying `key` and `range_count`
/// ranges. Callers compare it with kMaxPayloadBytes before encoding: the
/// encoders themselves do not check the cap.
size_t QueryPayloadBytes(std::string_view key, size_t range_count);

/// Typed encoders.
std::string EncodePing(uint64_t request_id);
std::string EncodePong(uint64_t request_id);
std::string EncodeQuery(const QueryRequest& request);
std::string EncodeQueryOk(const QueryResponse& response);
std::string EncodeError(const ErrorResponse& response);

/// Validates magic/version/size bounds of the fixed-size header.
/// InvalidArgument on any mismatch; `header` must be exactly
/// kFrameHeaderBytes long.
Result<FrameHeader> DecodeFrameHeader(std::string_view header);

/// Validates the CRC trailer of a complete frame (`frame` = header +
/// payload + trailer, with `header` already decoded from its prefix) and
/// returns the payload. InvalidArgument on checksum mismatch.
Result<std::string> CheckFrameCrc(std::string_view frame,
                                  const FrameHeader& header);

/// Payload parsers. Strict: trailing bytes, truncation, or out-of-bounds
/// counts are InvalidArgument — a malformed payload is reported, never
/// partially applied.
Result<PingMessage> ParsePing(std::string_view payload);
Result<QueryRequest> ParseQuery(std::string_view payload);
Result<QueryResponse> ParseQueryOk(std::string_view payload);
Result<ErrorResponse> ParseError(std::string_view payload);

/// In-place forms, for callers that reuse buffers across frames (the
/// server's and the client's connection loops): they write into storage
/// the caller owns and keeps, so after the first frame of a given size
/// they neither allocate nor copy a payload. The allocating functions
/// above are wrappers over these: both produce the same bytes and the
/// same errors.

/// CheckFrameCrc without the copy: the payload as a view into `frame`.
RANGESYN_LENDS_VIEW Result<std::string_view> CheckFrameCrcInPlace(
    std::string_view frame, const FrameHeader& header);

/// ParseQuery into `request`, reusing the capacity of its key and ranges.
/// Every check runs before the first write, so on error `request` is
/// unchanged.
Status ParseQueryInto(std::string_view payload, QueryRequest* request);

/// ParseQueryOk into `response`, reusing the capacity of its estimates;
/// on error `response` is unchanged.
Status ParseQueryOkInto(std::string_view payload, QueryResponse* response);

/// EncodeQuery of these fields into `out`, replacing its contents.
void EncodeQueryInto(uint64_t request_id, uint32_t deadline_ms,
                     std::string_view key, std::span<const FlatQuery> ranges,
                     std::string* out);

/// EncodeQueryOk of these fields into `out`, replacing its contents.
void EncodeQueryOkInto(uint64_t request_id, std::span<const double> estimates,
                       std::string* out);

}  // namespace rangesyn::serve

#endif  // RANGESYN_SERVE_PROTOCOL_H_
