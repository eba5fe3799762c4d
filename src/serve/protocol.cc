#include "serve/protocol.h"

#include <bit>
#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

#include "core/bytes.h"
#include "core/crc32c.h"
#include "core/strings.h"

namespace rangesyn::serve {

// The bulk copies below move FlatQuery arrays as 8-byte words: on a
// little-endian host its in-memory layout is the wire layout.
static_assert(std::is_trivially_copyable_v<FlatQuery>);
static_assert(sizeof(FlatQuery) == 16);
static_assert(offsetof(FlatQuery, a) == 0 && offsetof(FlatQuery, b) == 8);
static_assert(sizeof(double) == 8);

namespace {

constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

/// Hard cap on the per-frame query count: every range costs 16 payload
/// bytes, so this is implied by kMaxPayloadBytes; checking it explicitly
/// keeps the reader from trusting a length field over the actual bytes.
constexpr uint32_t kMaxRangesPerQuery = kMaxPayloadBytes / sizeof(FlatQuery);

Status RequireAtEnd(const ByteReader& reader, std::string_view what) {
  if (reader.AtEnd()) return OkStatus();
  return InvalidArgumentError(
      StrCat(what, ": ", reader.remaining(), " trailing payload bytes"));
}

// Frames are encoded in place: one writer reserved at the frame's final
// size receives the header, the payload fields and then the CRC of
// everything before it. The writer can adopt a caller's buffer, so a
// reused buffer keeps its capacity across frames.

/// Arrays of 64-bit fields (FlatQuery's two i64s, f64 estimates) travel
/// as little-endian 8-byte words: one memcpy on a little-endian host, a
/// per-word byte-order loop elsewhere.
template <typename T>
void WriteWordsLe(ByteWriter& out, std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) % 8 == 0);
  const auto* bytes = reinterpret_cast<const char*>(values.data());
  if constexpr (kLittleEndianHost) {
    out.WriteBytes(std::string_view(bytes, values.size_bytes()));
  } else {
    for (size_t off = 0; off < values.size_bytes(); off += 8) {
      uint64_t word;
      std::memcpy(&word, bytes + off, sizeof(word));
      out.WriteU64(word);
    }
  }
}

/// A writer reserved at the frame's final size, holding the header.
ByteWriter BeginFrame(MsgType type, size_t payload_size,
                      std::string buffer = {}) {
  ByteWriter frame(std::move(buffer));
  frame.Reserve(kFrameHeaderBytes + payload_size + kFrameTrailerBytes);
  frame.WriteU32(kWireMagic);
  frame.WriteU8(kWireVersion);
  frame.WriteU8(static_cast<uint8_t>(type));
  frame.WriteU32(static_cast<uint32_t>(payload_size));
  return frame;
}

/// Appends the CRC trailer over header + payload.
std::string FinishFrame(ByteWriter frame) {
  frame.WriteU32(Crc32c(frame.buffer()));
  return frame.Release();
}

/// The unread rest of `payload` as `count` elements of `width` bytes. The
/// count must match the bytes actually present exactly: this runs before
/// the caller allocates, so a corrupted count cannot force a large
/// allocation, and the exact match leaves no trailing bytes.
Result<std::string_view> ArrayBytes(std::string_view payload,
                                    const ByteReader& reader, uint32_t count,
                                    size_t width, std::string_view what,
                                    std::string_view noun) {
  if (reader.remaining() != static_cast<size_t>(count) * width) {
    return InvalidArgumentError(StrCat(what, ": ", reader.remaining(),
                                       " payload bytes for ", count, " ",
                                       noun));
  }
  return payload.substr(payload.size() - reader.remaining());
}

/// Inverse of WriteWordsLe; `wire` holds exactly out.size_bytes().
template <typename T>
void CopyWordsLe(std::string_view wire, std::span<T> out) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) % 8 == 0);
  if (wire.empty()) return;
  auto* bytes = reinterpret_cast<char*>(out.data());
  if constexpr (kLittleEndianHost) {
    std::memcpy(bytes, wire.data(), wire.size());
  } else {
    for (size_t off = 0; off < wire.size(); off += 8) {
      uint64_t word = 0;
      for (size_t i = 0; i < 8; ++i) {
        word |= static_cast<uint64_t>(
                    static_cast<unsigned char>(wire[off + i]))
                << (8 * i);
      }
      std::memcpy(bytes + off, &word, sizeof(word));
    }
  }
}

}  // namespace

std::string_view WireErrorName(WireError code) {
  switch (code) {
    case WireError::kMalformed:
      return "malformed";
    case WireError::kOverloaded:
      return "overloaded";
    case WireError::kDeadlineExceeded:
      return "deadline_exceeded";
    case WireError::kNotFound:
      return "not_found";
    case WireError::kInternal:
      return "internal";
    case WireError::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

StatusCode WireErrorStatusCode(WireError code) {
  switch (code) {
    case WireError::kMalformed:
      return StatusCode::kInvalidArgument;
    case WireError::kOverloaded:
      return StatusCode::kResourceExhausted;
    case WireError::kDeadlineExceeded:
      return StatusCode::kDeadlineExceeded;
    case WireError::kNotFound:
      return StatusCode::kNotFound;
    case WireError::kInternal:
      return StatusCode::kInternal;
    case WireError::kShuttingDown:
      return StatusCode::kFailedPrecondition;
  }
  return StatusCode::kInternal;
}

std::string EncodeFrame(MsgType type, std::string_view payload) {
  ByteWriter frame = BeginFrame(type, payload.size());
  frame.WriteBytes(payload);
  return FinishFrame(std::move(frame));
}

std::string EncodePing(uint64_t request_id) {
  ByteWriter frame = BeginFrame(MsgType::kPing, 8);
  frame.WriteU64(request_id);
  return FinishFrame(std::move(frame));
}

std::string EncodePong(uint64_t request_id) {
  ByteWriter frame = BeginFrame(MsgType::kPong, 8);
  frame.WriteU64(request_id);
  return FinishFrame(std::move(frame));
}

size_t QueryPayloadBytes(std::string_view key, size_t range_count) {
  return 8 + 4 + 4 + key.size() + 4 + range_count * sizeof(FlatQuery);
}

std::string EncodeQuery(const QueryRequest& request) {
  std::string frame;
  EncodeQueryInto(request.request_id, request.deadline_ms, request.key,
                  request.ranges, &frame);
  return frame;
}

std::string EncodeQueryOk(const QueryResponse& response) {
  std::string frame;
  EncodeQueryOkInto(response.request_id, response.estimates, &frame);
  return frame;
}

void EncodeQueryInto(uint64_t request_id, uint32_t deadline_ms,
                     std::string_view key, std::span<const FlatQuery> ranges,
                     std::string* out) {
  ByteWriter frame =
      BeginFrame(MsgType::kQuery, QueryPayloadBytes(key, ranges.size()),
                 std::move(*out));
  frame.WriteU64(request_id);
  frame.WriteU32(deadline_ms);
  frame.WriteString(key);
  frame.WriteU32(static_cast<uint32_t>(ranges.size()));
  WriteWordsLe(frame, ranges);
  *out = FinishFrame(std::move(frame));
}

void EncodeQueryOkInto(uint64_t request_id, std::span<const double> estimates,
                       std::string* out) {
  ByteWriter frame = BeginFrame(MsgType::kQueryOk,
                                8 + 4 + estimates.size_bytes(),
                                std::move(*out));
  frame.WriteU64(request_id);
  frame.WriteU32(static_cast<uint32_t>(estimates.size()));
  WriteWordsLe(frame, estimates);
  *out = FinishFrame(std::move(frame));
}

std::string EncodeError(const ErrorResponse& response) {
  ByteWriter frame =
      BeginFrame(MsgType::kError, 8 + 1 + 4 + response.message.size());
  frame.WriteU64(response.request_id);
  frame.WriteU8(static_cast<uint8_t>(response.code));
  frame.WriteString(response.message);
  return FinishFrame(std::move(frame));
}

Result<FrameHeader> DecodeFrameHeader(std::string_view header) {
  if (header.size() != kFrameHeaderBytes) {
    return InvalidArgumentError(
        StrCat("frame header: expected ", kFrameHeaderBytes, " bytes, got ",
               header.size()));
  }
  ByteReader reader(header);
  RANGESYN_ASSIGN_OR_RETURN(const uint32_t magic, reader.ReadU32());
  if (magic != kWireMagic) {
    return InvalidArgumentError(StrCat("frame header: bad magic ", magic));
  }
  RANGESYN_ASSIGN_OR_RETURN(const uint8_t version, reader.ReadU8());
  if (version != kWireVersion) {
    return InvalidArgumentError(
        StrCat("frame header: unsupported version ", version));
  }
  RANGESYN_ASSIGN_OR_RETURN(const uint8_t raw_type, reader.ReadU8());
  if (raw_type < static_cast<uint8_t>(MsgType::kPing) ||
      raw_type > static_cast<uint8_t>(MsgType::kError)) {
    return InvalidArgumentError(
        StrCat("frame header: unknown message type ", raw_type));
  }
  FrameHeader decoded;
  decoded.type = static_cast<MsgType>(raw_type);
  RANGESYN_ASSIGN_OR_RETURN(decoded.payload_size, reader.ReadU32());
  if (decoded.payload_size > kMaxPayloadBytes) {
    return InvalidArgumentError(StrCat("frame header: payload size ",
                                       decoded.payload_size, " exceeds cap ",
                                       kMaxPayloadBytes));
  }
  return decoded;
}

Result<std::string> CheckFrameCrc(std::string_view frame,
                                  const FrameHeader& header) {
  RANGESYN_ASSIGN_OR_RETURN(const std::string_view payload,
                            CheckFrameCrcInPlace(frame, header));
  return std::string(payload);
}

Result<std::string_view> CheckFrameCrcInPlace(std::string_view frame,
                                              const FrameHeader& header) {
  const size_t expected =
      kFrameHeaderBytes + header.payload_size + kFrameTrailerBytes;
  if (frame.size() != expected) {
    return InvalidArgumentError(StrCat("frame: expected ", expected,
                                       " bytes, got ", frame.size()));
  }
  const std::string_view body = frame.substr(0, expected - kFrameTrailerBytes);
  ByteReader trailer(frame.substr(expected - kFrameTrailerBytes));
  RANGESYN_ASSIGN_OR_RETURN(const uint32_t stored, trailer.ReadU32());
  const uint32_t actual = Crc32c(body);
  if (stored != actual) {
    return InvalidArgumentError(
        StrCat("frame: CRC mismatch (stored ", stored, ", computed ", actual,
               ")"));
  }
  return body.substr(kFrameHeaderBytes);
}

Result<PingMessage> ParsePing(std::string_view payload) {
  ByteReader reader(payload);
  PingMessage message;
  RANGESYN_ASSIGN_OR_RETURN(message.request_id, reader.ReadU64());
  RANGESYN_RETURN_IF_ERROR(RequireAtEnd(reader, "ping"));
  return message;
}

Result<QueryRequest> ParseQuery(std::string_view payload) {
  QueryRequest request;
  RANGESYN_RETURN_IF_ERROR(ParseQueryInto(payload, &request));
  return request;
}

Result<QueryResponse> ParseQueryOk(std::string_view payload) {
  QueryResponse response;
  RANGESYN_RETURN_IF_ERROR(ParseQueryOkInto(payload, &response));
  return response;
}

Status ParseQueryInto(std::string_view payload, QueryRequest* request) {
  ByteReader reader(payload);
  RANGESYN_ASSIGN_OR_RETURN(const uint64_t request_id, reader.ReadU64());
  RANGESYN_ASSIGN_OR_RETURN(const uint32_t deadline_ms, reader.ReadU32());
  RANGESYN_ASSIGN_OR_RETURN(const std::string_view key,
                            reader.ReadStringView());
  RANGESYN_ASSIGN_OR_RETURN(const uint32_t count, reader.ReadU32());
  if (count > kMaxRangesPerQuery) {
    return InvalidArgumentError(
        StrCat("query: range count ", count, " exceeds cap"));
  }
  RANGESYN_ASSIGN_OR_RETURN(
      const std::string_view bytes,
      ArrayBytes(payload, reader, count, sizeof(FlatQuery), "query",
                 "ranges"));
  request->request_id = request_id;
  request->deadline_ms = deadline_ms;
  request->key.assign(key);
  request->ranges.resize(count);
  CopyWordsLe(bytes, std::span<FlatQuery>(request->ranges));
  return OkStatus();
}

Status ParseQueryOkInto(std::string_view payload, QueryResponse* response) {
  ByteReader reader(payload);
  RANGESYN_ASSIGN_OR_RETURN(const uint64_t request_id, reader.ReadU64());
  RANGESYN_ASSIGN_OR_RETURN(const uint32_t count, reader.ReadU32());
  RANGESYN_ASSIGN_OR_RETURN(
      const std::string_view bytes,
      ArrayBytes(payload, reader, count, sizeof(double), "query-ok",
                 "estimates"));
  response->request_id = request_id;
  response->estimates.resize(count);
  CopyWordsLe(bytes, std::span<double>(response->estimates));
  return OkStatus();
}

Result<ErrorResponse> ParseError(std::string_view payload) {
  ByteReader reader(payload);
  ErrorResponse response;
  RANGESYN_ASSIGN_OR_RETURN(response.request_id, reader.ReadU64());
  RANGESYN_ASSIGN_OR_RETURN(const uint8_t raw_code, reader.ReadU8());
  if (raw_code < static_cast<uint8_t>(WireError::kMalformed) ||
      raw_code > static_cast<uint8_t>(WireError::kShuttingDown)) {
    return InvalidArgumentError(
        StrCat("error frame: unknown error code ", raw_code));
  }
  response.code = static_cast<WireError>(raw_code);
  RANGESYN_ASSIGN_OR_RETURN(response.message, reader.ReadString());
  RANGESYN_RETURN_IF_ERROR(RequireAtEnd(reader, "error frame"));
  return response;
}

}  // namespace rangesyn::serve
