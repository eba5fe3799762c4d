// Tests for the RSP1 wire protocol (serve/protocol.h): frame round-trips
// for every message type, header validation, CRC trailer enforcement
// under bit-flips at every byte position, and strict payload parsing
// (truncation, trailing bytes, count mismatches all rejected).

#include "serve/protocol.h"

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/result.h"

namespace rangesyn::serve {
namespace {

QueryRequest SampleQuery() {
  QueryRequest q;
  q.request_id = 0xdeadbeefcafe01ULL;
  q.deadline_ms = 250;
  q.key = "orders.price";
  for (int i = 1; i <= 5; ++i) {
    FlatQuery range;
    range.a = i;
    range.b = i * 10;
    q.ranges.push_back(range);
  }
  return q;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xf]);
  }
  return hex;
}

TEST(ServeProtocolTest, PingPongRoundTrip) {
  for (const uint64_t id : {0ULL, 1ULL, ~0ULL}) {
    const std::string ping = EncodePing(id);
    auto header = DecodeFrameHeader(ping.substr(0, kFrameHeaderBytes));
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header->type, MsgType::kPing);
    auto payload = CheckFrameCrc(ping, *header);
    ASSERT_TRUE(payload.ok());
    auto parsed = ParsePing(*payload);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->request_id, id);

    const std::string pong = EncodePong(id);
    auto pong_header = DecodeFrameHeader(pong.substr(0, kFrameHeaderBytes));
    ASSERT_TRUE(pong_header.ok());
    EXPECT_EQ(pong_header->type, MsgType::kPong);
  }
}

TEST(ServeProtocolTest, QueryRoundTripPreservesEveryField) {
  const QueryRequest q = SampleQuery();
  const std::string frame = EncodeQuery(q);
  auto header = DecodeFrameHeader(frame.substr(0, kFrameHeaderBytes));
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type, MsgType::kQuery);
  auto payload = CheckFrameCrc(frame, *header);
  ASSERT_TRUE(payload.ok());
  auto parsed = ParseQuery(*payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, q.request_id);
  EXPECT_EQ(parsed->deadline_ms, q.deadline_ms);
  EXPECT_EQ(parsed->key, q.key);
  ASSERT_EQ(parsed->ranges.size(), q.ranges.size());
  for (size_t i = 0; i < q.ranges.size(); ++i) {
    EXPECT_EQ(parsed->ranges[i].a, q.ranges[i].a);
    EXPECT_EQ(parsed->ranges[i].b, q.ranges[i].b);
  }
}

TEST(ServeProtocolTest, QueryOkRoundTripIsBitExact) {
  QueryResponse r;
  r.request_id = 42;
  r.estimates = {0.0, -1.5, 3.25, 1e300, 5e-324};  // incl. denormal min
  const std::string frame = EncodeQueryOk(r);
  auto header = DecodeFrameHeader(frame.substr(0, kFrameHeaderBytes));
  ASSERT_TRUE(header.ok());
  auto payload = CheckFrameCrc(frame, *header);
  ASSERT_TRUE(payload.ok());
  auto parsed = ParseQueryOk(*payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, 42u);
  ASSERT_EQ(parsed->estimates.size(), r.estimates.size());
  for (size_t i = 0; i < r.estimates.size(); ++i) {
    // Bit-exact: the wire carries the raw f64, not a text rendering.
    EXPECT_EQ(parsed->estimates[i], r.estimates[i]) << i;
  }
}

TEST(ServeProtocolTest, ErrorRoundTripCarriesCodeAndMessage) {
  for (const WireError code :
       {WireError::kMalformed, WireError::kOverloaded,
        WireError::kDeadlineExceeded, WireError::kNotFound,
        WireError::kInternal, WireError::kShuttingDown}) {
    ErrorResponse e;
    e.request_id = 9;
    e.code = code;
    e.message = "why it failed";
    const std::string frame = EncodeError(e);
    auto header = DecodeFrameHeader(frame.substr(0, kFrameHeaderBytes));
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header->type, MsgType::kError);
    auto payload = CheckFrameCrc(frame, *header);
    ASSERT_TRUE(payload.ok());
    auto parsed = ParseError(*payload);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->code, code);
    EXPECT_EQ(parsed->message, "why it failed");
    EXPECT_FALSE(WireErrorName(code).empty());
  }
}

TEST(ServeProtocolTest, WireErrorStatusCodeMapping) {
  EXPECT_EQ(WireErrorStatusCode(WireError::kMalformed),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WireErrorStatusCode(WireError::kOverloaded),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(WireErrorStatusCode(WireError::kDeadlineExceeded),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(WireErrorStatusCode(WireError::kNotFound),
            StatusCode::kNotFound);
  EXPECT_EQ(WireErrorStatusCode(WireError::kInternal),
            StatusCode::kInternal);
  EXPECT_EQ(WireErrorStatusCode(WireError::kShuttingDown),
            StatusCode::kFailedPrecondition);
}

TEST(ServeProtocolTest, HeaderRejectsBadMagicVersionTypeAndSize) {
  const std::string good = EncodePing(1);
  // Bad magic.
  {
    std::string h = good.substr(0, kFrameHeaderBytes);
    h[0] ^= 0x01;
    EXPECT_FALSE(DecodeFrameHeader(h).ok());
  }
  // Bad version.
  {
    std::string h = good.substr(0, kFrameHeaderBytes);
    h[4] = static_cast<char>(kWireVersion + 1);
    EXPECT_FALSE(DecodeFrameHeader(h).ok());
  }
  // Unknown message type.
  {
    std::string h = good.substr(0, kFrameHeaderBytes);
    h[5] = 99;
    EXPECT_FALSE(DecodeFrameHeader(h).ok());
  }
  // Payload size over the cap (all-ones size field).
  {
    std::string h = good.substr(0, kFrameHeaderBytes);
    h[6] = h[7] = h[8] = h[9] = static_cast<char>(0xff);
    EXPECT_FALSE(DecodeFrameHeader(h).ok());
  }
  // Wrong header length.
  EXPECT_FALSE(DecodeFrameHeader(good.substr(0, kFrameHeaderBytes - 1)).ok());
}

TEST(ServeProtocolTest, CrcCatchesEverySingleByteCorruption) {
  const std::string frame = EncodeQuery(SampleQuery());
  auto header = DecodeFrameHeader(frame.substr(0, kFrameHeaderBytes));
  ASSERT_TRUE(header.ok());
  ASSERT_TRUE(CheckFrameCrc(frame, *header).ok());
  // Flip one bit in every payload/trailer byte: the CRC (or, for header
  // bytes, the header decode) must reject each corruption. Header bytes
  // are covered by the CRC too, so even a corruption that still decodes
  // cannot pass the checksum.
  for (size_t i = kFrameHeaderBytes; i < frame.size(); ++i) {
    std::string bad = frame;
    bad[i] ^= 0x20;
    EXPECT_FALSE(CheckFrameCrc(bad, *header).ok()) << "byte " << i;
  }
}

TEST(ServeProtocolTest, ParsersRejectTruncationAndTrailingBytes) {
  const QueryRequest q = SampleQuery();
  const std::string frame = EncodeQuery(q);
  auto header = DecodeFrameHeader(frame.substr(0, kFrameHeaderBytes));
  ASSERT_TRUE(header.ok());
  auto payload = CheckFrameCrc(frame, *header);
  ASSERT_TRUE(payload.ok());

  // Truncation at every prefix length must be rejected, never partially
  // applied.
  for (size_t len = 0; len < payload->size(); ++len) {
    EXPECT_FALSE(ParseQuery(payload->substr(0, len)).ok()) << len;
  }
  // Trailing garbage is rejected (strict framing).
  EXPECT_FALSE(ParseQuery(*payload + "x").ok());

  EXPECT_FALSE(ParsePing("").ok());
  EXPECT_FALSE(ParsePing(std::string(9, '\0')).ok());
  EXPECT_FALSE(ParseQueryOk("").ok());
  EXPECT_FALSE(ParseError("").ok());
}

TEST(ServeProtocolTest, QueryCountFieldMustMatchPayloadLength) {
  // Hand-corrupt the range count inside an otherwise valid payload: the
  // parser must notice the count/length mismatch in both directions.
  QueryRequest q = SampleQuery();
  const std::string frame = EncodeQuery(q);
  auto header = DecodeFrameHeader(frame.substr(0, kFrameHeaderBytes));
  ASSERT_TRUE(header.ok());
  auto payload = CheckFrameCrc(frame, *header);
  ASSERT_TRUE(payload.ok());
  // Count lives right after u64 id + u32 deadline + (u32 len + key).
  const size_t count_off = 8 + 4 + 4 + q.key.size();
  for (const int delta : {-1, 1, 100}) {
    std::string bad = *payload;
    const uint32_t count =
        static_cast<uint32_t>(q.ranges.size() + static_cast<size_t>(delta));
    bad[count_off] = static_cast<char>(count & 0xff);
    bad[count_off + 1] = static_cast<char>((count >> 8) & 0xff);
    bad[count_off + 2] = static_cast<char>((count >> 16) & 0xff);
    bad[count_off + 3] = static_cast<char>((count >> 24) & 0xff);
    EXPECT_FALSE(ParseQuery(bad).ok()) << "delta " << delta;
  }
}

TEST(ServeProtocolTest, EncodedSizesMatchLayoutSpec) {
  // header + u64 + trailer
  EXPECT_EQ(EncodePing(1).size(), kFrameHeaderBytes + 8 + kFrameTrailerBytes);
  const QueryRequest q = SampleQuery();
  // u64 id + u32 deadline + (u32 + key) + u32 count + 16 per range
  EXPECT_EQ(EncodeQuery(q).size(),
            kFrameHeaderBytes + 8 + 4 + 4 + q.key.size() + 4 +
                16 * q.ranges.size() + kFrameTrailerBytes);
  QueryResponse r;
  r.request_id = 1;
  r.estimates = {1.0, 2.0};
  EXPECT_EQ(EncodeQueryOk(r).size(),
            kFrameHeaderBytes + 8 + 4 + 8 * r.estimates.size() +
                kFrameTrailerBytes);
}

TEST(ServeProtocolTest, GoldenBytesPinTheWireLayout) {
  // Exact RSP1 bytes, computed independently of this codec (Python
  // struct packing plus a bitwise CRC32C). Any change to field order,
  // width, byte order or checksum shows up here, not just in sizes.
  QueryRequest q;
  q.request_id = 0x0123456789abcdefULL;
  q.deadline_ms = 250;
  q.key = "orders.price";
  q.ranges = {{-3, 17},
              {-(int64_t{1} << 40), (int64_t{1} << 33) + 5},
              {4294967297, INT64_MAX}};
  const std::string query = EncodeQuery(q);
  EXPECT_EQ(Hex(query),
            "52535031"                          // "RSP1"
            "010350000000"                      // v1 kQuery, 80-byte payload
            "efcdab8967452301"                  // request_id
            "fa000000"                          // deadline_ms
            "0c0000006f72646572732e7072696365"  // key
            "03000000"                          // count
            "fdffffffffffffff1100000000000000"  // (-3, 17)
            "0000000000ffffff0500000002000000"  // (-2^40, 2^33 + 5)
            "0100000001000000ffffffffffffff7f"  // (2^32 + 1, INT64_MAX)
            "604a3467");                        // CRC32C
  QueryResponse r;
  r.request_id = 42;
  r.estimates = {-0.0, std::bit_cast<double>(uint64_t{0xbeef}),
                 std::bit_cast<double>(uint64_t{0x7ff800000000beef}), 1.5};
  const std::string reply = EncodeQueryOk(r);
  EXPECT_EQ(Hex(reply),
            "52535031"            // "RSP1"
            "01042c000000"        // v1 kQueryOk, 44-byte payload
            "2a00000000000000"    // request_id
            "04000000"            // count
            "0000000000000080"    // -0.0
            "efbe000000000000"    // denormal
            "efbe00000000f87f"    // NaN, payload 0xbeef
            "000000000000f83f"    // 1.5
            "b7827dd6");          // CRC32C

  // Both frames decode back bit for bit.
  auto header = DecodeFrameHeader(query.substr(0, kFrameHeaderBytes));
  ASSERT_TRUE(header.ok());
  auto payload = CheckFrameCrc(query, *header);
  ASSERT_TRUE(payload.ok());
  auto parsed = ParseQuery(*payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, q.request_id);
  EXPECT_EQ(parsed->deadline_ms, q.deadline_ms);
  EXPECT_EQ(parsed->key, q.key);
  ASSERT_EQ(parsed->ranges.size(), q.ranges.size());
  for (size_t i = 0; i < q.ranges.size(); ++i) {
    EXPECT_EQ(parsed->ranges[i].a, q.ranges[i].a) << i;
    EXPECT_EQ(parsed->ranges[i].b, q.ranges[i].b) << i;
  }
  auto reply_header = DecodeFrameHeader(reply.substr(0, kFrameHeaderBytes));
  ASSERT_TRUE(reply_header.ok());
  auto reply_payload = CheckFrameCrc(reply, *reply_header);
  ASSERT_TRUE(reply_payload.ok());
  auto decoded = ParseQueryOk(*reply_payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->request_id, r.request_id);
  ASSERT_EQ(decoded->estimates.size(), r.estimates.size());
  for (size_t i = 0; i < r.estimates.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(decoded->estimates[i]),
              std::bit_cast<uint64_t>(r.estimates[i]))
        << i;
  }
}

TEST(ServeProtocolTest, InPlaceFormsOnReusedBuffersMatchFreshOnes) {
  // One request, one response, one send buffer and one reply buffer are
  // reused across a 4096-range query, a 1-range query, a malformed one
  // and a 16-range query. Every in-place result must equal the fresh
  // allocating one byte for byte, and no key or range of an earlier
  // frame may survive into a later one.
  struct Step {
    uint64_t id;
    std::string key;
    int ranges;
    bool malformed;
  };
  const Step steps[] = {{1, "bulk.batch.column", 4096, false},
                        {2, "k", 1, false},
                        {3, "orders.price", 8, true},
                        {4, "mid", 16, false}};
  QueryRequest request;
  QueryResponse response;
  std::string sent;
  std::string reply;
  for (const Step& step : steps) {
    SCOPED_TRACE(step.id);
    QueryRequest q;
    q.request_id = step.id;
    q.deadline_ms = static_cast<uint32_t>(10 * step.id);
    q.key = step.key;
    for (int i = 0; i < step.ranges; ++i) {
      q.ranges.push_back({i + 1, 2 * i + 1 + static_cast<int64_t>(step.id)});
    }
    EncodeQueryInto(q.request_id, q.deadline_ms, q.key, q.ranges, &sent);
    const std::string frame = EncodeQuery(q);
    ASSERT_EQ(sent, frame);

    auto header = DecodeFrameHeader(frame.substr(0, kFrameHeaderBytes));
    ASSERT_TRUE(header.ok());
    auto view = CheckFrameCrcInPlace(frame, *header);
    auto copy = CheckFrameCrc(frame, *header);
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(copy.ok());
    ASSERT_EQ(*view, *copy);
    EXPECT_EQ(view->data(), frame.data() + kFrameHeaderBytes);  // no copy
    // The malformed step drops the payload's last byte.
    const std::string_view payload =
        step.malformed ? view->substr(0, view->size() - 1) : *view;

    const QueryRequest before = request;
    const Status in_place = ParseQueryInto(payload, &request);
    auto fresh = ParseQuery(payload);
    ASSERT_EQ(in_place.ok(), fresh.ok());
    if (step.malformed) {
      EXPECT_EQ(in_place.message(), fresh.status().message());
      // Every check runs before the first write.
      EXPECT_EQ(request.request_id, before.request_id);
      EXPECT_EQ(request.key, before.key);
      ASSERT_EQ(request.ranges.size(), before.ranges.size());
      continue;
    }
    EXPECT_EQ(request.request_id, fresh->request_id);
    EXPECT_EQ(request.deadline_ms, fresh->deadline_ms);
    EXPECT_EQ(request.key, fresh->key);
    ASSERT_EQ(request.ranges.size(), fresh->ranges.size());
    for (size_t i = 0; i < request.ranges.size(); ++i) {
      ASSERT_EQ(request.ranges[i].a, fresh->ranges[i].a) << i;
      ASSERT_EQ(request.ranges[i].b, fresh->ranges[i].b) << i;
    }
    // Re-encoding the reused request gives the bytes that were sent.
    EXPECT_EQ(EncodeQuery(request), frame);

    QueryResponse r;
    r.request_id = step.id;
    for (const FlatQuery& range : q.ranges) {
      r.estimates.push_back(0.25 * static_cast<double>(range.b - range.a));
    }
    EncodeQueryOkInto(r.request_id, r.estimates, &reply);
    ASSERT_EQ(reply, EncodeQueryOk(r));
    auto reply_header = DecodeFrameHeader(reply.substr(0, kFrameHeaderBytes));
    ASSERT_TRUE(reply_header.ok());
    auto reply_payload = CheckFrameCrcInPlace(reply, *reply_header);
    ASSERT_TRUE(reply_payload.ok());
    ASSERT_TRUE(ParseQueryOkInto(*reply_payload, &response).ok());
    auto fresh_response = ParseQueryOk(*reply_payload);
    ASSERT_TRUE(fresh_response.ok());
    EXPECT_EQ(response.request_id, fresh_response->request_id);
    EXPECT_EQ(response.estimates, fresh_response->estimates);
    // A truncated reply is refused and leaves the response unchanged.
    EXPECT_FALSE(
        ParseQueryOkInto(reply_payload->substr(1), &response).ok());
    EXPECT_EQ(response.estimates, fresh_response->estimates);
  }
  EXPECT_EQ(request.request_id, 4u);
  EXPECT_EQ(request.key, "mid");
  EXPECT_EQ(request.ranges.size(), 16u);
}

}  // namespace
}  // namespace rangesyn::serve
