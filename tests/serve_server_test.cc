// In-process tests for the serving daemon core (serve/server.h): request
// round-trips answer bit-exactly from catalog views, typed errors for
// unknown keys / bad ranges / malformed frames, per-request deadlines,
// admission-control shedding, graceful drain semantics (in-flight
// answered, new traffic refused, pings still served), connection caps,
// and the flight-recorder dump triggers for drain and overload bursts;
// also reply ordering and isolation across connections, and the
// client's deadline against a silent server.

#include "serve/server.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "core/random.h"
#include "engine/catalog.h"
#include "engine/table.h"
#include "obs/flight.h"
#include "obs/log.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/wire.h"

namespace rangesyn::serve {
namespace {

Column MakeColumn(uint64_t seed) {
  Rng rng(seed);
  Column c("v");
  for (int i = 0; i < 512; ++i) c.Append(rng.NextInt(0, 199));
  return c;
}

SynopsisSpec FastSpec() {
  SynopsisSpec spec;
  spec.method = "equidepth";
  spec.budget_words = 16;
  return spec;
}

/// One served key plus a locally held view of the same synopsis — the
/// bit-exact oracle (the view is resolved before the catalog moves into
/// the server, and FlatView handles survive that move).
struct Fixture {
  std::unique_ptr<Server> server;
  std::shared_ptr<const FlatSynopsis> oracle;

  static Fixture Make(const ServerOptions& options) {
    SynopsisCatalog catalog;
    EXPECT_TRUE(
        catalog.RegisterColumn("t.v", MakeColumn(5), FastSpec()).ok());
    Fixture f;
    auto view = catalog.FlatView("t.v");
    EXPECT_TRUE(view.ok());
    f.oracle = view.value();
    auto server = Server::Create(std::move(catalog), options);
    EXPECT_TRUE(server.ok());
    f.server = std::move(*server);
    EXPECT_TRUE(f.server->Start().ok());
    return f;
  }

  ClientOptions ClientFor() const {
    ClientOptions c;
    c.port = server->port();
    c.initial_backoff_s = 0.001;
    c.max_backoff_s = 0.01;
    return c;
  }
};

std::vector<FlatQuery> MakeRanges(const FlatSynopsis& view, uint64_t seed,
                                  int count) {
  Rng rng(seed);
  std::vector<FlatQuery> ranges;
  for (int i = 0; i < count; ++i) {
    FlatQuery q;
    q.a = rng.NextInt(1, view.n());
    q.b = rng.NextInt(q.a, view.n());
    ranges.push_back(q);
  }
  return ranges;
}

/// Reads one whole frame off a raw socket (header, payload, CRC).
Result<Frame> ReadRawFrame(int fd, const WireSites& sites) {
  char header[kFrameHeaderBytes];
  RANGESYN_RETURN_IF_ERROR(ReadFull(fd, header, kFrameHeaderBytes, sites));
  RANGESYN_ASSIGN_OR_RETURN(
      FrameHeader decoded,
      DecodeFrameHeader(std::string_view(header, kFrameHeaderBytes)));
  std::string bytes(header, kFrameHeaderBytes);
  bytes.resize(kFrameHeaderBytes + decoded.payload_size + kFrameTrailerBytes);
  RANGESYN_RETURN_IF_ERROR(ReadFull(fd, bytes.data() + kFrameHeaderBytes,
                                    bytes.size() - kFrameHeaderBytes, sites));
  RANGESYN_ASSIGN_OR_RETURN(std::string payload,
                            CheckFrameCrc(bytes, decoded));
  return Frame{decoded.type, std::move(payload)};
}

/// Clears failpoints around every test: several tests inject faults and
/// the registry is process-global.
class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::Clear(); }
  void TearDown() override { failpoint::Clear(); }
};

TEST_F(ServeServerTest, QueryAnswersBitExactlyFromCatalogView) {
  Fixture f = Fixture::Make({});
  Client client(f.ClientFor());
  ASSERT_TRUE(client.Ping(1000).ok());

  const std::vector<FlatQuery> ranges = MakeRanges(*f.oracle, 11, 64);
  auto got = client.Query("t.v", ranges, 2000);
  ASSERT_TRUE(got.ok()) << got.status().message();
  std::vector<double> expected(ranges.size());
  FlatSynopsis::BatchScratch scratch;
  ASSERT_TRUE(f.oracle->EstimateMany(ranges, expected, &scratch).ok());
  ASSERT_EQ(got->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*got)[i], expected[i]) << i;  // bit-exact, not approximate
  }
  const ServerSummary s = f.server->summary();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.ok, 1u);
  EXPECT_EQ(s.pings, 1u);
}

TEST_F(ServeServerTest, UnknownKeyIsTypedNotFound) {
  Fixture f = Fixture::Make({});
  Client client(f.ClientFor());
  const std::vector<FlatQuery> ranges = MakeRanges(*f.oracle, 3, 2);
  const auto got = client.Query("no.such.key", ranges, 1000);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(f.server->summary().not_found, 1u);
}

TEST_F(ServeServerTest, OutOfDomainRangeIsTypedMalformed) {
  Fixture f = Fixture::Make({});
  Client client(f.ClientFor());
  for (const auto& [a, b] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 5}, {5, 3}, {1, f.oracle->n() + 1}}) {
    FlatQuery q;
    q.a = a;
    q.b = b;
    const auto got = client.Query("t.v", {&q, 1}, 1000);
    ASSERT_FALSE(got.ok()) << a << "," << b;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
  // The connection survives payload-level malformedness (framing intact).
  ASSERT_TRUE(client.Ping(1000).ok());
  EXPECT_EQ(f.server->summary().malformed, 3u);
}

TEST_F(ServeServerTest, DeadlineExpiryIsTypedDeadlineExceeded) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "built with RANGESYN_FAILPOINTS=OFF";
  }
  Fixture f = Fixture::Make({});
  Client client(f.ClientFor());
  // Park evaluation 100ms past a 20ms deadline; the clock starts at
  // admission, so the request expires before the first chunk.
  ASSERT_TRUE(failpoint::Configure("serve.eval=sleep:100").ok());
  const std::vector<FlatQuery> ranges = MakeRanges(*f.oracle, 7, 4);
  const auto got = client.Query("t.v", ranges, 20);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(f.server->summary().deadline_exceeded, 1u);
}

TEST_F(ServeServerTest, AdmissionControlShedsWithTypedOverloadAndDumps) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "built with RANGESYN_FAILPOINTS=OFF";
  }
  ServerOptions options;
  options.queue_limit = 1;
  options.overload_dump_threshold = 1;  // every shed is a burst
  options.overload_dump_min_gap_s = 0.0;
  Fixture f = Fixture::Make(options);
  const uint64_t dumps_before = obs::FlightRecorder::Get().auto_dump_count();

  // Park evaluations so the single admission slot stays occupied.
  ASSERT_TRUE(failpoint::Configure("serve.eval=sleep:300").ok());
  const std::vector<FlatQuery> ranges = MakeRanges(*f.oracle, 9, 2);

  Client parked(f.ClientFor());
  std::thread holder([&] {
    // Fills the slot; answered after the sleep.
    EXPECT_TRUE(parked.Query("t.v", ranges, 5000).ok());
  });
  // Give the first request time to be admitted.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  ClientOptions no_retry = f.ClientFor();
  no_retry.max_attempts = 1;  // surface the shed instead of retrying it
  Client shed_client(no_retry);
  const auto shed = shed_client.Query("t.v", ranges, 5000);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  holder.join();

  const ServerSummary s = f.server->summary();
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.ok, 1u);
  // The shed burst crossed the (threshold=1) trigger: a flight dump was
  // attempted (counted even with no dump directory configured).
  EXPECT_GT(obs::FlightRecorder::Get().auto_dump_count(), dumps_before);
}

TEST_F(ServeServerTest, OverloadedIsRetriedAndEventuallySucceeds) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "built with RANGESYN_FAILPOINTS=OFF";
  }
  ServerOptions options;
  options.queue_limit = 1;
  Fixture f = Fixture::Make(options);
  ASSERT_TRUE(failpoint::Configure("serve.eval=sleep:150").ok());
  const std::vector<FlatQuery> ranges = MakeRanges(*f.oracle, 13, 2);

  Client parked(f.ClientFor());
  std::thread holder(
      [&] { EXPECT_TRUE(parked.Query("t.v", ranges, 5000).ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Default policy retries OVERLOADED with backoff; once the parked
  // request finishes, the retry is admitted and succeeds.
  ClientOptions retrying = f.ClientFor();
  retrying.max_attempts = 50;
  Client client(retrying);
  const auto got = client.Query("t.v", ranges, 5000);
  EXPECT_TRUE(got.ok()) << got.status().message();
  holder.join();
  EXPECT_GE(client.stats().retries, 1u);
}

TEST_F(ServeServerTest, DrainAnswersInFlightAndRefusesNewWork) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "built with RANGESYN_FAILPOINTS=OFF";
  }
  Fixture f = Fixture::Make({});
  const uint64_t dumps_before = obs::FlightRecorder::Get().auto_dump_count();
  ASSERT_TRUE(failpoint::Configure("serve.eval=sleep:200").ok());
  const std::vector<FlatQuery> ranges = MakeRanges(*f.oracle, 17, 8);
  std::vector<double> expected(ranges.size());
  FlatSynopsis::BatchScratch scratch;
  ASSERT_TRUE(f.oracle->EstimateMany(ranges, expected, &scratch).ok());

  // An admitted request parked in evaluation when the drain begins.
  Client in_flight(f.ClientFor());
  std::atomic<bool> answered{false};
  std::thread holder([&] {
    auto got = in_flight.Query("t.v", ranges, 10000);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(*got, expected);  // answered, and answered correctly
    answered.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  f.server->RequestDrain();
  EXPECT_TRUE(f.server->draining());

  // New queries are refused with typed SHUTTING_DOWN...
  ClientOptions no_retry = f.ClientFor();
  no_retry.max_attempts = 1;
  Client late(no_retry);
  const auto refused = late.Query("t.v", ranges, 1000);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  // ...but pings still answer: the drain's liveness probe.
  EXPECT_TRUE(late.Ping(1000).ok());

  ASSERT_TRUE(f.server->DrainAndWait(/*grace_s=*/10.0).ok());
  holder.join();
  EXPECT_TRUE(answered.load());

  const ServerSummary s = f.server->summary();
  EXPECT_EQ(s.ok, 1u);
  EXPECT_EQ(s.shutting_down, 1u);
  EXPECT_EQ(s.conns_open, 0u);
  EXPECT_NE(f.server->SummaryLine().find("conns_open=0"),
            std::string::npos);
  // The drain flushed a flight-recorder dump (reason "drain").
  EXPECT_GT(obs::FlightRecorder::Get().auto_dump_count(), dumps_before);
  // Idempotent: a second drain is a no-op success.
  EXPECT_TRUE(f.server->DrainAndWait(1.0).ok());
}

TEST_F(ServeServerTest, MalformedFrameGetsTypedErrorThenClose) {
  Fixture f = Fixture::Make({});
  auto fd = ConnectTcp("127.0.0.1", f.server->port(), 5.0);
  ASSERT_TRUE(fd.ok());
  const WireSites sites("serve.client");

  // A frame-sized blob of garbage: bad magic, undecodable header.
  std::string garbage(kFrameHeaderBytes + 16, '\x5a');
  ASSERT_TRUE(WriteFull(fd->get(), garbage, sites).ok());

  char header[kFrameHeaderBytes];
  ASSERT_TRUE(
      ReadFull(fd->get(), header, kFrameHeaderBytes, sites).ok());
  auto decoded =
      DecodeFrameHeader(std::string_view(header, kFrameHeaderBytes));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->type, MsgType::kError);
  std::string rest(decoded->payload_size + kFrameTrailerBytes, '\0');
  ASSERT_TRUE(
      ReadFull(fd->get(), rest.data(), rest.size(), sites).ok());
  auto payload = CheckFrameCrc(
      std::string(header, kFrameHeaderBytes) + rest, *decoded);
  ASSERT_TRUE(payload.ok());
  auto error = ParseError(*payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, WireError::kMalformed);

  // The server closes after a framing-level violation: the next read is
  // a clean EOF.
  char byte;
  const Status eof = ReadFull(fd->get(), &byte, 1, sites);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.code(), StatusCode::kOutOfRange) << eof.message();
  EXPECT_EQ(f.server->summary().malformed, 1u);
}

TEST_F(ServeServerTest, CrcCorruptionGetsTypedErrorThenClose) {
  Fixture f = Fixture::Make({});
  auto fd = ConnectTcp("127.0.0.1", f.server->port(), 5.0);
  ASSERT_TRUE(fd.ok());
  const WireSites sites("serve.client");

  QueryRequest q;
  q.request_id = 77;
  q.key = "t.v";
  FlatQuery range;
  range.a = 1;
  range.b = 10;
  q.ranges.push_back(range);
  std::string frame = EncodeQuery(q);
  frame[frame.size() / 2] ^= 0x01;  // corrupt one payload byte in flight
  ASSERT_TRUE(WriteFull(fd->get(), frame, sites).ok());

  char header[kFrameHeaderBytes];
  ASSERT_TRUE(
      ReadFull(fd->get(), header, kFrameHeaderBytes, sites).ok());
  auto decoded =
      DecodeFrameHeader(std::string_view(header, kFrameHeaderBytes));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MsgType::kError);
  std::string rest(decoded->payload_size + kFrameTrailerBytes, '\0');
  ASSERT_TRUE(
      ReadFull(fd->get(), rest.data(), rest.size(), sites).ok());
  auto payload = CheckFrameCrc(
      std::string(header, kFrameHeaderBytes) + rest, *decoded);
  ASSERT_TRUE(payload.ok());
  auto error = ParseError(*payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, WireError::kMalformed);
}

TEST_F(ServeServerTest, ConnectionCapRejectsWithTypedOverloaded) {
  ServerOptions options;
  options.max_connections = 1;
  Fixture f = Fixture::Make(options);
  const ServingMetrics& m = GetServingMetrics();
  const auto outcomes = [&m] {
    return m.ok->Value() + m.malformed->Value() + m.overloaded->Value() +
           m.deadline_exceeded->Value() + m.not_found->Value() +
           m.internal->Value() + m.shutting_down->Value();
  };
  const uint64_t rejected_before = m.conns_rejected->Value();
  const uint64_t overloaded_before = m.overloaded->Value();
  const uint64_t requests_before = m.requests->Value();
  const uint64_t outcomes_before = outcomes();

  // Occupy the single slot (the ping both registers the connection and
  // proves it serves).
  Client first(f.ClientFor());
  ASSERT_TRUE(first.Ping(1000).ok());

  // The next connection is answered with a typed OVERLOADED frame, then
  // closed.
  auto fd = ConnectTcp("127.0.0.1", f.server->port(), 5.0);
  ASSERT_TRUE(fd.ok());
  const WireSites sites("serve.client");
  char header[kFrameHeaderBytes];
  ASSERT_TRUE(
      ReadFull(fd->get(), header, kFrameHeaderBytes, sites).ok());
  auto decoded =
      DecodeFrameHeader(std::string_view(header, kFrameHeaderBytes));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MsgType::kError);
  std::string rest(decoded->payload_size + kFrameTrailerBytes, '\0');
  ASSERT_TRUE(
      ReadFull(fd->get(), rest.data(), rest.size(), sites).ok());
  auto payload = CheckFrameCrc(
      std::string(header, kFrameHeaderBytes) + rest, *decoded);
  ASSERT_TRUE(payload.ok());
  auto error = ParseError(*payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, WireError::kOverloaded);
  EXPECT_EQ(f.server->summary().conns_rejected, 1u);

  // A refused connection is not a request: the scraped serve.request.*
  // outcomes still sum to serve.request.count.
  EXPECT_EQ(m.conns_rejected->Value() - rejected_before, 1u);
  EXPECT_EQ(m.overloaded->Value() - overloaded_before, 0u);
  EXPECT_EQ(m.requests->Value() - requests_before,
            outcomes() - outcomes_before);
}

TEST_F(ServeServerTest, PipelinedQueriesAnswerInRequestOrder) {
  Fixture f = Fixture::Make({});
  auto fd = ConnectTcp("127.0.0.1", f.server->port(), 5.0);
  ASSERT_TRUE(fd.ok());
  const WireSites sites("serve.client");

  // Three query frames back to back, before reading any reply; batch
  // sizes differ so a reply out of order could not pass for another.
  std::vector<std::vector<FlatQuery>> batches;
  std::string frames;
  for (uint64_t id = 1; id <= 3; ++id) {
    QueryRequest q;
    q.request_id = id;
    q.key = "t.v";
    q.ranges = MakeRanges(*f.oracle, 40 + id, static_cast<int>(id * 7));
    batches.push_back(q.ranges);
    frames += EncodeQuery(q);
  }
  ASSERT_TRUE(WriteFull(fd->get(), frames, sites).ok());

  FlatSynopsis::BatchScratch scratch;
  for (uint64_t id = 1; id <= 3; ++id) {
    SCOPED_TRACE(id);
    auto frame = ReadRawFrame(fd->get(), sites);
    ASSERT_TRUE(frame.ok()) << frame.status().message();
    ASSERT_EQ(frame->type, MsgType::kQueryOk);
    auto reply = ParseQueryOk(frame->payload);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->request_id, id);
    const std::vector<FlatQuery>& ranges = batches[id - 1];
    std::vector<double> expected(ranges.size());
    ASSERT_TRUE(f.oracle->EstimateMany(ranges, expected, &scratch).ok());
    EXPECT_EQ(reply->estimates, expected);  // bit-exact
  }
  EXPECT_EQ(f.server->summary().ok, 3u);
}

TEST_F(ServeServerTest, SlowQueryStallsOnlyItsOwnConnection) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "built with RANGESYN_FAILPOINTS=OFF";
  }
  Fixture f = Fixture::Make({});
  ASSERT_TRUE(failpoint::Configure("serve.eval=sleep:300").ok());
  const std::vector<FlatQuery> ranges = MakeRanges(*f.oracle, 23, 4);

  // Connection A parks a query in evaluation for 300ms.
  Client parked(f.ClientFor());
  std::atomic<bool> answered{false};
  std::thread holder([&] {
    EXPECT_TRUE(parked.Query("t.v", ranges, 5000).ok());
    answered.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Connection B is served meanwhile, by its own thread.
  Client other(f.ClientFor());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(other.Ping(1000).ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(answered.load()) << "A's query was not parked during B's ping";
  EXPECT_LT(elapsed, std::chrono::milliseconds(150));
  holder.join();
}

/// What a client call against a silent server returned, and whether it
/// returned within 5 s.
struct SilentServerOutcome {
  Status status;
  bool in_time = false;
};

/// Runs `call` on another thread against a raw listener that accepts one
/// connection and then never reads or replies. After 5 s both sockets
/// are closed, which ends a wait that ignores its deadline, so a
/// regression fails the test instead of hanging the suite.
SilentServerOutcome CallSilentServer(
    const std::function<Status(const ClientOptions&)>& call) {
  auto listener = ListenTcp("127.0.0.1", 0);
  auto port = listener.ok() ? BoundPort(listener->get())
                            : Result<uint16_t>(listener.status());
  if (!port.ok()) return {port.status(), true};
  ClientOptions options;
  options.port = *port;
  options.initial_backoff_s = 0.001;
  std::atomic<bool> returned{false};
  auto pending = std::async(std::launch::async, [&] {
    const Status status = call(options);
    returned.store(true);
    return status;
  });
  Result<Fd> accepted = AcceptConn(listener->get(), &returned);
  const bool in_time =
      pending.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  if (accepted.ok()) accepted->Close();
  listener->Close();
  return {pending.get(), in_time};
}

TEST_F(ServeServerTest, ClientDeadlineBoundsASilentServer) {
  const SilentServerOutcome got =
      CallSilentServer([](const ClientOptions& options) {
        Client client(options);
        return client.Ping(/*deadline_ms=*/200);
      });
  EXPECT_TRUE(got.in_time) << "Ping(200) was still waiting after 5s";
  EXPECT_EQ(got.status.code(), StatusCode::kDeadlineExceeded)
      << got.status.message();
}

TEST_F(ServeServerTest, ClientDeadlineBoundsAServerThatStopsReading) {
  // A frame at the payload cap is more than the loopback socket buffers
  // take from a peer that never reads, so the write itself must give up.
  FlatQuery range;
  range.a = 1;
  range.b = 1;
  const std::vector<FlatQuery> at_cap(
      (kMaxPayloadBytes - QueryPayloadBytes("t.v", 0)) / sizeof(FlatQuery),
      range);
  const SilentServerOutcome got =
      CallSilentServer([&](const ClientOptions& options) {
        Client client(options);
        return client.Query("t.v", at_cap, /*deadline_ms=*/200).status();
      });
  EXPECT_TRUE(got.in_time) << "Query(200) was still writing after 5s";
  EXPECT_EQ(got.status.code(), StatusCode::kDeadlineExceeded)
      << got.status.message();
}

TEST_F(ServeServerTest, TransportFaultOnReadIsRetriedTransparently) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "built with RANGESYN_FAILPOINTS=OFF";
  }
  Fixture f = Fixture::Make({});
  // The client's first read attempt takes an injected ECONNRESET; the
  // retry reconnects and succeeds. Idempotent reads make this safe.
  ASSERT_TRUE(
      failpoint::Configure("serve.client.read.reset=once").ok());
  Client client(f.ClientFor());
  const std::vector<FlatQuery> ranges = MakeRanges(*f.oracle, 21, 4);
  const auto got = client.Query("t.v", ranges, 5000);
  EXPECT_TRUE(got.ok()) << got.status().message();
  EXPECT_GE(client.stats().reconnects, 1u);
}

TEST_F(ServeServerTest, OversizedBatchIsRefusedBeforeSending) {
  Fixture f = Fixture::Make({});
  Client client(f.ClientFor());
  // One range more than fits the payload cap, and a key that alone does.
  const std::vector<FlatQuery> too_many(kMaxPayloadBytes / sizeof(FlatQuery) +
                                        1);
  const std::vector<FlatQuery> one = MakeRanges(*f.oracle, 5, 1);
  const std::string huge_key(kMaxPayloadBytes, 'k');
  const auto too_many_ranges = client.Query("t.v", too_many, 1000);
  const auto too_long_key = client.Query(huge_key, one, 1000);
  for (const auto* got : {&too_many_ranges, &too_long_key}) {
    ASSERT_FALSE(got->ok());
    EXPECT_EQ(got->status().code(), StatusCode::kInvalidArgument)
        << got->status().message();
  }
  // Nothing reached the server: no connection was even opened.
  EXPECT_EQ(client.stats().attempts, 0u);
  ServerSummary s = f.server->summary();
  EXPECT_EQ(s.conns_accepted, 0u);
  EXPECT_EQ(s.requests, 0u);

  // The client is still usable, and a batch at the cap goes through.
  const std::vector<FlatQuery> at_cap(
      (kMaxPayloadBytes - QueryPayloadBytes("t.v", 0)) / sizeof(FlatQuery),
      one[0]);
  ASSERT_LE(QueryPayloadBytes("t.v", at_cap.size()), kMaxPayloadBytes);
  const auto got = client.Query("t.v", at_cap, 30000);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_EQ(got->size(), at_cap.size());
  std::vector<double> expected(1);
  FlatSynopsis::BatchScratch scratch;
  ASSERT_TRUE(f.oracle->EstimateMany(one, expected, &scratch).ok());
  EXPECT_EQ(got->front(), expected[0]);
  EXPECT_EQ(got->back(), expected[0]);

  ASSERT_TRUE(f.server->DrainAndWait(/*grace_s=*/10.0).ok());
  s = f.server->summary();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.ok, 1u);
  EXPECT_EQ(s.requests, s.ok + s.shed + s.malformed + s.deadline_exceeded +
                            s.not_found + s.internal + s.shutting_down);
  EXPECT_EQ(s.conns_open, 0u);
}

TEST_F(ServeServerTest, CreateValidatesOptions) {
  SynopsisCatalog catalog;
  ASSERT_TRUE(
      catalog.RegisterColumn("t.v", MakeColumn(5), FastSpec()).ok());
  ServerOptions bad;
  bad.queue_limit = 0;
  EXPECT_FALSE(Server::Create(std::move(catalog), bad).ok());
}

TEST_F(ServeServerTest, DrainWakesAnIdleListenerAtOnce) {
  // The listener polls in 100 ms slices between stop-flag checks; drain
  // shuts the listening socket down so the join does not wait out the
  // slice, and the accept that wake-up fails is no accept error.
  std::ostringstream log;
  obs::LogSink::Get().SetStream(&log);
  Fixture f = Fixture::Make({});
  {
    // One answered ping proves the listener has passed its first stop
    // check; the pause parks it in a poll slice before the drain.
    Client client(f.ClientFor());
    EXPECT_TRUE(client.Ping(1000).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto start = std::chrono::steady_clock::now();
  const Status drained = f.server->DrainAndWait(/*grace_s=*/5.0);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  obs::LogSink::Get().SetStream(nullptr);
  EXPECT_TRUE(drained.ok()) << drained.message();
  EXPECT_LT(elapsed_ms, 50.0);
  EXPECT_EQ(log.str().find("serve.accept.error"), std::string::npos)
      << log.str();
}

TEST_F(ServeServerTest, DestructorDrainsStartedServer) {
  // A scoped server that is simply dropped must shut down cleanly (the
  // destructor drains); nothing to assert beyond "does not hang/crash".
  Fixture f = Fixture::Make({});
  Client client(f.ClientFor());
  ASSERT_TRUE(client.Ping(1000).ok());
  f.server.reset();
}

}  // namespace
}  // namespace rangesyn::serve
