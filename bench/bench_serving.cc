// Serving-path cost (DESIGN.md §12): what one RSP1 round trip adds on
// top of the flat evaluation it carries. The Serve rows run against a
// real in-process Server over loopback TCP — framing, CRC32C, admission,
// deadline arming, thread-pool handoff, and reply serialization are all
// in the timed loop, so these numbers are the daemon's actual per-
// request overhead. The Crc32c and Codec rows isolate the codec layer.
//
//   BM_LocalEvalBatch/N  — FlatSynopsis::EstimateMany alone (the floor)
//   BM_Crc32c/B          — CRC32C over B bytes
//   BM_CodecRoundTrip/N  — the RSP1 codec work of one N-range request,
//                          in process with no socket: encode query,
//                          header + CRC check, parse, encode reply,
//                          header + CRC check, parse reply; in the
//                          in-place forms on buffers reused across
//                          iterations, as the connection loops run them
//   BM_ServePing         — empty round trip: pure protocol + socket cost
//   BM_ServeQueryBatch/N — one query frame carrying N ranges (4096 is
//                          rsbench's bulk-batch shape)
//   BM_ServeQueryPipelined/T — T client threads, one connection each
//
// The committed baseline (results/baselines/BENCH_serving.json) feeds
// the bench_compare perf gate; the items/s counters make the batch rows
// comparable across batch sizes.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/crc32c.h"
#include "core/logging.h"
#include "core/random.h"
#include "engine/catalog.h"
#include "engine/table.h"
#include "qpath/flat_synopsis.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace rangesyn::serve {
namespace {

constexpr int64_t kPaperN = 4096;
constexpr const char* kKey = "bench.v";

Column BenchColumn() {
  Rng rng(20010521);
  Column c("v");
  for (int64_t i = 0; i < kPaperN; ++i) c.Append(rng.NextInt(0, 999));
  return c;
}

/// One server shared by every serving row (port picked once); the
/// catalog entry is the paper-scale 64-word equidepth synopsis.
struct ServerHolder {
  std::unique_ptr<Server> server;
  std::shared_ptr<const FlatSynopsis> oracle;

  ServerHolder() {
    SynopsisCatalog catalog;
    SynopsisSpec spec;
    spec.method = "equidepth";
    spec.budget_words = 64;
    RANGESYN_CHECK_OK(catalog.RegisterColumn(kKey, BenchColumn(), spec));
    auto view = catalog.FlatView(kKey);
    RANGESYN_CHECK_OK(view.status());
    oracle = view.value();
    auto created = Server::Create(std::move(catalog), ServerOptions{});
    RANGESYN_CHECK_OK(created.status());
    server = std::move(*created);
    RANGESYN_CHECK_OK(server->Start());
  }
};

ServerHolder& SharedServer() {
  static ServerHolder holder;
  return holder;
}

/// `count` seeded ranges over the value domain [1, n].
std::vector<FlatQuery> RandomRanges(size_t count, int64_t n) {
  Rng rng(41);
  std::vector<FlatQuery> ranges;
  for (size_t i = 0; i < count; ++i) {
    FlatQuery q;
    q.a = rng.NextInt(1, n);
    q.b = rng.NextInt(q.a, n);
    ranges.push_back(q);
  }
  return ranges;
}

std::vector<FlatQuery> BenchRanges(size_t count) {
  return RandomRanges(count, SharedServer().oracle->n());
}

ClientOptions BenchClientOptions() {
  ClientOptions options;
  options.port = SharedServer().server->port();
  return options;
}

void BM_LocalEvalBatch(benchmark::State& state) {
  const FlatSynopsis& view = *SharedServer().oracle;
  const std::vector<FlatQuery> ranges =
      BenchRanges(static_cast<size_t>(state.range(0)));
  std::vector<double> out(ranges.size());
  FlatSynopsis::BatchScratch scratch;
  for (auto _ : state) {
    RANGESYN_CHECK_OK(view.EstimateMany(ranges, out, &scratch));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ranges.size()));
}
BENCHMARK(BM_LocalEvalBatch)->Arg(1)->Arg(16)->Arg(256);

void BM_Crc32c(benchmark::State& state) {
  Rng rng(3720);
  std::string bytes(static_cast<size_t>(state.range(0)), '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextInt(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536);

void BM_CodecRoundTrip(benchmark::State& state) {
  QueryRequest request;
  request.request_id = 1;
  request.deadline_ms = 5000;
  request.key = kKey;
  request.ranges = RandomRanges(static_cast<size_t>(state.range(0)), 1000);
  std::vector<double> estimates;
  for (const FlatQuery& q : request.ranges) {
    estimates.push_back(0.5 * static_cast<double>(q.b - q.a + 1));
  }
  std::string frame;
  QueryRequest parsed;
  std::string reply;
  QueryResponse decoded;
  for (auto _ : state) {
    EncodeQueryInto(request.request_id, request.deadline_ms, request.key,
                    request.ranges, &frame);
    auto header = DecodeFrameHeader(
        std::string_view(frame).substr(0, kFrameHeaderBytes));
    RANGESYN_CHECK_OK(header.status());
    auto payload = CheckFrameCrcInPlace(frame, *header);
    RANGESYN_CHECK_OK(payload.status());
    RANGESYN_CHECK_OK(ParseQueryInto(*payload, &parsed));
    benchmark::DoNotOptimize(parsed.ranges.data());

    EncodeQueryOkInto(parsed.request_id, estimates, &reply);
    auto reply_header = DecodeFrameHeader(
        std::string_view(reply).substr(0, kFrameHeaderBytes));
    RANGESYN_CHECK_OK(reply_header.status());
    auto reply_payload = CheckFrameCrcInPlace(reply, *reply_header);
    RANGESYN_CHECK_OK(reply_payload.status());
    RANGESYN_CHECK_OK(ParseQueryOkInto(*reply_payload, &decoded));
    benchmark::DoNotOptimize(decoded.estimates.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(request.ranges.size()));
}
BENCHMARK(BM_CodecRoundTrip)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

void BM_ServePing(benchmark::State& state) {
  Client client(BenchClientOptions());
  RANGESYN_CHECK_OK(client.Ping(5000));  // connect outside the timed loop
  for (auto _ : state) {
    RANGESYN_CHECK_OK(client.Ping(5000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServePing)->UseRealTime();

void BM_ServeQueryBatch(benchmark::State& state) {
  Client client(BenchClientOptions());
  RANGESYN_CHECK_OK(client.Ping(5000));
  const std::vector<FlatQuery> ranges =
      BenchRanges(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto got = client.Query(kKey, ranges, 5000);
    RANGESYN_CHECK_OK(got.status());
    benchmark::DoNotOptimize(got->data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ranges.size()));
}
BENCHMARK(BM_ServeQueryBatch)
    ->Arg(1)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->UseRealTime();

void BM_ServeQueryPipelined(benchmark::State& state) {
  // One connection and one in-flight request per benchmark thread: the
  // aggregate items/s shows how the listener/worker split scales before
  // admission control starts shedding.
  Client client(BenchClientOptions());
  RANGESYN_CHECK_OK(client.Ping(5000));
  const std::vector<FlatQuery> ranges = BenchRanges(16);
  for (auto _ : state) {
    auto got = client.Query(kKey, ranges, 5000);
    RANGESYN_CHECK_OK(got.status());
    benchmark::DoNotOptimize(got->data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ranges.size()));
}
BENCHMARK(BM_ServeQueryPipelined)->Threads(2)->Threads(4)->UseRealTime();

}  // namespace
}  // namespace rangesyn::serve
