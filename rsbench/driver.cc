// rsbench driver: the serving benchmark for rangesyn (rsbench/README.md).
//
// One process builds a catalog of paper-family synopses over a Zipf
// (alpha = 1.8) column, serves it through an in-process serve::Server on
// loopback, and drives it through serve::Client in a closed loop: each
// generator thread sends its next request only when the previous one has
// returned, the way a query planner blocks on each estimate.
//
//   rsbench_driver --workload point-probe|bulk-batch|refresh-mix
//                  --seed N --seconds S --trace 0|1
//                  [--trace-out FILE] [--plant-mismatch 1]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs an untraced
// phase and then a traced one, which records spans around every client
// call and replays sampled live requests through the layer functions in
// process; it prints the per-layer metrics. The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exit code 0
// means every answer matched the local FlatSynopsis oracle bit for bit and
// the server's books balanced; 1 means they did not; 2 is a usage or
// set-up error, with no result line.

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/logging.h"
#include "core/random.h"
#include "core/threadpool.h"
#include "data/rounding.h"
#include "engine/catalog.h"
#include "engine/table.h"
#include "qpath/flat_synopsis.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

#ifndef RSBENCH_BUILD_TYPE
#define RSBENCH_BUILD_TYPE "unknown"
#endif

namespace rsbench {
namespace {

using rangesyn::Column;
using rangesyn::FlatQuery;
using rangesyn::FlatSynopsis;
using rangesyn::Rng;
using rangesyn::SynopsisCatalog;
using rangesyn::SynopsisSpec;
namespace serve = rangesyn::serve;

using View = std::shared_ptr<const FlatSynopsis>;

// ---------------------------------------------------------------------------
// Fixed parameters. The served column is the paper's dataset recipe
// (random-rounded Zipf alpha = 1.8 frequencies, random placement) with the
// library's default dataset seed, over about 1000 values; every synopsis
// gets 64 words. The rebuild loops cycle through fresh column versions of
// the same recipe. The data is the same in every run, so that set-up,
// rebuild and quality figures compare across runs; the seed of a run picks
// its traffic.

constexpr int64_t kDomain = 1000;
constexpr double kRows = 100000.0;
constexpr int64_t kBudgetWords = 64;
constexpr const char* kMethods[] = {"naive", "equiwidth", "equidepth", "a0",
                                    "sap0",  "sap1",      "sap2",
                                    "wave-range-opt"};
constexpr size_t kNumMethods = std::size(kMethods);
/// Global pool threads: 2 workers plus the ParallelFor caller. With at most
/// two generator (or generator + maintenance) threads, generator threads
/// plus pool workers stay at or under 4 = nproc of the reference host.
constexpr int kPoolThreads = 3;
/// Set-ups per run; setup_s and engine.build_ms.* are their medians.
constexpr int kSetupReps = 5;
/// Per-request deadline and client retry budget; no request comes close.
constexpr uint32_t kDeadlineMs = 10000;
/// Rebuilds timed with no query load (workloads without a maintenance
/// thread), and the fresh column versions every rebuild loop cycles
/// through.
constexpr int kIdleRebuilds = 40;
constexpr int kColumnVersions = 4;
/// Traced phase: one probe cycle per generator this often.
constexpr int64_t kProbeIntervalNs = 10'000'000;
constexpr int kIdleHandoffProbes = 400;
/// Ranges per request of the quality pass.
constexpr size_t kQualityBatch = 4096;

/// Stages replayed per request, in the order client and server run them.
constexpr const char* kStages[] = {
    "protocol.encode_query", "protocol.frame_check", "protocol.parse_query",
    "qpath.eval",            "protocol.encode_reply", "protocol.parse_reply"};
constexpr int kReplayBatches[] = {1, 4096};

struct Workload {
  const char* name;
  int connections;
  int batch;
  bool refresh;         // a maintenance thread rebuilds during the load
  int warmup_requests;  // per connection, discarded from timing
  int pool_entries;     // distinct requests per connection, cycled
};

// Why each workload exists is in README.md.
constexpr Workload kWorkloads[] = {
    {"point-probe", 2, 1, false, 1000, 1 << 16},
    {"bulk-batch", 1, 4096, false, 8, 32},
    {"refresh-mix", 1, 1, true, 1000, 1 << 16},
};

// ---------------------------------------------------------------------------
// Utilities.

int64_t MonoNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ClockCpuS(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ProcessCpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set (VmHWM) in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Whole-machine CPU jiffies from /proc/stat.
struct Jiffies {
  uint64_t steal = 0;
  uint64_t total = 0;
};

Jiffies ReadJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  Jiffies j;
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

double StealFrac(const Jiffies& from, const Jiffies& to) {
  return to.total > from.total ? static_cast<double>(to.steal - from.steal) /
                                     static_cast<double>(to.total - from.total)
                               : 0.0;
}

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Mix(seed + 0x9e3779b97f4a7c15ULL * (stream + 1));
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Order-sensitive digest of one reply's estimates.
uint64_t Digest(std::span<const double> values) {
  uint64_t h = values.size();
  for (double v : values) h = Mix(h ^ Bits(v));
  return h;
}

/// Index of the exact nearest-rank percentile (q in (0, 1]) among `size`
/// sorted values.
size_t Rank(size_t size, double q) {
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(size)));
  return std::clamp<size_t>(rank, 1, size) - 1;
}

/// Exact nearest-rank percentile (q in (0, 1]); reorders `values`.
template <typename T>
T Percentile(std::span<T> values, double q) {
  if (values.empty()) return T{};
  const auto nth =
      values.begin() + static_cast<std::ptrdiff_t>(Rank(values.size(), q));
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double Median(std::vector<double> values) {
  return Percentile(std::span<double>(values), 0.5);
}

[[noreturn]] void SetupFailure(const std::string& what) {
  std::fprintf(stderr, "rsbench: set-up failed: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(rangesyn::Result<T> result, const std::string& what) {
  if (!result.ok()) SetupFailure(what + ": " + result.status().ToString());
  return std::move(result.value());
}

void Must(const rangesyn::Status& status, const std::string& what) {
  if (!status.ok()) SetupFailure(what + ": " + status.ToString());
}

clockid_t CpuClockOf(std::thread& thread) {
  clockid_t clock{};
  if (pthread_getcpuclockid(thread.native_handle(), &clock) != 0) {
    SetupFailure("pthread_getcpuclockid");
  }
  return clock;
}

// ---------------------------------------------------------------------------
// Inputs.

/// One column version: the paper's dataset recipe expanded into records.
struct ColumnData {
  Column column{"price"};
  std::vector<int64_t> prefix;  // prefix[p] = records at positions 1..p
};

ColumnData MakeColumn(uint64_t dataset_seed) {
  rangesyn::PaperDatasetOptions options;
  options.n = kDomain;
  options.alpha = 1.8;
  options.total_volume = kRows;
  options.seed = dataset_seed;
  const std::vector<int64_t> counts =
      Must(rangesyn::MakePaperDataset(options), "MakePaperDataset");
  ColumnData data;
  for (int64_t v = 0; v < kDomain; ++v) {
    for (int64_t k = 0; k < counts[static_cast<size_t>(v)]; ++k) {
      data.column.Append(v);
    }
  }
  // Positions follow the catalog's domain: the column's own value bounds.
  const rangesyn::AttributeDistribution dist =
      Must(rangesyn::BuildDistribution(data.column), "BuildDistribution");
  data.prefix.assign(1, 0);
  for (int64_t c : dist.counts) data.prefix.push_back(data.prefix.back() + c);
  return data;
}

/// A connection's request stream: `entries()` requests of `batch` ranges;
/// request number i uses entry i % entries().
struct Traffic {
  int batch = 1;
  std::vector<uint16_t> key_of;
  std::vector<FlatQuery> ranges;

  size_t entries() const { return key_of.size(); }
  std::span<const FlatQuery> Ranges(size_t entry) const {
    return std::span<const FlatQuery>(ranges).subspan(
        entry * static_cast<size_t>(batch), static_cast<size_t>(batch));
  }
};

Traffic MakeTraffic(uint64_t seed, int batch, int entries, int64_t n) {
  Rng rng(seed);
  Traffic t;
  t.batch = batch;
  t.key_of.resize(static_cast<size_t>(entries));
  t.ranges.resize(static_cast<size_t>(entries) * static_cast<size_t>(batch));
  // Keys are balanced: each run of kNumMethods consecutive requests asks
  // every key once, in a seeded order, so any prefix of the stream weighs
  // the methods (nearly) equally.
  uint16_t order[kNumMethods];
  for (size_t m = 0; m < kNumMethods; ++m) order[m] = static_cast<uint16_t>(m);
  size_t r = 0;
  for (size_t e = 0; e < t.entries(); ++e) {
    const size_t slot = e % kNumMethods;
    if (slot == 0) {
      for (size_t m = kNumMethods - 1; m > 0; --m) {
        std::swap(order[m], order[rng.NextBounded(m + 1)]);
      }
    }
    t.key_of[e] = order[slot];
    for (int k = 0; k < batch; ++k) {
      const int64_t x = rng.NextInt(1, n);
      const int64_t y = rng.NextInt(1, n);
      t.ranges[r++] = FlatQuery{std::min(x, y), std::max(x, y)};
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory per generator thread, written out at the end as
// Chrome trace events.

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint32_t id;
  uint32_t parent;  // 0 = root
  uint64_t request_id;
  int batch;
};

struct SpanLog {
  uint32_t tid = 0;
  uint32_t next_id = 1;
  std::vector<Span> spans;

  uint32_t Add(const char* name, int64_t start, int64_t end, uint32_t parent,
               uint64_t request_id, int batch) {
    const uint32_t id = (tid << 24) | next_id++;
    spans.push_back({name, start, end, id, parent, request_id, batch});
    return id;
  }
};

// ---------------------------------------------------------------------------
// Closed-loop generators.

constexpr uint64_t kHashSeed = 0x7273626e63680001ULL;

struct Generator {
  int index = 0;
  std::unique_ptr<serve::Client> client;
  Traffic traffic;
  Traffic alt;        // the other batch size, for traced replays
  uint64_t sent = 0;  // query requests sent, warm-up included
  /// Request numbers answered with an error.
  std::vector<uint64_t> failed;
  /// Chained digests of the OK answers, checked after the window: keeping
  /// only this keeps client work between requests small.
  uint64_t answer_hash = kHashSeed;
  /// Call-to-return time of every timed request, in ns (saturating).
  std::vector<uint32_t> latency_ns;
  std::string first_error;
  uint64_t failed_probes = 0;
  SpanLog log;
  // Results of the current phase.
  size_t phase_begin = 0;
  double cpu_s = 0.0;
  int64_t last_done_ns = 0;
  uint64_t ok_ranges = 0;
};

uint64_t RequestId(const Generator& g, uint64_t number) {
  return (static_cast<uint64_t>(g.index) << 48) | number;
}

void SendOne(Generator& g, const std::vector<std::string>& keys, bool warmup,
             SpanLog* log) {
  const uint64_t number = g.sent++;
  const size_t entry = number % g.traffic.entries();
  const int64_t t0 = MonoNs();
  rangesyn::Result<std::vector<double>> got = g.client->Query(
      keys[g.traffic.key_of[entry]], g.traffic.Ranges(entry), kDeadlineMs);
  const int64_t t1 = MonoNs();
  if (log != nullptr) {
    log->Add("client.query", t0, t1, 0, RequestId(g, number), g.traffic.batch);
  }
  if (!warmup) {
    g.latency_ns.push_back(
        static_cast<uint32_t>(std::min<int64_t>(t1 - t0, UINT32_MAX)));
  }
  if (!got.ok()) {
    g.failed.push_back(number);
    if (g.first_error.empty()) g.first_error = got.status().ToString();
    return;
  }
  g.answer_hash = Mix(g.answer_hash ^ Digest(*got));
  if (!warmup) g.ok_ranges += got->size();
}

/// Replays one request through the layer functions client and server call,
/// in their order, with one span per stage; checks that the decoded reply
/// equals the evaluated answers.
void Replay(Generator& g, const FlatSynopsis& view, const std::string& key,
            std::span<const FlatQuery> ranges, uint64_t request_id) {
  const int batch = static_cast<int>(ranges.size());
  serve::QueryRequest request;
  request.request_id = request_id;
  request.deadline_ms = kDeadlineMs;
  request.key = key;
  request.ranges.assign(ranges.begin(), ranges.end());
  // The reply buffer and scratch are allocated outside the timed stages,
  // so the eval span is EstimateMany alone.
  serve::QueryResponse response;
  response.request_id = request_id;
  response.estimates.resize(ranges.size());
  FlatSynopsis::BatchScratch scratch;
  int64_t t[std::size(kStages) + 1];

  t[0] = MonoNs();
  const std::string frame = serve::EncodeQuery(request);
  t[1] = MonoNs();
  auto header = serve::DecodeFrameHeader(
      std::string_view(frame).substr(0, serve::kFrameHeaderBytes));
  rangesyn::Result<std::string> payload =
      header.ok() ? serve::CheckFrameCrc(frame, *header)
                  : rangesyn::Result<std::string>(header.status());
  t[2] = MonoNs();
  rangesyn::Result<serve::QueryRequest> parsed =
      payload.ok() ? serve::ParseQuery(*payload)
                   : rangesyn::Result<serve::QueryRequest>(payload.status());
  t[3] = MonoNs();
  bool ok = parsed.ok() && parsed->ranges.size() == ranges.size();
  if (ok) {
    // As Server::HandleQuery does: eval_chunk ranges per EstimateMany call
    // with one reused scratch.
    const size_t chunk =
        static_cast<size_t>(serve::ServerOptions{}.eval_chunk);
    const std::span<const FlatQuery> queries(parsed->ranges);
    const std::span<double> out(response.estimates);
    for (size_t off = 0; ok && off < queries.size(); off += chunk) {
      const size_t len = std::min(chunk, queries.size() - off);
      ok = view.EstimateMany(queries.subspan(off, len), out.subspan(off, len),
                             &scratch)
               .ok();
    }
  }
  t[4] = MonoNs();
  const std::string reply = serve::EncodeQueryOk(response);
  t[5] = MonoNs();
  auto reply_header = serve::DecodeFrameHeader(
      std::string_view(reply).substr(0, serve::kFrameHeaderBytes));
  rangesyn::Result<std::string> reply_payload =
      reply_header.ok()
          ? serve::CheckFrameCrc(reply, *reply_header)
          : rangesyn::Result<std::string>(reply_header.status());
  rangesyn::Result<serve::QueryResponse> decoded =
      reply_payload.ok()
          ? serve::ParseQueryOk(*reply_payload)
          : rangesyn::Result<serve::QueryResponse>(reply_payload.status());
  t[6] = MonoNs();

  const uint32_t root = g.log.Add("replay", t[0], t[6], 0, request_id, batch);
  for (size_t s = 0; s < std::size(kStages); ++s) {
    g.log.Add(kStages[s], t[s], t[s + 1], root, request_id, batch);
  }
  ok = ok && decoded.ok() &&
       decoded->estimates.size() == response.estimates.size() &&
       std::memcmp(decoded->estimates.data(), response.estimates.data(),
                   response.estimates.size() * sizeof(double)) == 0;
  if (!ok) ++g.failed_probes;
}

/// Submit-to-first-instruction latency of one no-op pool task, in ns.
int64_t HandoffProbe() {
  // Shared with the task, which may still be in notify_one when the
  // waiter has already seen the store.
  auto ran_ns = std::make_shared<std::atomic<int64_t>>(0);
  const int64_t t0 = MonoNs();
  rangesyn::GlobalThreadPool().Submit([ran_ns] {
    ran_ns->store(MonoNs(), std::memory_order_release);
    ran_ns->notify_one();
  });
  // Block rather than spin, leaving the CPU to the pool.
  int64_t ran = 0;
  while ((ran = ran_ns->load(std::memory_order_acquire)) == 0) {
    ran_ns->wait(0, std::memory_order_acquire);
  }
  return ran - t0;
}

void ProbeCycle(Generator& g, const std::vector<std::string>& keys,
                const std::map<std::string, View>& views) {
  const uint64_t last = g.sent - 1;
  const uint64_t request_id = RequestId(g, last);
  // Ping and handoff first, straight after a live request, so they meet
  // the same warm server threads and pool the live requests meet.
  const int64_t p0 = MonoNs();
  const rangesyn::Status ping = g.client->Ping(kDeadlineMs);
  const int64_t p1 = MonoNs();
  if (!ping.ok()) {
    ++g.failed_probes;
    if (g.first_error.empty()) g.first_error = ping.ToString();
  }
  g.log.Add("wire.ping", p0, p1, 0, request_id, 0);
  const int64_t h0 = MonoNs();
  const int64_t handoff = HandoffProbe();
  g.log.Add("threadpool.handoff", h0, h0 + handoff, 0, request_id, 0);

  // The live request just answered, with its own request id, then one of
  // the other batch size, so every workload reports .b1 and .b4096.
  const size_t entry = last % g.traffic.entries();
  const std::string& key = keys[g.traffic.key_of[entry]];
  Replay(g, *views.at(key), key, g.traffic.Ranges(entry), request_id);
  const size_t alt = last % g.alt.entries();
  const std::string& alt_key = keys[g.alt.key_of[alt]];
  Replay(g, *views.at(alt_key), alt_key, g.alt.Ranges(alt), request_id);
}

/// Closed loop until `end_ns`, starting when `go` is set.
void GeneratorPhase(Generator& g, const std::vector<std::string>& keys,
                    const std::map<std::string, View>& views,
                    const std::atomic<bool>& go, int64_t end_ns, bool traced) {
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  g.phase_begin = g.latency_ns.size();
  g.ok_ranges = 0;
  const double cpu0 = ClockCpuS(CLOCK_THREAD_CPUTIME_ID);
  int64_t next_probe = MonoNs() + kProbeIntervalNs / 2;
  int64_t now = 0;
  while ((now = MonoNs()) < end_ns) {
    SendOne(g, keys, /*warmup=*/false, traced ? &g.log : nullptr);
    if (traced && MonoNs() >= next_probe) {
      ProbeCycle(g, keys, views);
      next_probe += kProbeIntervalNs;
    }
  }
  g.cpu_s = ClockCpuS(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  g.last_done_ns = now;
}

// ---------------------------------------------------------------------------
// Rebuilds: RegisterColumn + FlatView compile on a side catalog.

struct RebuildStats {
  // Per method: sap1, a0.
  std::vector<double> seconds[2];      // wall clock
  std::vector<double> cpu_seconds[2];  // process CPU
  std::string error;

  /// Back-to-back sap1 + a0 pairs per second at each method's median
  /// rebuild time, times two.
  double PerSecond() const {
    if (seconds[0].empty() || seconds[1].empty()) return 0.0;
    return 2.0 / (Median(seconds[0]) + Median(seconds[1]));
  }
  /// Mean of the two methods' median process CPU per rebuild, in ms.
  double CpuMs() const {
    if (cpu_seconds[0].empty() || cpu_seconds[1].empty()) return 0.0;
    return (Median(cpu_seconds[0]) + Median(cpu_seconds[1])) * 1e3 / 2.0;
  }
  size_t count() const { return seconds[0].size() + seconds[1].size(); }

  /// "[min, q1, median, q3, max]" of one method's times, in ms.
  static std::string Quartiles(std::vector<double> s) {
    if (s.empty()) return "[]";
    std::sort(s.begin(), s.end());
    char buf[160];
    std::snprintf(buf, sizeof(buf), "[%.1f, %.1f, %.1f, %.1f, %.1f]",
                  s.front() * 1e3, s[Rank(s.size(), 0.25)] * 1e3,
                  s[Rank(s.size(), 0.5)] * 1e3, s[Rank(s.size(), 0.75)] * 1e3,
                  s.back() * 1e3);
    return buf;
  }
  /// The samples-line summary: wall and CPU quartiles per method.
  std::string Summary() const {
    return "{\"sap1\": " + Quartiles(seconds[0]) +
           ", \"sap1_cpu\": " + Quartiles(cpu_seconds[0]) +
           ", \"a0\": " + Quartiles(seconds[1]) +
           ", \"a0_cpu\": " + Quartiles(cpu_seconds[1]) + "}";
  }
};

constexpr const char* kRebuildMethods[] = {"sap1", "a0"};

/// Rebuilds back to back, alternating sap1 and a0 over `versions`, until
/// `stop` is set or `max_rebuilds` are done. Times the rebuilds that end
/// by `count_until_ns`.
void RebuildLoop(const std::vector<ColumnData>& versions,
                 const std::atomic<bool>& stop,
                 const std::atomic<int64_t>& count_until_ns, int max_rebuilds,
                 RebuildStats* stats) {
  SynopsisCatalog side;
  const std::string key = "side.price";
  for (int v = 0; !stop.load(std::memory_order_acquire) && v < max_rebuilds;
       ++v) {
    if (v > 0) {
      if (rangesyn::Status evicted = side.Evict(key); !evicted.ok()) {
        stats->error = evicted.ToString();
        return;
      }
    }
    SynopsisSpec spec;
    spec.method = kRebuildMethods[v % 2];
    spec.budget_words = kBudgetWords;
    const int64_t t0 = MonoNs();
    const double c0 = ProcessCpuS();
    const rangesyn::Status built = side.RegisterColumn(
        key, versions[static_cast<size_t>(v) % versions.size()].column, spec);
    const rangesyn::Result<View> view =
        built.ok() ? side.FlatView(key) : rangesyn::Result<View>(built);
    const int64_t t1 = MonoNs();
    const double c1 = ProcessCpuS();
    if (!view.ok()) {
      stats->error = view.status().ToString();
      return;
    }
    if (t1 <= count_until_ns.load(std::memory_order_acquire)) {
      stats->seconds[v % 2].push_back(static_cast<double>(t1 - t0) * 1e-9);
      stats->cpu_seconds[v % 2].push_back(c1 - c0);
    }
  }
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << JsonNumber(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void WriteTrace(const std::string& path, const std::vector<Generator>& gens,
                int64_t origin_ns) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const Generator& g : gens) {
    for (const Span& s : g.log.spans) {
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << g.index
          << ", \"ts\": "
          << JsonNumber(static_cast<double>(s.start_ns - origin_ns) * 1e-3)
          << ", \"dur\": "
          << JsonNumber(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
          << ", \"args\": {\"span\": " << s.id << ", \"parent\": " << s.parent
          << ", \"request_id\": " << s.request_id << ", \"batch\": " << s.batch
          << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

/// Median duration in us of the spans named `name` with batch `batch`.
double SpanMedianUs(const std::vector<Generator>& gens, const char* name,
                    int batch) {
  std::vector<double> d;
  for (const Generator& g : gens) {
    for (const Span& s : g.log.spans) {
      if (std::strcmp(s.name, name) == 0 && s.batch == batch) {
        d.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      }
    }
  }
  return Median(std::move(d));
}

// ---------------------------------------------------------------------------
// The run.

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool plant_mismatch = false;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc % 2 != 1) SetupFailure("flags take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) SetupFailure("unknown workload " + value);
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--plant-mismatch") {
      args.plant_mismatch = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      SetupFailure("unknown flag " + flag);
    }
  }
  if (args.workload == nullptr) SetupFailure("--workload is required");
  if (!(args.seconds > 0.0)) SetupFailure("--seconds must be > 0");
  return args;
}

/// One timed load phase.
struct Phase {
  int64_t start_ns = 0;
  double wall_s = 0.0;
  /// Every timed request's call-to-return time, sorted.
  std::vector<uint32_t> latency_ns;
  uint64_t ok_ranges = 0;
  /// Summed over connections: OK ranges per request / median call-to-return
  /// time.
  double median_rate = 0.0;
  double process_cpu_s = 0.0;
  double client_cpu_s = 0.0;  // generator (+ maintenance) threads
  double steal_frac = 0.0;
  uint64_t admit_count = 0;
  uint64_t admit_sum_ns = 0;
  int64_t queue_depth_max = 0;

  double PercentileUs(double q) const {
    if (latency_ns.empty()) return 0.0;
    return static_cast<double>(latency_ns[Rank(latency_ns.size(), q)]) * 1e-3;
  }
};

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args), w_(*args.workload) {}

  int Run();

 private:
  void SetUp();
  void QualityPass(serve::Client& client);
  void WarmUp();
  Phase RunPhase(bool traced, double seconds, bool last);
  void Verify();
  void CheckBooks();
  std::vector<Metric> EndToEndMetrics() const;
  std::vector<Metric> PerLayerMetrics();
  void PrintContext() const;

  const Args args_;
  const Workload& w_;
  ColumnData data_;
  std::vector<ColumnData> versions_;
  std::vector<std::string> keys_;
  std::map<std::string, View> oracle_;
  std::unique_ptr<serve::Server> server_;
  std::vector<Generator> gens_;

  std::vector<double> setup_s_;
  std::vector<double> build_ms_[kNumMethods];
  std::vector<double> compile_us_;
  std::vector<double> handoff_idle_us_;

  std::atomic<bool> stop_maintenance_{false};
  std::atomic<int64_t> count_rebuilds_until_{INT64_MAX};
  RebuildStats rebuilds_;
  // After the members its thread uses.
  std::thread maintenance_;
  clockid_t maintenance_clock_{};

  std::vector<Phase> phases_;

  // Verdict.
  uint64_t attempted_ = 0;
  uint64_t errors_ = 0;
  uint64_t mismatched_ = 0;
  uint64_t quality_ok_ = 0;  // OK answers of the quality pass
  bool books_ok_ = false;
  uint64_t books_shed_ = 0;
  uint64_t client_requests_ = 0;
  uint64_t client_attempts_ = 0;
  double sse_ratio_ = 0.0;
};

/// Set-up, kSetupReps times: build every key, compile its flat view, start
/// a server and get its first Ping answered. The first set-up's views are
/// the oracle (an independent build of the same specs); the last set-up's
/// server is the one driven.
void Bench::SetUp() {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t t0 = MonoNs();
    SynopsisCatalog catalog;
    std::map<std::string, View> views;
    for (size_t m = 0; m < kNumMethods; ++m) {
      SynopsisSpec spec;
      spec.method = kMethods[m];
      spec.budget_words = kBudgetWords;
      const std::string& key = keys_[m];
      const int64_t b0 = MonoNs();
      Must(catalog.RegisterColumn(key, data_.column, spec),
           "RegisterColumn " + key);
      const int64_t b1 = MonoNs();
      views[key] = Must(catalog.FlatView(key), "FlatView " + key);
      const int64_t b2 = MonoNs();
      build_ms_[m].push_back(static_cast<double>(b1 - b0) * 1e-6);
      compile_us_.push_back(static_cast<double>(b2 - b1) * 1e-3);
    }
    std::unique_ptr<serve::Server> server =
        Must(serve::Server::Create(std::move(catalog), serve::ServerOptions{}),
             "Server::Create");
    Must(server->Start(), "Server::Start");
    serve::ClientOptions options;
    options.port = server->port();
    serve::Client client(options);
    Must(client.Ping(kDeadlineMs), "first Ping");
    setup_s_.push_back(static_cast<double>(MonoNs() - t0) * 1e-9);

    if (rep == 0) oracle_ = views;
    if (rep + 1 < kSetupReps) {
      client.Disconnect();
      Must(server->DrainAndWait(), "DrainAndWait");
    } else {
      server_ = std::move(server);
    }
  }
  if (args_.plant_mismatch) {
    // Verify against a different synopsis: the run must fail.
    oracle_[keys_[0]] = oracle_[keys_[1]];
  }
}

/// The paper's quality metric from served answers: every range [a, b] of
/// the domain is asked of every key, kQualityBatch ranges per request, and
/// each answer is checked against the oracle. sse_ratio is the mean over
/// the non-naive keys of SSE(key) / SSE(naive), errors against exact
/// counts.
void Bench::QualityPass(serve::Client& client) {
  const int64_t n = oracle_.at(keys_[0])->n();
  std::vector<FlatQuery> all;
  for (int64_t a = 1; a <= n; ++a) {
    for (int64_t b = a; b <= n; ++b) all.push_back(FlatQuery{a, b});
  }
  std::vector<double> sse(kNumMethods, 0.0);
  std::vector<double> expected(kQualityBatch);
  FlatSynopsis::BatchScratch scratch;
  for (size_t m = 0; m < kNumMethods; ++m) {
    for (size_t off = 0; off < all.size(); off += kQualityBatch) {
      const std::span<const FlatQuery> ranges =
          std::span<const FlatQuery>(all).subspan(
              off, std::min(kQualityBatch, all.size() - off));
      ++attempted_;
      rangesyn::Result<std::vector<double>> got =
          client.Query(keys_[m], ranges, kDeadlineMs);
      if (!got.ok()) {
        ++errors_;
        std::fprintf(stderr, "rsbench: quality pass: %s\n",
                     got.status().ToString().c_str());
        continue;
      }
      ++quality_ok_;
      const std::span<double> want =
          std::span<double>(expected).first(ranges.size());
      Must(oracle_.at(keys_[m])->EstimateMany(ranges, want, &scratch),
           "oracle EstimateMany");
      for (size_t k = 0; k < ranges.size(); ++k) {
        if (Bits((*got)[k]) != Bits(want[k])) ++mismatched_;
        const double exact = static_cast<double>(
            data_.prefix[static_cast<size_t>(ranges[k].b)] -
            data_.prefix[static_cast<size_t>(ranges[k].a - 1)]);
        sse[m] += ((*got)[k] - exact) * ((*got)[k] - exact);
      }
    }
  }
  // kMethods[0] is naive.
  double sum = 0.0;
  for (size_t m = 1; m < kNumMethods; ++m) sum += sse[m] / sse[0];
  sse_ratio_ = sum / static_cast<double>(kNumMethods - 1);
}

/// Opens the connections, runs the quality pass on the first, and
/// discards each one's first requests from timing.
void Bench::WarmUp() {
  const int64_t n = oracle_.at(keys_[0])->n();
  gens_.resize(static_cast<size_t>(w_.connections));
  for (int c = 0; c < w_.connections; ++c) {
    Generator& g = gens_[static_cast<size_t>(c)];
    g.index = c;
    g.log.tid = static_cast<uint32_t>(c + 1);
    serve::ClientOptions options;
    options.port = server_->port();
    options.backoff_seed = SubSeed(args_.seed, 200 + c);
    g.client = std::make_unique<serve::Client>(options);
    g.traffic = MakeTraffic(SubSeed(args_.seed, 100 + c), w_.batch,
                            w_.pool_entries, n);
    const int alt_batch = w_.batch == 1 ? 4096 : 1;
    g.alt = MakeTraffic(SubSeed(args_.seed, 300 + c), alt_batch,
                        alt_batch == 1 ? 1 << 12 : 8, n);
    // Latency samples are 4 bytes. Room for a generous rate is touched up
    // front, so peak RSS does not follow throughput.
    g.latency_ns.resize(static_cast<size_t>(
        args_.seconds * (w_.batch == 1 ? 100000.0 : 4000.0)));
    g.latency_ns.clear();
    Must(g.client->Ping(kDeadlineMs), "warm-up Ping");
    if (c == 0) QualityPass(*g.client);
    for (int i = 0; i < w_.warmup_requests; ++i) {
      SendOne(g, keys_, /*warmup=*/true, nullptr);
    }
  }
  if (args_.trace) {
    for (int i = 0; i < kIdleHandoffProbes; ++i) {
      handoff_idle_us_.push_back(static_cast<double>(HandoffProbe()) * 1e-3);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

Phase Bench::RunPhase(bool traced, double seconds, bool last) {
  Phase p;
  // Room for every sample is touched before the window, as each
  // generator's is, so peak RSS does not follow throughput.
  size_t capacity = 0;
  for (const Generator& g : gens_) capacity += g.latency_ns.capacity();
  p.latency_ns.resize(capacity);
  p.latency_ns.clear();
  std::atomic<bool> go{false};
  const int64_t start_ns = MonoNs() + 2'000'000;
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  if (last) count_rebuilds_until_.store(end_ns, std::memory_order_release);
  std::vector<std::thread> threads;
  for (Generator& g : gens_) {
    threads.emplace_back([this, &g, &go, end_ns, traced] {
      GeneratorPhase(g, keys_, oracle_, go, end_ns, traced);
    });
  }
  if (w_.refresh && !maintenance_.joinable()) {
    maintenance_ = std::thread([this] {
      RebuildLoop(versions_, stop_maintenance_, count_rebuilds_until_,
                  INT32_MAX, &rebuilds_);
    });
    maintenance_clock_ = CpuClockOf(maintenance_);
  }
  const serve::ServingMetrics& sm = serve::GetServingMetrics();
  auto maintenance_cpu = [&] {
    return w_.refresh ? ClockCpuS(maintenance_clock_) : 0.0;
  };
  while (MonoNs() < start_ns) std::this_thread::yield();
  const Jiffies j0 = ReadJiffies();
  const uint64_t admit_count0 = sm.latency->Count();
  const uint64_t admit_sum0 = sm.latency->Sum();
  const double cpu0 = ProcessCpuS();
  const double maint0 = maintenance_cpu();
  p.start_ns = MonoNs();
  go.store(true, std::memory_order_release);
  for (int64_t now = MonoNs(); now < end_ns; now = MonoNs()) {
    if (args_.trace) {
      p.queue_depth_max = std::max(p.queue_depth_max, sm.queue_depth->Value());
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<int64_t>(end_ns - now, 500'000)));
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(end_ns - now));
    }
  }
  for (std::thread& t : threads) t.join();
  p.process_cpu_s = ProcessCpuS() - cpu0;
  p.client_cpu_s = maintenance_cpu() - maint0;
  p.steal_frac = StealFrac(j0, ReadJiffies());
  p.admit_count = sm.latency->Count() - admit_count0;
  p.admit_sum_ns = sm.latency->Sum() - admit_sum0;
  int64_t last_done = p.start_ns;
  for (Generator& g : gens_) {
    p.client_cpu_s += g.cpu_s;
    p.ok_ranges += g.ok_ranges;
    last_done = std::max(last_done, g.last_done_ns);
    const std::span<uint32_t> mine =
        std::span<uint32_t>(g.latency_ns).subspan(g.phase_begin);
    p.latency_ns.insert(p.latency_ns.end(), mine.begin(), mine.end());
    const uint32_t median_ns = Percentile(mine, 0.5);
    if (median_ns > 0) {
      p.median_rate += static_cast<double>(g.ok_ranges) /
                       static_cast<double>(mine.size()) /
                       (static_cast<double>(median_ns) * 1e-9);
    }
  }
  std::sort(p.latency_ns.begin(), p.latency_ns.end());
  p.wall_s = static_cast<double>(last_done - p.start_ns) * 1e-9;
  return p;
}

/// The correctness gate, after the timed window: every OK answer against
/// the local oracle, bit for bit. Also computes sse_ratio from the served
/// warm-up answers.
void Bench::Verify() {
  for (Generator& g : gens_) {
    const size_t entries = g.traffic.entries();
    std::vector<uint64_t> expected(entries);
    std::vector<double> out(static_cast<size_t>(g.traffic.batch));
    FlatSynopsis::BatchScratch scratch;
    for (size_t e = 0; e < entries; ++e) {
      const View& view = oracle_.at(keys_[g.traffic.key_of[e]]);
      Must(view->EstimateMany(g.traffic.Ranges(e), out, &scratch),
           "oracle EstimateMany");
      expected[e] = Digest(out);
    }
    attempted_ += g.sent;
    errors_ += g.failed.size();
    // The chained digests, skipping failed requests.
    uint64_t hash = kHashSeed;
    auto failed = g.failed.begin();
    for (uint64_t i = 0; i < g.sent; ++i) {
      while (failed != g.failed.end() && *failed < i) ++failed;
      if (failed != g.failed.end() && *failed == i) continue;
      hash = Mix(hash ^ expected[i % entries]);
    }
    if (hash != g.answer_hash) {
      ++mismatched_;
      std::fprintf(stderr,
                   "rsbench: connection %d: answers differ from the oracle\n",
                   g.index);
    }
    mismatched_ += g.failed_probes;
    client_requests_ += g.client->stats().requests;
    client_attempts_ += g.client->stats().attempts;
    if (!g.first_error.empty()) {
      std::fprintf(stderr, "rsbench: connection %d: %s\n", g.index,
                   g.first_error.c_str());
    }
  }
  if (!rebuilds_.error.empty()) {
    std::fprintf(stderr, "rsbench: rebuild failed: %s\n",
                 rebuilds_.error.c_str());
    ++errors_;
  }
}

/// Drains the server, then checks its books: the accounting identity, no
/// connection left open, nothing shed, and one server-side OK per client
/// OK when no request was retried.
void Bench::CheckBooks() {
  uint64_t client_ok = quality_ok_;
  for (Generator& g : gens_) {
    client_ok += g.sent - g.failed.size();
    g.client->Disconnect();
  }
  const rangesyn::Status drained = server_->DrainAndWait();
  const serve::ServerSummary books = server_->summary();
  const uint64_t outcomes = books.ok + books.shed + books.malformed +
                            books.deadline_exceeded + books.not_found +
                            books.internal + books.shutting_down;
  books_ok_ = drained.ok() && books.requests == outcomes &&
              books.conns_open == 0 && books.shed == 0 &&
              (client_attempts_ != client_requests_ || books.ok == client_ok);
  books_shed_ = books.shed;
  if (!books_ok_) {
    std::fprintf(stderr, "rsbench: books do not balance: %s (drain: %s)\n",
                 server_->SummaryLine().c_str(), drained.ToString().c_str());
  }
  server_.reset();
}

std::vector<Metric> Bench::EndToEndMetrics() const {
  const Phase& p = phases_.front();
  const double ranges = static_cast<double>(p.ok_ranges);
  return {
      {"setup_s", Median(setup_s_), "s"},
      {"p50_us", p.PercentileUs(0.5), "us"},
      {"ranges_per_s", p.median_rate, "ranges/s"},
      {"server_cpu_ns_per_range",
       (p.process_cpu_s - p.client_cpu_s) * 1e9 / ranges, "ns"},
      {"sse_ratio", sse_ratio_, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"ok_rate",
       1.0 - static_cast<double>(errors_ + mismatched_) /
                 static_cast<double>(std::max<uint64_t>(attempted_, 1)),
       "ratio"},
  };
}

/// Per-layer medians from the traced phase's spans; end-to-end references
/// from the untraced phase before it.
std::vector<Metric> Bench::PerLayerMetrics() {
  const Phase& untraced = phases_.front();
  const Phase& traced = phases_.back();
  const double p50 = untraced.PercentileUs(0.5);
  const double p50_traced = traced.PercentileUs(0.5);
  std::vector<Metric> metrics;
  for (size_t m = 0; m < kNumMethods; ++m) {
    metrics.push_back({std::string("engine.build_ms.") + kMethods[m],
                       Median(build_ms_[m]), "ms"});
  }
  metrics.push_back({"qpath.compile_us", Median(compile_us_), "us"});
  metrics.push_back({"engine.rebuilds_per_s", rebuilds_.PerSecond(), "1/s"});
  metrics.push_back({"engine.rebuild_cpu_ms", rebuilds_.CpuMs(), "ms"});
  double stages_us = 0.0;  // codec + eval at the workload's batch size
  for (int batch : kReplayBatches) {
    const std::string suffix = ".b" + std::to_string(batch);
    for (const char* stage : kStages) {
      const double us = SpanMedianUs(gens_, stage, batch);
      if (batch == w_.batch) stages_us += us;
      if (std::strcmp(stage, "qpath.eval") == 0) {
        metrics.push_back({"qpath.eval_ns_per_range" + suffix,
                           us * 1e3 / batch, "ns"});
      } else {
        metrics.push_back({std::string(stage) + "_us" + suffix, us, "us"});
      }
    }
  }
  const double ping_us = SpanMedianUs(gens_, "wire.ping", 0);
  const double handoff_us = SpanMedianUs(gens_, "threadpool.handoff", 0);
  const double unattributed = p50 - (ping_us + handoff_us + stages_us);
  metrics.push_back({"wire.ping_rtt_us", ping_us, "us"});
  metrics.push_back(
      {"threadpool.handoff_us.idle", Median(handoff_idle_us_), "us"});
  metrics.push_back({"threadpool.handoff_us.loaded", handoff_us, "us"});
  metrics.push_back(
      {"server.admit_to_reply_us",
       untraced.admit_count ? static_cast<double>(untraced.admit_sum_ns) *
                                  1e-3 /
                                  static_cast<double>(untraced.admit_count)
                            : 0.0,
       "us"});
  metrics.push_back(
      {"server.queue_depth_max",
       static_cast<double>(
           std::max(untraced.queue_depth_max, traced.queue_depth_max)),
       "count"});
  metrics.push_back(
      {"server.shed", static_cast<double>(books_shed_), "count"});
  metrics.push_back(
      {"client.attempts_per_request",
       static_cast<double>(client_attempts_) /
           static_cast<double>(std::max<uint64_t>(client_requests_, 1)),
       "ratio"});
  metrics.push_back({"client.window_ranges_per_s",
                     static_cast<double>(untraced.ok_ranges) / untraced.wall_s,
                     "ranges/s"});
  metrics.push_back({"budget.unattributed_us", unattributed, "us"});
  metrics.push_back({"host.steal_frac",
                     (untraced.steal_frac + traced.steal_frac) / 2.0,
                     "ratio"});
  metrics.push_back({"trace.overhead_p50_us", p50_traced - p50, "us"});

  // The layer budget at the workload's batch size, for the reader.
  std::printf("# rsbench budget batch=%d p50_us=%.3f (untraced) "
              "p50_traced_us=%.3f tracing_overhead_us=%.3f\n",
              w_.batch, p50, p50_traced, p50_traced - p50);
  const std::string tail = ".b" + std::to_string(w_.batch);
  for (const Metric& m : metrics) {
    const bool at_batch =
        m.name.size() > tail.size() &&
        m.name.compare(m.name.size() - tail.size(), tail.size(), tail) == 0;
    if (at_batch || m.name == "wire.ping_rtt_us" ||
        m.name == "threadpool.handoff_us.loaded" ||
        m.name == "budget.unattributed_us") {
      std::printf("# rsbench budget   %-34s %12.3f %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    }
  }
  if (!args_.trace_out.empty()) {
    WriteTrace(args_.trace_out, gens_, traced.start_ns);
  }
  return metrics;
}

void Bench::PrintContext() const {
  const Phase& p = phases_.front();
  std::printf(
      "# rsbench context {\"workload\": \"%s\", \"seed\": %llu, \"trace\": "
      "%d, \"nproc\": %ld, \"build_type\": \"%s\", \"pool_threads\": %d, "
      "\"pool_workers\": %d, \"generator_threads\": %d, \"rangesyn_stats\": "
      "\"%s\", \"host.steal_frac\": %.4f}\n",
      w_.name, static_cast<unsigned long long>(args_.seed),
      args_.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), RSBENCH_BUILD_TYPE,
      rangesyn::GlobalThreads(), rangesyn::GlobalThreads() - 1,
      w_.connections + (w_.refresh ? 1 : 0),
#ifdef RANGESYN_STATS
      "ON",
#else
      "OFF",
#endif
      p.steal_frac);
  // p99 is for information only: steal bursts move it by an order of
  // magnitude.
  std::printf(
      "# rsbench samples {\"timed_requests\": %zu, \"p50_us\": %.3f, "
      "\"p90_us\": %.3f, \"p99_us\": %.3f, \"wall_s\": %.4f, "
      "\"window_ranges_per_s\": %.1f, \"rebuilds\": %llu, "
      "\"rebuild_ms\": %s, \"error_rate\": %.6g}\n",
      p.latency_ns.size(), p.PercentileUs(0.5), p.PercentileUs(0.9),
      p.PercentileUs(0.99), p.wall_s,
      static_cast<double>(p.ok_ranges) / p.wall_s,
      static_cast<unsigned long long>(rebuilds_.count()),
      rebuilds_.Summary().c_str(),
      static_cast<double>(errors_ + mismatched_) /
          static_cast<double>(std::max<uint64_t>(attempted_, 1)));
}

int Bench::Run() {
  rangesyn::SetMinLogSeverity(rangesyn::LogSeverity::kWarning);
  rangesyn::SetGlobalThreads(kPoolThreads);
  const uint64_t data_seed = rangesyn::PaperDatasetOptions{}.seed;
  data_ = MakeColumn(data_seed);
  for (int v = 0; v < kColumnVersions; ++v) {
    versions_.push_back(MakeColumn(SubSeed(data_seed, 1000 + v)));
  }
  for (const char* m : kMethods) {
    keys_.push_back(std::string("orders.price.") + m);
  }

  SetUp();
  WarmUp();
  // The untraced run has one phase. The traced run has an untraced phase
  // (the reference for tracing overhead) and then a traced one.
  if (args_.trace) {
    phases_.push_back(RunPhase(false, args_.seconds / 2, false));
    phases_.push_back(RunPhase(true, args_.seconds / 2, true));
  } else {
    phases_.push_back(RunPhase(false, args_.seconds, true));
  }
  stop_maintenance_.store(true, std::memory_order_release);
  if (maintenance_.joinable()) maintenance_.join();

  Verify();
  CheckBooks();
  if (!w_.refresh) {
    // Rebuild throughput with the server gone.
    const std::atomic<bool> never{false};
    count_rebuilds_until_.store(INT64_MAX, std::memory_order_release);
    RebuildLoop(versions_, never, count_rebuilds_until_, kIdleRebuilds,
                &rebuilds_);
    if (!rebuilds_.error.empty()) ++errors_;
  }

  const bool correct = errors_ == 0 && mismatched_ == 0 && books_ok_;
  const uint64_t failed = errors_ + mismatched_ + (books_ok_ ? 0 : 1);
  const std::vector<Metric> metrics =
      args_.trace ? PerLayerMetrics() : EndToEndMetrics();
  PrintContext();

  std::printf("%s\n", ResultLine(correct, attempted_, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rsbench

int main(int argc, char** argv) {
  rsbench::Bench bench(rsbench::ParseArgs(argc, argv));
  return bench.Run();
}
