#include "obs/flight.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>

#include "core/strings.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace rangesyn::obs {
namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Copies `text` into an atomic char slot field, truncating to cap-1 and
/// always NUL-terminating. Relaxed element stores: the slot seqlock
/// provides the ordering.
template <size_t N>
void StoreSlotText(std::atomic<char> (&dst)[N], std::string_view text) {
  const size_t n = std::min(text.size(), N - 1);
  for (size_t i = 0; i < n; ++i) {
    dst[i].store(text[i], std::memory_order_relaxed);
  }
  dst[n].store('\0', std::memory_order_relaxed);
}

template <size_t N>
std::string LoadSlotText(const std::atomic<char> (&src)[N]) {
  std::string out;
  out.reserve(32);
  for (size_t i = 0; i < N; ++i) {
    const char c = src[i].load(std::memory_order_relaxed);
    if (c == '\0') break;
    out.push_back(c);
  }
  return out;
}

/// Dump-file reasons become filename components: lowercase letters pass
/// through (uppercase is folded), as do digits, '_' and '-'; everything
/// else becomes '_'.
std::string SanitizeReason(std::string_view reason) {
  std::string out;
  out.reserve(reason.size());
  for (char c : reason) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? std::string("unknown") : out;
}

}  // namespace

FlightRecorder& FlightRecorder::Get() {
  // Intentionally leaked: the recorder lives for the process lifetime.
  static FlightRecorder* instance = new FlightRecorder();  // lint: waive(LINT-004)
  return *instance;
}

FlightRecorder::Ring* FlightRecorder::RingForThisThread() {
  thread_local Ring* tls_ring = nullptr;
  if (tls_ring != nullptr) return tls_ring;
  // Rings are leaked on purpose: a dump may run (from a signal handler or
  // fatal hook) after the owning thread exited, so ring storage must be
  // process-lifetime. Registration is a lock-free list push, so recording
  // works from contexts where a mutex could deadlock.
  Ring* ring = new Ring();  // lint: waive(LINT-004) process-lifetime ring
  ring->tid = next_tid_.fetch_add(1, std::memory_order_relaxed) + 1;
  Ring* head = rings_.load(std::memory_order_acquire);
  do {
    ring->next_ring = head;
  } while (!rings_.compare_exchange_weak(head, ring,
                                         std::memory_order_release,
                                         std::memory_order_acquire));
  tls_ring = ring;
  return ring;
}

uint32_t CurrentThreadTid() { return FlightRecorder::Get().ThisThreadTid(); }

// GCC's -Wtsan flags atomic_thread_fence as unsupported under
// ThreadSanitizer: TSan does not model fence ordering, so synchronization
// established only through a fence can yield false-positive race reports
// on *plain* memory. Every field the slot seqlock orders is itself a
// std::atomic (version, seq, payload chars), so there is no plain access
// for TSan to misjudge — the fences merely strengthen ordering between
// atomics and the diagnostic is a false alarm here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
#endif

void FlightRecorder::Record(LogSeverity level, std::string_view event,
                            std::string_view detail) {
  Ring* ring = RingForThisThread();
  const uint64_t index = ring->next.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring->slots[index & (kEventsPerThread - 1)];
  const uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Per-slot seqlock, single writer (the owning thread): mark the slot
  // dirty (odd), publish the payload, mark it stable (even). Readers that
  // catch the slot mid-write observe a version mismatch and drop it.
  const uint64_t v = slot.version.load(std::memory_order_relaxed);
  slot.version.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.seq.store(seq, std::memory_order_relaxed);
  slot.mono_ns.store(static_cast<uint64_t>(SteadyNowNs()),
                     std::memory_order_relaxed);
  slot.level.store(static_cast<int32_t>(level), std::memory_order_relaxed);
  slot.tid.store(ring->tid, std::memory_order_relaxed);
  StoreSlotText(slot.event, event);
  StoreSlotText(slot.detail, detail);
  slot.version.store(v + 2, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Collect() const {
  std::vector<FlightEvent> out;
  for (const Ring* ring = rings_.load(std::memory_order_acquire);
       ring != nullptr; ring = ring->next_ring) {
    for (const Slot& slot : ring->slots) {
      const uint64_t v1 = slot.version.load(std::memory_order_acquire);
      if (v1 == 0 || (v1 & 1) != 0) continue;  // unwritten or mid-write
      FlightEvent e;
      e.seq = slot.seq.load(std::memory_order_relaxed);
      e.mono_ns = slot.mono_ns.load(std::memory_order_relaxed);
      e.level =
          static_cast<LogSeverity>(slot.level.load(std::memory_order_relaxed));
      e.tid = slot.tid.load(std::memory_order_relaxed);
      e.event = LoadSlotText(slot.event);
      e.detail = LoadSlotText(slot.detail);
      std::atomic_thread_fence(std::memory_order_acquire);
      const uint64_t v2 = slot.version.load(std::memory_order_relaxed);
      if (v1 != v2) continue;  // overwritten while copying: drop
      out.push_back(std::move(e));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void FlightRecorder::WriteDumpJson(std::ostream& os, std::string_view reason,
                                   bool include_metrics) const {
  const std::vector<FlightEvent> events = Collect();
  os << "{\"schema_version\":1,\"kind\":\"flight_dump\",\"reason\":"
     << JsonQuote(reason) << ",\"pid\":" << JsonNumber(int64_t{getpid()})
     << ",\"recorded_total\":" << JsonNumber(recorded_count())
     << ",\"events\":[";
  bool first = true;
  for (const FlightEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"seq\":" << JsonNumber(e.seq)
       << ",\"mono_ns\":" << JsonNumber(e.mono_ns)
       << ",\"level\":" << JsonQuote(LogSeverityLetter(e.level))
       << ",\"tid\":" << JsonNumber(uint64_t{e.tid})
       << ",\"event\":" << JsonQuote(e.event)
       << ",\"detail\":" << JsonQuote(e.detail) << "}";
  }
  os << "\n],\"metrics\":";
  if (include_metrics) {
    // Embeds the full schema-versioned stats document, so one dump file
    // carries both the event history and the counters/latency quantiles
    // at dump time. (Skipped on the signal path: the registry lock is
    // not signal-safe.)
    WriteStatsJson(Registry::Get().Snapshot(), os);
  } else {
    os << "null";
  }
  os << "}\n";
}

Status FlightRecorder::DumpToFile(const std::string& path,
                                  std::string_view reason,
                                  bool include_metrics) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return InternalError(StrCat("cannot open flight dump file: ", path));
  }
  WriteDumpJson(out, reason, include_metrics);
  out.flush();
  if (!out) return InternalError(StrCat("failed writing flight dump: ", path));
  return OkStatus();
}

FlightRecorder::~FlightRecorder() {
  const DirNode* node = dump_dir_.load(std::memory_order_acquire);
  while (node != nullptr) {
    const DirNode* replaced = node->replaced;
    delete node;  // lint: waive(LINT-004) the recorder owns the chain
    node = replaced;
  }
}

void FlightRecorder::SetDumpDir(std::string_view dir) {
  // Pointer-swapped so dump_dir() readers never lock. The replaced node
  // stays valid for stragglers: the fresh node takes ownership of it.
  auto* fresh = new DirNode{std::string(dir)};  // lint: waive(LINT-004)
  env_checked_.store(true, std::memory_order_release);
  const DirNode* current = dump_dir_.load(std::memory_order_acquire);
  do {
    fresh->replaced = current;
  } while (!dump_dir_.compare_exchange_weak(current, fresh,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire));
}

std::string FlightRecorder::dump_dir() {
  if (!env_checked_.load(std::memory_order_acquire)) {
    const char* env = std::getenv("RANGESYN_FLIGHT_DIR");
    if (env != nullptr && *env != '\0') {
      const DirNode* fresh = new DirNode{env};  // lint: waive(LINT-004)
      const DirNode* expected = nullptr;
      if (!dump_dir_.compare_exchange_strong(expected, fresh,
                                             std::memory_order_release,
                                             std::memory_order_acquire)) {
        delete fresh;  // lint: waive(LINT-004) lost the publish race
      }
    }
    env_checked_.store(true, std::memory_order_release);
  }
  const DirNode* node = dump_dir_.load(std::memory_order_acquire);
  return node != nullptr ? node->dir : std::string();
}

std::string FlightRecorder::AutoDump(std::string_view reason) {
  auto_dumps_.fetch_add(1, std::memory_order_relaxed);
  const std::string dir = dump_dir();
  if (dir.empty()) return std::string();
  const uint64_t n = dump_files_.fetch_add(1, std::memory_order_relaxed);
  const std::string path =
      StrCat(dir, "/flight_", SanitizeReason(reason), "_", getpid(), "_", n,
             ".json");
  if (Status s = DumpToFile(path, reason); !s.ok()) {
    RANGESYN_LOG(Warning) << "flight auto-dump failed: " << s;
    return std::string();
  }
  return path;
}

namespace {

/// Fatal-path re-entrancy guard shared by the CHECK hook and the signal
/// handlers: one dump per process death, and a dump that itself dies
/// cannot recurse.
std::atomic<bool> g_fatal_dump_done{false};

void FatalCheckHook() {
  if (g_fatal_dump_done.exchange(true, std::memory_order_acq_rel)) return;
  FlightRecorder::Get().AutoDump("fatal_check");
}

void FatalSignalHandler(int sig) {
  if (!g_fatal_dump_done.exchange(true, std::memory_order_acq_rel)) {
    // Best effort: the dump path allocates and takes no locks except
    // inside the stream layer, which is acceptable for a crash artifact
    // (worst case the process dies twice). Metrics are skipped — the
    // registry mutex may be held by the interrupted thread.
    const char* reason;
    switch (sig) {
      case SIGSEGV: reason = "sigsegv"; break;
      case SIGABRT: reason = "sigabrt"; break;
      case SIGBUS: reason = "sigbus"; break;
      case SIGFPE: reason = "sigfpe"; break;
      case SIGILL: reason = "sigill"; break;
      default: reason = "signal"; break;
    }
    FlightRecorder& recorder = FlightRecorder::Get();
    const std::string dir = recorder.dump_dir();
    if (!dir.empty()) {
      const std::string path =
          StrCat(dir, "/flight_", reason, "_", getpid(), "_crash.json");
      (void)recorder.DumpToFile(path, reason, /*include_metrics=*/false);
    }
  }
  // Restore the default disposition and re-raise so the exit status and
  // core-dump behavior stay exactly what the signal would have produced.
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void InstallCrashHandlers() {
  static bool installed = [] {
    SetFatalLogHook(&FatalCheckHook);
    std::signal(SIGSEGV, &FatalSignalHandler);
    std::signal(SIGABRT, &FatalSignalHandler);
    std::signal(SIGBUS, &FatalSignalHandler);
    std::signal(SIGFPE, &FatalSignalHandler);
    std::signal(SIGILL, &FatalSignalHandler);
    return true;
  }();
  (void)installed;
}

}  // namespace rangesyn::obs
