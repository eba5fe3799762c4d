#ifndef RANGESYN_OBS_FLIGHT_H_
#define RANGESYN_OBS_FLIGHT_H_

/// Flight recorder: a lock-free, per-thread ring buffer that retains the
/// last kEventsPerThread structured events each thread produced, so that
/// when something goes wrong — a fatal signal, a failed RANGESYN_CHECK, a
/// deadline-degraded build, a quarantined catalog entry — the process can
/// dump *what led up to it* plus a metrics snapshot as one JSON
/// postmortem artifact.
///
/// Writers never block: each thread owns its ring (registered once
/// through a lock-free push-only list) and publishes fixed-size slots
/// with a per-slot seqlock, so recording is a few relaxed atomics and two
/// release stores — cheap enough for the degradation paths it instruments
/// and safe to call from contexts where taking a mutex would deadlock.
/// Readers (the dump path) copy slots optimistically and drop torn ones.
///
/// Dumps fire automatically at four trigger classes (DESIGN.md §10):
///   1. fatal signals (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL) once
///      InstallCrashHandlers() ran — best-effort, metrics skipped;
///   2. RANGESYN_CHECK / RANGESYN_DCHECK failures, via the core logging
///      fatal hook InstallCrashHandlers() registers;
///   3. deadline-triggered fallback-ladder degradation (engine/factory);
///   4. catalog-entry quarantine (engine/catalog).
/// Auto-dumps only write files when a dump directory is configured
/// (--flight-dir or RANGESYN_FLIGHT_DIR); otherwise they are dropped, so
/// library users never find surprise files on disk.

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis_annotations.h"
#include "core/logging.h"
#include "core/status.h"

namespace rangesyn::obs {

/// A stable copy of one recorded event, as returned by Collect().
struct FlightEvent {
  uint64_t seq = 0;    // global order of recording across threads
  uint64_t mono_ns = 0;
  LogSeverity level = LogSeverity::kInfo;
  uint32_t tid = 0;
  std::string event;
  std::string detail;
};

class FlightRecorder {
 public:
  /// Ring capacity per thread; a power of two so the write cursor wraps
  /// with a mask.
  static constexpr size_t kEventsPerThread = 256;
  /// Fixed slot text capacities (longer strings truncate): recording must
  /// never allocate.
  static constexpr size_t kEventChars = 48;
  static constexpr size_t kDetailChars = 208;

  static FlightRecorder& Get();

  /// Appends one event to the calling thread's ring (allocation-free
  /// after the thread's first call). `detail` is a pre-rendered summary —
  /// the structured log layer passes its text rendering. Lock-free: it
  /// runs from signal handlers and fatal hooks, so nothing reached from
  /// here may take a mutex, allocate per call, or block (machine-checked,
  /// SA-204).
  RANGESYN_LOCK_FREE void Record(LogSeverity level, std::string_view event,
                                 std::string_view detail);

  /// Copies out every readable slot from every thread's ring, ordered by
  /// global sequence number. Torn slots (written concurrently) are
  /// skipped. Seqlock read section: the version pre-read and the
  /// validating re-read bracket the relaxed payload copy, and both must
  /// be acquire-ordered (machine-checked, SA-204/SA-205).
  RANGESYN_SEQLOCK_READ std::vector<FlightEvent> Collect() const;

  /// Writes a dump document: {"schema_version","reason","events",
  /// "metrics"}. `include_metrics` is off on the signal path, where
  /// taking the registry lock could deadlock.
  void WriteDumpJson(std::ostream& os, std::string_view reason,
                     bool include_metrics = true) const;

  /// WriteDumpJson to an explicit file.
  Status DumpToFile(const std::string& path, std::string_view reason,
                    bool include_metrics = true) const;

  /// Auto-dump: writes `flight_<reason>_<pid>_<n>.json` into the dump
  /// directory and returns its path, or returns "" (without touching the
  /// filesystem) when no directory is configured. Never fails the caller:
  /// I/O errors are swallowed after an error log.
  std::string AutoDump(std::string_view reason);

  /// Dump directory: explicit setter wins over the RANGESYN_FLIGHT_DIR
  /// environment variable (read once, lazily). Empty disables auto-dumps.
  void SetDumpDir(std::string_view dir);
  std::string dump_dir();

  /// The calling thread's ring id (registers the ring on first call).
  uint32_t ThisThreadTid() { return RingForThisThread()->tid; }

  /// Number of auto-dumps attempted (whether or not a directory was
  /// configured); tests use it to assert trigger sites fired.
  uint64_t auto_dump_count() const {
    return auto_dumps_.load(std::memory_order_relaxed);
  }

  /// Total events ever recorded (monotonic; rings retain only the tail).
  uint64_t recorded_count() const {
    return seq_.load(std::memory_order_relaxed);
  }

 private:
  FlightRecorder() = default;
  ~FlightRecorder();

  struct Slot {
    // Seqlock: odd while the owner writes, even when stable; 0 = never
    // written. Readers drop slots whose version moved while copying. The
    // payload is element-wise atomic (relaxed accesses bracketed by the
    // version fences), so concurrent dump-while-record is race-free by
    // construction — no mutex anywhere on either path.
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> mono_ns{0};
    std::atomic<int32_t> level{0};
    std::atomic<uint32_t> tid{0};
    std::atomic<char> event[kEventChars] = {};
    std::atomic<char> detail[kDetailChars] = {};
  };

  struct Ring {
    uint32_t tid = 0;
    std::atomic<uint64_t> next{0};
    Ring* next_ring = nullptr;  // lock-free registration list link
    Slot slots[kEventsPerThread];
  };

  Ring* RingForThisThread();

  // One published dump directory. Each node links to the one it
  // replaced, so the current node owns the chain of every string ever
  // published: a reader holding an older node never sees it freed, and
  // the destructor frees the chain.
  struct DirNode {
    std::string dir;
    const DirNode* replaced = nullptr;
  };

  std::atomic<Ring*> rings_{nullptr};
  std::atomic<uint32_t> next_tid_{0};
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> auto_dumps_{0};
  std::atomic<uint64_t> dump_files_{0};
  // Dump dir handling: pointer-swapped nodes so readers never lock.
  std::atomic<const DirNode*> dump_dir_{nullptr};
  std::atomic<bool> env_checked_{false};
};

/// Stable small integer id for the calling thread — its flight-ring id,
/// shared with the structured log layer so one thread has one id across
/// both streams. Registers the thread's ring on first call.
uint32_t CurrentThreadTid();

/// Installs (1) the core-logging fatal hook, so every failed
/// RANGESYN_CHECK/DCHECK auto-dumps before aborting, and (2) best-effort
/// fatal-signal handlers that auto-dump (without metrics) and then
/// re-raise the default disposition. Idempotent; called by the CLI and
/// harness mains. Signal handlers chain to the previous default action,
/// not to previously-installed custom handlers.
void InstallCrashHandlers();

}  // namespace rangesyn::obs

#endif  // RANGESYN_OBS_FLIGHT_H_
