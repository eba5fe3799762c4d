#ifndef RANGESYN_CORE_THREADPOOL_H_
#define RANGESYN_CORE_THREADPOOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/analysis_annotations.h"
#include "core/mutex.h"
#include "core/status.h"
#include "core/thread_annotations.h"

namespace rangesyn {

/// Fixed-size work-stealing thread pool behind the library's data-parallel
/// construction paths (the OPT-A Λ-DP layers, Haar transform levels,
/// wavelet top-B selection, the eval sweep grid). The interval DP runs
/// serially and takes no workers from serving.
///
/// Determinism contract (DESIGN.md "Threading model"): ParallelFor splits
/// [begin, end) into chunks whose layout is a pure function of
/// (begin, end, grain) — never of the thread count or of runtime timing.
/// Callers write only to disjoint, index-addressed state from inside the
/// body and merge any reductions in index order afterwards, so a run with
/// N threads is bit-identical to a serial run. With `threads == 1` the
/// pool spawns no workers at all and every ParallelFor executes inline on
/// the calling thread over the very same chunk sequence, which makes the
/// serial fallback trivially reproducible and cheap to reason about.
class ThreadPool {
 public:
  /// Creates a pool that executes ParallelFor bodies on `threads` threads
  /// total: `threads - 1` workers plus the calling thread, which always
  /// participates. `threads` must be >= 1.
  explicit ThreadPool(int threads);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int threads() const { return threads_; }

  /// Enqueues `fn` onto a worker deque (round-robin from external threads,
  /// the local deque when called from a worker). With `threads == 1` the
  /// task runs inline before Submit returns. Tasks must not throw.
  void Submit(std::function<void()> fn);

  /// Applies `body(chunk_begin, chunk_end)` over consecutive chunks of
  /// [begin, end), each at most `grain` long (the last chunk may be
  /// shorter). Chunks run concurrently on the pool plus the calling
  /// thread; the call returns after every chunk has finished.
  ///
  /// If any body invocation throws, the first captured exception is
  /// rethrown on the calling thread after all claimed chunks settle;
  /// unclaimed chunks are skipped.
  ///
  /// Calls from inside a pool worker run inline over the same chunk
  /// sequence (no re-submission), so nested ParallelFor can never
  /// deadlock the pool.
  RANGESYN_DETERMINISTIC void ParallelFor(
      int64_t begin, int64_t end, int64_t grain,
      const std::function<void(int64_t, int64_t)>& body);

  /// Status-returning variant for error-returning bodies: each chunk's
  /// Status is collected and the first non-OK status *in chunk order*
  /// (never submission or completion order, so the winner matches a
  /// serial run bit-for-bit) is returned after every chunk has settled.
  /// A body that throws still propagates the exception, exactly like
  /// ParallelFor. The result is [[nodiscard]] via Status itself, so a
  /// silently dropped per-chunk error cannot compile.
  RANGESYN_DETERMINISTIC Status ParallelForStatus(
      int64_t begin, int64_t end, int64_t grain,
      const std::function<Status(int64_t, int64_t)>& body);

  /// True when the calling thread is one of this process's pool workers
  /// (any pool's — used to route nested parallelism inline).
  [[nodiscard]] static bool OnWorkerThread();

 private:
  struct WorkerQueue {
    Mutex mu;
    std::deque<std::function<void()>> tasks RANGESYN_GUARDED_BY(mu);
  };

  void WorkerLoop(size_t self);
  /// Pops one task — own queue first (LIFO), then steals from the other
  /// queues (FIFO) — and runs it. Returns false when every queue was empty.
  bool RunOneTask(size_t self);

  const int threads_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> next_queue_{0};  // round-robin for external Submit
  std::atomic<int64_t> pending_{0};      // tasks sitting in queues
  Mutex sleep_mu_;
  std::condition_variable wake_cv_;
  bool stop_ RANGESYN_GUARDED_BY(sleep_mu_) = false;
};

/// Global pool configuration. The effective thread count resolves in
/// order: SetGlobalThreads (the CLI's --threads flag), the
/// RANGESYN_THREADS environment variable, then 0. The value 0 means
/// std::thread::hardware_concurrency(); 1 means the inline serial
/// fallback; N >= 2 means exactly N threads.
///
/// SetGlobalThreads tears down any existing global pool, so call it at
/// startup (or between phases in tests), never concurrently with a
/// ParallelFor. A negative value restores the unset state (environment
/// variable, then 0).
void SetGlobalThreads(int threads);

/// The resolved thread count the global pool runs with (>= 1). Creates
/// the pool on first use.
int GlobalThreads();

/// The lazily created process-wide pool.
ThreadPool& GlobalThreadPool();

/// ParallelFor on the global pool; see ThreadPool::ParallelFor.
RANGESYN_DETERMINISTIC void ParallelFor(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t)>& body);

/// ParallelForStatus on the global pool; see
/// ThreadPool::ParallelForStatus.
RANGESYN_DETERMINISTIC Status ParallelForStatus(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<Status(int64_t, int64_t)>& body);

}  // namespace rangesyn

#endif  // RANGESYN_CORE_THREADPOOL_H_
