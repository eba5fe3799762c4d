#include "core/threadpool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "core/failpoint.h"
#include "core/logging.h"
#include "core/mutex.h"
#include "core/strings.h"
#include "core/thread_annotations.h"
#include "obs/obs.h"

namespace rangesyn {
namespace {

/// Set while a thread is executing a pool's worker loop; nested
/// ParallelFor consults it to run inline instead of re-submitting (a
/// worker waiting on helpers it can never run would deadlock the pool).
thread_local bool tls_on_worker_thread = false;

/// Shared state of one ParallelFor call. Helpers submitted to the pool may
/// outlive the call (they run as no-ops once all chunks are claimed), so
/// ownership is shared.
struct LoopState {
  int64_t begin = 0;
  int64_t grain = 1;
  int64_t num_chunks = 0;
  int64_t end = 0;
  const std::function<void(int64_t, int64_t)>* body = nullptr;
  std::atomic<int64_t> next_chunk{0};
  std::atomic<int64_t> settled_chunks{0};
  std::atomic<bool> abort{false};
  Mutex mu;  // also backs done_cv
  std::condition_variable done_cv;
  std::exception_ptr first_exception RANGESYN_GUARDED_BY(mu);
};

/// Claims chunks until none remain; the shared claim counter doubles as
/// chunk-level work stealing (a fast thread drains chunks a slow one never
/// reaches). After an exception, remaining chunks are claimed but skipped
/// so settled_chunks still reaches num_chunks and the caller can return.
void RunChunks(LoopState* state) {
  int64_t chunk;
  while ((chunk = state->next_chunk.fetch_add(
              1, std::memory_order_relaxed)) < state->num_chunks) {
    if (!state->abort.load(std::memory_order_relaxed)) {
      const int64_t lo = state->begin + chunk * state->grain;
      const int64_t hi = std::min(state->end, lo + state->grain);
      try {
        // Task-boundary injection site: a scheduled fault throws here,
        // inside the catch net, exercising the pool's abort/drain path
        // exactly as a throwing body would.
        failpoint::MaybeThrow("threadpool.task");
        (*state->body)(lo, hi);
      } catch (...) {
        RANGESYN_LOG_EVENT(Warning, "core.threadpool.task_exception")
            .Arg("chunk", chunk)
            .Arg("lo", lo)
            .Arg("hi", hi);
        MutexLock lock(state->mu);
        if (!state->first_exception) {
          state->first_exception = std::current_exception();
        }
        state->abort.store(true, std::memory_order_relaxed);
      }
    }
    if (state->settled_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state->num_chunks) {
      MutexLock lock(state->mu);
      state->done_cv.notify_all();
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(int threads) : threads_(threads) {
  RANGESYN_CHECK_GE(threads, 1);
  const size_t workers = static_cast<size_t>(threads - 1);
  queues_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  RANGESYN_OBS_GAUGE_SET("threadpool.workers", workers);
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(sleep_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::OnWorkerThread() { return tls_on_worker_thread; }

void ThreadPool::Submit(std::function<void()> fn) {
  if (queues_.empty()) {
    fn();
    RANGESYN_OBS_COUNTER_INC("threadpool.tasks");
    return;
  }
  const size_t target = static_cast<size_t>(next_queue_.fetch_add(
                            1, std::memory_order_relaxed)) %
                        queues_.size();
  {
    MutexLock lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(fn));
  }
  int64_t pending = 0;
  {
    // Publish under sleep_mu_: a worker that read pending_ == 0 holds the
    // mutex until it is waiting, so the notify below cannot slip into
    // the gap between its check and its wait and be lost.
    MutexLock lock(sleep_mu_);
    pending = pending_.fetch_add(1, std::memory_order_release) + 1;
  }
  RANGESYN_OBS_GAUGE_SET("threadpool.queue_depth", pending);
  wake_cv_.notify_one();
}

bool ThreadPool::RunOneTask(size_t self) {
  std::function<void()> task;
  bool stolen = false;
  const size_t n = queues_.size();
  for (size_t attempt = 0; attempt < n; ++attempt) {
    WorkerQueue& q = *queues_[(self + attempt) % n];
    MutexLock lock(q.mu);
    if (q.tasks.empty()) continue;
    if (attempt == 0) {
      task = std::move(q.tasks.back());  // own queue: LIFO for locality
      q.tasks.pop_back();
    } else {
      task = std::move(q.tasks.front());  // victim queue: FIFO
      q.tasks.pop_front();
      stolen = true;
    }
    break;
  }
  if (!task) return false;
  pending_.fetch_sub(1, std::memory_order_acquire);
  if (stolen) RANGESYN_OBS_COUNTER_INC("threadpool.steals");
  task();
  RANGESYN_OBS_COUNTER_INC("threadpool.tasks");
  return true;
}

void ThreadPool::WorkerLoop(size_t self) {
  tls_on_worker_thread = true;
  while (true) {
    if (RunOneTask(self)) continue;
    CondVarLock lock(sleep_mu_);
    if (stop_) {
      // Drain-on-shutdown: exit only once every queued task has been
      // claimed; otherwise loop back and keep helping.
      if (pending_.load(std::memory_order_acquire) == 0) break;
      continue;
    }
    // Explicit wait loop (not a predicate lambda) so the thread-safety
    // analysis sees the stop_ reads under the scoped capability.
    while (!stop_ && pending_.load(std::memory_order_acquire) == 0) {
      // A `sleep:` rule here widens the gap between the check and the
      // wait, where a concurrent Submit must not lose its wake-up.
      (void)failpoint::ShouldFail("threadpool.worker.idle");
      lock.Wait(wake_cv_);
    }
  }
}

void ThreadPool::ParallelFor(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t)>& body) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  const int64_t num_chunks = (end - begin + grain - 1) / grain;
  // Serial paths run the identical chunk sequence inline: a 1-thread pool
  // by construction, a nested call to keep workers from blocking on work
  // only they could run, and a single chunk because there is nothing to
  // share. Exceptions propagate directly.
  if (threads_ == 1 || tls_on_worker_thread || num_chunks == 1) {
    for (int64_t chunk = 0; chunk < num_chunks; ++chunk) {
      const int64_t lo = begin + chunk * grain;
      // Same task-boundary injection site the pooled path has (RunChunks),
      // so fault schedules behave identically at every thread count.
      failpoint::MaybeThrow("threadpool.task");
      body(lo, std::min(end, lo + grain));
    }
    RANGESYN_OBS_COUNTER_ADD("threadpool.parallel_for.chunks",
                             static_cast<uint64_t>(num_chunks));
    return;
  }
  auto state = std::make_shared<LoopState>();
  state->begin = begin;
  state->end = end;
  state->grain = grain;
  state->num_chunks = num_chunks;
  state->body = &body;
  // One helper per worker (capped by the chunk count; the caller handles
  // the rest). Helpers arriving after the chunks run dry return at once.
  const int64_t helpers =
      std::min<int64_t>(static_cast<int64_t>(workers_.size()),
                        num_chunks - 1);
  for (int64_t i = 0; i < helpers; ++i) {
    Submit([state] { RunChunks(state.get()); });
  }
  RunChunks(state.get());
  std::exception_ptr first_exception;
  {
    CondVarLock lock(state->mu);
    while (state->settled_chunks.load(std::memory_order_acquire) !=
           state->num_chunks) {
      lock.Wait(state->done_cv);
    }
    first_exception = state->first_exception;
  }
  if (first_exception) std::rethrow_exception(first_exception);
  // Counted by the caller once every chunk has settled (as on the serial
  // path), so the counter is complete when ParallelFor returns.
  RANGESYN_OBS_COUNTER_ADD("threadpool.parallel_for.chunks",
                           static_cast<uint64_t>(num_chunks));
}

Status ThreadPool::ParallelForStatus(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<Status(int64_t, int64_t)>& body) {
  if (begin >= end) return OkStatus();
  if (grain < 1) grain = 1;
  const int64_t num_chunks = (end - begin + grain - 1) / grain;
  // One slot per chunk, written by exactly the thread that claimed the
  // chunk and read only after ParallelFor's full barrier — no locking
  // needed, and "first in chunk order" is deterministic by construction.
  std::vector<Status> statuses(static_cast<size_t>(num_chunks));
  const int64_t captured_grain = grain;
  ParallelFor(begin, end, grain, [&](int64_t lo, int64_t hi) {
    const int64_t chunk = (lo - begin) / captured_grain;
    statuses[static_cast<size_t>(chunk)] = body(lo, hi);
  });
  for (const Status& status : statuses) {
    RANGESYN_RETURN_IF_ERROR(status);
  }
  return OkStatus();
}

namespace {

Mutex g_pool_mu;
// -1: unset, fall back to env then 0.
int g_requested_threads RANGESYN_GUARDED_BY(g_pool_mu) = -1;
// NOLINT: intentional process-lifetime.
std::unique_ptr<ThreadPool> g_pool RANGESYN_GUARDED_BY(g_pool_mu);

int ResolveThreads(int requested) {
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return requested < 1 ? 1 : requested;
}

ThreadPool& GlobalPoolLocked() RANGESYN_REQUIRES(g_pool_mu) {
  if (!g_pool) {
    int requested = g_requested_threads;
    if (requested < 0) {
      requested = 0;
      if (const char* env = std::getenv("RANGESYN_THREADS")) {
        int64_t parsed = 0;
        if (ParseInt64(env, &parsed) && parsed >= 0) {
          requested = static_cast<int>(parsed);
        } else {
          RANGESYN_LOG(Warning)
              << "ignoring malformed RANGESYN_THREADS='" << env << "'";
        }
      }
    }
    g_pool = std::make_unique<ThreadPool>(ResolveThreads(requested));
  }
  return *g_pool;
}

}  // namespace

void SetGlobalThreads(int threads) {
  MutexLock lock(g_pool_mu);
  // Negative restores the unset state: the next pool creation re-reads
  // RANGESYN_THREADS (tests use this to undo their overrides).
  g_requested_threads = threads < 0 ? -1 : threads;
  g_pool.reset();
}

int GlobalThreads() {
  MutexLock lock(g_pool_mu);
  return GlobalPoolLocked().threads();
}

ThreadPool& GlobalThreadPool() {
  MutexLock lock(g_pool_mu);
  return GlobalPoolLocked();
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body) {
  // Nested calls (and the serial pool) never touch the global lock or the
  // queues — they run inline via the fast path in ThreadPool::ParallelFor.
  GlobalThreadPool().ParallelFor(begin, end, grain, body);
}

Status ParallelForStatus(int64_t begin, int64_t end, int64_t grain,
                         const std::function<Status(int64_t, int64_t)>& body) {
  return GlobalThreadPool().ParallelForStatus(begin, end, grain, body);
}

}  // namespace rangesyn
