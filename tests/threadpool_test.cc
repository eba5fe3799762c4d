// Tests for the work-stealing thread pool behind the parallel construction
// paths: lifecycle, ParallelFor chunking and correctness, exception
// propagation, the nested-submit deadlock regression, and a stress case
// aimed at TSan (the debug-tsan preset runs this binary under
// -fsanitize=thread; see .github/workflows/ci.yml).

#include "core/threadpool.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "obs/metrics.h"

namespace rangesyn {
namespace {

TEST(ThreadPoolTest, ConstructsAndDestructsRepeatedly) {
  for (int round = 0; round < 3; ++round) {
    for (int threads = 1; threads <= 4; ++threads) {
      ThreadPool pool(threads);
      EXPECT_EQ(pool.threads(), threads);
    }
  }
}

TEST(ThreadPoolTest, SubmitDrainsBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // The destructor's contract: every queued task runs before join.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, SubmitRunsInlineWithOneThread) {
  ThreadPool pool(1);
  int ran = 0;
  pool.Submit([&ran] { ++ran; });
  // No workers exist, so the task must have completed synchronously.
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    for (int64_t grain : {1, 3, 7, 1000}) {
      ThreadPool pool(threads);
      std::vector<std::atomic<int>> hits(257);
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(0, 257, grain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          hits[static_cast<size_t>(i)].fetch_add(1,
                                                 std::memory_order_relaxed);
        }
      });
      for (size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " threads=" << threads
            << " grain=" << grain;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsANoOp) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  pool.ParallelFor(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ChunkLayoutIsAPureFunctionOfTheIterationSpace) {
  // The determinism contract: identical (begin, end, grain) must yield an
  // identical chunk set at every thread count.
  const auto chunks_of = [](int threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::set<std::pair<int64_t, int64_t>> chunks;
    pool.ParallelFor(3, 45, 7, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.insert({lo, hi});
    });
    return chunks;
  };
  const auto serial = chunks_of(1);
  EXPECT_EQ(serial.size(), 6u);  // ceil(42 / 7)
  EXPECT_EQ(serial.begin()->first, 3);
  EXPECT_EQ(serial.rbegin()->second, 45);
  EXPECT_EQ(chunks_of(2), serial);
  EXPECT_EQ(chunks_of(4), serial);
}

TEST(ThreadPoolTest, ParallelForSumsMatchSerial) {
  std::vector<int64_t> values(10'000);
  std::iota(values.begin(), values.end(), 1);
  const int64_t expected =
      std::accumulate(values.begin(), values.end(), int64_t{0});
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(0, static_cast<int64_t>(values.size()), 64,
                     [&](int64_t lo, int64_t hi) {
                       int64_t local = 0;
                       for (int64_t i = lo; i < hi; ++i) {
                         local += values[static_cast<size_t>(i)];
                       }
                       sum.fetch_add(local, std::memory_order_relaxed);
                     });
    EXPECT_EQ(sum.load(), expected) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.ParallelFor(0, 100, 1,
                         [](int64_t lo, int64_t) {
                           if (lo == 42) {
                             throw std::runtime_error("chunk 42 failed");
                           }
                         }),
        std::runtime_error)
        << "threads=" << threads;
    // The pool must survive a throwing loop and keep serving work.
    std::atomic<int> ran{0};
    pool.ParallelFor(0, 10, 1, [&](int64_t, int64_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 10);
  }
}

TEST(ThreadPoolTest, ParallelForStatusCoversEveryIndexOnSuccess) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(100);
    const Status status =
        pool.ParallelForStatus(0, 100, 7, [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            hits[static_cast<size_t>(i)].fetch_add(
                1, std::memory_order_relaxed);
          }
          return OkStatus();
        });
    EXPECT_TRUE(status.ok()) << status << " threads=" << threads;
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForStatusReturnsFirstErrorInChunkOrder) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    // Chunks 90 and 10 both fail; chunk order (not completion order) must
    // pick chunk 10's status, matching a serial early return.
    const Status status =
        pool.ParallelForStatus(0, 100, 1, [](int64_t lo, int64_t) {
          if (lo == 90) return InternalError("late chunk");
          if (lo == 10) return InvalidArgumentError("early chunk");
          return OkStatus();
        });
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status << " threads=" << threads;
    EXPECT_EQ(status.message(), "early chunk");
  }
}

TEST(ThreadPoolTest, ParallelForStatusEmptyRangeIsOk) {
  ThreadPool pool(2);
  const Status status = pool.ParallelForStatus(
      5, 5, 1, [](int64_t, int64_t) { return InternalError("never runs"); });
  EXPECT_TRUE(status.ok()) << status;
}

TEST(ThreadPoolTest, ExceptionMessageSurvivesPropagation) {
  ThreadPool pool(4);
  try {
    pool.ParallelFor(0, 8, 1, [](int64_t, int64_t) {
      throw std::runtime_error("distinctive message");
    });
    FAIL() << "ParallelFor did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "distinctive message");
  }
}

// Regression: a ParallelFor body that itself calls ParallelFor used to be
// able to deadlock a naive pool (worker blocks waiting for chunks only it
// could run). Nested calls must run inline on the worker instead.
TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(0, 16, 1, [&](int64_t outer_lo, int64_t outer_hi) {
    for (int64_t o = outer_lo; o < outer_hi; ++o) {
      pool.ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
        total.fetch_add(hi - lo, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 16 * 8);
}

TEST(ThreadPoolTest, OnWorkerThreadIsVisibleInsideBodies) {
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  ThreadPool pool(4);
  std::atomic<int> on_worker{0};
  std::atomic<int> chunks{0};
  pool.ParallelFor(0, 64, 1, [&](int64_t, int64_t) {
    chunks.fetch_add(1, std::memory_order_relaxed);
    if (ThreadPool::OnWorkerThread()) {
      on_worker.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(chunks.load(), 64);
  // The caller participates, so not every chunk runs on a worker; the
  // flag just must never leak outside pool threads.
  EXPECT_LE(on_worker.load(), 64);
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

// Stress case for TSan: concurrent ParallelFors from several external
// threads interleaved with fire-and-forget Submits, all against one pool.
// Any missing synchronization in the queues, the sleep/wake path, or the
// LoopState settle protocol shows up here as a data race or a hang.
TEST(ThreadPoolTest, ConcurrentLoopsAndSubmitsStress) {
  ThreadPool pool(4);
  std::atomic<int64_t> loop_sum{0};
  std::atomic<int> submitted_ran{0};
  std::vector<std::thread> drivers;
  drivers.reserve(4);
  for (int d = 0; d < 4; ++d) {
    drivers.emplace_back([&pool, &loop_sum, &submitted_ran, d] {
      for (int round = 0; round < 20; ++round) {
        pool.Submit([&submitted_ran] {
          submitted_ran.fetch_add(1, std::memory_order_relaxed);
        });
        pool.ParallelFor(0, 128, 8, [&](int64_t lo, int64_t hi) {
          loop_sum.fetch_add(hi - lo, std::memory_order_relaxed);
        });
        if ((round + d) % 5 == 0) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_EQ(loop_sum.load(), int64_t{4} * 20 * 128);
  // Submitted tasks are only guaranteed to have drained at destruction;
  // give the destructor that job and re-check after scope exit via a
  // second pool-free assertion below.
  while (submitted_ran.load() < 4 * 20) {
    std::this_thread::yield();
  }
  EXPECT_EQ(submitted_ran.load(), 4 * 20);
}

TEST(GlobalPoolTest, SetGlobalThreadsControlsResolution) {
  SetGlobalThreads(3);
  EXPECT_EQ(GlobalThreads(), 3);
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 100, 9, [&](int64_t lo, int64_t hi) {
    sum.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 100);
  SetGlobalThreads(1);
  EXPECT_EQ(GlobalThreads(), 1);
  // Restore the default resolution (env var / hardware concurrency) so
  // this test leaves no cross-test state behind.
  SetGlobalThreads(-1);
  EXPECT_GE(GlobalThreads(), 1);
}

TEST(GlobalPoolTest, ObsCountersTrackPoolActivity) {
  if (!obs::StatsCompiledIn()) {
    GTEST_SKIP() << "RANGESYN_STATS is off; obs macros compile to no-ops";
  }
  SetGlobalThreads(4);
  const uint64_t chunks_before = obs::Registry::Get().Snapshot().CounterValue(
      "threadpool.parallel_for.chunks");
  ParallelFor(0, 64, 1, [](int64_t, int64_t) {});
  const uint64_t chunks_after = obs::Registry::Get().Snapshot().CounterValue(
      "threadpool.parallel_for.chunks");
  EXPECT_EQ(chunks_after - chunks_before, 64u);
  SetGlobalThreads(-1);
}

// ------------------------- fault stress (threadpool.task failpoint)
// Suite names keep the "ThreadPool" prefix so the CI debug-tsan preset
// (-R 'ThreadPool|GlobalPool|Determinism') picks these up: injected task
// failures must be data-race-free too.

class ThreadPoolFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kCompiledIn) {
      GTEST_SKIP() << "built with RANGESYN_FAILPOINTS=OFF";
    }
    failpoint::Clear();
  }
  void TearDown() override { failpoint::Clear(); }

  /// Runs a counting ParallelFor and asserts complete, exactly-once
  /// coverage — the health check after every injected failure.
  static void ExpectPoolHealthy(ThreadPool* pool) {
    std::vector<std::atomic<int>> hits(311);
    for (auto& h : hits) h.store(0);
    pool->ParallelFor(0, 311, 7, [&hits](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        hits[static_cast<size_t>(i)].fetch_add(1,
                                               std::memory_order_relaxed);
      }
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
};

TEST_F(ThreadPoolFaultTest, InjectedTaskThrowPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  ASSERT_TRUE(failpoint::Configure("threadpool.task=once").ok());
  EXPECT_THROW(pool.ParallelFor(0, 500, 5, [](int64_t, int64_t) {}),
               std::runtime_error);
  failpoint::Clear();
  // The pool must be fully reusable after the aborted loop.
  ExpectPoolHealthy(&pool);
  ExpectPoolHealthy(&pool);
}

TEST_F(ThreadPoolFaultTest, InjectedTaskThrowSurfacesInStatusVariant) {
  ThreadPool pool(4);
  ASSERT_TRUE(failpoint::Configure("threadpool.task=once").ok());
  EXPECT_THROW(
      {
        const Status s = pool.ParallelForStatus(
            0, 500, 5, [](int64_t, int64_t) { return OkStatus(); });
        (void)s;
      },
      std::runtime_error);
  failpoint::Clear();
  const Status ok = pool.ParallelForStatus(
      0, 500, 5, [](int64_t, int64_t) { return OkStatus(); });
  EXPECT_TRUE(ok.ok());
  ExpectPoolHealthy(&pool);
}

TEST_F(ThreadPoolFaultTest, RepeatedProbabilisticFaultsNeverWedgePool) {
  // A sustained fault storm: every loop either completes or throws, and
  // the pool stays usable throughout. Runs under TSan in CI.
  ThreadPool pool(4);
  int threw = 0, completed = 0;
  for (int round = 0; round < 40; ++round) {
    // p is per *chunk* (40 chunks/round), chosen so both outcomes show
    // up across the 40 deterministic schedules.
    const std::string spec =
        "threadpool.task=prob:0.02:" + std::to_string(round);
    ASSERT_TRUE(failpoint::Configure(spec).ok());
    std::atomic<int64_t> sum{0};
    try {
      pool.ParallelFor(0, 200, 5, [&sum](int64_t lo, int64_t hi) {
        sum.fetch_add(hi - lo, std::memory_order_relaxed);
      });
      ++completed;
      EXPECT_EQ(sum.load(), 200);
    } catch (const std::runtime_error&) {
      ++threw;
    }
  }
  failpoint::Clear();
  // With p=0.3 over 40 chunked loops both outcomes occur (the schedules
  // are deterministic, so this cannot flake).
  EXPECT_GT(threw, 0);
  EXPECT_GT(completed, 0);
  ExpectPoolHealthy(&pool);
}

TEST_F(ThreadPoolFaultTest, SingleThreadInlinePathAlsoSurvivesFaults) {
  ThreadPool pool(1);
  ASSERT_TRUE(failpoint::Configure("threadpool.task=once").ok());
  EXPECT_THROW(pool.ParallelFor(0, 100, 10, [](int64_t, int64_t) {}),
               std::runtime_error);
  failpoint::Clear();
  ExpectPoolHealthy(&pool);
}

TEST_F(ThreadPoolFaultTest, GlobalPoolSurvivesInjectedFaults) {
  SetGlobalThreads(4);
  ASSERT_TRUE(failpoint::Configure("threadpool.task=once").ok());
  EXPECT_THROW(ParallelFor(0, 300, 3, [](int64_t, int64_t) {}),
               std::runtime_error);
  failpoint::Clear();
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 300, 3, [&sum](int64_t lo, int64_t hi) {
    sum.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 300);
  SetGlobalThreads(-1);
}

// Lost wake-up regression: a worker that has just seen an empty pool
// (under sleep_mu_) but has not begun waiting must still be woken by a
// Submit that lands in that gap. The sleep rule holds every idle worker
// in the gap for 50 ms; the test thread, outside the pool, submits one
// task at a time into it and each must run well within the deadline
// instead of waiting for a later Submit.
TEST_F(ThreadPoolFaultTest, SubmitIntoIdleWorkerGapIsNotLost) {
  std::atomic<int> ran{0};  // outlives the pool, which drains on exit
  ThreadPool pool(2);
  ASSERT_TRUE(
      failpoint::Configure("threadpool.worker.idle=sleep:50").ok());
  for (int round = 1; round <= 4; ++round) {
    // Let the lone worker reach the gap (it re-enters it after each task).
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_release); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (ran.load(std::memory_order_acquire) < round &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(ran.load(std::memory_order_acquire), round)
        << "task " << round << " sat queued past the deadline";
  }
  failpoint::Clear();
}

}  // namespace
}  // namespace rangesyn
