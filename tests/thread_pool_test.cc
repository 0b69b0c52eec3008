// Unit tests for the morsel thread pool: completion, caller participation,
// error propagation (lowest-index wins, like a serial loop) for RunAll's
// exceptions and ParallelFor's Status both inline and pooled, nested
// ParallelFor, zero counts and destruction with pending work. The whole
// file runs under TSan/ASan via the `sanitizer` CTest label.

#include "common/thread_pool.h"

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace qp::common {
namespace {

TEST(MorselRangesTest, EmptyInput) {
  EXPECT_TRUE(MorselRanges(0, 1, 8).empty());
  EXPECT_TRUE(MorselRanges(0, 100, 1).empty());
}

TEST(MorselRangesTest, SingleChunkCoversSmallInputs) {
  const auto ranges = MorselRanges(3, 100, 8);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 0u);
  EXPECT_EQ(ranges[0].second, 3u);
}

TEST(MorselRangesTest, ChunksPartitionTheRange) {
  for (size_t n : {1u, 7u, 64u, 1000u, 1023u}) {
    for (size_t grain : {1u, 4u, 100u}) {
      for (size_t max_chunks : {1u, 3u, 16u}) {
        const auto ranges = MorselRanges(n, grain, max_chunks);
        ASSERT_FALSE(ranges.empty());
        EXPECT_LE(ranges.size(), max_chunks);
        size_t expected_lo = 0;
        for (const auto& [lo, hi] : ranges) {
          EXPECT_EQ(lo, expected_lo);
          EXPECT_LT(lo, hi);
          if (ranges.size() > 1) {
            EXPECT_GE(hi - lo, grain);
          }
          expected_lo = hi;
        }
        EXPECT_EQ(expected_lo, n);
      }
    }
  }
}

TEST(MorselRangesTest, DeterministicAcrossCalls) {
  EXPECT_EQ(MorselRanges(977, 10, 16), MorselRanges(977, 10, 16));
}

TEST(ThreadPoolTest, RunAllCompletesEveryTask) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  constexpr size_t kTasks = 64;
  std::vector<std::atomic<int>> ran(kTasks);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < kTasks; ++i) {
    tasks.emplace_back([&ran, i] { ran[i].fetch_add(1); });
  }
  pool.RunAll(std::move(tasks));
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunsInlineOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(8);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < ids.size(); ++i) {
    tasks.emplace_back([&ids, i, caller] { ids[i] = std::this_thread::get_id(); });
  }
  pool.RunAll(std::move(tasks));
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, EmptyBatchIsANoOp) {
  ThreadPool pool(2);
  pool.RunAll({});  // must not hang
}

TEST(ThreadPoolTest, LowestIndexExceptionWins) {
  ThreadPool pool(4);
  // Every task throws; a serial loop would report index 0 first. Repeat to
  // give the scheduler chances to complete tasks out of order.
  for (int round = 0; round < 20; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.emplace_back([i] {
        throw std::runtime_error("task " + std::to_string(i));
      });
    }
    try {
      pool.RunAll(std::move(tasks));
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 0");
    }
  }
}

TEST(ThreadPoolTest, AllTasksRunDespiteExceptions) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.emplace_back([&ran, i] {
      ran.fetch_add(1);
      if (i % 2 == 0) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(pool.RunAll(std::move(tasks)), std::runtime_error);
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPoolTest, ParallelForCoversEachIndexExactlyOnce) {
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<std::atomic<int>> hits(1000);
    ASSERT_TRUE(ThreadPool::ParallelFor(p, hits.size(), [&](size_t i) {
                  hits[i].fetch_add(1);
                  return Status::OK();
                }).ok());
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForZeroCount) {
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    bool called = false;
    EXPECT_TRUE(ThreadPool::ParallelFor(p, 0, [&](size_t) {
                  called = true;
                  return Status::OK();
                }).ok());
    EXPECT_FALSE(called);
  }
}

TEST(ThreadPoolTest, ParallelForRunsInlineWithoutAPool) {
  // No pool, a zero-worker pool, or a single index: every body runs on the
  // caller, in index order.
  ThreadPool idle(0);
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  const std::pair<ThreadPool*, size_t> cases[] = {
      {nullptr, 8}, {&idle, 8}, {&pool, 1}};
  for (const auto& [p, n] : cases) {
    std::vector<size_t> order;
    ASSERT_TRUE(ThreadPool::ParallelFor(p, n, [&](size_t i) {
                  EXPECT_EQ(std::this_thread::get_id(), caller);
                  order.push_back(i);
                  return Status::OK();
                }).ok());
    std::vector<size_t> expected(n);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
  }
}

TEST(ThreadPoolTest, NestedParallelForMakesProgress) {
  // Outer fan-out of width > workers, each index fanning out again: with
  // caller participation this must complete instead of deadlocking on a
  // starved pool.
  ThreadPool pool(2);
  std::atomic<size_t> total{0};
  const Status status = ThreadPool::ParallelFor(&pool, 8, [&](size_t) {
    return ThreadPool::ParallelFor(&pool, 100, [&](size_t) {
      total.fetch_add(1);
      return Status::OK();
    });
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(total.load(), 800u);
}

TEST(ThreadPoolTest, ParallelForReportsTheLowestIndexFailure) {
  // Indices 3 and 7 fail. Inline, the loop stops at index 3; pooled, every
  // index runs and index 3 still wins however the tasks are scheduled.
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (int round = 0; round < 20; ++round) {
      std::atomic<size_t> ran{0};
      const Status status = ThreadPool::ParallelFor(p, 16, [&](size_t i) {
        ran.fetch_add(1);
        return i == 3 || i == 7
                   ? Status::Internal("index " + std::to_string(i))
                   : Status::OK();
      });
      EXPECT_EQ(status.ToString(), Status::Internal("index 3").ToString());
      EXPECT_EQ(ran.load(), p == nullptr ? 4u : 16u);
    }
  }
}

TEST(ThreadPoolTest, DestructionDrainsPendingSubmits) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
    // Destructor must wait for (or inline-run) everything submitted.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, DestructionDrainsWithZeroWorkers) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(0);
    for (int i = 0; i < 10; ++i) pool.Submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPoolTest, ConcurrentRunAllCallers) {
  // Executor instances share their pool across concurrent Execute() calls
  // (PPA probes); RunAll must tolerate simultaneous callers.
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&pool, &ran] {
      for (int round = 0; round < 10; ++round) {
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 8; ++i) {
          tasks.emplace_back([&ran] { ran.fetch_add(1); });
        }
        pool.RunAll(std::move(tasks));
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(ran.load(), 4 * 10 * 8);
}

}  // namespace
}  // namespace qp::common
