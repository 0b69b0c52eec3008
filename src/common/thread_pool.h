// Reusable worker pool for morsel-driven parallel execution.
//
// Design goals, in order:
//   1. Determinism at the call sites: the pool never decides *what* the
//      result is, only *when* each morsel runs. Callers split work into
//      index-ordered tasks (see MorselRanges) and merge outputs in task
//      order, so results are identical for every worker count — including
//      zero workers, where everything runs inline on the caller.
//   2. No deadlocks under nesting: the thread that calls RunAll/ParallelFor
//      participates in its own batch, so a worker may itself fan out a
//      nested batch and always makes progress even when every other worker
//      is busy. This is the "caller helps" half of work stealing; idle
//      workers take tasks from whichever batch is at the front of the queue.
//   3. Exact error propagation: the lowest-index failing task wins (its
//      exception from RunAll, its Status from ParallelFor), which matches
//      what a serial loop over the same tasks would report.
//
// A pool with W workers gives W+1-way parallelism (workers + caller), so
// code exposing a `num_threads` knob should construct ThreadPool with
// `num_threads - 1`.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/profiled_mutex.h"
#include "common/status.h"

namespace qp::common {

/// Splits [0, n) into at most `max_chunks` contiguous ranges of roughly
/// equal size, none smaller than `min_per_chunk` (except that a single
/// chunk covers any n > 0). Returns an empty vector for n == 0. The split
/// depends only on the arguments, never on scheduling, so callers can merge
/// per-chunk outputs in chunk order and obtain run-to-run identical results.
std::vector<std::pair<size_t, size_t>> MorselRanges(size_t n,
                                                    size_t min_per_chunk,
                                                    size_t max_chunks);

/// \brief Fixed-size worker pool with caller participation.
class ThreadPool {
 public:
  /// Spawns exactly `workers` threads. Zero is valid: every RunAll /
  /// ParallelFor then executes inline on the calling thread. `site_name`
  /// names the queue mutex's contention site (common::ContentionRegistry)
  /// so distinct pools — the serving morsel pool vs. the introspection
  /// server's — are attributable separately in /contentionz.
  explicit ThreadPool(size_t workers, const char* site_name = "thread_pool");

  /// Drains: every task already submitted (including fire-and-forget
  /// Submit work) runs to completion before the destructor returns.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t workers() const { return threads_.size(); }

  /// Fire-and-forget. Exceptions thrown by `fn` are swallowed (there is no
  /// caller left to rethrow to); use RunAll when failures matter.
  void Submit(std::function<void()> fn);

  /// Runs every task and returns when all are done. The calling thread
  /// claims tasks alongside the workers. If any task throws, the exception
  /// from the lowest task index is rethrown after the batch completes
  /// (every task still runs — no cancellation).
  void RunAll(std::vector<std::function<void()>> tasks);

  /// Runs body(i) -> Status for every i in [0, n) and returns the
  /// lowest-index failure. With no pool (null or zero workers) or n <= 1
  /// the indices run in order on the calling thread, stopping at the first
  /// failure; being a template, that path builds no std::function.
  /// Otherwise every index runs as a RunAll task of `pool` (the caller
  /// included, so a body may fan out again). Callers split rows into
  /// index-ordered morsels (MorselRanges) and write morsel i's output to
  /// slot i, which keeps results identical at every worker count.
  template <typename Body>
  static Status ParallelFor(ThreadPool* pool, size_t n, const Body& body) {
    if (pool == nullptr || pool->workers() == 0 || n <= 1) {
      for (size_t i = 0; i < n; ++i) {
        QP_RETURN_IF_ERROR(body(i));
      }
      return Status::OK();
    }
    std::vector<Status> statuses(n);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      tasks.emplace_back([&body, &statuses, i] { statuses[i] = body(i); });
    }
    pool->RunAll(std::move(tasks));
    for (Status& status : statuses) {
      if (!status.ok()) return std::move(status);
    }
    return Status::OK();
  }

 private:
  struct Batch;

  void WorkerLoop();

  std::vector<std::thread> threads_;
  /// Contention-profiled queue mutex (the qp_prof_lock_* site named by the
  /// constructor); the CV must be condition_variable_any to wait on it.
  ProfiledMutex mu_;
  std::condition_variable_any work_cv_;
  std::deque<std::shared_ptr<Batch>> queue_;
  bool stopping_ = false;
};

}  // namespace qp::common
