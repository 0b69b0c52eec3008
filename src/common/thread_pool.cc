#include "common/thread_pool.h"

#include <algorithm>

namespace qp::common {

std::vector<std::pair<size_t, size_t>> MorselRanges(size_t n,
                                                    size_t min_per_chunk,
                                                    size_t max_chunks) {
  std::vector<std::pair<size_t, size_t>> out;
  if (n == 0) return out;
  if (min_per_chunk == 0) min_per_chunk = 1;
  if (max_chunks == 0) max_chunks = 1;
  const size_t chunks =
      std::min(max_chunks, std::max<size_t>(1, n / min_per_chunk));
  const size_t base = n / chunks;
  const size_t extra = n % chunks;
  out.reserve(chunks);
  size_t pos = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t len = base + (c < extra ? 1 : 0);
    out.emplace_back(pos, pos + len);
    pos += len;
  }
  return out;
}

/// One RunAll invocation: a task list plus completion/error state. Tasks are
/// claimed by atomically bumping `next`; whoever claims a task runs it.
struct ThreadPool::Batch {
  std::vector<std::function<void()>> tasks;
  std::atomic<size_t> next{0};

  std::mutex m;
  std::condition_variable done_cv;
  size_t unfinished = 0;
  std::exception_ptr error;
  size_t error_index = SIZE_MAX;

  /// Claims and runs one task. Returns false when none were left to claim.
  bool RunOne() {
    const size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= tasks.size()) return false;
    std::exception_ptr err;
    try {
      tasks[i]();
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(m);
    if (err != nullptr && i < error_index) {
      error = err;
      error_index = i;
    }
    if (--unfinished == 0) done_cv.notify_all();
    return true;
  }

  bool Exhausted() const {
    return next.load(std::memory_order_relaxed) >= tasks.size();
  }
};

ThreadPool::ThreadPool(size_t workers, const char* site_name)
    : mu_(site_name) {
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<ProfiledMutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
  // With zero workers, Submit()ed work may still be queued: honor the
  // drain contract on the destroying thread.
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::lock_guard<ProfiledMutex> lock(mu_);
      while (!queue_.empty() && queue_.front()->Exhausted()) {
        queue_.pop_front();
      }
      if (queue_.empty()) break;
      batch = queue_.front();
    }
    batch->RunOne();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<ProfiledMutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      while (!queue_.empty() && queue_.front()->Exhausted()) {
        queue_.pop_front();
      }
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      batch = queue_.front();
    }
    batch->RunOne();
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  auto batch = std::make_shared<Batch>();
  batch->tasks.push_back(std::move(fn));
  batch->unfinished = 1;
  {
    std::lock_guard<ProfiledMutex> lock(mu_);
    queue_.push_back(std::move(batch));
  }
  work_cv_.notify_one();
}

void ThreadPool::RunAll(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  auto batch = std::make_shared<Batch>();
  batch->tasks = std::move(tasks);
  batch->unfinished = batch->tasks.size();
  if (!threads_.empty() && batch->tasks.size() > 1) {
    {
      std::lock_guard<ProfiledMutex> lock(mu_);
      queue_.push_back(batch);
    }
    work_cv_.notify_all();
  }
  // Participate until nothing is left to claim, then wait for stragglers
  // other threads are still running.
  while (batch->RunOne()) {
  }
  // The error moves out under the lock: a worker may drop the last
  // reference to the batch, and the exception must not be released on that
  // thread while the caller's handler still reads it.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(batch->m);
    batch->done_cv.wait(lock, [&] { return batch->unfinished == 0; });
    error = std::move(batch->error);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace qp::common
