// obs phase 4 unit tests: the contention registry behind
// common::ProfiledMutex, the frame-pointer stack walker and symbolizer,
// the sampling CPU profiler's start/stop/fold cycle, and the sampling heap
// profiler (gated on HeapProfiler::Available() — interposition is compiled
// out under ASan/TSan). Runs under the `sanitizer` CTest label: with
// profiling ACTIVE, TSan/ASan/UBSan must stay clean.

#include "obs/prof.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/profiled_mutex.h"

namespace qp {

/// A hot function the profiler must attribute samples to. External linkage
/// (outside the anonymous namespace) so CMAKE_ENABLE_EXPORTS puts it in the
/// dynamic symbol table and dladdr can name the leaf frame; noinline +
/// volatile sink so the optimizer can neither inline nor delete it.
__attribute__((noinline)) uint64_t ProfTestHotSpin(uint64_t iters) {
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < iters; ++i) {
    sink = sink + i * 2654435761u;
  }
  return sink;
}

namespace {

// ---------------------------------------------------------------------------
// ContentionRegistry / ProfiledMutex

TEST(ProfiledMutexTest, UncontendedAcquisitionsCountWithoutWaits) {
  common::ProfiledMutex mu("prof_test_quiet");
  for (int i = 0; i < 100; ++i) {
    std::lock_guard<common::ProfiledMutex> lock(mu);
  }
  bool found = false;
  for (const auto& site : common::ContentionRegistry::Global().Snapshot()) {
    if (site.name != "prof_test_quiet") continue;
    found = true;
    EXPECT_GE(site.acquisitions, 100u);
    EXPECT_EQ(site.contentions, 0u);
    EXPECT_DOUBLE_EQ(site.wait_seconds, 0.0);
  }
  EXPECT_TRUE(found);
}

TEST(ProfiledMutexTest, ContendedAcquisitionRecordsWaitTime) {
  common::ProfiledMutex mu("prof_test_contended");
  std::mutex sync_mu;
  std::condition_variable cv;
  bool holder_in = false;

  std::thread holder([&] {
    std::lock_guard<common::ProfiledMutex> lock(mu);
    {
      std::lock_guard<std::mutex> sync(sync_mu);
      holder_in = true;
    }
    cv.notify_all();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  {
    std::unique_lock<std::mutex> sync(sync_mu);
    cv.wait(sync, [&] { return holder_in; });
  }
  {
    // The holder owns the mutex for ~20ms: this acquisition contends.
    std::lock_guard<common::ProfiledMutex> lock(mu);
  }
  holder.join();

  bool found = false;
  for (const auto& site : common::ContentionRegistry::Global().Snapshot()) {
    if (site.name != "prof_test_contended") continue;
    found = true;
    EXPECT_GE(site.acquisitions, 2u);
    EXPECT_GE(site.contentions, 1u);
    EXPECT_GT(site.wait_seconds, 0.0);
    EXPECT_GT(site.max_wait_seconds, 0.0);
    uint64_t bucketed = 0;
    for (uint64_t b : site.wait_buckets) bucketed += b;
    EXPECT_EQ(bucketed, site.contentions);
  }
  EXPECT_TRUE(found);
}

TEST(ProfiledMutexTest, SameSiteNameAggregatesAcrossInstances) {
  const uint64_t before = [] {
    for (const auto& site : common::ContentionRegistry::Global().Snapshot()) {
      if (site.name == "prof_test_shared") return site.acquisitions;
    }
    return uint64_t{0};
  }();
  common::ProfiledMutex a("prof_test_shared");
  common::ProfiledMutex b("prof_test_shared");
  { std::lock_guard<common::ProfiledMutex> lock(a); }
  { std::lock_guard<common::ProfiledMutex> lock(b); }
  for (const auto& site : common::ContentionRegistry::Global().Snapshot()) {
    if (site.name == "prof_test_shared") {
      EXPECT_EQ(site.acquisitions, before + 2);
    }
  }
}

TEST(ProfiledMutexTest, TryLockCountsAndRespectsOwnership) {
  common::ProfiledMutex mu("prof_test_trylock");
  ASSERT_TRUE(mu.try_lock());
  std::thread other([&] { EXPECT_FALSE(mu.try_lock()); });
  other.join();
  mu.unlock();
}

TEST(ContentionTextTest, NamesEverySiteWithCounts) {
  common::ProfiledMutex mu("prof_test_text");
  { std::lock_guard<common::ProfiledMutex> lock(mu); }
  const std::string text = obs::ContentionText();
  EXPECT_NE(text.find("prof_test_text"), std::string::npos);
  EXPECT_NE(text.find("acquisitions"), std::string::npos);

  const obs::ContentionTotals totals = obs::ContentionTotalsNow();
  EXPECT_GE(totals.acquisitions, 1u);
  EXPECT_GE(totals.acquisitions, totals.contentions);
}

// ---------------------------------------------------------------------------
// Stack walking + symbolization

TEST(StackWalkTest, WalksCallerFrames) {
  const void* pcs[32];
  const int n = obs::internal::WalkStackFromHere(pcs, 32, 0);
  ASSERT_GT(n, 0);
  for (int i = 0; i < n; ++i) {
    EXPECT_NE(pcs[i], nullptr);
  }
}

TEST(SymbolizeTest, NamesAnExportedFunction) {
  // CMAKE_ENABLE_EXPORTS puts the test binary's own symbols in the dynamic
  // table, so dladdr can resolve a function address back to its name.
  const std::string name = obs::SymbolizePc(
      reinterpret_cast<const void*>(&obs::ContentionText));
  EXPECT_FALSE(name.empty());
  EXPECT_NE(name.find("ContentionText"), std::string::npos) << name;
}

TEST(SymbolizeTest, UnmappedAddressDoesNotCrash) {
  const std::string name =
      obs::SymbolizePc(reinterpret_cast<const void*>(uintptr_t{0x1234}));
  EXPECT_FALSE(name.empty());
}

// ---------------------------------------------------------------------------
// CpuProfiler

TEST(CpuProfilerTest, StartStopLifecycle) {
  obs::CpuProfiler& prof = obs::CpuProfiler::Global();
  ASSERT_FALSE(prof.running());

  obs::CpuProfiler::Options options;
  options.hz = 0;  // invalid
  EXPECT_FALSE(prof.Start(options).ok());

  ASSERT_TRUE(prof.Start().ok());
  EXPECT_TRUE(prof.running());
  EXPECT_EQ(prof.Start().code(), StatusCode::kAlreadyExists);
  prof.Stop();
  EXPECT_FALSE(prof.running());
  prof.Stop();  // idempotent
  prof.Reset();
}

TEST(CpuProfilerTest, CapturesAndAttributesSamples) {
  obs::CpuProfiler& prof = obs::CpuProfiler::Global();
  prof.Reset();
  obs::CpuProfiler::Options options;
  options.hz = 250;  // dense sampling keeps the busy-loop short
  ASSERT_TRUE(prof.Start(options).ok());

  // Burn ~0.5s of CPU; at 250 Hz of process CPU time that is ~100+ samples.
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(500);
  uint64_t guard = 0;
  while (std::chrono::steady_clock::now() < until) {
    guard += ProfTestHotSpin(100000);
  }
  prof.Stop();
  ASSERT_NE(guard, uint64_t{1});  // keep the spin observable

  const obs::CpuProfileTotals totals = prof.totals();
  EXPECT_GT(totals.samples, 10u) << "dropped=" << totals.dropped;

  const std::string folded = prof.FoldedText();
  ASSERT_FALSE(folded.empty());
  // Collapsed format: every line is "frame(;frame)* count".
  EXPECT_NE(folded.find(' '), std::string::npos);
  EXPECT_NE(folded.find("ProfTestHotSpin"), std::string::npos) << folded;

  prof.Reset();
  EXPECT_EQ(prof.totals().samples, 0u);
  EXPECT_TRUE(prof.FoldedText().empty());
}

TEST(CpuProfilerTest, SamplingUnderThreadsStaysConsistent) {
  obs::CpuProfiler& prof = obs::CpuProfiler::Global();
  prof.Reset();
  ASSERT_TRUE(prof.Start().ok());
  std::vector<std::thread> threads;
  std::atomic<uint64_t> total{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] { total += ProfTestHotSpin(3000000); });
  }
  for (auto& thread : threads) thread.join();
  prof.Stop();
  // Rendering concurrently-produced samples must not tear.
  const std::string folded = prof.FoldedText();
  const obs::CpuProfileTotals totals = prof.totals();
  EXPECT_EQ(folded.empty(), totals.samples == 0);
  prof.Reset();
}

// ---------------------------------------------------------------------------
// HeapProfiler

TEST(HeapProfilerTest, AvailabilityMatchesBuild) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  EXPECT_FALSE(obs::HeapProfiler::Available());
#endif
  if (!obs::HeapProfiler::Available()) {
    // Compiled out: Enable is a no-op and totals stay zero.
    obs::HeapProfiler::Global().Enable(1024);
    EXPECT_FALSE(obs::HeapProfiler::Global().enabled());
    EXPECT_EQ(obs::HeapProfiler::Global().totals().sampled_allocs, 0u);
  }
}

TEST(HeapProfilerTest, SamplesAllocationsAndMatchesFrees) {
  if (!obs::HeapProfiler::Available()) {
    GTEST_SKIP() << "heap interposition compiled out in this build";
  }
  obs::HeapProfiler& prof = obs::HeapProfiler::Global();
  prof.Reset();
  prof.Enable(/*mean_sample_bytes=*/4096);
  ASSERT_TRUE(prof.enabled());

  // 16 MiB in 16 KiB chunks: with a 4 KiB mean interval, essentially every
  // chunk samples.
  std::vector<std::unique_ptr<char[]>> chunks;
  for (int i = 0; i < 1024; ++i) {
    chunks.emplace_back(new char[16384]);
    chunks.back()[0] = static_cast<char>(i);
  }
  const obs::HeapProfileTotals held = prof.totals();
  EXPECT_GT(held.sampled_allocs, 100u);
  EXPECT_GT(held.live_sampled_bytes, uint64_t{1} << 20);
  EXPECT_GE(held.estimated_alloc_bytes, held.sampled_bytes);

  const std::string live = prof.FoldedText(/*live=*/true);
  EXPECT_FALSE(live.empty());

  chunks.clear();
  const obs::HeapProfileTotals freed = prof.totals();
  EXPECT_LT(freed.live_sampled_bytes, held.live_sampled_bytes);
  // Cumulative attribution survives the frees (>= because the sampler may
  // legitimately catch this test's own bookkeeping allocations in between).
  EXPECT_GE(freed.sampled_allocs, held.sampled_allocs);
  EXPECT_FALSE(prof.FoldedText(/*live=*/false).empty());

  prof.Disable();
  EXPECT_FALSE(prof.enabled());
  prof.Reset();
}

TEST(HeapProfilerTest, FreesMatchedAfterDisable) {
  if (!obs::HeapProfiler::Available()) {
    GTEST_SKIP() << "heap interposition compiled out in this build";
  }
  obs::HeapProfiler& prof = obs::HeapProfiler::Global();
  prof.Reset();
  prof.Enable(/*mean_sample_bytes=*/1024);
  std::vector<std::unique_ptr<char[]>> chunks;
  for (int i = 0; i < 256; ++i) {
    chunks.emplace_back(new char[8192]);
  }
  prof.Disable();
  const uint64_t live_before = prof.totals().live_sampled_bytes;
  ASSERT_GT(live_before, 0u);
  chunks.clear();  // frees AFTER Disable must still decrement live bytes
  EXPECT_LT(prof.totals().live_sampled_bytes, live_before);
  prof.Reset();
}

TEST(HeapProfilerTest, FoldAndResetWithManyLiveRecordsDoNotSelfDeadlock) {
  if (!obs::HeapProfiler::Available()) {
    GTEST_SKIP() << "heap interposition compiled out in this build";
  }
  // FoldedText and Reset allocate and free while holding a heap shard mutex
  // or alloc_mu. With every allocation sampled, the new/delete hook must not
  // re-lock those on this thread. A self-deadlock would hang the whole
  // binary, so a watchdog turns it into a failure.
  std::atomic<bool> done{false};
  std::thread watchdog([&done] {
    for (int i = 0; i < 200 && !done.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!done.load()) {
      std::fprintf(stderr, "HeapProfiler FoldedText/Reset self-deadlocked\n");
      std::_Exit(1);
    }
  });
  obs::HeapProfiler& prof = obs::HeapProfiler::Global();
  prof.Reset();
  prof.Enable(/*mean_sample_bytes=*/1);
  std::vector<std::unique_ptr<int>> records;
  records.reserve(4096);
  for (int i = 0; i < 4096; ++i) records.push_back(std::make_unique<int>(i));
  EXPECT_GT(prof.totals().sampled_allocs, 1000u);
  EXPECT_FALSE(prof.FoldedText(/*live=*/true).empty());
  EXPECT_FALSE(prof.FoldedText(/*live=*/false).empty());
  prof.Reset();  // forgets every live record while sampling stays on
  prof.Disable();
  records.clear();
  prof.Reset();
  done = true;
  watchdog.join();
}

}  // namespace
}  // namespace qp
