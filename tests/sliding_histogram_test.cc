// obs::SlidingCounter / SlidingHistogram / SloTracker tests, plus the
// Histogram::Quantile overflow-clamp boundary cases.
//
// Determinism contract: every windowed structure rotates ON READ against an
// injected clock, so with a manual clock each windowed read is a pure
// function of the (observation, clock-value) sequence — no background
// thread, no wall time. The threaded tests pin exactly that: the same
// observation multiset pushed from 1, 2 and 8 threads yields byte-equal
// window snapshots. The whole file runs under the `sanitizer` CTest label.

#include "obs/sliding_histogram.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace qp::obs {
namespace {

/// Manual clock: tests move `now`; structures read it on every operation.
/// Atomic so threaded tests can share it without a data race.
struct ManualClock {
  std::atomic<double> now{0.0};
  std::function<double()> fn() {
    return [this] { return now.load(std::memory_order_acquire); };
  }
};

// ---------------------------------------------------------------------------
// SlidingCounter

TEST(SlidingCounterTest, CountsWithinOneSlice) {
  ManualClock clock;
  SlidingCounter counter(/*slice_seconds=*/5.0, /*num_slices=*/12,
                         clock.fn());
  counter.Add();
  counter.Add(3);
  EXPECT_EQ(counter.WindowTotal(60.0), 4u);
  EXPECT_EQ(counter.WindowTotal(5.0), 4u);
}

TEST(SlidingCounterTest, OldSlicesFallOutOfTheWindow) {
  ManualClock clock;
  SlidingCounter counter(5.0, 12, clock.fn());
  counter.Add(10);          // slice 0
  clock.now = 5.0;
  counter.Add(1);           // slice 1
  // Both slices inside the 60s window; only the current one inside 5s.
  EXPECT_EQ(counter.WindowTotal(60.0), 11u);
  EXPECT_EQ(counter.WindowTotal(5.0), 1u);
  // 1-slice-wide window one slice later: everything before is gone.
  clock.now = 10.0;
  EXPECT_EQ(counter.WindowTotal(5.0), 0u);
  EXPECT_EQ(counter.WindowTotal(60.0), 11u);
}

TEST(SlidingCounterTest, RingWipesAfterAJumpPastItsSpan) {
  ManualClock clock;
  SlidingCounter counter(1.0, 4, clock.fn());
  counter.Add(100);
  clock.now = 100.0;  // 100 slices ahead: > ring span, everything expires
  EXPECT_EQ(counter.WindowTotal(4.0), 0u);
  counter.Add(7);
  EXPECT_EQ(counter.WindowTotal(4.0), 7u);
}

TEST(SlidingCounterTest, WindowClampsToRingSpan) {
  ManualClock clock;
  SlidingCounter counter(1.0, 4, clock.fn());
  counter.Add(1);
  clock.now = 3.0;
  counter.Add(1);
  // Asking for more than slice*num_slices behaves as the full ring.
  EXPECT_EQ(counter.WindowTotal(1e9), 2u);
}

TEST(SlidingCounterTest, DeterministicAcrossThreadCounts) {
  std::vector<uint64_t> totals;
  for (size_t threads : {1u, 2u, 8u}) {
    ManualClock clock;
    SlidingCounter counter(5.0, 12, clock.fn());
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t i = t; i < 1000; i += threads) counter.Add(i % 3);
      });
    }
    for (auto& w : workers) w.join();
    totals.push_back(counter.WindowTotal(60.0));
  }
  EXPECT_EQ(totals[0], totals[1]);
  EXPECT_EQ(totals[0], totals[2]);
}

// ---------------------------------------------------------------------------
// SlidingHistogram

TEST(SlidingHistogramTest, WindowSnapshotMergesOnlyCoveredSlices) {
  ManualClock clock;
  SlidingHistogram histogram({1.0, 2.0, 4.0}, 5.0, 12, clock.fn());
  histogram.Observe(0.5);   // slice 0, bucket 0
  histogram.Observe(3.0);   // slice 0, bucket 2
  clock.now = 5.0;
  histogram.Observe(1.5);   // slice 1, bucket 1

  Histogram::Snapshot full = histogram.WindowSnapshot(60.0);
  EXPECT_EQ(full.count, 3u);
  EXPECT_DOUBLE_EQ(full.sum, 5.0);
  ASSERT_EQ(full.buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(full.buckets[0], 1u);
  EXPECT_EQ(full.buckets[1], 1u);
  EXPECT_EQ(full.buckets[2], 1u);
  EXPECT_EQ(full.buckets[3], 0u);

  Histogram::Snapshot current = histogram.WindowSnapshot(5.0);
  EXPECT_EQ(current.count, 1u);
  EXPECT_DOUBLE_EQ(current.sum, 1.5);
}

TEST(SlidingHistogramTest, WindowQuantileTracksTheWindow) {
  ManualClock clock;
  SlidingHistogram histogram({0.1, 1.0, 10.0}, 5.0, 12, clock.fn());
  for (int i = 0; i < 100; ++i) histogram.Observe(0.05);  // all fast
  clock.now = 5.0;
  for (int i = 0; i < 100; ++i) histogram.Observe(5.0);   // all slow
  // Full window: half fast, half slow -> p99 in the slow bucket.
  EXPECT_GT(histogram.WindowQuantile(60.0, 0.99), 1.0);
  // Current slice only: everything slow.
  EXPECT_GT(histogram.WindowQuantile(5.0, 0.5), 1.0);
  // Two slices later the slow slice is outside a 5s window.
  clock.now = 15.0;
  EXPECT_EQ(histogram.WindowSnapshot(5.0).count, 0u);
}

TEST(SlidingHistogramTest, DeterministicAcrossThreadCounts) {
  std::vector<Histogram::Snapshot> snapshots;
  for (size_t threads : {1u, 2u, 8u}) {
    ManualClock clock;
    SlidingHistogram histogram({0.001, 0.01, 0.1, 1.0}, 5.0, 12, clock.fn());
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t i = t; i < 500; i += threads) {
          // Dyadic values (k/2048): every partial sum is exact, so the
          // total is identical regardless of addition order across
          // threads — the snapshot can be pinned byte-for-byte.
          histogram.Observe(static_cast<double>(i % 40) / 2048.0);
        }
      });
    }
    for (auto& w : workers) w.join();
    snapshots.push_back(histogram.WindowSnapshot(60.0));
  }
  for (size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[0].count, snapshots[i].count);
    EXPECT_DOUBLE_EQ(snapshots[0].sum, snapshots[i].sum);
    EXPECT_EQ(snapshots[0].buckets, snapshots[i].buckets);
  }
}

// ---------------------------------------------------------------------------
// SloTracker

TEST(SloTrackerTest, EmptyWindowIsPerfectAttainment) {
  ManualClock clock;
  SloTracker::Options options;
  options.clock = clock.fn();
  SloTracker slo(options);
  const SloTracker::Window window = slo.Snapshot(60.0);
  EXPECT_EQ(window.total, 0u);
  EXPECT_DOUBLE_EQ(window.attainment, 1.0);
  EXPECT_DOUBLE_EQ(window.burn_rate, 0.0);
}

TEST(SloTrackerTest, AttainmentAndBurnRateMath) {
  ManualClock clock;
  SloTracker::Options options;
  options.clock = clock.fn();
  SloTracker slo(options);  // 0.5 s threshold, 0.99 objective: 1% budget
  for (int i = 0; i < 80; ++i) slo.Record(0.1);  // good
  for (int i = 0; i < 15; ++i) slo.Record(2.0);  // bad (over threshold)
  for (int i = 0; i < 5; ++i) slo.RecordBad();   // bad (never completed)
  const SloTracker::Window window = slo.Snapshot(60.0);
  EXPECT_EQ(window.total, 100u);
  EXPECT_EQ(window.good, 80u);
  EXPECT_DOUBLE_EQ(window.attainment, 0.8);
  // (1 - 0.8) / (1 - 0.99) = 20x budget burn.
  EXPECT_NEAR(window.burn_rate, 20.0, 1e-9);
  EXPECT_EQ(slo.total(), 100u);
  EXPECT_EQ(slo.good(), 80u);
}

TEST(SloTrackerTest, ThresholdBoundaryIsExclusive) {
  ManualClock clock;
  SloTracker::Options options;
  options.clock = clock.fn();
  SloTracker slo(options);
  slo.Record(0.499999);  // good: strictly under the threshold
  slo.Record(0.5);       // bad: latency == threshold misses "< threshold"
  const SloTracker::Window window = slo.Snapshot(60.0);
  EXPECT_EQ(window.total, 2u);
  EXPECT_EQ(window.good, 1u);
}

TEST(SloTrackerTest, ViolationsAgeOutOfTheWindow) {
  ManualClock clock;
  SloTracker::Options options;
  options.clock = clock.fn();
  SloTracker slo(options);  // 5 s x 60 slices
  slo.RecordBad();
  EXPECT_LT(slo.Snapshot(60.0).attainment, 1.0);
  // 70s later the violation is outside the 1m window but inside 5m.
  clock.now = 70.0;
  EXPECT_DOUBLE_EQ(slo.Snapshot(60.0).attainment, 1.0);
  EXPECT_LT(slo.Snapshot(300.0).attainment, 1.0);
  // Cumulative totals never age out.
  EXPECT_EQ(slo.total(), 1u);
}

TEST(SloTrackerTest, DescribeMentionsTargetAndWindows) {
  ManualClock clock;
  SloTracker::Options options;
  options.clock = clock.fn();
  SloTracker slo(options);
  slo.Record(0.1);
  const std::string text = slo.Describe();
  EXPECT_NE(text.find("slo"), std::string::npos);
  EXPECT_NE(text.find("1m"), std::string::npos);
  EXPECT_NE(text.find("5m"), std::string::npos);
}

TEST(SloTrackerTest, DeterministicAcrossThreadCounts) {
  std::vector<SloTracker::Window> windows;
  for (size_t threads : {1u, 2u, 8u}) {
    ManualClock clock;
    SloTracker::Options options;
    options.clock = clock.fn();
    SloTracker slo(options);
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t i = t; i < 600; i += threads) {
          if (i % 10 == 9) {
            slo.RecordBad();
          } else {
            slo.Record(i % 5 == 0 ? 0.9 : 0.1);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    windows.push_back(slo.Snapshot(300.0));
  }
  for (size_t i = 1; i < windows.size(); ++i) {
    EXPECT_EQ(windows[0].total, windows[i].total);
    EXPECT_EQ(windows[0].good, windows[i].good);
    EXPECT_DOUBLE_EQ(windows[0].attainment, windows[i].attainment);
    EXPECT_DOUBLE_EQ(windows[0].burn_rate, windows[i].burn_rate);
  }
}

// ---------------------------------------------------------------------------
// Histogram::Quantile overflow clamp (the boundary cases of the documented
// behavior: ranks landing in the +Inf bucket clamp to the last finite bound)

TEST(HistogramQuantileClampTest, RankInOverflowClampsToLastFiniteBound) {
  Histogram histogram({1.0, 2.0});
  histogram.Observe(100.0);  // only observation lands in +Inf
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 2.0);
}

TEST(HistogramQuantileClampTest, MixedFiniteAndOverflowRanks) {
  Histogram histogram({1.0, 2.0});
  for (int i = 0; i < 90; ++i) histogram.Observe(0.5);  // bucket 0
  for (int i = 0; i < 10; ++i) histogram.Observe(9.0);  // +Inf
  // p50 interpolates inside the first bucket; p99's rank is in +Inf.
  EXPECT_LE(histogram.Quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.99), 2.0);
  // The clamp is a LOWER bound on the true quantile (9.0 here).
  EXPECT_LT(histogram.Quantile(0.99), 9.0);
}

TEST(HistogramQuantileClampTest, EmptyAndNoFiniteBoundsReturnZero) {
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.Quantile(0.99), 0.0);
  Histogram no_bounds({});
  no_bounds.Observe(5.0);
  EXPECT_DOUBLE_EQ(no_bounds.Quantile(0.99), 0.0);
}

TEST(HistogramQuantileClampTest, QuantileOfMatchesMemberOnMergedSnapshots) {
  const std::vector<double> bounds = {1.0, 2.0};
  Histogram histogram(bounds);
  for (int i = 0; i < 5; ++i) histogram.Observe(0.5);
  for (int i = 0; i < 5; ++i) histogram.Observe(50.0);
  const Histogram::Snapshot snap = histogram.snapshot();
  for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(Histogram::QuantileOf(snap, bounds, p),
                     histogram.Quantile(p))
        << "p=" << p;
  }
  // The last-rank clamp through the static spelling, too.
  EXPECT_DOUBLE_EQ(Histogram::QuantileOf(snap, bounds, 1.0), 2.0);
}

}  // namespace
}  // namespace qp::obs
