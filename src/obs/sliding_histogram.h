// Windowed aggregation over fixed-bucket histograms: the rolling-percentile
// and SLO-attainment substrate behind /metrics' qp_slo_* gauges and the
// shell's \slo command.
//
// The cumulative Histogram in metrics.h answers "what happened since
// process start"; operations questions are windowed — "what is p99 over
// the LAST minute", "how fast is the error budget burning". Both are
// answered here with the classic ring-of-sub-histograms design:
//
//   SlidingCounter    ring of per-slice uint64 cells; WindowTotal(w) sums
//                     the slices covering the last w seconds.
//   SlidingHistogram  ring of per-slice bucket arrays sharing one bounds
//                     vector; WindowSnapshot(w) merges the covering slices
//                     into a Histogram::Snapshot, and WindowQuantile(w, p)
//                     runs the standard interpolation (with the documented
//                     +Inf clamp) over that merge.
//   SloTracker        good/total SlidingCounters against a latency target
//                     and an objective fraction; reports windowed
//                     attainment and burn rate.
//
// Rotation discipline — "rotated on read against an injected clock": no
// background thread ever advances the ring. Every Observe/Add/read first
// rotates the ring forward to the slice the clock says is current, zeroing
// the slices skipped over. Slices strictly older than the ring's span fall
// off. The clock is an injected std::function<double()> (seconds, any
// epoch); tests drive it manually, which makes every windowed read a pure
// function of the (observation, clock-value) sequence — the determinism
// contract the sliding_histogram_test pins at 1/2/8 threads. Production
// callers pass MonotonicClock (steady_clock seconds).
//
// Concurrency: all methods are thread-safe behind one mutex per object.
// These structures sit on per-request paths (one Observe per Personalize,
// one merge per scrape), not per-row paths, so a mutex is the right
// simplicity/cost point — unlike the lock-free cumulative Histogram which
// PPA hammers from every worker.

#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace qp::obs {

/// Seconds on std::chrono::steady_clock — the production clock for every
/// windowed structure here.
double MonotonicClock();

/// \brief Ring of per-time-slice counters; windowed totals on read.
class SlidingCounter {
 public:
  /// `slice_seconds` x `num_slices` is the longest answerable window.
  SlidingCounter(double slice_seconds, size_t num_slices,
                 std::function<double()> clock = MonotonicClock);

  void Add(uint64_t delta = 1);

  /// Sum over the slices covering the last `window_seconds` (clamped to the
  /// ring's span). The current partial slice always counts.
  uint64_t WindowTotal(double window_seconds) const;

  double slice_seconds() const { return slice_seconds_; }
  size_t num_slices() const { return cells_.size(); }

 private:
  /// Rotates the ring so cells_[head_] is the slice `now` falls in,
  /// zeroing everything skipped. Caller holds mu_.
  void RotateLocked(double now) const;

  const double slice_seconds_;
  const std::function<double()> clock_;
  mutable std::mutex mu_;
  mutable std::vector<uint64_t> cells_;
  mutable size_t head_ = 0;        ///< index of the current slice
  mutable int64_t head_slice_ = 0; ///< floor(now / slice_seconds) at head_
};

/// \brief Ring of per-time-slice fixed-bucket histograms; windowed
/// snapshots and quantiles on read.
class SlidingHistogram {
 public:
  /// `bounds` as Histogram (strictly increasing finite upper bounds).
  SlidingHistogram(std::vector<double> bounds, double slice_seconds,
                   size_t num_slices,
                   std::function<double()> clock = MonotonicClock);

  void Observe(double value);

  /// Merged per-bucket counts / count / sum over the slices covering the
  /// last `window_seconds` (clamped to the ring's span).
  Histogram::Snapshot WindowSnapshot(double window_seconds) const;

  /// Quantile estimate over WindowSnapshot(window_seconds) — standard
  /// bucket interpolation with the +Inf clamp (Histogram::QuantileOf).
  double WindowQuantile(double window_seconds, double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  double slice_seconds() const { return slice_seconds_; }
  size_t num_slices() const { return slices_.size(); }

 private:
  struct Slice {
    std::vector<uint64_t> buckets;  ///< bounds_.size() + 1
    uint64_t count = 0;
    double sum = 0.0;
  };

  void RotateLocked(double now) const;

  const std::vector<double> bounds_;
  const double slice_seconds_;
  const std::function<double()> clock_;
  mutable std::mutex mu_;
  mutable std::vector<Slice> slices_;
  mutable size_t head_ = 0;
  mutable int64_t head_slice_ = 0;
};

/// \brief Windowed SLO attainment + burn rate against a latency target.
///
/// The objective reads "kObjective of requests complete within
/// kThresholdSeconds": 99% of personalize calls under 500 ms.
/// Record(latency) classifies one request; RecordBad()
/// counts a request that never produced a latency (shed, expired in queue)
/// as a violation. Attainment over a window is good/total (1.0 when the
/// window is empty — no traffic is not a violation); burn rate is
/// (1 - attainment) / (1 - objective), the standard error-budget spelling:
/// 1.0 burns the budget exactly at the objective's rate, >1 is an alert.
class SloTracker {
 public:
  static constexpr double kThresholdSeconds = 0.5;
  static constexpr double kObjective = 0.99;
  /// 60 x 5s slices: the 5m window, with 1m as the last 12.
  static constexpr double kSliceSeconds = 5.0;
  static constexpr size_t kNumSlices = 60;

  struct Options {
    std::function<double()> clock = MonotonicClock;
  };

  explicit SloTracker(Options options);

  /// One completed request: good iff latency < threshold.
  void Record(double latency_seconds);
  /// One request that failed before producing an answer — always bad.
  void RecordBad();

  struct Window {
    uint64_t total = 0;
    uint64_t good = 0;
    double attainment = 1.0;  ///< good/total; 1.0 on an empty window
    double burn_rate = 0.0;   ///< (1-attainment)/(1-objective)
  };
  Window Snapshot(double window_seconds) const;

  /// "slo target=p99<500.0ms objective=99.00% 1m: ... 5m: ..." — the \slo
  /// shell command's rendering.
  std::string Describe() const;

  /// Cumulative (non-windowed) totals since construction.
  uint64_t total() const { return total_.Value(); }
  uint64_t good() const { return good_.Value(); }

 private:
  SlidingCounter window_total_;
  SlidingCounter window_good_;
  Counter total_;
  Counter good_;
};

}  // namespace qp::obs
