#include "obs/sliding_histogram.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace qp::obs {
namespace {

/// floor(now / slice) as an integer slice index; negative times (possible
/// with exotic injected clocks) floor toward -inf so rotation stays
/// monotone.
int64_t SliceIndex(double now, double slice_seconds) {
  return static_cast<int64_t>(std::floor(now / slice_seconds));
}

/// How many of the most recent slices cover `window_seconds`, including the
/// current partial slice, clamped to the ring size.
size_t SlicesFor(double window_seconds, double slice_seconds,
                 size_t num_slices) {
  if (window_seconds <= 0) return 1;  // the current slice alone
  const double exact = window_seconds / slice_seconds;
  const auto whole = static_cast<size_t>(std::ceil(exact));
  return std::min(std::max<size_t>(whole, 1), num_slices);
}

}  // namespace

double MonotonicClock() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// SlidingCounter

SlidingCounter::SlidingCounter(double slice_seconds, size_t num_slices,
                               std::function<double()> clock)
    : slice_seconds_(slice_seconds > 0 ? slice_seconds : 1.0),
      clock_(std::move(clock)),
      cells_(std::max<size_t>(num_slices, 1), 0) {
  head_slice_ = SliceIndex(clock_(), slice_seconds_);
}

void SlidingCounter::RotateLocked(double now) const {
  const int64_t slice = SliceIndex(now, slice_seconds_);
  if (slice <= head_slice_) return;  // same slice, or a clock that stalled
  const int64_t advance = slice - head_slice_;
  if (advance >= static_cast<int64_t>(cells_.size())) {
    // The whole ring aged out; cheaper to wipe than to walk.
    std::fill(cells_.begin(), cells_.end(), 0);
    head_slice_ = slice;
    return;
  }
  for (int64_t i = 0; i < advance; ++i) {
    head_ = (head_ + 1) % cells_.size();
    cells_[head_] = 0;
  }
  head_slice_ = slice;
}

void SlidingCounter::Add(uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  RotateLocked(clock_());
  cells_[head_] += delta;
}

uint64_t SlidingCounter::WindowTotal(double window_seconds) const {
  std::lock_guard<std::mutex> lock(mu_);
  RotateLocked(clock_());
  const size_t n = SlicesFor(window_seconds, slice_seconds_, cells_.size());
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += cells_[(head_ + cells_.size() - i) % cells_.size()];
  }
  return total;
}

// ---------------------------------------------------------------------------
// SlidingHistogram

SlidingHistogram::SlidingHistogram(std::vector<double> bounds,
                                   double slice_seconds, size_t num_slices,
                                   std::function<double()> clock)
    : bounds_(std::move(bounds)),
      slice_seconds_(slice_seconds > 0 ? slice_seconds : 1.0),
      clock_(std::move(clock)),
      slices_(std::max<size_t>(num_slices, 1)) {
  for (Slice& s : slices_) s.buckets.assign(bounds_.size() + 1, 0);
  head_slice_ = SliceIndex(clock_(), slice_seconds_);
}

void SlidingHistogram::RotateLocked(double now) const {
  const int64_t slice = SliceIndex(now, slice_seconds_);
  if (slice <= head_slice_) return;
  const int64_t advance = slice - head_slice_;
  auto clear = [](Slice& s) {
    std::fill(s.buckets.begin(), s.buckets.end(), 0);
    s.count = 0;
    s.sum = 0.0;
  };
  if (advance >= static_cast<int64_t>(slices_.size())) {
    for (Slice& s : slices_) clear(s);
    head_slice_ = slice;
    return;
  }
  for (int64_t i = 0; i < advance; ++i) {
    head_ = (head_ + 1) % slices_.size();
    clear(slices_[head_]);
  }
  head_slice_ = slice;
}

void SlidingHistogram::Observe(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  RotateLocked(clock_());
  Slice& s = slices_[head_];
  // Same bucket rule as Histogram::BucketFor: first bound >= value, else
  // the +Inf bucket.
  size_t b = bounds_.size();
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      b = i;
      break;
    }
  }
  ++s.buckets[b];
  ++s.count;
  s.sum += value;
}

Histogram::Snapshot SlidingHistogram::WindowSnapshot(
    double window_seconds) const {
  std::lock_guard<std::mutex> lock(mu_);
  RotateLocked(clock_());
  Histogram::Snapshot snap;
  snap.buckets.assign(bounds_.size() + 1, 0);
  const size_t n = SlicesFor(window_seconds, slice_seconds_, slices_.size());
  for (size_t i = 0; i < n; ++i) {
    const Slice& s = slices_[(head_ + slices_.size() - i) % slices_.size()];
    for (size_t b = 0; b < snap.buckets.size(); ++b) {
      snap.buckets[b] += s.buckets[b];
    }
    snap.count += s.count;
    snap.sum += s.sum;
  }
  return snap;
}

double SlidingHistogram::WindowQuantile(double window_seconds,
                                        double p) const {
  return Histogram::QuantileOf(WindowSnapshot(window_seconds), bounds_, p);
}

// ---------------------------------------------------------------------------
// SloTracker

SloTracker::SloTracker(Options options)
    : window_total_(kSliceSeconds, kNumSlices, options.clock),
      window_good_(kSliceSeconds, kNumSlices, options.clock) {}

void SloTracker::Record(double latency_seconds) {
  const bool good = latency_seconds < kThresholdSeconds;
  window_total_.Add(1);
  total_.Increment();
  if (good) {
    window_good_.Add(1);
    good_.Increment();
  }
}

void SloTracker::RecordBad() {
  window_total_.Add(1);
  total_.Increment();
}

SloTracker::Window SloTracker::Snapshot(double window_seconds) const {
  Window w;
  w.total = window_total_.WindowTotal(window_seconds);
  w.good = window_good_.WindowTotal(window_seconds);
  // Under concurrent recording good can momentarily read ahead of total
  // (two separate counters); clamp rather than report attainment > 1.
  w.good = std::min(w.good, w.total);
  w.attainment =
      w.total == 0 ? 1.0 : static_cast<double>(w.good) / w.total;
  w.burn_rate = (1.0 - w.attainment) / (1.0 - kObjective);
  return w;
}

std::string SloTracker::Describe() const {
  const Window w1 = Snapshot(60.0);
  const Window w5 = Snapshot(300.0);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "slo target=latency<%.1fms objective=%.2f%% | "
                "1m: %llu/%llu good attainment=%.4f burn=%.2f | "
                "5m: %llu/%llu good attainment=%.4f burn=%.2f",
                kThresholdSeconds * 1e3, kObjective * 100.0,
                static_cast<unsigned long long>(w1.good),
                static_cast<unsigned long long>(w1.total), w1.attainment,
                w1.burn_rate, static_cast<unsigned long long>(w5.good),
                static_cast<unsigned long long>(w5.total), w5.attainment,
                w5.burn_rate);
  return buf;
}

}  // namespace qp::obs
