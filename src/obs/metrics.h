// Process-wide metrics primitives: named lock-free counters, last-value
// gauges and fixed-bucket histograms behind a registry, with
// Prometheus-style text exposition (RenderText) and a JSON snapshot
// (RenderJson). Gauges mirroring external state (RSS, live queue depths,
// windowed SLO attainment) are refreshed at scrape time through collection
// hooks (AddCollectionHook) run at the start of every render.
//
// Naming scheme (see DESIGN.md "Observability"): snake_case with a
// component prefix and a unit/`_total` suffix — `qp_exec_rows_scanned_total`,
// `qp_serve_personalize_seconds`. A series may carry a fixed label set by
// registering the full series name `base{key="value"}`; series sharing a
// base name are grouped under one # TYPE header in the exposition.
// Components declare their counters as one CounterRow table each and
// register it with RegisterCounters (or MirroredCounters, when each
// instance also reports its own counts); one fact, one series.
//
// Concurrency: Counter::Increment and Histogram::Observe are lock-free
// (relaxed atomics — totals are exact, cross-metric ordering is not
// promised). Registration takes a mutex but returns stable pointers, so
// hot paths resolve a metric once and update it without ever touching the
// registry again. Renders read concurrently with updates and may observe a
// histogram mid-update (bucket totals are each exact; count/sum can be
// momentarily ahead of the buckets).

#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace qp::obs {

/// \brief Monotonic lock-free counter.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-value gauge: a double that can move both ways (queue depths,
/// session counts, attainment ratios, RSS). Set/Add are lock-free; Add uses
/// a CAS loop over the raw bits (atomic<double>::fetch_add is not portable).
class Gauge {
 public:
  void Set(double value) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }
  void Add(double delta) {
    uint64_t old_bits = bits_.load(std::memory_order_relaxed);
    while (true) {
      double old_value;
      std::memcpy(&old_value, &old_bits, sizeof(old_value));
      const double new_value = old_value + delta;
      uint64_t new_bits;
      std::memcpy(&new_bits, &new_value, sizeof(new_bits));
      if (bits_.compare_exchange_weak(old_bits, new_bits,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
  }
  double Value() const {
    const uint64_t bits = bits_.load(std::memory_order_relaxed);
    double out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
  }

 private:
  std::atomic<uint64_t> bits_{0};  ///< raw double bits; 0 == 0.0
};

/// \brief Fixed-bucket histogram with lock-free observation.
///
/// Buckets follow the Prometheus convention: bucket i counts observations
/// `<= bounds[i]` (cumulative rendering happens at exposition time; storage
/// is per-bucket), with an implicit +Inf bucket at the end.
class Histogram {
 public:
  /// `bounds` must be strictly increasing upper bounds; an empty vector
  /// leaves only the +Inf bucket.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  /// Index of the bucket `value` lands in (the first bound >= value, or
  /// the +Inf bucket). Exposed for the bucket-math tests.
  size_t BucketFor(double value) const;

  size_t num_buckets() const { return buckets_.size(); }
  const std::vector<double>& bounds() const { return bounds_; }

  /// A consistent-enough snapshot for rendering: per-bucket counts, total
  /// count and sum.
  struct Snapshot {
    std::vector<uint64_t> buckets;  ///< per-bucket (non-cumulative) counts
    uint64_t count = 0;
    double sum = 0.0;
  };
  Snapshot snapshot() const;

  /// Estimates the p-quantile (p in [0, 1]) of the observed distribution the
  /// way Prometheus' histogram_quantile does: find the bucket the rank
  /// p * count falls in and interpolate linearly inside it (the first
  /// bucket's lower edge is 0). An empty histogram (or one built with no
  /// finite bounds) returns 0.
  ///
  /// Overflow-bucket clamp: a rank that lands in the implicit +Inf bucket
  /// has no finite upper edge to interpolate toward, so the estimate CLAMPS
  /// to the highest finite bound — deliberately, and explicitly (this used
  /// to fall out of the loop structure silently). The returned value is
  /// therefore a LOWER bound on the true quantile whenever observations
  /// exceed bounds().back(); callers sizing buckets should make the last
  /// finite bound generous enough that the clamp is the rare case. This is
  /// the estimator behind the SlidingHistogram's windowed p50/p99.
  double Quantile(double p) const;

  /// The quantile estimate over an externally-merged snapshot with these
  /// bounds (the SlidingHistogram's windowed spelling). Same interpolation
  /// and overflow clamp as Quantile().
  static double QuantileOf(const Snapshot& snap,
                           const std::vector<double>& bounds, double p);

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  ///< bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  /// Sum of observations, stored as raw double bits and accumulated with a
  /// CAS loop (portable, unlike atomic<double>::fetch_add).
  std::atomic<uint64_t> sum_bits_{0};
};

/// Default latency buckets for wall-clock seconds: exponential from 10us
/// to ~10s, the range a Personalize call or an executor query can span.
std::vector<double> DefaultLatencyBuckets();

/// One label of a metric series, held raw (unescaped); escaping happens at
/// name-construction / exposition time.
struct MetricLabel {
  std::string key;
  std::string value;
};

/// Escapes a label value for Prometheus text exposition per the spec:
/// backslash -> \\, double quote -> \", newline -> \n.
std::string EscapeLabelValue(const std::string& value);

/// Builds the full series name `base{key="value",...}` with every value
/// escaped. This is THE way to register a series keyed by runtime data
/// (user ids, table names): raw ids with quotes, backslashes or newlines
/// would otherwise corrupt the exposition format.
std::string LabeledName(const std::string& base,
                        const std::vector<MetricLabel>& labels);

/// \brief Name -> metric registry with stable pointers.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under `name`, creating it on first use.
  /// `help` is recorded on creation (later calls may pass ""). Pointers
  /// stay valid for the registry's lifetime.
  Counter* GetCounter(const std::string& name, const std::string& help = "");

  /// Returns the histogram registered under `name`, creating it with
  /// `bounds` on first use (later calls reuse the existing buckets).
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds,
                          const std::string& help = "");

  /// Returns the gauge registered under `name`, creating it on first use.
  Gauge* GetGauge(const std::string& name, const std::string& help = "");

  /// Returns a gauge EXPOSED as a Prometheus counter: `# TYPE ... counter`
  /// in the text format and listed among "counters" in the JSON snapshot.
  /// For monotonic totals mirrored from an external source at collection
  /// time (process CPU seconds from /proc, the profiler's cumulative sample
  /// and lock-wait totals) — values that only grow but are absolute reads,
  /// not increments, and may be fractional. The caller owns monotonicity;
  /// the registry just renders the declared type. A name registered through
  /// this accessor stays counter-typed for the registry's lifetime (and vice
  /// versa: GetGauge never flips an existing series' type).
  Gauge* GetCounterGauge(const std::string& name,
                         const std::string& help = "");

  /// Labeled spellings: the series name is LabeledName(base, labels) (label
  /// values escaped), and creation is subject to the cardinality cap — once
  /// kLabelCardinalityLimit distinct labeled series exist under `base`,
  /// NEW series are rerouted to the overflow series with every label value
  /// replaced by "__other__" (so a process serving millions of users exposes
  /// at most limit + 1 series per base, and no sample is ever dropped).
  /// Existing series keep resolving to their own pointer forever.
  Counter* GetCounter(const std::string& base,
                      const std::vector<MetricLabel>& labels,
                      const std::string& help = "");
  Histogram* GetHistogram(const std::string& base,
                          const std::vector<MetricLabel>& labels,
                          std::vector<double> bounds,
                          const std::string& help = "");
  Gauge* GetGauge(const std::string& base,
                  const std::vector<MetricLabel>& labels,
                  const std::string& help = "");

  /// Per-base cap on distinct labeled series. The overflow series does not
  /// count against the cap. Applies to labeled creations through both the
  /// labeled API and raw `base{...}` names.
  static constexpr size_t kLabelCardinalityLimit = 1024;

  /// Registers a callback run at the start of every RenderText/RenderJson
  /// — the pull-model refresh point where gauges mirroring external state
  /// (process RSS, live session counts, windowed SLO attainment) are
  /// brought current before the scrape is rendered. Hooks run WITHOUT the
  /// registry lock held, so they may freely call Get*/Set on this registry.
  /// Returns an id for RemoveCollectionHook.
  size_t AddCollectionHook(std::function<void()> hook);
  /// Unregisters a hook; safe for ids already removed. Objects shorter-
  /// lived than the registry (e.g. a Scheduler updating queue gauges) must
  /// remove their hooks before dying.
  void RemoveCollectionHook(size_t id);

  /// Prometheus text exposition of every registered series, in
  /// registration order, grouped by base name: counters, then gauges, then
  /// histograms. Runs the collection hooks first.
  std::string RenderText() const;

  /// The cached counters of one CounterRow table (keyed by its address;
  /// see RegisterCounters), or null before AddTable. Lock-free: the cache
  /// is a list that only grows, published through an atomic head.
  const std::vector<Counter*>* FindTable(const void* table) const;
  /// Caches `counters` for `table` and returns the cached list (an
  /// earlier caller's, when two raced).
  const std::vector<Counter*>& AddTable(const void* table,
                                        std::vector<Counter*> counters);

  /// JSON snapshot: {"counters": {name: value, ...},
  /// "gauges": {name: value, ...},
  /// "histograms": {name: {"count": n, "sum": s, "buckets": [...],
  /// "bounds": [...]}, ...}}. Runs the collection hooks first.
  std::string RenderJson() const;

 private:
  struct CounterEntry {
    std::string name;
    std::string help;
    std::unique_ptr<Counter> counter;
  };
  struct GaugeEntry {
    std::string name;
    std::string help;
    std::unique_ptr<Gauge> gauge;
    /// Exposed as `# TYPE ... counter` (see GetCounterGauge); per-family —
    /// the first entry of a base name decides the family's declared type.
    bool as_counter = false;
  };
  struct HistogramEntry {
    std::string name;
    std::string help;
    std::unique_ptr<Histogram> histogram;
  };

  /// Copies the registered hooks (under hooks_mu_) and runs them unlocked.
  void RunCollectionHooks() const;

  /// Shared body of GetGauge / GetCounterGauge: resolve-or-create under mu_
  /// with `as_counter` recorded at creation (never flipped afterwards).
  Gauge* GetGaugeImpl(const std::string& name, const std::string& help,
                      bool as_counter);

  /// Applies the cardinality cap to `name` (must hold mu_): returns `name`
  /// unchanged while the base is under the limit or the series already
  /// exists, else the `__other__` overflow name.
  std::string CappedName(const std::string& name, bool exists) const;
  size_t LabeledCountLocked(const std::string& base) const;

  /// One table's resolved counters, in the lock-free cache list.
  struct ResolvedTable {
    const void* table = nullptr;
    std::vector<Counter*> counters;
    const ResolvedTable* next = nullptr;
  };

  mutable std::mutex mu_;
  std::atomic<const ResolvedTable*> resolved_{nullptr};
  std::vector<std::unique_ptr<ResolvedTable>> resolved_tables_;  ///< owner
  std::vector<CounterEntry> counters_;
  std::vector<GaugeEntry> gauges_;
  std::vector<HistogramEntry> histograms_;

  /// Collection hooks, guarded by their own mutex (never held while a hook
  /// runs, and ordered independently of mu_ — hooks take mu_ via Get*).
  mutable std::mutex hooks_mu_;
  size_t next_hook_id_ = 0;
  std::vector<std::pair<size_t, std::function<void()>>> hooks_;
};

/// Free-function spellings of the renders (the canonical API surface).
std::string RenderText(const MetricsRegistry& registry);
std::string RenderJson(const MetricsRegistry& registry);

/// \brief One row of a component's counter table: the full series name
/// (fixed labels included, e.g. `qp_index_path_total{kind="scan"}`), its
/// help text, and the field of the component's snapshot struct the counter
/// fills (null when no snapshot carries it). A component spells each of its
/// counters in exactly one row and indexes the table with its own enum, so
/// adding, renaming or auditing a counter is a one-row edit.
template <typename Snapshot, typename Field = size_t>
struct CounterRow {
  const char* series;
  const char* help;
  Field Snapshot::*field = nullptr;
};

/// Registers one counter per row of `table`, in row order (the order
/// RenderText lists the families in), and returns them index-aligned with
/// the rows. The rows are resolved once per registry: later calls for the
/// same table read the registry's cache without its lock, so a component
/// built per request (an Executor per Personalize call) takes no lock.
template <typename Snapshot, typename Field, size_t N>
std::array<Counter*, N> RegisterCounters(
    MetricsRegistry& registry, const CounterRow<Snapshot, Field> (&table)[N]) {
  const std::vector<Counter*>* cached = registry.FindTable(table);
  if (cached == nullptr) {
    std::vector<Counter*> resolved;
    for (size_t i = 0; i < N; ++i) {
      resolved.push_back(registry.GetCounter(table[i].series, table[i].help));
    }
    cached = &registry.AddTable(table, std::move(resolved));
  }
  std::array<Counter*, N> counters{};
  std::copy(cached->begin(), cached->end(), counters.begin());
  return counters;
}

/// The snapshot a table describes: every row with a field takes `value(i)`,
/// the current value of the row's counter.
template <typename Snapshot, typename Field, size_t N, typename ValueOf>
Snapshot SnapshotOf(const CounterRow<Snapshot, Field> (&table)[N],
                    const ValueOf& value) {
  Snapshot snapshot{};
  for (size_t i = 0; i < N; ++i) {
    if (table[i].field != nullptr) snapshot.*(table[i].field) = value(i);
  }
  return snapshot;
}

/// \brief One instance's counts for an N-row counter table, each mirrored
/// into its row's registry series. Snapshots of one instance (an Executor's
/// ExecStats, a Scheduler's SchedulerStats) read the local counts; the
/// registry series sum every instance mirrored into them.
template <size_t N>
class MirroredCounters {
 public:
  /// Registers the table's series as the mirrors; without a call, Add
  /// counts locally only.
  template <typename Snapshot, typename Field>
  void Mirror(MetricsRegistry& registry,
              const CounterRow<Snapshot, Field> (&table)[N]) {
    mirrors_ = RegisterCounters(registry, table);
  }

  void Add(size_t row, uint64_t n = 1) {
    counts_[row].fetch_add(n, std::memory_order_relaxed);
    if (mirrors_[row] != nullptr) mirrors_[row]->Increment(n);
  }
  uint64_t Value(size_t row) const {
    return counts_[row].load(std::memory_order_relaxed);
  }
  /// The snapshot `table` describes, from the local counts.
  template <typename Snapshot, typename Field>
  Snapshot Read(const CounterRow<Snapshot, Field> (&table)[N]) const {
    return SnapshotOf(table, [this](size_t row) { return Value(row); });
  }

 private:
  std::array<std::atomic<uint64_t>, N> counts_{};
  std::array<Counter*, N> mirrors_{};
};

}  // namespace qp::obs
