// Query executor over an in-memory Database. Supports exactly the query
// shapes the personalization layer emits: SPJ blocks with conjunctive
// predicates (greedy hash-join ordering), [NOT] IN subqueries (materialized
// to hash sets), UNION ALL, GROUP BY / HAVING with built-in and user-defined
// aggregates, DISTINCT, ORDER BY and LIMIT.
//
// Execution is morsel-driven: base-table scan+filter, hash-join build
// (partitioned) and probe, the filter passes, IN-subquery materialization,
// grouping-key extraction, per-group aggregation, sort-key extraction and
// projection each write one body over index-ordered row ranges ("morsels"),
// run through common::ThreadPool::ParallelFor — inline as one morsel when
// num_threads is 1, fanned out over the pool otherwise. Morsel outputs are
// merged in morsel order, so results — row order, ORDER BY tie-breaking,
// error reporting and ExecStats totals included — are byte-for-byte
// identical at every thread count.
//
// Observability: Execute() optionally records an obs::TraceSpan tree of the
// physical plan it actually took (one span per source / join / residual /
// aggregate step, with row counts as attrs and wall times). Tracing works
// at full parallelism — parallel fan-outs record into preallocated per-task
// span slots adopted in index order — so the span tree (everything but the
// timings) is identical at every thread count. Explain() renders the tree
// in the legacy plan-text format; ExplainAnalyze() adds attrs and timings.
// ExecOptions::metrics additionally mirrors ExecStats into registry
// counters (qp_exec_*_total) at the same bulk accumulation points.

#pragma once

#include <memory>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "exec/aggregate.h"
#include "exec/evaluator.h"
#include "exec/row_set.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/query.h"
#include "storage/database.h"

namespace qp::stats {
class StatsManager;
}  // namespace qp::stats

namespace qp::exec {

/// \brief Parallelism knobs for one Executor instance.
///
/// This is the single threading/exec configuration for the whole library:
/// PersonalizeOptions carries one, PPA and SPA plumb it down, and the
/// serving layer injects its shared pool through it.
struct ExecOptions {
  /// Total parallelism (callers + workers). 1 runs everything inline on the
  /// calling thread; N > 1 spawns a pool of N - 1 workers that the calling
  /// thread joins during parallel regions. Never changes query results.
  /// Ignored when `pool` is set.
  size_t num_threads = 1;
  /// Minimum rows per morsel; inputs smaller than this run inline even when
  /// a pool exists. Tests shrink it to force concurrency on tiny tables.
  size_t morsel_rows = 1024;
  /// Borrowed shared worker pool (not owned; must outlive every consumer).
  /// When set, parallel regions fan out over it instead of a per-call pool
  /// — this is how qp::serve runs many sessions over one ThreadPool — and
  /// the effective parallelism is pool->workers() + 1. Results are
  /// byte-identical either way.
  common::ThreadPool* pool = nullptr;
  /// Optional metrics registry (not owned; must outlive the executor).
  /// When set, the executor mirrors its ExecStats accumulation into
  /// qp_exec_*_total counters resolved once at construction — the hot path
  /// pays one null check plus a relaxed atomic add per bulk boundary.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional cooperative cancellation token (not owned; must outlive the
  /// executor). Polled at query entry and at every morsel boundary; when it
  /// fires, execution unwinds with kCancelled / kDeadlineExceeded instead
  /// of finishing the query. Null = never cancelled. Cancellation only ever
  /// turns a result into one of those two errors — it cannot change a
  /// successful result, so the determinism contract is untouched.
  const common::CancelToken* cancel = nullptr;
  /// Optional statistics manager (not owned; must outlive the executor).
  /// When set, access-path cardinality estimates come from its histograms;
  /// when null, the planner counts matches exactly. Either way the estimate
  /// is derived from table contents only — never from which indexes exist —
  /// so the chosen plan, results and ExecStats are identical with any set
  /// of registered indexes.
  stats::StatsManager* stats = nullptr;
  /// Access-path cutoff: a hash probe or B+-tree range path is taken only
  /// when its estimated cardinality is strictly below this fraction of the
  /// table's rows; otherwise the source full-scans. 1.0 probes whenever the
  /// predicate is estimated to exclude anything.
  double index_selectivity_threshold = 1.0;

  /// The parallelism degree these options resolve to.
  size_t parallelism() const {
    return pool != nullptr ? pool->workers() + 1 : num_threads;
  }
};

/// Cumulative execution counters, useful for benchmarks and tests. Obtained
/// as a snapshot via Executor::stats(); totals are exact and identical for
/// every num_threads (accumulation is per-worker, merged in bulk).
struct ExecStats {
  size_t queries_executed = 0;
  size_t rows_scanned = 0;
  size_t rows_joined = 0;
  size_t rows_output = 0;
  size_t subqueries_materialized = 0;
  /// Access-path choices, one count per base source per query. The choice
  /// is LOGICAL — made from the query shape and cardinality estimates,
  /// never from whether an index is registered (see
  /// ExecOptions::index_selectivity_threshold) — so these stay identical
  /// with indexes on or off and at every thread count, and belong in
  /// ExecStats where rows_examined (the physical counter) does not.
  size_t paths_scan = 0;   ///< full-scan sources
  size_t paths_probe = 0;  ///< hash-probe (equality) sources
  size_t paths_range = 0;  ///< B+-tree range sources

  bool operator==(const ExecStats&) const = default;
};

/// \brief Executes queries against a Database.
///
/// The executor is stateless per query; an optional AggregateRegistry
/// provides user-defined aggregates (SPA's ranking function r). Execute()
/// is const and safe to call concurrently from several threads on one
/// instance (PPA batches point probes this way): counters are atomic, all
/// per-query state is local to the call, and each call records into its own
/// caller-provided trace span — there is no shared trace sink.
class Executor {
 public:
  explicit Executor(const storage::Database* db,
                    const AggregateRegistry* aggregates = nullptr,
                    ExecOptions options = {});

  /// Executes a full query (single select or UNION ALL). When `trace` is
  /// non-null, the physical plan taken is recorded as children of it (one
  /// span per operator step; for unions, one "union branch N:" span per
  /// branch). The span tree is deterministic across thread counts except
  /// for the per-span wall times. `trace` must not be shared with any
  /// concurrent Execute() call.
  Result<RowSet> Execute(const sql::Query& query,
                         obs::TraceSpan* trace = nullptr) const;

  /// Parses and executes SQL text.
  Result<RowSet> ExecuteSql(const std::string& sql) const;

  /// Executes `query` while recording the physical plan actually taken —
  /// access paths (index lookup vs scan), join order and methods, row
  /// counts per step — and returns its text description. Runs at full
  /// parallelism; the output is identical at every thread count.
  Result<std::string> Explain(const sql::Query& query) const;
  Result<std::string> ExplainSql(const std::string& sql) const;

  /// EXPLAIN ANALYZE: like Explain(), but each plan line additionally
  /// carries its key/value attributes (row counts, estimates) and measured
  /// wall time. Everything except the timings is deterministic.
  Result<std::string> ExplainAnalyze(const sql::Query& query) const;
  Result<std::string> ExplainAnalyzeSql(const std::string& sql) const;

  /// EXPLAIN ANALYZE as Chrome trace-event JSON (obs::TraceToChromeJson):
  /// runs the query with tracing on and renders the span tree for
  /// ui.perfetto.dev / chrome://tracing, parallel subquery fan-outs on
  /// their own tracks.
  Result<std::string> ExplainAnalyzeChromeJson(const sql::Query& query) const;
  Result<std::string> ExplainAnalyzeChromeJsonSql(const std::string& sql) const;

  const ExecOptions& options() const { return options_; }

  /// Snapshot of the cumulative counters.
  ExecStats stats() const;
  /// Zeroes every local counter and thread_seconds() (registry mirrors
  /// keep their totals).
  void ResetStats();

  /// Rows physically examined by access paths: the whole table on a scan,
  /// only the matches when an index snapshot answers a probe. This is the
  /// counter where indexes show up. Deliberately NOT part of ExecStats:
  /// ExecStats is the *logical* cost of the plan and must stay identical
  /// with indexes on or off; rows_examined is the physical work, which is
  /// exactly what indexes are allowed to change.
  size_t rows_examined() const { return counters_.Value(kRowsExamined); }

  /// Cumulative wall time spent inside morsel bodies, summed across all
  /// threads (the caller's inline morsels included) — the "thread-seconds"
  /// a query burned, as opposed to its elapsed time. Deliberately NOT part
  /// of ExecStats: it is timing-derived and would break ExecStats's
  /// cross-thread-count equality contract.
  double thread_seconds() const { return thread_seconds_.Value(); }

 private:
  /// Every counter the executor keeps, indexing the counter table in
  /// executor.cc (one row each: series, help, ExecStats field). The order
  /// is the registration order, hence the exposition order.
  enum ExecCounter : size_t {
    kQueries,
    kRowsScanned,
    kRowsJoined,
    kRowsOutput,
    kSubqueries,
    kRowsExamined,
    kPathScan,
    kPathProbe,
    kPathRange,
    kRowsSaved,
    kNumCounters,
  };

  Result<RowSet> ExecuteSelect(const sql::SelectQuery& q,
                               obs::TraceSpan* span) const;

  /// The pool parallel regions run on: the injected shared pool when the
  /// options carry one, else the per-instance pool (null when serial).
  common::ThreadPool* ActivePool() const {
    return options_.pool != nullptr ? options_.pool : pool_.get();
  }

  /// True when parallel regions may actually fan out: a pool exists and it
  /// can actually add parallelism (a 0-worker shared pool is serial).
  /// Tracing no longer forces serial execution — every fan-out records into
  /// per-task span slots merged in index order.
  bool ParallelEnabled() const { return options_.parallelism() > 1; }

  /// Deterministic morsel split for an n-row input under current options:
  /// a single range when the executor is serial.
  std::vector<std::pair<size_t, size_t>> MorselsFor(size_t n) const {
    return common::MorselRanges(
        n, options_.morsel_rows,
        ParallelEnabled() ? 4 * options_.parallelism() : 1);
  }

  /// Runs body(m, scope) -> Status for each morsel m in [0, n) through
  /// common::ThreadPool::ParallelFor: inline with `scope` itself when the
  /// executor is serial or n == 1, else as pool tasks that each get their
  /// own copy of `scope` (its resolution memo is not thread-safe to share).
  /// Polls the cancel token before each morsel (the morsel-boundary
  /// checkpoint) and adds each body's wall time to thread_seconds().
  /// Returns the lowest-index failure, as a serial loop would.
  template <typename Body>
  Status ForEachMorsel(size_t n, const Scope& scope, const Body& body) const;

  /// OK, or the cancellation status when ExecOptions::cancel has fired.
  Status CheckCancel() const {
    return options_.cancel == nullptr ? Status::OK()
                                      : options_.cancel->Check();
  }

  /// Bulk counter accumulation into the local counter and its registry
  /// mirror (when a registry is configured). Called at region boundaries,
  /// never per row.
  void Add(ExecCounter counter, size_t n = 1) const {
    counters_.Add(counter, n);
  }

  const storage::Database* db_;
  const AggregateRegistry* aggregates_;
  ExecOptions options_;
  std::unique_ptr<common::ThreadPool> pool_;
  /// Counters are atomic so concurrent Execute() calls and parallel morsels
  /// accumulate exactly; increments are bulk (per region / per worker
  /// merge), never per-row.
  mutable obs::MirroredCounters<kNumCounters> counters_;
  mutable obs::Gauge thread_seconds_;
};

}  // namespace qp::exec
