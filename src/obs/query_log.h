// Structured query log: a fixed-capacity, lock-free ring of per-request
// records written by serve::Session::Personalize. Each record captures who
// asked what (user id, query fingerprint), how it was answered (algorithm,
// K/L, selected preferences, cache hit/miss per serving stage), what it
// cost (rows scanned/joined/materialized, subqueries, thread-seconds, and
// a per-stage latency breakdown measured with plain timers — logging never
// forces trace-tree construction), and why it was retained (probabilistic
// sample and/or slow-query threshold).
//
// Determinism contract (inherited from TraceSpan): every field of a
// retained record EXCEPT the *_seconds timings and the timing-derived
// `slow` flag is a deterministic function of the request stream — byte
// identical at every thread count. DeterministicString() renders exactly
// that subset; the differential tests diff it across 1/2/8 threads.
//
// Retention: each request is admitted if the deterministic sampler keeps
// it (hash of fingerprint and sequence number against sample_rate — NOT
// rand(), so retention is reproducible) OR it is slow. "Slow" means
// total_seconds >= slow_seconds when configured, else an adaptive
// threshold: the p99 (configurable) of the log's own latency histogram
// once enough observations exist (Histogram::Quantile).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/ring.h"

namespace qp::obs {

/// \brief One per-request record of the query log.
///
/// The caller (serve::Session) fills every field except `seq`, `sampled`
/// and `slow`, which QueryLog::Record assigns on admission.
struct QueryLogRecord {
  // --- identity ---
  uint64_t seq = 0;          ///< admission sequence (assigned by Record)
  std::string user_id;
  std::string fingerprint;   ///< deterministic hash of query + options

  // --- how it was answered ---
  std::string algorithm;     ///< "spa" or "ppa"
  size_t k = 0;              ///< top-K preferences selected
  size_t l = 0;              ///< integration depth L
  size_t selected_preferences = 0;
  bool state_reused = false;        ///< session state epoch still valid
  /// How the session state was obtained: "reused" | "built" |
  /// "stats_refresh" | "repaired" | "rebuilt" (serve::StateOutcomeName).
  /// Distinguishes a delta-sized graph repair from a wholesale rebuild.
  std::string state_outcome = "reused";
  bool selection_cache_hit = false;
  bool plan_cache_hit = false;

  // --- what it produced / cost ---
  size_t rows_returned = 0;
  size_t subqueries_executed = 0;
  size_t rows_scanned = 0;
  size_t rows_joined = 0;
  size_t rows_materialized = 0;
  /// Deadline/cancellation cut the answer to a progressive prefix
  /// (AnswerStats::partial); rounds_run is the PPA cut round.
  bool partial = false;
  size_t rounds_run = 0;
  /// Access-path choices the executor made for this request, one count per
  /// base source (AccessPathKind). The CHOICE is logical — made from the
  /// query shape and estimated rows, never from whether an index actually
  /// existed — so these are deterministic and part of both projections.
  size_t paths_scan = 0;
  size_t paths_probe = 0;
  size_t paths_range = 0;
  /// Mutations replayed by an incremental state repair (delta size); 0 for
  /// every other state outcome. Deterministic for a fixed request stream
  /// but legitimately different between incremental and cold sessions, so
  /// it joins DeterministicString (pinned across thread counts) and NOT
  /// AnswerIdentityString (diffed incremental-vs-cold).
  size_t repaired_mutations = 0;

  // --- admission (filled only for scheduler-dispatched requests) ---
  /// Request went through serve::Scheduler. Direct Session::Personalize
  /// calls leave the admission block at its defaults, which render
  /// identically to pre-scheduler logs.
  bool scheduled = false;
  std::string lane;          ///< "interactive" | "normal" | "batch"
  size_t shard = 0;          ///< worker shard the user hashed to
  /// 0-based attempt number (>0 means retried). Timing-dependent under
  /// real failures, so ToString-only — but deterministic in tests that
  /// script failures.
  size_t attempt = 0;
  double queue_seconds = 0.0;  ///< admission -> dispatch wait (timing)

  // --- timings (excluded from the deterministic render) ---
  double total_seconds = 0.0;
  double state_seconds = 0.0;      ///< "session state" stage
  double selection_seconds = 0.0;  ///< "selection" stage
  double plan_seconds = 0.0;       ///< "plan" stage
  double execute_seconds = 0.0;    ///< "execute: spa|ppa" stage
  double thread_seconds = 0.0;     ///< summed morsel wall time, all threads

  // --- retention (assigned by Record) ---
  bool sampled = false;  ///< kept by the deterministic sampler
  bool slow = false;     ///< kept by the slow-query threshold (timing-derived)

  /// Renders every deterministic field (everything except the *_seconds
  /// timings and `slow`), one `key=value` pair per field on a single line.
  /// Byte-identical across thread counts for the same request stream.
  std::string DeterministicString() const;

  /// The answer-identity subset of DeterministicString: who asked what and
  /// what came back — WITHOUT the cache-outcome fields (state_reused,
  /// state_outcome, cache hits). An incremental session that repairs its
  /// state and a cold session that rebuilds from scratch must agree on
  /// this projection byte for byte even though their cache outcomes
  /// legitimately differ; the churn differential tests diff it.
  std::string AnswerIdentityString() const;

  /// DeterministicString plus the timing fields and retention flags —
  /// the human-facing spelling used by Dump() and the shell's \log.
  std::string ToString() const;
};

/// \brief Fixed-capacity ring of QueryLogRecords with deterministic
/// sampling and a slow-query always-keep path.
///
/// Thread safety: Record and Snapshot may be called concurrently from any
/// number of threads (see OverwriteRing for the slot discipline).
class QueryLog {
 public:
  struct Options {
    size_t capacity = 1024;
    /// Fraction of requests retained by the sampler, in [0, 1]. 1.0 keeps
    /// everything; 0.0 keeps only slow queries.
    double sample_rate = 1.0;
    /// Fixed slow-query threshold in seconds. Unset selects the adaptive
    /// threshold (quantile of observed latency); <= 0 disables the slow
    /// path entirely when set.
    std::optional<double> slow_seconds;
    /// Adaptive threshold parameters: the threshold is
    /// Quantile(adaptive_quantile) of all observed total_seconds, active
    /// only once adaptive_min_count observations exist.
    uint64_t adaptive_min_count = 128;
    double adaptive_quantile = 0.99;
  };

  QueryLog();  ///< default Options
  explicit QueryLog(Options options);

  /// Admits one request: assigns `record.seq`, decides `sampled` / `slow`,
  /// feeds the latency histogram, and appends to the ring iff retained.
  /// Returns true when the record was retained.
  bool Record(QueryLogRecord record);

  /// The slow-query threshold currently in force: the configured
  /// slow_seconds if set, else the adaptive quantile estimate (infinity
  /// until adaptive_min_count observations exist).
  double SlowThreshold() const;

  /// Deterministic sampling decision for (fingerprint, seq) — exposed so
  /// tests can predict retention without replaying timings.
  bool WouldSample(const std::string& fingerprint, uint64_t seq) const;

  /// Retained records, oldest first.
  std::vector<QueryLogRecord> Snapshot() const;

  /// Human-readable dump of the retained records (ToString per line),
  /// newest last, with a header line summarizing seen/retained counts.
  std::string Dump() const;

  uint64_t seen() const { return seen_.load(std::memory_order_relaxed); }
  uint64_t retained() const {
    return retained_.load(std::memory_order_relaxed);
  }
  const Options& options() const { return options_; }

 private:
  Options options_;
  std::atomic<uint64_t> seen_{0};
  std::atomic<uint64_t> retained_{0};
  /// Latency of every seen request (not just retained ones) — the sample
  /// the adaptive slow threshold is estimated from.
  Histogram latency_;
  OverwriteRing<QueryLogRecord> ring_;
};

}  // namespace qp::obs
