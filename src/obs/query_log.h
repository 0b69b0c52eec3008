// Structured query log: a fixed-capacity, lock-free ring of per-request
// records written by serve::Session::Personalize. Each record captures who
// asked what (user id, query fingerprint), how it was answered (algorithm,
// K/L, selected preferences, cache hit/miss per serving stage), and what it
// cost (rows scanned/joined/materialized, subqueries, thread-seconds, and
// a per-stage latency breakdown measured with plain timers — logging never
// forces trace-tree construction). Every request is recorded; the ring
// keeps the last QueryLog::kCapacity.
//
// Determinism contract (inherited from TraceSpan): every field of a record
// EXCEPT the *_seconds timings is a deterministic function of the request
// stream — byte identical at every thread count. DeterministicString()
// renders exactly that subset; the differential tests diff it across
// 1/2/8 threads.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/ring.h"

namespace qp::obs {

/// \brief One per-request record of the query log.
///
/// The caller (serve::Session) fills every field except `seq`, which
/// QueryLog::Record assigns.
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
  double queue_seconds = 0.0;  ///< admission -> dispatch wait (timing)

  // --- timings (excluded from the deterministic render) ---
  double total_seconds = 0.0;
  double state_seconds = 0.0;      ///< "session state" stage
  double selection_seconds = 0.0;  ///< "selection" stage
  double plan_seconds = 0.0;       ///< "plan" stage
  double execute_seconds = 0.0;    ///< "execute: spa|ppa" stage
  double thread_seconds = 0.0;     ///< summed morsel wall time, all threads

  /// Renders every deterministic field (everything except the *_seconds
  /// timings), one `key=value` pair per field on a single line.
  /// Byte-identical across thread counts for the same request stream.
  std::string DeterministicString() const;

  /// The answer-identity subset of DeterministicString: who asked what and
  /// what came back — WITHOUT the cache-outcome fields (state_reused,
  /// state_outcome, cache hits). An incremental session that repairs its
  /// state and a cold session that rebuilds from scratch must agree on
  /// this projection byte for byte even though their cache outcomes
  /// legitimately differ; the churn differential tests diff it.
  std::string AnswerIdentityString() const;

  /// DeterministicString plus the timing fields — the human-facing
  /// spelling used by Dump() and the shell's \log.
  std::string ToString() const;
};

/// \brief Fixed-capacity ring of the most recent QueryLogRecords.
///
/// Thread safety: Record and Snapshot may be called concurrently from any
/// number of threads (see OverwriteRing for the slot discipline).
class QueryLog {
 public:
  /// Records the ring keeps; older ones are overwritten.
  static constexpr size_t kCapacity = 1024;

  /// Assigns `record.seq` and appends the record to the ring.
  void Record(QueryLogRecord record);

  /// The kept records, oldest first.
  std::vector<QueryLogRecord> Snapshot() const;

  /// Human-readable dump of the kept records (ToString per line), newest
  /// last, under a header line with the seen and shown counts.
  std::string Dump() const;

  uint64_t seen() const { return seen_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> seen_{0};
  OverwriteRing<QueryLogRecord> ring_{kCapacity};
};

}  // namespace qp::obs
