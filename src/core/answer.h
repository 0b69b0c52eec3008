// Personalized answers: ranked tuples annotated with the preferences they
// satisfy and fail (the paper's "self-explanatory" requirement, Section 5).

#pragma once

#include <string>
#include <vector>

#include "core/select_top_k.h"
#include "exec/executor.h"
#include "exec/row_set.h"

namespace qp::core {

/// How one preference turned out for one tuple.
struct PreferenceOutcome {
  /// Index into the answer's `preferences` vector.
  size_t pref_index = 0;
  /// The tuple's degree for that preference (elastic-aware): >= 0 when
  /// satisfied, <= 0 when failed.
  double degree = 0.0;

  bool operator==(const PreferenceOutcome&) const = default;
};

/// \brief One tuple of a personalized answer.
struct PersonalizedTuple {
  /// The base query's projected values.
  storage::Row values;
  /// Overall degree of interest (ranking-function output).
  double doi = 0.0;
  /// Outcomes per preference. SPA answers leave these empty (the paper
  /// notes SPA is not self-explanatory); PPA fills both.
  std::vector<PreferenceOutcome> satisfied;
  std::vector<PreferenceOutcome> failed;

  bool operator==(const PersonalizedTuple&) const = default;
};

/// Wall-clock and work statistics for one personalization run.
struct AnswerStats {
  double selection_seconds = 0.0;
  double generation_seconds = 0.0;
  /// Seconds until the first tuple was emitted (PPA; equals
  /// generation_seconds for SPA, which emits only at the end).
  double first_response_seconds = 0.0;
  size_t queries_executed = 0;
  size_t tuples_returned = 0;
  // Resource accounting from the generation executor's ExecStats. Like
  // queries_executed these are deterministic — identical at every thread
  // count — so the query log can include them in its deterministic render.
  size_t rows_scanned = 0;
  size_t rows_joined = 0;
  /// Access-path choices per base source (ExecStats::paths_*). Logical —
  /// made from query shape and estimates, never from registered indexes —
  /// so deterministic and part of SameAnswerPayload.
  size_t paths_scan = 0;
  size_t paths_probe = 0;
  size_t paths_range = 0;
  /// Rows materialized into operator outputs (ExecStats::rows_output).
  size_t rows_materialized = 0;
  /// Summed morsel wall time across threads, the caller's inline morsels
  /// included (timing-derived; excluded from every determinism comparison).
  double thread_seconds = 0.0;
  /// Rows *physically* examined: executor access paths plus PPA's prepared
  /// probe walks. Unlike rows_scanned (the logical plan cost, identical
  /// with indexes on or off), this is where secondary indexes show up —
  /// an indexed probe examines its matches, a scan fallback examines the
  /// relation. Deterministic at every thread count for a given index set,
  /// but excluded from SameAnswerPayload because it measures the physical
  /// backing, not the answer.
  size_t rows_examined = 0;
  /// True when a deadline/cancellation cut PPA off between rounds: the
  /// answer holds the progressive prefix emitted so far instead of the full
  /// result. Always false for SPA (which has no prefix to return) and for
  /// uncancelled runs. Given the same cut round, a partial answer is
  /// byte-identical at every thread count.
  bool partial = false;
  /// S/A query rounds (plus the complement scan) PPA actually completed.
  /// For a partial answer this IS the cut round: exactly `rounds_run`
  /// rounds ran before the cut, so the tuples equal the full answer's
  /// prefix as of that round boundary. Deterministic; 0 for SPA.
  size_t rounds_run = 0;
};

/// \brief A complete personalized answer.
struct PersonalizedAnswer {
  /// Output column names (the base query's select list).
  std::vector<exec::OutputColumn> columns;
  /// Tuples in decreasing doi.
  std::vector<PersonalizedTuple> tuples;
  /// The top-K preferences that shaped the answer.
  std::vector<SelectedPreference> preferences;
  AnswerStats stats;

  /// Renders tuple `i` with its doi and (when available) the satisfied /
  /// failed preference conditions — the self-explanation of Section 5.
  std::string ExplainTuple(size_t i) const;

  /// Renders the whole answer as a table (capped at `max_rows`).
  std::string ToString(size_t max_rows = 20) const;
};

/// Fills the answer's work and resource statistics from the executor that
/// generated it: tuples_returned, the ExecStats-derived counters,
/// thread_seconds and the executor's rows_examined (PPA adds its prepared
/// walks' rows on top).
void FillWorkStats(const exec::Executor& executor, PersonalizedAnswer* answer);

/// True when two answers carry the same payload: columns, tuples (values,
/// dois, explanations, order), selected preferences, and the deterministic
/// work counters (queries_executed, tuples_returned). Wall-clock timing
/// fields are excluded — they are the only thing allowed to differ between
/// a warm serve-cache hit and a fresh cold run.
bool SameAnswerPayload(const PersonalizedAnswer& a, const PersonalizedAnswer& b);

}  // namespace qp::core
