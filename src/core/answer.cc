#include "core/answer.h"

#include <algorithm>

#include "common/string_util.h"

namespace qp::core {

std::string PersonalizedAnswer::ExplainTuple(size_t i) const {
  const PersonalizedTuple& t = tuples[i];
  std::string out = "(";
  for (size_t c = 0; c < t.values.size(); ++c) {
    if (c > 0) out += ", ";
    out += t.values[c].ToString();
  }
  out += ")  doi=" + FormatDouble(t.doi, 4);
  if (!t.satisfied.empty() || !t.failed.empty()) {
    out += "\n  satisfies:";
    if (t.satisfied.empty()) out += " (none)";
    for (const auto& o : t.satisfied) {
      out += "\n    [" + FormatDouble(o.degree, 3) + "] " +
             preferences[o.pref_index].pref.ConditionString();
    }
    out += "\n  fails:";
    if (t.failed.empty()) out += " (none)";
    for (const auto& o : t.failed) {
      out += "\n    [" + FormatDouble(o.degree, 3) + "] " +
             preferences[o.pref_index].pref.ConditionString();
    }
  }
  return out;
}

std::string PersonalizedAnswer::ToString(size_t max_rows) const {
  exec::RowSet rs(columns);
  std::vector<exec::OutputColumn> cols = columns;
  cols.push_back({"", "doi"});
  exec::RowSet view(cols);
  const size_t shown = std::min(max_rows, tuples.size());
  for (size_t i = 0; i < shown; ++i) {
    storage::Row row = tuples[i].values;
    row.emplace_back(tuples[i].doi);
    view.Add(std::move(row));
  }
  std::string out = view.ToString(max_rows);
  if (shown < tuples.size()) {
    out += "... (" + std::to_string(tuples.size() - shown) + " more)\n";
  }
  return out;
}

void FillWorkStats(const exec::Executor& executor, PersonalizedAnswer* answer) {
  const exec::ExecStats exec_stats = executor.stats();
  AnswerStats& stats = answer->stats;
  stats.queries_executed = exec_stats.queries_executed;
  stats.tuples_returned = answer->tuples.size();
  stats.rows_scanned = exec_stats.rows_scanned;
  stats.rows_joined = exec_stats.rows_joined;
  stats.rows_materialized = exec_stats.rows_output;
  stats.paths_scan = exec_stats.paths_scan;
  stats.paths_probe = exec_stats.paths_probe;
  stats.paths_range = exec_stats.paths_range;
  stats.thread_seconds = executor.thread_seconds();
  stats.rows_examined = executor.rows_examined();
}

bool SameAnswerPayload(const PersonalizedAnswer& a,
                       const PersonalizedAnswer& b) {
  return a.columns == b.columns && a.tuples == b.tuples &&
         a.preferences == b.preferences &&
         a.stats.queries_executed == b.stats.queries_executed &&
         a.stats.tuples_returned == b.stats.tuples_returned &&
         a.stats.rows_scanned == b.stats.rows_scanned &&
         a.stats.rows_joined == b.stats.rows_joined &&
         a.stats.rows_materialized == b.stats.rows_materialized &&
         a.stats.paths_scan == b.stats.paths_scan &&
         a.stats.paths_probe == b.stats.paths_probe &&
         a.stats.paths_range == b.stats.paths_range &&
         a.stats.partial == b.stats.partial &&
         a.stats.rounds_run == b.stats.rounds_run;
}

}  // namespace qp::core
