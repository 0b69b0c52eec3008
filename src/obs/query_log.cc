#include "obs/query_log.h"

#include <cstdio>

namespace qp::obs {

namespace {

void AppendField(const char* key, const std::string& value,
                 std::string* out) {
  if (!out->empty() && out->back() != ' ') out->push_back(' ');
  out->append(key);
  out->push_back('=');
  out->append(value);
}

void AppendField(const char* key, uint64_t value, std::string* out) {
  AppendField(key, std::to_string(value), out);
}

void AppendField(const char* key, bool value, std::string* out) {
  AppendField(key, std::string(value ? "true" : "false"), out);
}

void AppendSeconds(const char* key, double value, std::string* out) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  AppendField(key, std::string(buf), out);
}

}  // namespace

std::string QueryLogRecord::AnswerIdentityString() const {
  std::string out;
  AppendField("seq", seq, &out);
  AppendField("user", user_id, &out);
  AppendField("fingerprint", fingerprint, &out);
  AppendField("algorithm", algorithm, &out);
  AppendField("k", static_cast<uint64_t>(k), &out);
  AppendField("l", static_cast<uint64_t>(l), &out);
  AppendField("selected_preferences",
              static_cast<uint64_t>(selected_preferences), &out);
  AppendField("rows_returned", static_cast<uint64_t>(rows_returned), &out);
  AppendField("subqueries_executed",
              static_cast<uint64_t>(subqueries_executed), &out);
  AppendField("rows_scanned", static_cast<uint64_t>(rows_scanned), &out);
  AppendField("rows_joined", static_cast<uint64_t>(rows_joined), &out);
  AppendField("rows_materialized", static_cast<uint64_t>(rows_materialized),
              &out);
  AppendField("partial", partial, &out);
  AppendField("rounds_run", static_cast<uint64_t>(rounds_run), &out);
  AppendField("paths_scan", static_cast<uint64_t>(paths_scan), &out);
  AppendField("paths_probe", static_cast<uint64_t>(paths_probe), &out);
  AppendField("paths_range", static_cast<uint64_t>(paths_range), &out);
  AppendField("scheduled", scheduled, &out);
  AppendField("lane", lane, &out);
  AppendField("shard", static_cast<uint64_t>(shard), &out);
  return out;
}

std::string QueryLogRecord::DeterministicString() const {
  std::string out;
  AppendField("seq", seq, &out);
  AppendField("user", user_id, &out);
  AppendField("fingerprint", fingerprint, &out);
  AppendField("algorithm", algorithm, &out);
  AppendField("k", static_cast<uint64_t>(k), &out);
  AppendField("l", static_cast<uint64_t>(l), &out);
  AppendField("selected_preferences",
              static_cast<uint64_t>(selected_preferences), &out);
  AppendField("state_reused", state_reused, &out);
  AppendField("state_outcome", state_outcome, &out);
  AppendField("selection_cache_hit", selection_cache_hit, &out);
  AppendField("plan_cache_hit", plan_cache_hit, &out);
  AppendField("rows_returned", static_cast<uint64_t>(rows_returned), &out);
  AppendField("subqueries_executed",
              static_cast<uint64_t>(subqueries_executed), &out);
  AppendField("rows_scanned", static_cast<uint64_t>(rows_scanned), &out);
  AppendField("rows_joined", static_cast<uint64_t>(rows_joined), &out);
  AppendField("rows_materialized", static_cast<uint64_t>(rows_materialized),
              &out);
  AppendField("partial", partial, &out);
  AppendField("rounds_run", static_cast<uint64_t>(rounds_run), &out);
  AppendField("paths_scan", static_cast<uint64_t>(paths_scan), &out);
  AppendField("paths_probe", static_cast<uint64_t>(paths_probe), &out);
  AppendField("paths_range", static_cast<uint64_t>(paths_range), &out);
  AppendField("repaired_mutations", static_cast<uint64_t>(repaired_mutations),
              &out);
  AppendField("scheduled", scheduled, &out);
  AppendField("lane", lane, &out);
  AppendField("shard", static_cast<uint64_t>(shard), &out);
  return out;
}

std::string QueryLogRecord::ToString() const {
  std::string out = DeterministicString();
  AppendSeconds("queue_seconds", queue_seconds, &out);
  AppendSeconds("total_seconds", total_seconds, &out);
  AppendSeconds("state_seconds", state_seconds, &out);
  AppendSeconds("selection_seconds", selection_seconds, &out);
  AppendSeconds("plan_seconds", plan_seconds, &out);
  AppendSeconds("execute_seconds", execute_seconds, &out);
  AppendSeconds("thread_seconds", thread_seconds, &out);
  return out;
}

void QueryLog::Record(QueryLogRecord record) {
  record.seq = seen_.fetch_add(1, std::memory_order_relaxed);
  ring_.Append(std::move(record));
}

std::vector<QueryLogRecord> QueryLog::Snapshot() const {
  return ring_.Snapshot();
}

std::string QueryLog::Dump() const {
  const std::vector<QueryLogRecord> records = Snapshot();
  std::string out = "query log: seen=" + std::to_string(seen()) +
                    " showing=" + std::to_string(records.size()) + "\n";
  for (const auto& record : records) {
    out += record.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace qp::obs
