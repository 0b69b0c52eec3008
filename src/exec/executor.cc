#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "index/access_path.h"
#include "index/catalog.h"
#include "obs/trace_export.h"
#include "sql/parser.h"
#include "stats/table_stats.h"

namespace qp::exec {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::SelectQuery;
using sql::TableRef;
using storage::Row;
using storage::Value;

namespace {

/// Hash of a full row, for DISTINCT.
struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = 1469598103934665603ULL;
    for (const auto& v : row) {
      h ^= v.Hash();
      h *= 1099511628211ULL;
    }
    return h;
  }
};

/// One FROM source. Rows are materialized lazily: base tables stay as a
/// pointer until filtering so equality predicates can use hash indexes.
struct Source {
  std::string alias;
  std::vector<OutputColumn> columns;
  /// Base table (null for derived sources).
  const storage::Table* base = nullptr;
  std::vector<Row> rows;
  bool materialized = false;

  size_t EstimatedRows() const {
    return materialized ? rows.size() : base->num_rows();
  }
};

/// Collects the source indices referenced by column refs inside `expr`.
/// Unqualified columns are resolved by searching every source; unknown or
/// ambiguous names leave `resolvable` false so the conjunct becomes residual
/// (and fails with a precise error during evaluation).
void CollectSourceRefs(const Expr& expr, const std::vector<Source>& sources,
                       std::set<size_t>* refs, bool* resolvable) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef: {
      int found = -1;
      for (size_t s = 0; s < sources.size(); ++s) {
        if (!expr.table().empty() &&
            !EqualsIgnoreCase(sources[s].alias, expr.table())) {
          continue;
        }
        for (const auto& col : sources[s].columns) {
          if (EqualsIgnoreCase(col.name, expr.column())) {
            if (found >= 0 && found != static_cast<int>(s)) {
              *resolvable = false;
              return;
            }
            found = static_cast<int>(s);
          }
        }
      }
      if (found < 0) {
        *resolvable = false;
      } else {
        refs->insert(static_cast<size_t>(found));
      }
      return;
    }
    case ExprKind::kComparison:
    case ExprKind::kAnd:
    case ExprKind::kOr:
      CollectSourceRefs(*expr.left(), sources, refs, resolvable);
      CollectSourceRefs(*expr.right(), sources, refs, resolvable);
      return;
    case ExprKind::kNot:
    case ExprKind::kScalarFn:
      CollectSourceRefs(*expr.operand(), sources, refs, resolvable);
      return;
    case ExprKind::kInSubquery:
      // Only the needle references the outer scope.
      CollectSourceRefs(*expr.left(), sources, refs, resolvable);
      return;
    default:
      return;
  }
}

/// A join conjunct annotated with the two sources it connects.
struct JoinEdge {
  ExprPtr atom;
  size_t left_source;
  size_t right_source;
  // Column indices local to each source (for hash join).
  size_t left_col;
  size_t right_col;
};

int FindLocalColumn(const Source& src, const std::string& qualifier,
                    const std::string& name) {
  if (!qualifier.empty() && !EqualsIgnoreCase(src.alias, qualifier)) return -1;
  int found = -1;
  for (size_t i = 0; i < src.columns.size(); ++i) {
    if (EqualsIgnoreCase(src.columns[i].name, name)) {
      if (found >= 0) return -1;
      found = static_cast<int>(i);
    }
  }
  return found;
}

/// Evaluates expression `e` where aggregate calls are replaced by
/// precomputed values (keyed by their SQL text).
class AggregateEnv {
 public:
  AggregateEnv(const Scope* scope, const Row* representative,
               const std::unordered_map<std::string, Value>* agg_values)
      : scope_(scope), row_(representative), agg_values_(agg_values) {}

  Result<Value> Eval(const Expr& e) const {
    switch (e.kind()) {
      case ExprKind::kAggregateCall: {
        auto it = agg_values_->find(e.ToString());
        if (it == agg_values_->end()) {
          return Status::Internal("aggregate not precomputed: " + e.ToString());
        }
        return it->second;
      }
      case ExprKind::kComparison: {
        QP_ASSIGN_OR_RETURN(Value l, Eval(*e.left()));
        QP_ASSIGN_OR_RETURN(Value r, Eval(*e.right()));
        if (l.is_null() || r.is_null()) return Value::Null();
        const int cmp = l.Compare(r);
        bool result = false;
        switch (e.op()) {
          case BinaryOp::kEq: result = cmp == 0; break;
          case BinaryOp::kNe: result = cmp != 0; break;
          case BinaryOp::kLt: result = cmp < 0; break;
          case BinaryOp::kLe: result = cmp <= 0; break;
          case BinaryOp::kGt: result = cmp > 0; break;
          case BinaryOp::kGe: result = cmp >= 0; break;
        }
        return Value(static_cast<int64_t>(result ? 1 : 0));
      }
      case ExprKind::kAnd: {
        QP_ASSIGN_OR_RETURN(Value l, Eval(*e.left()));
        QP_ASSIGN_OR_RETURN(Value r, Eval(*e.right()));
        const bool res = !l.is_null() && l.ToNumeric() != 0 && !r.is_null() &&
                         r.ToNumeric() != 0;
        return Value(static_cast<int64_t>(res ? 1 : 0));
      }
      case ExprKind::kOr: {
        QP_ASSIGN_OR_RETURN(Value l, Eval(*e.left()));
        QP_ASSIGN_OR_RETURN(Value r, Eval(*e.right()));
        const bool res = (!l.is_null() && l.ToNumeric() != 0) ||
                         (!r.is_null() && r.ToNumeric() != 0);
        return Value(static_cast<int64_t>(res ? 1 : 0));
      }
      case ExprKind::kNot: {
        QP_ASSIGN_OR_RETURN(Value v, Eval(*e.operand()));
        if (v.is_null()) return Value::Null();
        return Value(static_cast<int64_t>(v.ToNumeric() == 0 ? 1 : 0));
      }
      default:
        return EvalScalar(e, *scope_, *row_, nullptr);
    }
  }

 private:
  const Scope* scope_;
  const Row* row_;
  const std::unordered_map<std::string, Value>* agg_values_;
};

/// True when every predicate in `filters` holds on `row` (stops at the
/// first that does not).
Result<bool> AllHold(const std::vector<ExprPtr>& filters, const Scope& scope,
                     const Row& row, const SubqueryResults* subqueries) {
  for (const auto& f : filters) {
    QP_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*f, scope, row, subqueries));
    if (!ok) return false;
  }
  return true;
}

/// Concatenates per-morsel outputs in morsel order; a single part is moved
/// whole.
std::vector<Row> Splice(std::vector<std::vector<Row>>&& parts) {
  if (parts.size() == 1) return std::move(parts[0]);
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<Row> out;
  out.reserve(total);
  for (auto& part : parts) {
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

/// Wall time since `t0` in seconds (trace and thread_seconds timing).
double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void CollectAggregateCalls(const ExprPtr& e,
                           std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  switch (e->kind()) {
    case ExprKind::kAggregateCall:
      out->push_back(e.get());
      return;
    case ExprKind::kComparison:
    case ExprKind::kAnd:
    case ExprKind::kOr:
      CollectAggregateCalls(e->left(), out);
      CollectAggregateCalls(e->right(), out);
      return;
    case ExprKind::kNot:
    case ExprKind::kScalarFn:
      CollectAggregateCalls(e->operand(), out);
      return;
    default:
      return;
  }
}

constexpr char kPathHelp[] =
    "Access-path choices by kind (logical: independent of which indexes "
    "exist)";

/// The executor's counters, one row each, in Executor::ExecCounter order.
/// rows_examined and rows_saved are physical (they move with the set of
/// registered indexes), so no ExecStats field carries them.
constexpr obs::CounterRow<ExecStats> kCounterTable[] = {
    {"qp_exec_queries_total", "Queries executed",
     &ExecStats::queries_executed},
    {"qp_exec_rows_scanned_total", "Base/derived rows scanned",
     &ExecStats::rows_scanned},
    {"qp_exec_rows_joined_total", "Rows produced by join steps",
     &ExecStats::rows_joined},
    {"qp_exec_rows_output_total", "Rows returned to callers",
     &ExecStats::rows_output},
    {"qp_exec_subqueries_materialized_total",
     "IN-subqueries materialized to hash sets",
     &ExecStats::subqueries_materialized},
    {"qp_exec_rows_examined_total",
     "Rows physically examined by access paths"},
    {"qp_index_path_total{kind=\"scan\"}", kPathHelp, &ExecStats::paths_scan},
    {"qp_index_path_total{kind=\"probe\"}", kPathHelp,
     &ExecStats::paths_probe},
    {"qp_index_path_total{kind=\"range\"}", kPathHelp,
     &ExecStats::paths_range},
    {"qp_index_rows_saved_total",
     "Rows an index snapshot avoided examining vs a full scan (table rows "
     "minus rows examined, summed per indexed source)"},
};

}  // namespace

Executor::Executor(const storage::Database* db,
                   const AggregateRegistry* aggregates, ExecOptions options)
    : db_(db), aggregates_(aggregates), options_(options) {
  static_assert(std::size(kCounterTable) == kNumCounters);
  if (options_.pool == nullptr && options_.num_threads > 1) {
    pool_ = std::make_unique<common::ThreadPool>(options_.num_threads - 1);
  }
  if (options_.metrics != nullptr) {
    counters_.Mirror(*options_.metrics, kCounterTable);
  }
}

ExecStats Executor::stats() const { return counters_.Read(kCounterTable); }

void Executor::ResetStats() {
  counters_.Reset();
  thread_seconds_.Set(0.0);
}

Result<RowSet> Executor::ExecuteSql(const std::string& sql) const {
  QP_ASSIGN_OR_RETURN(sql::QueryPtr q, sql::ParseQuery(sql));
  return Execute(*q);
}

Result<std::string> Executor::Explain(const sql::Query& query) const {
  obs::TraceSpan root("explain");
  QP_ASSIGN_OR_RETURN(RowSet result, Execute(query, &root));
  std::string out = root.RenderChildren(/*analyze=*/false);
  out += "result: " + std::to_string(result.num_rows()) + " rows\n";
  return out;
}

Result<std::string> Executor::ExplainSql(const std::string& sql) const {
  QP_ASSIGN_OR_RETURN(sql::QueryPtr q, sql::ParseQuery(sql));
  return Explain(*q);
}

Result<std::string> Executor::ExplainAnalyze(const sql::Query& query) const {
  obs::TraceSpan root("explain analyze");
  const auto t0 = std::chrono::steady_clock::now();
  QP_ASSIGN_OR_RETURN(RowSet result, Execute(query, &root));
  const double total = SecondsSince(t0);
  std::string out = root.RenderChildren(/*analyze=*/true);
  char buf[64];
  std::snprintf(buf, sizeof(buf), " [%.3f ms]", total * 1e3);
  out += "result: " + std::to_string(result.num_rows()) + " rows" + buf + "\n";
  return out;
}

Result<std::string> Executor::ExplainAnalyzeSql(const std::string& sql) const {
  QP_ASSIGN_OR_RETURN(sql::QueryPtr q, sql::ParseQuery(sql));
  return ExplainAnalyze(*q);
}

Result<std::string> Executor::ExplainAnalyzeChromeJson(
    const sql::Query& query) const {
  obs::TraceSpan root("query");
  const auto t0 = std::chrono::steady_clock::now();
  QP_ASSIGN_OR_RETURN(RowSet result, Execute(query, &root));
  root.set_seconds(SecondsSince(t0));
  root.AddAttr("rows", result.num_rows());
  return obs::TraceToChromeJson(root);
}

Result<std::string> Executor::ExplainAnalyzeChromeJsonSql(
    const std::string& sql) const {
  QP_ASSIGN_OR_RETURN(sql::QueryPtr q, sql::ParseQuery(sql));
  return ExplainAnalyzeChromeJson(*q);
}

template <typename Body>
Status Executor::ForEachMorsel(size_t n, const Scope& scope,
                               const Body& body) const {
  common::ThreadPool* pool = ParallelEnabled() ? ActivePool() : nullptr;
  const bool pooled = pool != nullptr && n > 1;
  return common::ThreadPool::ParallelFor(pool, n, [&](size_t m) -> Status {
    QP_RETURN_IF_ERROR(CheckCancel());
    const auto t0 = std::chrono::steady_clock::now();
    const Status status = pooled ? body(m, Scope(scope)) : body(m, scope);
    thread_seconds_.Add(SecondsSince(t0));
    return status;
  });
}

Result<RowSet> Executor::Execute(const sql::Query& query,
                                 obs::TraceSpan* trace) const {
  Add(kQueries);
  RowSet out;
  bool first = true;
  size_t branch_no = 0;
  for (const auto& branch : query.branches()) {
    obs::TraceSpan* branch_span = nullptr;
    if (query.is_union() && trace != nullptr) {
      branch_span =
          trace->AddChild("union branch " + std::to_string(branch_no + 1) + ":");
    }
    ++branch_no;
    obs::SpanTimer branch_timer(branch_span);
    auto part_result =
        ExecuteSelect(branch, query.is_union() ? branch_span : trace);
    branch_timer.Stop();
    QP_ASSIGN_OR_RETURN(RowSet part, std::move(part_result));
    if (branch_span != nullptr) branch_span->AddAttr("rows", part.num_rows());
    if (first) {
      out = std::move(part);
      first = false;
    } else {
      if (part.num_columns() != out.num_columns()) {
        return Status::InvalidArgument(
            "UNION ALL branches have different arities (" +
            std::to_string(out.num_columns()) + " vs " +
            std::to_string(part.num_columns()) + ")");
      }
      out.Append(std::move(part));
    }
  }
  // rows_output is counted by ExecuteSelect per branch; a union's total is
  // exactly the sum of its branches.
  return out;
}

Result<RowSet> Executor::ExecuteSelect(const SelectQuery& q,
                                       obs::TraceSpan* span) const {
  QP_RETURN_IF_ERROR(CheckCancel());
  if (q.select.empty()) {
    return Status::InvalidArgument("empty select list");
  }
  if (q.from.empty()) {
    return Status::InvalidArgument("empty FROM clause");
  }

  // ---- Resolve sources; derived tables execute eagerly, base tables stay
  // unmaterialized so equality filters can use hash indexes. ----
  std::vector<Source> sources;
  sources.reserve(q.from.size());
  for (const TableRef& ref : q.from) {
    Source src;
    src.alias = ToLower(ref.EffectiveAlias());
    for (const auto& other : sources) {
      if (other.alias == src.alias) {
        return Status::InvalidArgument("duplicate FROM alias '" + src.alias +
                                       "'");
      }
    }
    if (ref.derived != nullptr) {
      obs::TraceSpan* derived_span =
          span != nullptr ? span->AddChild("derived table '" + src.alias + "':")
                          : nullptr;
      obs::SpanTimer derived_timer(derived_span);
      auto sub_result = Execute(*ref.derived, derived_span);
      derived_timer.Stop();
      QP_ASSIGN_OR_RETURN(RowSet sub, std::move(sub_result));
      for (const auto& col : sub.columns()) {
        src.columns.push_back({src.alias, col.name});
      }
      src.rows = std::move(sub.rows());
      src.materialized = true;
      if (derived_span != nullptr) {
        derived_span->AddAttr("rows", src.rows.size());
      }
      Add(kRowsScanned, src.rows.size());
    } else {
      QP_ASSIGN_OR_RETURN(src.base, db_->GetTable(ref.table));
      for (const auto& col : src.base->schema().columns()) {
        src.columns.push_back({src.alias, col.name});
      }
    }
    sources.push_back(std::move(src));
  }

  // ---- Materialize IN-subqueries. Independent subqueries execute
  // concurrently across the pool; each one's hash set is built inside its
  // morsel and slotted by subquery index, so the resulting sets (and the
  // lowest-index error, if any) never depend on scheduling. ----
  SubqueryResults subquery_sets;
  {
    std::vector<const Expr*> sub_nodes;
    CollectSubqueries(q.where, &sub_nodes);
    CollectSubqueries(q.having, &sub_nodes);
    std::vector<std::unordered_set<Value, storage::ValueHash>> sets(
        sub_nodes.size());
    // Each subquery records into its own preallocated span slot; slots are
    // adopted in index order afterwards, so the trace tree is the same at
    // every thread count.
    std::vector<obs::TraceSpan> slots =
        obs::TraceSpan::MakeSlots(span != nullptr ? sub_nodes.size() : 0);
    QP_RETURN_IF_ERROR(ForEachMorsel(
        sub_nodes.size(), Scope(), [&](size_t n, const Scope&) -> Status {
          obs::TraceSpan* sub_span = span != nullptr ? &slots[n] : nullptr;
          if (sub_span != nullptr) {
            sub_span->set_name(
                std::string(sub_nodes[n]->negated() ? "NOT IN" : "IN") +
                " subquery (materialized to a hash set):");
          }
          obs::SpanTimer sub_timer(sub_span);
          QP_ASSIGN_OR_RETURN(RowSet sub,
                              Execute(*sub_nodes[n]->subquery(), sub_span));
          sub_timer.Stop();
          if (sub.num_columns() != 1) {
            return Status::InvalidArgument(
                "IN-subquery must return exactly one column");
          }
          sets[n].reserve(sub.num_rows());
          for (const auto& row : sub.rows()) {
            if (!row[0].is_null()) sets[n].insert(row[0]);
          }
          if (sub_span != nullptr) sub_span->AddAttr("rows", sets[n].size());
          Add(kSubqueries);
          return Status::OK();
        }));
    for (size_t n = 0; n < sub_nodes.size(); ++n) {
      if (span != nullptr) {
        obs::TraceSpan* sub_span = span->Adopt(std::move(slots[n]));
        // Track n+1 when there are several; a lone subquery stays on its
        // parent's track.
        if (sub_nodes.size() > 1) sub_span->set_track(n + 1);
      }
      subquery_sets.emplace(sub_nodes[n], std::move(sets[n]));
    }
  }

  // ---- Classify WHERE conjuncts. ----
  std::vector<std::vector<ExprPtr>> source_filters(sources.size());
  std::vector<JoinEdge> join_edges;
  std::vector<ExprPtr> residual;
  for (const ExprPtr& conjunct : sql::ConjunctsOf(q.where)) {
    storage::AttributeRef l, r;
    if (conjunct->IsJoinAtom(&l, &r)) {
      // Try to pin it to two distinct sources for a hash join.
      int ls = -1, rs = -1, lc = -1, rc = -1;
      for (size_t s = 0; s < sources.size(); ++s) {
        const int cl = FindLocalColumn(sources[s], l.table, l.column);
        if (cl >= 0 && ls < 0) {
          ls = static_cast<int>(s);
          lc = cl;
        }
        const int cr = FindLocalColumn(sources[s], r.table, r.column);
        if (cr >= 0 && rs < 0) {
          rs = static_cast<int>(s);
          rc = cr;
        }
      }
      if (ls >= 0 && rs >= 0 && ls != rs) {
        join_edges.push_back({conjunct, static_cast<size_t>(ls),
                              static_cast<size_t>(rs), static_cast<size_t>(lc),
                              static_cast<size_t>(rc)});
        continue;
      }
      if (ls >= 0 && rs >= 0 && ls == rs) {
        source_filters[ls].push_back(conjunct);
        continue;
      }
      residual.push_back(conjunct);
      continue;
    }
    std::set<size_t> refs;
    bool resolvable = true;
    CollectSourceRefs(*conjunct, sources, &refs, &resolvable);
    if (resolvable && refs.size() <= 1) {
      const size_t s = refs.empty() ? 0 : *refs.begin();
      source_filters[s].push_back(conjunct);
    } else {
      residual.push_back(conjunct);
    }
  }

  // The one filter pass over materialized rows (derived tables, join edges
  // internal to the joined result, residual predicates): keeps, in order,
  // the rows of `*rows` on which every predicate in `filters` holds. Each
  // morsel writes its survivors to its own slot; slots splice in morsel
  // order, so row order and the first error match at every thread count.
  const auto filter_rows = [&](const std::vector<ExprPtr>& filters,
                               const Scope& scope,
                               std::vector<Row>* rows) -> Status {
    const auto morsels = MorselsFor(rows->size());
    std::vector<std::vector<Row>> kept(morsels.size());
    QP_RETURN_IF_ERROR(ForEachMorsel(
        morsels.size(), scope,
        [&](size_t m, const Scope& row_scope) -> Status {
          const auto [lo, hi] = morsels[m];
          kept[m].reserve(hi - lo);
          for (size_t r = lo; r < hi; ++r) {
            QP_ASSIGN_OR_RETURN(
                bool pass,
                AllHold(filters, row_scope, (*rows)[r], &subquery_sets));
            if (pass) kept[m].push_back(std::move((*rows)[r]));
          }
          return Status::OK();
        }));
    *rows = Splice(std::move(kept));
    return Status::OK();
  };

  // ---- Plan per-source access paths without materializing base tables.
  // The path *choice* is logical: predicate shape plus an index-independent
  // cardinality estimate (exact match counts by default, histogram
  // estimates when ExecOptions::stats is set). The index catalog only
  // changes the *physical* backing of the chosen path — whether Collect
  // probes a snapshot or falls back to a scan producing the identical
  // candidate set — so results and ExecStats never depend on which indexes
  // exist. Derived sources are filtered in place. ----
  const index::IndexCatalog& catalog = db_->indexes();
  std::vector<index::AccessPath> access(sources.size());
  for (size_t s = 0; s < sources.size(); ++s) {
    Source& src = sources[s];
    if (src.materialized) {
      // Derived table: apply filters now.
      if (!source_filters[s].empty()) {
        QP_RETURN_IF_ERROR(
            filter_rows(source_filters[s], Scope(src.columns), &src.rows));
      }
      access[s].estimated_rows = src.rows.size();
      continue;
    }
    const size_t num_rows = src.base->num_rows();
    // Paths are taken only when estimated strictly below this many rows;
    // the default threshold of 1.0 probes whenever the predicate is
    // estimated to exclude anything.
    const size_t path_limit = static_cast<size_t>(
        options_.index_selectivity_threshold * static_cast<double>(num_rows));
    // An equality atom wins outright (PPA's per-tuple point probes).
    int eq_col = -1;
    Value eq_key;
    storage::AttributeRef eq_attr;
    for (const auto& f : source_filters[s]) {
      storage::AttributeRef attr;
      BinaryOp op;
      Value lit;
      if (f->IsSelectionAtom(&attr, &op, &lit) && op == BinaryOp::kEq &&
          !lit.is_null()) {
        const int col = FindLocalColumn(src, attr.table, attr.column);
        if (col >= 0) {
          eq_col = col;
          eq_key = std::move(lit);
          eq_attr = attr;
          break;
        }
      }
    }
    if (eq_col >= 0) {
      auto hash = catalog.Hash(src.base, static_cast<size_t>(eq_col));
      size_t est;
      if (options_.stats != nullptr) {
        est = static_cast<size_t>(std::llround(
            options_.stats->EstimateSelectivity(eq_attr, stats::CompareOp::kEq,
                                                eq_key) *
            static_cast<double>(num_rows)));
      } else {
        est = index::ExactEqCount(*src.base, static_cast<size_t>(eq_col),
                                  eq_key, hash.get());
      }
      access[s].estimated_rows = est;
      if (est < path_limit) {
        access[s].kind = index::AccessPath::Kind::kHashProbe;
        access[s].col = static_cast<size_t>(eq_col);
        access[s].column_name = src.columns[eq_col].name;
        access[s].eq_key = std::move(eq_key);
        access[s].hash = std::move(hash);
      }
      continue;
    }
    // No equality atom: try range atoms (elastic preferences translate to
    // them). Combine the tightest bounds per column, then pick the most
    // selective column.
    std::map<int, index::RangeBounds> per_column;
    std::map<int, storage::AttributeRef> column_attr;
    for (const auto& f : source_filters[s]) {
      storage::AttributeRef attr;
      BinaryOp op;
      Value lit;
      if (!f->IsSelectionAtom(&attr, &op, &lit) || lit.is_null()) continue;
      const int col = FindLocalColumn(src, attr.table, attr.column);
      if (col < 0) continue;
      index::RangeBounds& b = per_column[col];
      column_attr[col] = attr;
      switch (op) {
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          if (!b.has_lo || lit > b.lo ||
              (lit == b.lo && op == BinaryOp::kGt)) {
            b.lo = lit;
            b.has_lo = true;
            b.lo_inclusive = (op == BinaryOp::kGe);
          }
          break;
        case BinaryOp::kLt:
        case BinaryOp::kLe:
          if (!b.has_hi || lit < b.hi ||
              (lit == b.hi && op == BinaryOp::kLt)) {
            b.hi = lit;
            b.has_hi = true;
            b.hi_inclusive = (op == BinaryOp::kLe);
          }
          break;
        default:
          break;
      }
    }
    size_t best_count = num_rows;
    int best_col = -1;
    index::RangeBounds best_bounds;
    std::shared_ptr<const index::BPlusTree> best_tree;
    for (const auto& [col, b] : per_column) {
      if (!b.has_lo && !b.has_hi) continue;
      auto btree = catalog.Range(src.base, static_cast<size_t>(col));
      size_t count;
      const bool numeric_bounds =
          (!b.has_lo || b.lo.is_numeric()) && (!b.has_hi || b.hi.is_numeric());
      if (options_.stats != nullptr && numeric_bounds) {
        const double lo = b.has_lo ? b.lo.ToNumeric() : -HUGE_VAL;
        const double hi = b.has_hi ? b.hi.ToNumeric() : HUGE_VAL;
        count = static_cast<size_t>(std::llround(
            options_.stats->EstimateRangeSelectivity(column_attr[col], lo, hi) *
            static_cast<double>(num_rows)));
      } else {
        count = index::ExactRangeCount(*src.base, static_cast<size_t>(col), b,
                                       btree.get());
      }
      if (count < best_count) {
        best_count = count;
        best_col = col;
        best_bounds = b;
        best_tree = std::move(btree);
      }
    }
    access[s].estimated_rows = best_count;
    if (best_col >= 0 && best_count < path_limit) {
      access[s].kind = index::AccessPath::Kind::kBTreeRange;
      access[s].col = static_cast<size_t>(best_col);
      access[s].column_name = src.columns[best_col].name;
      access[s].bounds = best_bounds;
      access[s].btree = std::move(best_tree);
    }
  }
  // Path-choice counters, one per base source. These follow the logical
  // choice made above, so ExecStats::paths_* (and the QueryLog fields fed
  // from it) are deterministic regardless of which indexes exist.
  for (size_t s = 0; s < sources.size(); ++s) {
    if (sources[s].materialized) continue;
    switch (access[s].kind) {
      case index::AccessPath::Kind::kFullScan: Add(kPathScan); break;
      case index::AccessPath::Kind::kHashProbe: Add(kPathProbe); break;
      case index::AccessPath::Kind::kBTreeRange: Add(kPathRange); break;
    }
  }

  // Materializes a base source through its planned access path. The filter
  // pass is morsel-parallel: each morsel evaluates the filters over its
  // candidate range into its own output, and outputs are spliced in morsel
  // order — identical row order and first-error at any thread count.
  const auto materialize = [&](size_t s) -> Status {
    Source& src = sources[s];
    if (src.materialized) return Status::OK();
    std::vector<const Row*> candidates;
    if (access[s].kind == index::AccessPath::Kind::kFullScan) {
      candidates.reserve(src.base->num_rows());
      for (const auto& row : src.base->rows()) candidates.push_back(&row);
      Add(kRowsExamined, src.base->num_rows());
    } else {
      // Candidates come back in ascending row order whether an index
      // snapshot or the scan fallback produced them — the backing is
      // unobservable in results. Only rows_examined (physical work) can
      // tell the difference.
      std::vector<size_t> positions;
      const size_t examined = access[s].Collect(*src.base, &positions);
      Add(kRowsExamined, examined);
      // Physical win of the index snapshot: the rows a full scan would have
      // touched that the probe/range never did. Zero when Collect fell back
      // to scanning (no index registered).
      if (access[s].indexed() && examined < src.base->num_rows()) {
        Add(kRowsSaved, src.base->num_rows() - examined);
      }
      candidates.reserve(positions.size());
      for (size_t pos : positions) candidates.push_back(&src.base->row(pos));
    }
    Add(kRowsScanned, candidates.size());
    const auto morsels = MorselsFor(candidates.size());
    std::vector<std::vector<Row>> kept(morsels.size());
    QP_RETURN_IF_ERROR(ForEachMorsel(
        morsels.size(), Scope(src.columns),
        [&](size_t m, const Scope& scope) -> Status {
          for (size_t i = morsels[m].first; i < morsels[m].second; ++i) {
            QP_ASSIGN_OR_RETURN(bool pass,
                                AllHold(source_filters[s], scope,
                                        *candidates[i], &subquery_sets));
            if (pass) kept[m].push_back(*candidates[i]);
          }
          return Status::OK();
        }));
    src.rows = Splice(std::move(kept));
    src.materialized = true;
    return Status::OK();
  };

  if (span != nullptr) {
    for (size_t s = 0; s < sources.size(); ++s) {
      if (sources[s].base == nullptr) continue;
      std::string how;
      const index::RangeBounds& b = access[s].bounds;
      switch (access[s].kind) {
        case index::AccessPath::Kind::kHashProbe:
          how = "index lookup on " + access[s].column_name + " = " +
                access[s].eq_key.ToString();
          break;
        case index::AccessPath::Kind::kBTreeRange:
          how = "range scan on " + access[s].column_name + " in " +
                (b.has_lo ? (b.lo_inclusive ? "[" : "(") + b.lo.ToString()
                          : "(-inf") +
                ", " +
                (b.has_hi ? b.hi.ToString() + (b.hi_inclusive ? "]" : ")")
                          : "+inf)");
          break;
        case index::AccessPath::Kind::kFullScan:
          how = "full scan";
          break;
      }
      // Morsel counts and thread counts are parallelism-dependent, so they
      // are deliberately absent: the span tree must be identical at every
      // thread count.
      obs::TraceSpan* source_span =
          span->AddChild("source '" + sources[s].alias + "': " + how + ", ~" +
                         std::to_string(access[s].estimated_rows) + " rows, " +
                         std::to_string(source_filters[s].size()) +
                         " filter(s)");
      source_span->AddAttr("access", access[s].kind_name());
      source_span->AddAttr("est_rows", access[s].estimated_rows);
      source_span->AddAttr("filters", source_filters[s].size());
      // Physical backing: "index" when a catalog snapshot answers the path,
      // "scan" on the fallback. The only EXPLAIN field allowed to differ
      // with indexes on vs off.
      if (access[s].kind != index::AccessPath::Kind::kFullScan) {
        source_span->AddAttr("backed",
                             access[s].indexed() ? "index" : "scan");
      }
    }
  }

  // ---- Greedy join ordering from the smallest source. ----
  std::vector<bool> joined(sources.size(), false);
  size_t start = 0;
  for (size_t s = 1; s < sources.size(); ++s) {
    if (access[s].estimated_rows < access[start].estimated_rows) start = s;
  }
  std::chrono::steady_clock::time_point start_t0;
  if (span != nullptr) start_t0 = std::chrono::steady_clock::now();
  QP_RETURN_IF_ERROR(materialize(start));
  if (span != nullptr) {
    obs::TraceSpan* start_span = span->AddChild(
        "start from '" + sources[start].alias + "' (" +
        std::to_string(sources[start].rows.size()) + " rows after filters)");
    start_span->AddAttr("rows", sources[start].rows.size());
    start_span->set_seconds(SecondsSince(start_t0));
  }
  std::vector<OutputColumn> combined_cols = sources[start].columns;
  std::vector<Row> combined = std::move(sources[start].rows);
  joined[start] = true;
  size_t num_joined = 1;

  while (num_joined < sources.size()) {
    std::chrono::steady_clock::time_point step_t0;
    if (span != nullptr) step_t0 = std::chrono::steady_clock::now();
    // Candidate edges between joined and unjoined sources.
    int best_edge = -1;
    size_t best_size = SIZE_MAX;
    for (size_t e = 0; e < join_edges.size(); ++e) {
      const auto& edge = join_edges[e];
      size_t next;
      if (joined[edge.left_source] && !joined[edge.right_source]) {
        next = edge.right_source;
      } else if (joined[edge.right_source] && !joined[edge.left_source]) {
        next = edge.left_source;
      } else {
        continue;
      }
      if (access[next].estimated_rows < best_size) {
        best_size = access[next].estimated_rows;
        best_edge = static_cast<int>(e);
      }
    }

    size_t next_source;
    if (best_edge >= 0) {
      const JoinEdge& edge = join_edges[best_edge];
      const bool new_on_right = !joined[edge.right_source];
      next_source = new_on_right ? edge.right_source : edge.left_source;
      Source& next = sources[next_source];

      // Column index of the join key on the combined side.
      const storage::AttributeRef probe_attr =
          [&]() -> storage::AttributeRef {
        storage::AttributeRef l, r;
        edge.atom->IsJoinAtom(&l, &r);
        return new_on_right ? l : r;
      }();
      Scope combined_scope(combined_cols);
      QP_ASSIGN_OR_RETURN(
          size_t probe_col,
          combined_scope.Resolve(probe_attr.table, probe_attr.column));
      const size_t build_col = new_on_right ? edge.right_col : edge.left_col;

      // Both probes are morsel-parallel over `combined`; matches per left
      // row keep ascending row order and morsel outputs are spliced in
      // morsel order, so the joined row order is scheduling-independent.
      const auto probe_morsels = MorselsFor(combined.size());
      std::vector<std::vector<Row>> parts(probe_morsels.size());
      if (!next.materialized) {
        // Base table: probe the catalog's hash snapshot on the join column
        // and apply any pending filters only to matched rows. This keeps
        // PPA's per-tuple point probes O(fan-out) instead of O(table).
        // Without a registered index the probe runs against a transient
        // value -> ascending-positions map built over the base table —
        // identical matches in identical order, just more rows examined.
        const std::shared_ptr<const index::HashIndex> snapshot =
            catalog.Hash(next.base, build_col);
        std::unordered_map<Value, std::vector<size_t>, storage::ValueHash>
            transient;
        if (snapshot == nullptr) {
          transient.reserve(next.base->num_rows());
          for (size_t i = 0; i < next.base->num_rows(); ++i) {
            const Value& v = next.base->row(i)[build_col];
            if (!v.is_null()) transient[v].push_back(i);
          }
          Add(kRowsExamined, next.base->num_rows());
        }
        const auto match_positions =
            [&](const Value& key) -> const std::vector<size_t>* {
          if (snapshot != nullptr) return snapshot->Lookup(key);
          const auto it = transient.find(key);
          return it == transient.end() ? nullptr : &it->second;
        };
        QP_RETURN_IF_ERROR(ForEachMorsel(
            probe_morsels.size(), Scope(next.columns),
            [&](size_t m, const Scope& next_scope) -> Status {
              size_t examined = 0;
              for (size_t r = probe_morsels[m].first;
                   r < probe_morsels[m].second; ++r) {
                const Row& left_row = combined[r];
                const Value& key = left_row[probe_col];
                if (key.is_null()) continue;
                const std::vector<size_t>* matches = match_positions(key);
                if (matches == nullptr) continue;
                examined += matches->size();
                for (size_t match_pos : *matches) {
                  const Row& right_row = next.base->row(match_pos);
                  QP_ASSIGN_OR_RETURN(
                      bool pass,
                      AllHold(source_filters[next_source], next_scope,
                              right_row, &subquery_sets));
                  if (!pass) continue;
                  Row merged = left_row;
                  merged.insert(merged.end(), right_row.begin(),
                                right_row.end());
                  parts[m].push_back(std::move(merged));
                }
              }
              Add(kRowsExamined, examined);
              return Status::OK();
            }));
      } else {
        // Build a transient hash table on the (already filtered) rows:
        // key -> build-row positions in ascending order, so probe matches
        // replay in build order regardless of how the table was built.
        // Partitioned build: every morsel builds a partial map over its row
        // range; partials merge in morsel order, which preserves the
        // ascending row order inside every key's match list.
        using BuildMap =
            std::unordered_map<Value, std::vector<size_t>, storage::ValueHash>;
        const auto build_morsels = MorselsFor(next.rows.size());
        std::vector<BuildMap> partial(build_morsels.size());
        QP_RETURN_IF_ERROR(ForEachMorsel(
            build_morsels.size(), Scope(),
            [&](size_t m, const Scope&) -> Status {
              const auto [lo, hi] = build_morsels[m];
              partial[m].reserve(hi - lo);
              for (size_t i = lo; i < hi; ++i) {
                if (!next.rows[i][build_col].is_null()) {
                  partial[m][next.rows[i][build_col]].push_back(i);
                }
              }
              return Status::OK();
            }));
        BuildMap build;
        if (partial.size() == 1) {
          build = std::move(partial[0]);
        } else {
          build.reserve(next.rows.size());
          for (auto& part : partial) {
            for (auto& [key, positions] : part) {
              auto& dst = build[key];
              if (dst.empty()) {
                dst = std::move(positions);
              } else {
                dst.insert(dst.end(), positions.begin(), positions.end());
              }
            }
          }
        }
        QP_RETURN_IF_ERROR(ForEachMorsel(
            probe_morsels.size(), Scope(),
            [&](size_t m, const Scope&) -> Status {
              for (size_t r = probe_morsels[m].first;
                   r < probe_morsels[m].second; ++r) {
                const Row& left_row = combined[r];
                const Value& key = left_row[probe_col];
                if (key.is_null()) continue;
                const auto it = build.find(key);
                if (it == build.end()) continue;
                for (size_t pos : it->second) {
                  Row merged = left_row;
                  const Row& right_row = next.rows[pos];
                  merged.insert(merged.end(), right_row.begin(),
                                right_row.end());
                  parts[m].push_back(std::move(merged));
                }
              }
              return Status::OK();
            }));
      }
      std::vector<Row> result = Splice(std::move(parts));
      Add(kRowsJoined, result.size());
      if (span != nullptr) {
        // The morsel split is parallelism-dependent and therefore omitted.
        obs::TraceSpan* join_span = span->AddChild(
            "join '" + next.alias + "' via " +
            (next.materialized ? "transient hash on filtered rows"
                               : "persistent index") +
            " [" + edge.atom->ToString() + "] -> " +
            std::to_string(result.size()) + " rows");
        join_span->AddAttr(
            "method", next.materialized ? "transient_hash" : "persistent_index");
        join_span->AddAttr("rows", result.size());
        join_span->set_seconds(SecondsSince(step_t0));
      }
      combined_cols.insert(combined_cols.end(), next.columns.begin(),
                           next.columns.end());
      combined = std::move(result);
    } else {
      // No connecting edge: cross product with the smallest unjoined source.
      next_source = SIZE_MAX;
      for (size_t s = 0; s < sources.size(); ++s) {
        if (joined[s]) continue;
        if (next_source == SIZE_MAX ||
            sources[s].EstimatedRows() < sources[next_source].EstimatedRows()) {
          next_source = s;
        }
      }
      Source& next = sources[next_source];
      QP_RETURN_IF_ERROR(materialize(next_source));
      std::vector<Row> result;
      result.reserve(combined.size() * next.rows.size());
      for (const Row& left_row : combined) {
        for (const Row& right_row : next.rows) {
          Row merged = left_row;
          merged.insert(merged.end(), right_row.begin(), right_row.end());
          result.push_back(std::move(merged));
        }
      }
      Add(kRowsJoined, result.size());
      if (span != nullptr) {
        obs::TraceSpan* cross_span =
            span->AddChild("cross product with '" + next.alias + "' -> " +
                           std::to_string(result.size()) + " rows");
        cross_span->AddAttr("method", "cross_product");
        cross_span->AddAttr("rows", result.size());
        cross_span->set_seconds(SecondsSince(step_t0));
      }
      combined_cols.insert(combined_cols.end(), next.columns.begin(),
                           next.columns.end());
      combined = std::move(result);
    }
    joined[next_source] = true;
    ++num_joined;

    // Apply any join edges now internal to the combined result (other
    // atoms between already-joined sources).
    std::vector<ExprPtr> internal_edges;
    for (const auto& edge : join_edges) {
      if (joined[edge.left_source] && joined[edge.right_source]) {
        internal_edges.push_back(edge.atom);
      }
    }
    QP_RETURN_IF_ERROR(
        filter_rows(internal_edges, Scope(combined_cols), &combined));
  }

  Scope scope(combined_cols);

  // ---- Residual predicates (morsel-parallel filter pass). ----
  if (!residual.empty()) {
    obs::TraceSpan* residual_span =
        span != nullptr ? span->AddChild("apply " +
                                         std::to_string(residual.size()) +
                                         " residual predicate(s)")
                        : nullptr;
    obs::SpanTimer residual_timer(residual_span);
    QP_RETURN_IF_ERROR(filter_rows(residual, scope, &combined));
    residual_timer.Stop();
    if (residual_span != nullptr) {
      residual_span->AddAttr("rows", combined.size());
    }
  }

  // ---- Expand '*' select items. ----
  std::vector<sql::SelectItem> items;
  for (const auto& item : q.select) {
    if (item.expr->kind() == ExprKind::kColumnRef && item.expr->column() == "*") {
      for (const auto& col : combined_cols) {
        items.push_back({Expr::Column(col.qualifier, col.name), col.name});
      }
    } else {
      items.push_back(item);
    }
  }

  std::vector<OutputColumn> out_cols;
  out_cols.reserve(items.size());
  for (const auto& item : items) {
    out_cols.push_back({"", item.OutputName()});
  }
  RowSet out(out_cols);

  AggregateRegistry default_registry;
  const AggregateRegistry* registry =
      aggregates_ != nullptr ? aggregates_ : &default_registry;

  if (q.IsAggregate()) {
    obs::TraceSpan* agg_span =
        span != nullptr
            ? span->AddChild("aggregate: group by " +
                             std::to_string(q.group_by.size()) + " key(s)" +
                             (q.having != nullptr ? ", with HAVING" : ""))
            : nullptr;
    obs::SpanTimer agg_timer(agg_span);
    // ---- Grouped aggregation. ----
    std::vector<const Expr*> agg_nodes;
    for (const auto& item : items) CollectAggregateCalls(item.expr, &agg_nodes);
    CollectAggregateCalls(q.having, &agg_nodes);
    for (const auto& o : q.order_by) CollectAggregateCalls(o.expr, &agg_nodes);
    // Dedupe by SQL text.
    std::unordered_map<std::string, const Expr*> agg_by_text;
    for (const Expr* a : agg_nodes) agg_by_text.emplace(a->ToString(), a);

    // Group rows by evaluated GROUP BY keys. Key extraction writes into
    // per-row slots so it parallelizes without any ordering concern; the
    // grouping insertion itself stays serial in row order, which keeps the
    // group iteration order (and hence ungrouped output order) identical at
    // every thread count.
    std::vector<Row> group_keys(combined.size());
    const auto key_morsels = MorselsFor(combined.size());
    QP_RETURN_IF_ERROR(ForEachMorsel(
        key_morsels.size(), scope,
        [&](size_t m, const Scope& row_scope) -> Status {
          for (size_t i = key_morsels[m].first; i < key_morsels[m].second;
               ++i) {
            Row& key = group_keys[i];
            key.reserve(q.group_by.size());
            for (const auto& g : q.group_by) {
              QP_ASSIGN_OR_RETURN(Value v, EvalScalar(*g, row_scope,
                                                      combined[i],
                                                      &subquery_sets));
              key.push_back(std::move(v));
            }
          }
          return Status::OK();
        }));
    std::unordered_map<Row, std::vector<size_t>, RowHash> groups;
    for (size_t i = 0; i < combined.size(); ++i) {
      groups[std::move(group_keys[i])].push_back(i);
    }
    // A fully aggregated query with no GROUP BY has one (possibly empty)
    // global group, so COUNT(*) over no rows yields 0.
    if (q.group_by.empty() && groups.empty()) {
      groups.emplace(Row{}, std::vector<size_t>{});
    }

    struct GroupOut {
      Row out_row;
      Row sort_keys;
    };
    // Snapshot the groups in iteration order, then aggregate each group
    // independently: every group's partial state (its aggregators) lives in
    // its task and the finished GroupOut lands in the group's slot, merged
    // back in group order — the parallel analogue of a partial-aggregate
    // merge, exact at any thread count. HAVING rejections leave an empty
    // slot.
    std::vector<const std::vector<size_t>*> group_indices;
    group_indices.reserve(groups.size());
    for (const auto& [key, indices] : groups) group_indices.push_back(&indices);
    std::vector<std::optional<GroupOut>> group_slots(group_indices.size());
    const Row empty_row(combined_cols.size());
    const auto group_morsels = MorselsFor(group_indices.size());
    QP_RETURN_IF_ERROR(ForEachMorsel(
        group_morsels.size(), scope,
        [&](size_t m, const Scope& row_scope) -> Status {
          for (size_t g_idx = group_morsels[m].first;
               g_idx < group_morsels[m].second; ++g_idx) {
            const std::vector<size_t>& indices = *group_indices[g_idx];
            // Compute each distinct aggregate once.
            std::unordered_map<std::string, Value> agg_values;
            for (const auto& [text, node] : agg_by_text) {
              QP_ASSIGN_OR_RETURN(std::unique_ptr<Aggregator> agg,
                                  registry->Create(node->function()));
              for (size_t idx : indices) {
                Value arg = Value::Null();
                if (node->argument() != nullptr) {
                  QP_ASSIGN_OR_RETURN(
                      arg, EvalScalar(*node->argument(), row_scope,
                                      combined[idx], &subquery_sets));
                }
                agg->Add(arg);
              }
              agg_values.emplace(text, agg->Finalize());
            }
            const Row& rep =
                indices.empty() ? empty_row : combined[indices[0]];
            AggregateEnv env(&row_scope, &rep, &agg_values);
            if (q.having != nullptr) {
              QP_ASSIGN_OR_RETURN(Value hv, env.Eval(*q.having));
              if (hv.is_null() || hv.ToNumeric() == 0) continue;
            }
            GroupOut g;
            for (const auto& item : items) {
              QP_ASSIGN_OR_RETURN(Value v, env.Eval(*item.expr));
              g.out_row.push_back(std::move(v));
            }
            for (const auto& o : q.order_by) {
              QP_ASSIGN_OR_RETURN(Value v, env.Eval(*o.expr));
              g.sort_keys.push_back(std::move(v));
            }
            group_slots[g_idx] = std::move(g);
          }
          return Status::OK();
        }));
    std::vector<GroupOut> group_rows;
    group_rows.reserve(group_indices.size());
    for (auto& slot : group_slots) {
      if (slot.has_value()) group_rows.push_back(std::move(*slot));
    }

    if (!q.order_by.empty()) {
      std::stable_sort(group_rows.begin(), group_rows.end(),
                       [&](const GroupOut& a, const GroupOut& b) {
                         for (size_t k = 0; k < q.order_by.size(); ++k) {
                           const int cmp = a.sort_keys[k].Compare(b.sort_keys[k]);
                           if (cmp != 0) {
                             return q.order_by[k].ascending ? cmp < 0 : cmp > 0;
                           }
                         }
                         return false;
                       });
    }
    for (auto& g : group_rows) {
      out.Add(std::move(g.out_row));
      if (q.limit.has_value() && out.num_rows() >= *q.limit) break;
    }
    agg_timer.Stop();
    if (agg_span != nullptr) {
      agg_span->AddAttr("groups", group_indices.size());
      agg_span->AddAttr("rows", out.num_rows());
    }
    Add(kRowsOutput, out.num_rows());
    return out;
  }

  // ---- Non-aggregate projection. ----
  // Sort first (keys may reference non-projected columns), then project.
  // Sort-key extraction fills per-row slots, so it is morsel-parallel; the
  // stable sort itself stays serial and sees identical inputs either way.
  std::vector<size_t> order(combined.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (!q.order_by.empty()) {
    std::vector<Row> sort_keys(combined.size());
    const auto morsels = MorselsFor(combined.size());
    QP_RETURN_IF_ERROR(ForEachMorsel(
        morsels.size(), scope,
        [&](size_t m, const Scope& row_scope) -> Status {
          for (size_t i = morsels[m].first; i < morsels[m].second; ++i) {
            for (const auto& o : q.order_by) {
              // Try the combined scope first; fall back to select-item
              // aliases.
              auto direct =
                  EvalScalar(*o.expr, row_scope, combined[i], &subquery_sets);
              if (direct.ok()) {
                sort_keys[i].push_back(std::move(direct).value());
                continue;
              }
              bool matched = false;
              if (o.expr->kind() == ExprKind::kColumnRef) {
                for (const auto& item : items) {
                  if (EqualsIgnoreCase(item.OutputName(), o.expr->column())) {
                    QP_ASSIGN_OR_RETURN(
                        Value v, EvalScalar(*item.expr, row_scope, combined[i],
                                            &subquery_sets));
                    sort_keys[i].push_back(std::move(v));
                    matched = true;
                    break;
                  }
                }
              }
              if (!matched) return direct.status();
            }
          }
          return Status::OK();
        }));
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < q.order_by.size(); ++k) {
        const int cmp = sort_keys[a][k].Compare(sort_keys[b][k]);
        if (cmp != 0) return q.order_by[k].ascending ? cmp < 0 : cmp > 0;
      }
      return false;
    });
  }

  // Projection fills per-row slots in sorted order; DISTINCT stays serial
  // over the slots, so its row selection is order-dependent yet
  // thread-count independent. A LIMIT projects in one inline morsel that
  // stops early instead of projecting rows it would discard.
  const auto project_row = [&](size_t pos, const Scope& row_scope,
                               Row* out_row) -> Status {
    out_row->reserve(items.size());
    for (const auto& item : items) {
      QP_ASSIGN_OR_RETURN(Value v, EvalScalar(*item.expr, row_scope,
                                              combined[pos], &subquery_sets));
      out_row->push_back(std::move(v));
    }
    return Status::OK();
  };
  std::unordered_set<Row, RowHash> seen;
  if (q.limit.has_value()) {
    QP_RETURN_IF_ERROR(ForEachMorsel(
        1, scope, [&](size_t, const Scope& row_scope) -> Status {
          for (size_t pos : order) {
            Row out_row;
            QP_RETURN_IF_ERROR(project_row(pos, row_scope, &out_row));
            if (q.distinct && !seen.insert(out_row).second) continue;
            out.Add(std::move(out_row));
            if (out.num_rows() >= *q.limit) break;
          }
          return Status::OK();
        }));
  } else {
    const auto morsels = MorselsFor(order.size());
    std::vector<Row> projected(order.size());
    QP_RETURN_IF_ERROR(ForEachMorsel(
        morsels.size(), scope,
        [&](size_t m, const Scope& row_scope) -> Status {
          for (size_t i = morsels[m].first; i < morsels[m].second; ++i) {
            QP_RETURN_IF_ERROR(project_row(order[i], row_scope, &projected[i]));
          }
          return Status::OK();
        }));
    if (!q.distinct) {
      out.rows() = std::move(projected);
    } else {
      for (Row& out_row : projected) {
        if (seen.insert(out_row).second) out.Add(std::move(out_row));
      }
    }
  }
  Add(kRowsOutput, out.num_rows());
  return out;
}

}  // namespace qp::exec
