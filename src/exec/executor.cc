#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
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

/// Hash of a full row, for DISTINCT and grouping.
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

/// One FROM source. Base tables stay a pointer until an operator reads them
/// through their access path, so equality predicates can use hash indexes;
/// derived tables are materialized (and filtered) by the plan step.
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

/// A join conjunct pinned to the two sources it connects, with its column
/// in each.
struct JoinEdge {
  ExprPtr atom;
  size_t left_source;
  size_t right_source;
  size_t left_col;
  size_t right_col;
};

/// One step of the join order: the source it adds, the edge whose hash join
/// adds it (none: a cross product), and the other edges that become
/// internal to the joined rows at this step. Each edge is evaluated once:
/// as its step's probe, or as a filter at the step that joins its second
/// source.
struct JoinStep {
  size_t source = 0;
  std::optional<size_t> edge;
  std::vector<ExprPtr> internal;
};

/// The one column resolver of the plan step: a name resolves against every
/// FROM column at once, so an unknown or ambiguous name fails with the
/// message evaluation gives.
class FromColumns {
 public:
  explicit FromColumns(const std::vector<Source>& sources) {
    std::vector<OutputColumn> all;
    for (size_t s = 0; s < sources.size(); ++s) {
      for (size_t c = 0; c < sources[s].columns.size(); ++c) {
        all.push_back(sources[s].columns[c]);
        place_.emplace_back(s, c);
      }
    }
    scope_ = Scope(std::move(all));
  }

  /// The source `qualifier.name` belongs to, and its column there.
  Result<std::pair<size_t, size_t>> Resolve(const std::string& qualifier,
                                            const std::string& name) const {
    QP_ASSIGN_OR_RETURN(size_t i, scope_.Resolve(qualifier, name));
    return place_[i];
  }

 private:
  Scope scope_;
  std::vector<std::pair<size_t, size_t>> place_;
};

}  // namespace

/// What the plan step hands the operators.
struct SelectPlan {
  std::vector<Source> sources;
  SubqueryResults subqueries;
  /// Per source, the WHERE conjuncts over it alone, in WHERE order.
  std::vector<std::vector<ExprPtr>> filters;
  std::vector<JoinEdge> edges;
  /// Conjuncts over several sources that are not join edges.
  std::vector<ExprPtr> residual;
  std::vector<index::AccessPath> access;
  /// The greedy join order: the start source, then one step per other.
  size_t start = 0;
  std::vector<JoinStep> steps;
  /// The select list, '*' expanded over the FROM columns.
  std::vector<sql::SelectItem> items;
};

namespace {

/// Calls `visit` on `expr` and its sub-expressions in pre-order, left
/// before right. Of an IN-subquery only the needle is visited (the subquery
/// runs in its own scope); aggregate arguments are not visited.
template <typename Visit>
void ForEachNode(const ExprPtr& expr, const Visit& visit) {
  if (expr == nullptr) return;
  visit(*expr);
  switch (expr->kind()) {
    case ExprKind::kComparison:
    case ExprKind::kAnd:
    case ExprKind::kOr:
      ForEachNode(expr->left(), visit);
      ForEachNode(expr->right(), visit);
      return;
    case ExprKind::kNot:
    case ExprKind::kScalarFn:
    case ExprKind::kInSubquery:
      ForEachNode(expr->left(), visit);
      return;
    default:
      return;
  }
}

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

/// Sorts the WHERE conjuncts into the plan: a conjunct over one source is
/// that source's filter (over none, the first source's), a column = column
/// equality over two is a join edge, anything else is residual. Every
/// column name is resolved here, so a bad one fails before any row is read.
Status Classify(const ExprPtr& where, const FromColumns& from,
                SelectPlan* plan) {
  plan->filters.resize(plan->sources.size());
  for (const ExprPtr& conjunct : sql::ConjunctsOf(where)) {
    std::vector<std::pair<size_t, size_t>> cols;
    Status status;
    ForEachNode(conjunct, [&](const Expr& e) {
      if (e.kind() != ExprKind::kColumnRef || !status.ok()) return;
      auto col = from.Resolve(e.table(), e.column());
      if (col.ok()) {
        cols.push_back(*col);
      } else {
        status = col.status();
      }
    });
    QP_RETURN_IF_ERROR(status);
    std::set<size_t> refs;
    for (const auto& col : cols) refs.insert(col.first);
    if (refs.size() <= 1) {
      plan->filters[refs.empty() ? 0 : *refs.begin()].push_back(conjunct);
    } else if (conjunct->IsJoinAtom()) {
      plan->edges.push_back({conjunct, cols[0].first, cols[1].first,
                             cols[0].second, cols[1].second});
    } else {
      plan->residual.push_back(conjunct);
    }
  }
  return Status::OK();
}

/// Picks a base source's access path from its filters. The choice is
/// logical: predicate shape plus an index-independent cardinality estimate
/// (exact match counts by default, histogram estimates when
/// ExecOptions::stats is set). The catalog only changes the physical
/// backing — whether Collect probes a snapshot or falls back to a scan
/// producing the identical candidate set — so results and ExecStats never
/// depend on which indexes exist.
index::AccessPath ChooseAccessPath(const Source& src,
                                   const std::vector<ExprPtr>& filters,
                                   const FromColumns& from,
                                   const index::IndexCatalog& catalog,
                                   const ExecOptions& options) {
  index::AccessPath path;
  // A path is taken only when its estimate is strictly below num_rows:
  // whenever the predicate is estimated to exclude anything.
  const size_t num_rows = src.base->num_rows();
  // An equality atom wins outright (PPA's per-tuple point probes). Without
  // one, range atoms (elastic preferences translate to them) combine into
  // the tightest bounds per column, and the most selective column wins.
  std::optional<size_t> eq_col;
  Value eq_key;
  storage::AttributeRef eq_attr;
  std::map<size_t, index::RangeBounds> per_column;
  std::map<size_t, storage::AttributeRef> column_attr;
  for (const auto& f : filters) {
    storage::AttributeRef attr;
    BinaryOp op;
    Value lit;
    if (!f->IsSelectionAtom(&attr, &op, &lit) || lit.is_null()) continue;
    const auto col = from.Resolve(attr.table, attr.column);
    if (!col.ok()) continue;
    if (op == BinaryOp::kEq) {
      eq_col = col->second;
      eq_key = std::move(lit);
      eq_attr = attr;
      break;
    }
    index::RangeBounds& b = per_column[col->second];
    column_attr[col->second] = attr;
    switch (op) {
      case BinaryOp::kGt:
      case BinaryOp::kGe:
        if (!b.has_lo || lit > b.lo || (lit == b.lo && op == BinaryOp::kGt)) {
          b.lo = lit;
          b.has_lo = true;
          b.lo_inclusive = (op == BinaryOp::kGe);
        }
        break;
      case BinaryOp::kLt:
      case BinaryOp::kLe:
        if (!b.has_hi || lit < b.hi || (lit == b.hi && op == BinaryOp::kLt)) {
          b.hi = lit;
          b.has_hi = true;
          b.hi_inclusive = (op == BinaryOp::kLe);
        }
        break;
      default:
        break;
    }
  }
  if (eq_col.has_value()) {
    auto hash = catalog.Hash(src.base, *eq_col);
    if (options.stats != nullptr) {
      path.estimated_rows = static_cast<size_t>(std::llround(
          options.stats->EstimateSelectivity(eq_attr, stats::CompareOp::kEq,
                                             eq_key) *
          static_cast<double>(num_rows)));
    } else {
      path.estimated_rows =
          index::ExactEqCount(*src.base, *eq_col, eq_key, hash.get());
    }
    if (path.estimated_rows < num_rows) {
      path.kind = index::AccessPath::Kind::kHashProbe;
      path.col = *eq_col;
      path.column_name = src.columns[*eq_col].name;
      path.eq_key = std::move(eq_key);
      path.hash = std::move(hash);
    }
    return path;
  }
  size_t best_count = num_rows;
  std::optional<size_t> best_col;
  index::RangeBounds best_bounds;
  std::shared_ptr<const index::BPlusTree> best_tree;
  for (const auto& [col, b] : per_column) {
    if (!b.has_lo && !b.has_hi) continue;
    auto btree = catalog.Range(src.base, col);
    size_t count;
    const bool numeric_bounds =
        (!b.has_lo || b.lo.is_numeric()) && (!b.has_hi || b.hi.is_numeric());
    if (options.stats != nullptr && numeric_bounds) {
      const double lo = b.has_lo ? b.lo.ToNumeric() : -HUGE_VAL;
      const double hi = b.has_hi ? b.hi.ToNumeric() : HUGE_VAL;
      count = static_cast<size_t>(std::llround(
          options.stats->EstimateRangeSelectivity(column_attr[col], lo, hi) *
          static_cast<double>(num_rows)));
    } else {
      count = index::ExactRangeCount(*src.base, col, b, btree.get());
    }
    if (count < best_count) {
      best_count = count;
      best_col = col;
      best_bounds = b;
      best_tree = std::move(btree);
    }
  }
  path.estimated_rows = best_count;
  if (best_col.has_value()) {
    path.kind = index::AccessPath::Kind::kBTreeRange;
    path.col = *best_col;
    path.column_name = src.columns[*best_col].name;
    path.bounds = best_bounds;
    path.btree = std::move(best_tree);
  }
  return path;
}

/// Records one span per base source: its access path, estimate and filter
/// count. Morsel and thread counts are parallelism-dependent, so they are
/// deliberately absent: the span tree must be identical at every thread
/// count.
void RecordSourceSpans(const SelectPlan& plan, obs::TraceSpan* span) {
  for (size_t s = 0; s < plan.sources.size(); ++s) {
    if (plan.sources[s].base == nullptr) continue;
    const index::AccessPath& path = plan.access[s];
    const index::RangeBounds& b = path.bounds;
    std::string how;
    switch (path.kind) {
      case index::AccessPath::Kind::kHashProbe:
        how = "index lookup on " + path.column_name + " = " +
              path.eq_key.ToString();
        break;
      case index::AccessPath::Kind::kBTreeRange:
        how = "range scan on " + path.column_name + " in " +
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
    obs::TraceSpan* source_span = span->AddChild(
        "source '" + plan.sources[s].alias + "': " + how + ", ~" +
        std::to_string(path.estimated_rows) + " rows, " +
        std::to_string(plan.filters[s].size()) + " filter(s)");
    source_span->AddAttr("access", path.kind_name());
    source_span->AddAttr("est_rows", path.estimated_rows);
    source_span->AddAttr("filters", plan.filters[s].size());
    // Physical backing: "index" when a catalog snapshot answers the path,
    // "scan" on the fallback. The only EXPLAIN field allowed to differ
    // with indexes on vs off.
    if (path.kind != index::AccessPath::Kind::kFullScan) {
      source_span->AddAttr("backed", path.indexed() ? "index" : "scan");
    }
  }
}

/// Greedy join order from the smallest source: each step hash-joins the
/// source, across an edge from the joined ones, that is estimated smallest;
/// with no such edge it takes a cross product with the smallest unjoined
/// source.
void OrderJoins(SelectPlan* plan) {
  const size_t n = plan->sources.size();
  const std::vector<index::AccessPath>& access = plan->access;
  std::vector<bool> joined(n, false);
  for (size_t s = 1; s < n; ++s) {
    if (access[s].estimated_rows < access[plan->start].estimated_rows) {
      plan->start = s;
    }
  }
  joined[plan->start] = true;
  for (size_t num_joined = 1; num_joined < n; ++num_joined) {
    JoinStep step;
    size_t best_size = SIZE_MAX;
    for (size_t e = 0; e < plan->edges.size(); ++e) {
      const JoinEdge& edge = plan->edges[e];
      if (joined[edge.left_source] == joined[edge.right_source]) continue;
      const size_t next =
          joined[edge.left_source] ? edge.right_source : edge.left_source;
      if (access[next].estimated_rows < best_size) {
        best_size = access[next].estimated_rows;
        step.source = next;
        step.edge = e;
      }
    }
    if (!step.edge.has_value()) {
      std::optional<size_t> next;
      for (size_t s = 0; s < n; ++s) {
        if (joined[s]) continue;
        if (!next.has_value() || plan->sources[s].EstimatedRows() <
                                     plan->sources[*next].EstimatedRows()) {
          next = s;
        }
      }
      step.source = *next;
    }
    joined[step.source] = true;
    for (size_t e = 0; e < plan->edges.size(); ++e) {
      const JoinEdge& edge = plan->edges[e];
      if (e != step.edge && joined[edge.left_source] &&
          joined[edge.right_source] &&
          (edge.left_source == step.source ||
           edge.right_source == step.source)) {
        step.internal.push_back(edge.atom);
      }
    }
    plan->steps.push_back(std::move(step));
  }
}

/// Every left row followed by each right row, left rows outermost.
std::vector<Row> CrossProduct(const std::vector<Row>& left,
                              const std::vector<Row>& right) {
  std::vector<Row> out;
  out.reserve(left.size() * right.size());
  for (const Row& left_row : left) {
    for (const Row& right_row : right) {
      Row merged = left_row;
      merged.insert(merged.end(), right_row.begin(), right_row.end());
      out.push_back(std::move(merged));
    }
  }
  return out;
}

/// What each ORDER BY key sorts by, decided before any row is read: a name
/// is an input column, else a select-item alias; an integer literal is a
/// 1-based select-list position; any other key is evaluated as written,
/// and every column it names must resolve.
Result<std::vector<const Expr*>> ResolveOrderKeys(
    const SelectQuery& q, const std::vector<sql::SelectItem>& items,
    const Scope& scope) {
  std::vector<const Expr*> keys;
  for (const sql::OrderItem& o : q.order_by) {
    const Expr& key = *o.expr;
    if (key.kind() == ExprKind::kLiteral && key.literal().is_int()) {
      const int64_t position = key.literal().as_int();
      if (position < 1 || static_cast<size_t>(position) > items.size()) {
        return Status::InvalidArgument(
            "ORDER BY position " + std::to_string(position) +
            " is not in the select list (1.." + std::to_string(items.size()) +
            ")");
      }
      keys.push_back(items[position - 1].expr.get());
      continue;
    }
    if (key.kind() == ExprKind::kColumnRef &&
        scope.Count(key.table(), key.column()) != 1) {
      const auto alias =
          std::find_if(items.begin(), items.end(), [&](const auto& item) {
            return EqualsIgnoreCase(item.OutputName(), key.column());
          });
      if (alias != items.end()) {
        keys.push_back(alias->expr.get());
        continue;
      }
    }
    Status status;
    ForEachNode(o.expr, [&](const Expr& e) {
      if (e.kind() == ExprKind::kColumnRef && status.ok()) {
        status = scope.Resolve(e.table(), e.column()).status();
      }
    });
    QP_RETURN_IF_ERROR(status);
    keys.push_back(&key);
  }
  return keys;
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
  QP_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(q, span));
  // A source's rows: a derived table's, filtered by the plan step, or a
  // base table's through scan+filter.
  const auto rows_of = [&](size_t s) -> Result<std::vector<Row>> {
    Source& src = plan.sources[s];
    if (src.materialized) return std::move(src.rows);
    return ScanFilter(plan, s);
  };
  const auto start_t0 = std::chrono::steady_clock::now();
  QP_ASSIGN_OR_RETURN(std::vector<Row> rows, rows_of(plan.start));
  if (span != nullptr) {
    obs::TraceSpan* start_span = span->AddChild(
        "start from '" + plan.sources[plan.start].alias + "' (" +
        std::to_string(rows.size()) + " rows after filters)");
    start_span->AddAttr("rows", rows.size());
    start_span->set_seconds(SecondsSince(start_t0));
  }
  std::vector<OutputColumn> cols = plan.sources[plan.start].columns;
  // Where each joined source's columns start in `cols`.
  std::vector<size_t> offset(plan.sources.size(), 0);
  for (const JoinStep& step : plan.steps) {
    const auto step_t0 = std::chrono::steady_clock::now();
    const Source& next = plan.sources[step.source];
    std::vector<Row> joined;
    if (step.edge.has_value()) {
      const JoinEdge& edge = plan.edges[*step.edge];
      const bool next_on_right = edge.right_source == step.source;
      const size_t probe_col =
          next_on_right ? offset[edge.left_source] + edge.left_col
                        : offset[edge.right_source] + edge.right_col;
      QP_ASSIGN_OR_RETURN(
          joined, HashJoin(plan, rows, probe_col, step.source,
                           next_on_right ? edge.right_col : edge.left_col));
    } else {
      QP_ASSIGN_OR_RETURN(std::vector<Row> right, rows_of(step.source));
      joined = CrossProduct(rows, right);
    }
    Add(kRowsJoined, joined.size());
    if (span != nullptr) {
      // The morsel split is parallelism-dependent and therefore omitted.
      obs::TraceSpan* step_span;
      if (step.edge.has_value()) {
        step_span = span->AddChild(
            "join '" + next.alias + "' via " +
            (next.materialized ? "transient hash on filtered rows"
                               : "persistent index") +
            " [" + plan.edges[*step.edge].atom->ToString() + "] -> " +
            std::to_string(joined.size()) + " rows");
        step_span->AddAttr("method", next.materialized ? "transient_hash"
                                                       : "persistent_index");
      } else {
        step_span = span->AddChild("cross product with '" + next.alias +
                                   "' -> " + std::to_string(joined.size()) +
                                   " rows");
        step_span->AddAttr("method", "cross_product");
      }
      step_span->AddAttr("rows", joined.size());
      step_span->set_seconds(SecondsSince(step_t0));
    }
    offset[step.source] = cols.size();
    cols.insert(cols.end(), next.columns.begin(), next.columns.end());
    rows = std::move(joined);
    if (!step.internal.empty()) {
      QP_RETURN_IF_ERROR(
          Filter(step.internal, Scope(cols), plan.subqueries, &rows));
    }
  }

  const Scope scope(cols);
  if (!plan.residual.empty()) {
    obs::TraceSpan* residual_span =
        span != nullptr ? span->AddChild("apply " +
                                         std::to_string(plan.residual.size()) +
                                         " residual predicate(s)")
                        : nullptr;
    obs::SpanTimer residual_timer(residual_span);
    QP_RETURN_IF_ERROR(Filter(plan.residual, scope, plan.subqueries, &rows));
    residual_timer.Stop();
    if (residual_span != nullptr) residual_span->AddAttr("rows", rows.size());
  }
  RowSet out;
  if (!q.IsAggregate()) {
    QP_ASSIGN_OR_RETURN(out, Finish(q, plan, scope, rows, nullptr));
  } else {
    obs::TraceSpan* agg_span =
        span != nullptr
            ? span->AddChild("aggregate: group by " +
                             std::to_string(q.group_by.size()) + " key(s)" +
                             (q.having != nullptr ? ", with HAVING" : ""))
            : nullptr;
    obs::SpanTimer agg_timer(agg_span);
    size_t num_groups = 0;
    QP_ASSIGN_OR_RETURN(std::vector<AggregateValues> values,
                        Aggregate(q, plan, scope, &rows, &num_groups));
    QP_ASSIGN_OR_RETURN(out, Finish(q, plan, scope, rows, &values));
    agg_timer.Stop();
    if (agg_span != nullptr) {
      agg_span->AddAttr("groups", num_groups);
      agg_span->AddAttr("rows", out.num_rows());
    }
  }
  Add(kRowsOutput, out.num_rows());
  return out;
}

Result<SelectPlan> Executor::PlanSelect(const SelectQuery& q,
                                        obs::TraceSpan* span) const {
  if (q.select.empty()) {
    return Status::InvalidArgument("empty select list");
  }
  if (q.from.empty()) {
    return Status::InvalidArgument("empty FROM clause");
  }
  SelectPlan plan;
  // Sources: derived tables execute eagerly, base tables stay unread.
  plan.sources.reserve(q.from.size());
  for (const TableRef& ref : q.from) {
    Source src;
    src.alias = ToLower(ref.EffectiveAlias());
    for (const auto& other : plan.sources) {
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
    plan.sources.push_back(std::move(src));
  }
  QP_RETURN_IF_ERROR(MaterializeSubqueries(q, span, &plan.subqueries));
  const FromColumns from(plan.sources);
  QP_RETURN_IF_ERROR(Classify(q.where, from, &plan));

  // Access paths, without reading base tables; derived tables are filtered
  // now. Path-choice counters, one per base source, follow the logical
  // choice, so ExecStats::paths_* (and the QueryLog fields fed from it) are
  // deterministic regardless of which indexes exist.
  plan.access.resize(plan.sources.size());
  for (size_t s = 0; s < plan.sources.size(); ++s) {
    Source& src = plan.sources[s];
    if (!src.materialized) {
      plan.access[s] = ChooseAccessPath(src, plan.filters[s], from,
                                        db_->indexes(), options_);
      continue;
    }
    if (!plan.filters[s].empty()) {
      QP_RETURN_IF_ERROR(Filter(plan.filters[s], Scope(src.columns),
                                plan.subqueries, &src.rows));
    }
    plan.access[s].estimated_rows = src.rows.size();
  }
  for (size_t s = 0; s < plan.sources.size(); ++s) {
    if (plan.sources[s].materialized) continue;
    switch (plan.access[s].kind) {
      case index::AccessPath::Kind::kFullScan: Add(kPathScan); break;
      case index::AccessPath::Kind::kHashProbe: Add(kPathProbe); break;
      case index::AccessPath::Kind::kBTreeRange: Add(kPathRange); break;
    }
  }
  if (span != nullptr) RecordSourceSpans(plan, span);
  OrderJoins(&plan);

  // Expand '*' over every source's columns, in FROM order.
  for (const auto& item : q.select) {
    if (item.expr->kind() != ExprKind::kColumnRef ||
        item.expr->column() != "*") {
      plan.items.push_back(item);
      continue;
    }
    for (const Source& src : plan.sources) {
      for (const auto& col : src.columns) {
        plan.items.push_back(
            {Expr::Column(col.qualifier, col.name), col.name});
      }
    }
  }
  return plan;
}

Status Executor::MaterializeSubqueries(const SelectQuery& q,
                                       obs::TraceSpan* span,
                                       SubqueryResults* out) const {
  // Independent subqueries execute concurrently across the pool; each
  // one's hash set is built inside its morsel and slotted by subquery
  // index, so the resulting sets (and the lowest-index error, if any) never
  // depend on scheduling.
  std::vector<const Expr*> nodes;
  const auto collect = [&](const Expr& e) {
    if (e.kind() == ExprKind::kInSubquery) nodes.push_back(&e);
  };
  ForEachNode(q.where, collect);
  ForEachNode(q.having, collect);
  std::vector<std::unordered_set<Value, storage::ValueHash>> sets(
      nodes.size());
  // Each subquery records into its own preallocated span slot; slots are
  // adopted in index order afterwards, so the trace tree is the same at
  // every thread count.
  std::vector<obs::TraceSpan> slots =
      obs::TraceSpan::MakeSlots(span != nullptr ? nodes.size() : 0);
  QP_RETURN_IF_ERROR(ForEachMorsel(
      nodes.size(), Scope(), [&](size_t n, const Scope&) -> Status {
        obs::TraceSpan* sub_span = span != nullptr ? &slots[n] : nullptr;
        if (sub_span != nullptr) {
          sub_span->set_name(std::string(nodes[n]->negated() ? "NOT IN" : "IN") +
                             " subquery (materialized to a hash set):");
        }
        obs::SpanTimer sub_timer(sub_span);
        QP_ASSIGN_OR_RETURN(RowSet sub,
                            Execute(*nodes[n]->subquery(), sub_span));
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
  for (size_t n = 0; n < nodes.size(); ++n) {
    if (span != nullptr) {
      obs::TraceSpan* sub_span = span->Adopt(std::move(slots[n]));
      // Track n+1 when there are several; a lone subquery stays on its
      // parent's track.
      if (nodes.size() > 1) sub_span->set_track(n + 1);
    }
    out->emplace(nodes[n], std::move(sets[n]));
  }
  return Status::OK();
}

Result<std::vector<Row>> Executor::ScanFilter(const SelectPlan& plan,
                                              size_t s) const {
  const Source& src = plan.sources[s];
  const index::AccessPath& path = plan.access[s];
  std::vector<const Row*> candidates;
  if (path.kind == index::AccessPath::Kind::kFullScan) {
    candidates.reserve(src.base->num_rows());
    for (const auto& row : src.base->rows()) candidates.push_back(&row);
    Add(kRowsExamined, src.base->num_rows());
  } else {
    // Candidates come back in ascending row order whether an index
    // snapshot or the scan fallback produced them — the backing is
    // unobservable in results. Only rows_examined (physical work) can
    // tell the difference.
    std::vector<size_t> positions;
    const size_t examined = path.Collect(*src.base, &positions);
    Add(kRowsExamined, examined);
    // Physical win of the index snapshot: the rows a full scan would have
    // touched that the probe/range never did. Zero when Collect fell back
    // to scanning (no index registered).
    if (path.indexed() && examined < src.base->num_rows()) {
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
          QP_ASSIGN_OR_RETURN(bool pass, AllHold(plan.filters[s], scope,
                                                 *candidates[i],
                                                 &plan.subqueries));
          if (pass) kept[m].push_back(*candidates[i]);
        }
        return Status::OK();
      }));
  return Splice(std::move(kept));
}

Status Executor::Filter(const std::vector<ExprPtr>& filters,
                        const Scope& scope, const SubqueryResults& subqueries,
                        std::vector<Row>* rows) const {
  const auto morsels = MorselsFor(rows->size());
  std::vector<std::vector<Row>> kept(morsels.size());
  QP_RETURN_IF_ERROR(ForEachMorsel(
      morsels.size(), scope, [&](size_t m, const Scope& row_scope) -> Status {
        const auto [lo, hi] = morsels[m];
        kept[m].reserve(hi - lo);
        for (size_t r = lo; r < hi; ++r) {
          QP_ASSIGN_OR_RETURN(
              bool pass, AllHold(filters, row_scope, (*rows)[r], &subqueries));
          if (pass) kept[m].push_back(std::move((*rows)[r]));
        }
        return Status::OK();
      }));
  *rows = Splice(std::move(kept));
  return Status::OK();
}

Result<std::vector<Row>> Executor::HashJoin(const SelectPlan& plan,
                                            const std::vector<Row>& left,
                                            size_t probe_col, size_t s,
                                            size_t build_col) const {
  // A base table is probed through the catalog's hash snapshot on the join
  // column, or a transient build over the whole table when no index is
  // registered (identical matches in identical order, more rows examined);
  // its pending filters apply to matched rows only, which keeps PPA's
  // per-tuple point probes O(fan-out) instead of O(table). A derived
  // table's rows are already filtered.
  const Source& next = plan.sources[s];
  const bool base = !next.materialized;
  const std::vector<Row>& build_rows = base ? next.base->rows() : next.rows;
  const std::vector<ExprPtr> no_filters;
  const std::vector<ExprPtr>& filters = base ? plan.filters[s] : no_filters;
  const std::shared_ptr<const index::HashIndex> snapshot =
      base ? db_->indexes().Hash(next.base, build_col) : nullptr;
  // The transient build maps each key to its build-row positions in
  // ascending order. Every morsel builds a partial map over its row range;
  // partials merge in morsel order, which keeps every key's positions
  // ascending, so probe matches replay in build order at any thread count.
  using BuildMap =
      std::unordered_map<Value, std::vector<size_t>, storage::ValueHash>;
  BuildMap build;
  if (snapshot == nullptr) {
    const auto morsels = MorselsFor(build_rows.size());
    std::vector<BuildMap> partial(morsels.size());
    QP_RETURN_IF_ERROR(ForEachMorsel(
        morsels.size(), Scope(), [&](size_t m, const Scope&) -> Status {
          const auto [lo, hi] = morsels[m];
          partial[m].reserve(hi - lo);
          for (size_t i = lo; i < hi; ++i) {
            const Value& key = build_rows[i][build_col];
            if (!key.is_null()) partial[m][key].push_back(i);
          }
          return Status::OK();
        }));
    if (partial.size() == 1) {
      build = std::move(partial[0]);
    } else {
      build.reserve(build_rows.size());
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
    if (base) Add(kRowsExamined, build_rows.size());
  }
  const auto match_positions =
      [&](const Value& key) -> const std::vector<size_t>* {
    if (snapshot != nullptr) return snapshot->Lookup(key);
    const auto it = build.find(key);
    return it == build.end() ? nullptr : &it->second;
  };
  // The probe is morsel-parallel over `left`; matches per left row keep
  // ascending build order and morsel outputs splice in morsel order, so the
  // joined row order is scheduling-independent.
  const auto morsels = MorselsFor(left.size());
  std::vector<std::vector<Row>> parts(morsels.size());
  QP_RETURN_IF_ERROR(ForEachMorsel(
      morsels.size(), Scope(next.columns),
      [&](size_t m, const Scope& next_scope) -> Status {
        size_t examined = 0;
        for (size_t r = morsels[m].first; r < morsels[m].second; ++r) {
          const Row& left_row = left[r];
          const Value& key = left_row[probe_col];
          if (key.is_null()) continue;
          const std::vector<size_t>* matches = match_positions(key);
          if (matches == nullptr) continue;
          examined += matches->size();
          for (size_t pos : *matches) {
            const Row& right_row = build_rows[pos];
            QP_ASSIGN_OR_RETURN(bool pass, AllHold(filters, next_scope,
                                                   right_row,
                                                   &plan.subqueries));
            if (!pass) continue;
            Row merged = left_row;
            merged.insert(merged.end(), right_row.begin(), right_row.end());
            parts[m].push_back(std::move(merged));
          }
        }
        if (base) Add(kRowsExamined, examined);
        return Status::OK();
      }));
  return Splice(std::move(parts));
}

Result<std::vector<AggregateValues>> Executor::Aggregate(
    const SelectQuery& q, const SelectPlan& plan, const Scope& scope,
    std::vector<Row>* rows, size_t* num_groups) const {
  std::vector<const Expr*> agg_nodes;
  const auto collect = [&](const Expr& e) {
    if (e.kind() == ExprKind::kAggregateCall) agg_nodes.push_back(&e);
  };
  for (const auto& item : plan.items) ForEachNode(item.expr, collect);
  ForEachNode(q.having, collect);
  for (const auto& o : q.order_by) ForEachNode(o.expr, collect);
  // Each distinct aggregate (by SQL text) is computed once per group;
  // agg_slot maps every call node to its distinct aggregate.
  std::vector<const Expr*> distinct_aggs;
  std::vector<size_t> agg_slot;
  {
    std::unordered_map<std::string, size_t> by_text;
    for (const Expr* a : agg_nodes) {
      const auto [it, inserted] =
          by_text.try_emplace(a->ToString(), distinct_aggs.size());
      if (inserted) distinct_aggs.push_back(a);
      agg_slot.push_back(it->second);
    }
  }
  AggregateRegistry default_registry;
  const AggregateRegistry* registry =
      aggregates_ != nullptr ? aggregates_ : &default_registry;

  // Group rows by evaluated GROUP BY keys. Key extraction writes into
  // per-row slots so it parallelizes without any ordering concern; the
  // grouping insertion itself stays serial in row order, which keeps the
  // group iteration order (and hence ungrouped output order) identical at
  // every thread count.
  std::vector<Row> group_keys(rows->size());
  const auto key_morsels = MorselsFor(rows->size());
  QP_RETURN_IF_ERROR(ForEachMorsel(
      key_morsels.size(), scope,
      [&](size_t m, const Scope& row_scope) -> Status {
        for (size_t i = key_morsels[m].first; i < key_morsels[m].second;
             ++i) {
          Row& key = group_keys[i];
          key.reserve(q.group_by.size());
          for (const auto& g : q.group_by) {
            QP_ASSIGN_OR_RETURN(Value v, EvalScalar(*g, row_scope, (*rows)[i],
                                                    &plan.subqueries));
            key.push_back(std::move(v));
          }
        }
        return Status::OK();
      }));
  std::unordered_map<Row, std::vector<size_t>, RowHash> groups;
  for (size_t i = 0; i < rows->size(); ++i) {
    groups[std::move(group_keys[i])].push_back(i);
  }
  // A fully aggregated query with no GROUP BY has one (possibly empty)
  // global group, so COUNT(*) over no rows yields 0.
  if (q.group_by.empty() && groups.empty()) {
    groups.emplace(Row{}, std::vector<size_t>{});
  }

  // Snapshot the groups in iteration order, then aggregate each group
  // independently: every group's partial state (its aggregators) lives in
  // its task and its values land in the group's slot, merged back in group
  // order — the parallel analogue of a partial-aggregate merge, exact at
  // any thread count. HAVING rejections leave an empty slot.
  std::vector<const std::vector<size_t>*> group_indices;
  group_indices.reserve(groups.size());
  for (const auto& [key, indices] : groups) group_indices.push_back(&indices);
  std::vector<std::optional<AggregateValues>> slots(group_indices.size());
  const Row empty_row(scope.columns().size());
  const auto group_morsels = MorselsFor(group_indices.size());
  QP_RETURN_IF_ERROR(ForEachMorsel(
      group_morsels.size(), scope,
      [&](size_t m, const Scope& row_scope) -> Status {
        for (size_t g = group_morsels[m].first; g < group_morsels[m].second;
             ++g) {
          const std::vector<size_t>& indices = *group_indices[g];
          std::vector<Value> finals;
          finals.reserve(distinct_aggs.size());
          for (const Expr* node : distinct_aggs) {
            QP_ASSIGN_OR_RETURN(std::unique_ptr<Aggregator> agg,
                                registry->Create(node->function()));
            for (size_t idx : indices) {
              Value arg = Value::Null();
              if (node->argument() != nullptr) {
                QP_ASSIGN_OR_RETURN(
                    arg, EvalScalar(*node->argument(), row_scope,
                                    (*rows)[idx], &plan.subqueries));
              }
              agg->Add(arg);
            }
            finals.push_back(agg->Finalize());
          }
          AggregateValues values;
          for (size_t a = 0; a < agg_nodes.size(); ++a) {
            values.emplace(agg_nodes[a], finals[agg_slot[a]]);
          }
          // Non-aggregate references read the group's first row.
          const Row& rep = indices.empty() ? empty_row : (*rows)[indices[0]];
          if (q.having != nullptr) {
            QP_ASSIGN_OR_RETURN(bool keep,
                                EvalPredicate(*q.having, row_scope, rep,
                                              &plan.subqueries, &values));
            if (!keep) continue;
          }
          slots[g] = std::move(values);
        }
        return Status::OK();
      }));
  *num_groups = group_indices.size();
  std::vector<Row> reps;
  std::vector<AggregateValues> kept;
  for (size_t g = 0; g < slots.size(); ++g) {
    if (!slots[g].has_value()) continue;
    const std::vector<size_t>& indices = *group_indices[g];
    if (indices.empty()) {
      reps.push_back(empty_row);
    } else {
      reps.push_back(std::move((*rows)[indices[0]]));
    }
    kept.push_back(std::move(*slots[g]));
  }
  *rows = std::move(reps);
  return kept;
}

Result<RowSet> Executor::Finish(
    const SelectQuery& q, const SelectPlan& plan, const Scope& scope,
    const std::vector<Row>& rows,
    const std::vector<AggregateValues>* aggregates) const {
  const auto eval = [&](const Expr& e, const Scope& row_scope, size_t i) {
    return EvalScalar(e, row_scope, rows[i], &plan.subqueries,
                      aggregates != nullptr ? &(*aggregates)[i] : nullptr);
  };
  // ORDER BY: each key's meaning is fixed once (ResolveOrderKeys). Sort
  // keys fill per-row slots, so extraction is morsel-parallel; the stable
  // sort stays serial and sees identical inputs either way.
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (!q.order_by.empty()) {
    QP_ASSIGN_OR_RETURN(const std::vector<const Expr*> keys,
                        ResolveOrderKeys(q, plan.items, scope));
    std::vector<Row> sort_keys(rows.size());
    const auto morsels = MorselsFor(rows.size());
    QP_RETURN_IF_ERROR(ForEachMorsel(
        morsels.size(), scope,
        [&](size_t m, const Scope& row_scope) -> Status {
          for (size_t i = morsels[m].first; i < morsels[m].second; ++i) {
            for (const Expr* key : keys) {
              QP_ASSIGN_OR_RETURN(Value v, eval(*key, row_scope, i));
              sort_keys[i].push_back(std::move(v));
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

  // Projection fills per-row slots in sorted order. Under a LIMIT without
  // DISTINCT only the rows the limit keeps are projected; DISTINCT needs
  // every row, since its selection depends on order.
  const size_t to_project = q.limit.has_value() && !q.distinct
                                ? std::min(*q.limit, order.size())
                                : order.size();
  std::vector<Row> projected(to_project);
  const auto morsels = MorselsFor(to_project);
  QP_RETURN_IF_ERROR(ForEachMorsel(
      morsels.size(), scope, [&](size_t m, const Scope& row_scope) -> Status {
        for (size_t i = morsels[m].first; i < morsels[m].second; ++i) {
          projected[i].reserve(plan.items.size());
          for (const auto& item : plan.items) {
            QP_ASSIGN_OR_RETURN(Value v, eval(*item.expr, row_scope, order[i]));
            projected[i].push_back(std::move(v));
          }
        }
        return Status::OK();
      }));
  std::vector<OutputColumn> out_cols;
  out_cols.reserve(plan.items.size());
  for (const auto& item : plan.items) {
    out_cols.push_back({"", item.OutputName()});
  }
  RowSet out(std::move(out_cols));
  out.rows().reserve(projected.size());
  std::unordered_set<Row, RowHash> seen;
  for (Row& row : projected) {
    if (q.limit.has_value() && out.num_rows() >= *q.limit) break;
    if (q.distinct && !seen.insert(row).second) continue;
    out.Add(std::move(row));
  }
  return out;
}

}  // namespace qp::exec
