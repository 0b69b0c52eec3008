#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/string_util.h"
#include "index/access_path.h"
#include "index/catalog.h"
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

/// Tuples between operators: `width` row pointers each, slot s for FROM
/// source s (null until s is joined), pointing into base tables or the
/// plan's derived rows. No operator copies a value.
struct Tuples {
  size_t width = 1;
  std::vector<const Row*> slots;

  size_t size() const { return slots.size() / width; }
  const Row* const* operator[](size_t i) const {
    return slots.data() + i * width;
  }
};

namespace {

/// One FROM source. Base tables stay a pointer until an operator reads them
/// through their access path, so equality predicates can use hash indexes;
/// derived tables are materialized (and filtered) by the plan step.
struct Source {
  std::string alias;
  std::vector<OutputColumn> columns;
  /// Base table (null for derived sources).
  const storage::Table* base = nullptr;
  /// A derived table's rows, and the ones its filters keep.
  std::vector<Row> rows;
  Tuples kept;
  bool materialized = false;

  size_t EstimatedRows() const {
    return materialized ? kept.size() : base->num_rows();
  }
};

/// A join conjunct pinned to the two sources it connects, with its column
/// in each.
struct JoinEdge {
  BoundExpr atom;
  size_t left_source;
  size_t right_source;
  size_t left_col;
  size_t right_col;
};

/// One step of the join order: the source it adds, the edge whose hash join
/// adds it (none: a cross product), and the other edges that become
/// internal to the joined tuples at this step. Each edge is evaluated once:
/// as its step's probe, or as a filter at the step that joins its second
/// source.
struct JoinStep {
  size_t source = 0;
  std::optional<size_t> edge;
  std::vector<BoundExpr> internal;
};

/// One distinct aggregate call of a grouped block: its function, resolved
/// once, and its argument bound over the input tuples (none for COUNT(*)).
struct AggregateCall {
  AggregateFunction fn;
  std::optional<BoundExpr> argument;
};

}  // namespace

/// What the plan step hands the operators: every expression already bound.
struct SelectPlan {
  std::vector<Source> sources;
  SubqueryResults subqueries;
  /// Per source, the WHERE conjuncts over it alone, in WHERE order.
  std::vector<std::vector<BoundExpr>> filters;
  std::vector<JoinEdge> edges;
  /// Conjuncts over several sources that are not join edges.
  std::vector<BoundExpr> residual;
  std::vector<index::AccessPath> access;
  /// The greedy join order: the start source, then one step per other.
  size_t start = 0;
  std::vector<JoinStep> steps;
  /// The select list, '*' expanded over the FROM columns, and its items
  /// bound.
  std::vector<sql::SelectItem> items;
  std::vector<BoundExpr> projection;
  /// Grouped blocks: the GROUP BY keys, the distinct aggregate calls (a
  /// bound aggregate reads its call's slot) and HAVING.
  std::vector<BoundExpr> group_by;
  std::vector<AggregateCall> aggregates;
  std::optional<BoundExpr> having;
  std::vector<BoundExpr> order_by;
};

/// What Aggregate hands Finish: each kept group's representative tuple and
/// its aggregate values (all of a group's slots together), the all-NULL
/// rows an empty global group stands as, and the group count before HAVING.
struct Groups {
  Tuples reps;
  std::vector<Value> aggregates;
  std::vector<Row> null_rows;
  size_t num_groups = 0;
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

/// True when every predicate in `filters` holds on `frame` (stops at the
/// first that does not).
bool AllHold(const std::vector<BoundExpr>& filters, const Frame& frame) {
  return std::all_of(filters.begin(), filters.end(),
                     [&](const BoundExpr& f) { return f.Holds(frame); });
}

/// Concatenates per-morsel outputs in morsel order; a single part is moved
/// whole.
template <typename T>
std::vector<T> Splice(std::vector<std::vector<T>>&& parts) {
  if (parts.size() == 1) return std::move(parts[0]);
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<T> out;
  out.reserve(total);
  for (auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

/// One `width`-slot tuple per row `row_at(i)`, i < n, holding it in slot
/// `s`.
template <typename RowAt>
Tuples OneSource(size_t width, size_t s, size_t n, const RowAt& row_at) {
  Tuples out{width, std::vector<const Row*>(n * width)};
  for (size_t i = 0; i < n; ++i) out.slots[i * width + s] = row_at(i);
  return out;
}

/// Wall time since `t0` in seconds (trace and thread_seconds timing).
double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Binds the WHERE conjuncts into the plan: a conjunct over one source is
/// that source's filter (over none, the first source's), a column = column
/// equality over two is a join edge, anything else is residual. Every name
/// is resolved here, so a bad one fails before any row is read.
Status Classify(const ExprPtr& where, const BindContext& context,
                SelectPlan* plan) {
  plan->filters.resize(plan->sources.size());
  for (const ExprPtr& conjunct : sql::ConjunctsOf(where)) {
    QP_ASSIGN_OR_RETURN(BoundExpr bound,
                        BoundExpr::Bind(*conjunct, context, true));
    const auto cols = bound.Columns();
    std::set<size_t> refs;
    for (const auto& col : cols) refs.insert(col.first);
    if (refs.size() <= 1) {
      plan->filters[refs.empty() ? 0 : *refs.begin()].push_back(
          std::move(bound));
    } else if (conjunct->IsJoinAtom()) {
      plan->edges.push_back({std::move(bound), cols[0].first, cols[1].first,
                             cols[0].second, cols[1].second});
    } else {
      plan->residual.push_back(std::move(bound));
    }
  }
  return Status::OK();
}

/// Binds the output side of a select block before any row is read: for a
/// grouped block its GROUP BY keys, its distinct aggregate calls (each
/// function resolved once) and HAVING; the select items; the ORDER BY
/// keys. A key name is an input column, else a select-item alias;
/// an integer literal is a 1-based select-list position; any other key is
/// bound as written. Under DISTINCT every key must be a select item.
Status BindOutput(const SelectQuery& q, const Scope& from,
                  const AggregateRegistry& registry, SelectPlan* plan) {
  for (const auto& g : q.group_by) {
    QP_ASSIGN_OR_RETURN(BoundExpr bound,
                        BoundExpr::Bind(*g, {from, plan->subqueries}));
    plan->group_by.push_back(std::move(bound));
  }
  std::vector<std::string> texts;
  if (q.IsAggregate()) {
    std::vector<const Expr*> calls;
    const auto collect = [&](const Expr& e) {
      if (e.kind() != ExprKind::kAggregateCall) return;
      const std::string text = e.ToString();
      if (std::find(texts.begin(), texts.end(), text) != texts.end()) return;
      texts.push_back(text);
      calls.push_back(&e);
    };
    for (const auto& item : plan->items) ForEachNode(item.expr, collect);
    ForEachNode(q.having, collect);
    for (const auto& o : q.order_by) ForEachNode(o.expr, collect);
    for (const Expr* call : calls) {
      AggregateCall bound;
      QP_ASSIGN_OR_RETURN(bound.fn, registry.Resolve(call->function()));
      if (call->argument() != nullptr) {
        QP_ASSIGN_OR_RETURN(bound.argument,
                            BoundExpr::Bind(*call->argument(),
                                            {from, plan->subqueries}));
      }
      plan->aggregates.push_back(std::move(bound));
    }
  }
  const BindContext context{from, plan->subqueries,
                            q.IsAggregate() ? &texts : nullptr};
  if (q.having != nullptr) {
    QP_ASSIGN_OR_RETURN(plan->having,
                        BoundExpr::Bind(*q.having, context, true));
  }
  for (const auto& item : plan->items) {
    QP_ASSIGN_OR_RETURN(BoundExpr bound, BoundExpr::Bind(*item.expr, context));
    plan->projection.push_back(std::move(bound));
  }
  const std::vector<sql::SelectItem>& items = plan->items;
  for (const sql::OrderItem& o : q.order_by) {
    const Expr& key = *o.expr;
    const Expr* target = &key;
    if (key.kind() == ExprKind::kLiteral && key.literal().is_int()) {
      const int64_t position = key.literal().as_int();
      if (position < 1 || static_cast<size_t>(position) > items.size()) {
        return Status::InvalidArgument(
            "ORDER BY position " + std::to_string(position) +
            " is not in the select list (1.." + std::to_string(items.size()) +
            ")");
      }
      target = items[position - 1].expr.get();
    } else if (key.kind() == ExprKind::kColumnRef &&
               from.Count(key.table(), key.column()) != 1) {
      const auto alias =
          std::find_if(items.begin(), items.end(), [&](const auto& item) {
            return EqualsIgnoreCase(item.OutputName(), key.column());
          });
      if (alias != items.end()) target = alias->expr.get();
    }
    QP_ASSIGN_OR_RETURN(BoundExpr bound, BoundExpr::Bind(*target, context));
    if (q.distinct && target == &key &&
        std::find(plan->projection.begin(), plan->projection.end(), bound) ==
            plan->projection.end()) {
      return Status::InvalidArgument(
          "ORDER BY key '" + key.ToString() +
          "' is not in the select list of a SELECT DISTINCT");
    }
    plan->order_by.push_back(std::move(bound));
  }
  return Status::OK();
}

/// Picks a base source's access path from its filters. The choice is
/// logical: predicate shape plus an index-independent cardinality estimate
/// (exact match counts by default, histogram estimates when
/// ExecOptions::stats is set). The chosen probe or range path keeps its
/// candidates (AccessPath::Prefetch): an exact count is that collection,
/// and under histogram estimates the winner collects once chosen.
/// The catalog only changes the physical backing — whether a snapshot is
/// probed or a scan produces the identical candidate set — so results and
/// ExecStats never depend on which indexes exist.
index::AccessPath ChooseAccessPath(const Source& src,
                                   const std::vector<BoundExpr>& filters,
                                   const index::IndexCatalog& catalog,
                                   const ExecOptions& options) {
  index::AccessPath path;
  // A path is taken only when its estimate is strictly below num_rows:
  // whenever the predicate is estimated to exclude anything.
  const size_t num_rows = src.base->num_rows();
  // A histogram estimate collected nothing, so the winner collects now.
  const auto chosen = [&](index::AccessPath winner) {
    if (options.stats != nullptr &&
        winner.kind != index::AccessPath::Kind::kFullScan) {
      winner.Prefetch(*src.base);
    }
    return winner;
  };
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
    if (!f.expr().IsSelectionAtom(&attr, &op, &lit) || lit.is_null()) continue;
    const size_t col = f.Columns()[0].second;
    if (op == BinaryOp::kEq) {
      eq_col = col;
      eq_key = std::move(lit);
      eq_attr = attr;
      break;
    }
    index::RangeBounds& b = per_column[col];
    column_attr[col] = attr;
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
    index::AccessPath probe;
    probe.kind = index::AccessPath::Kind::kHashProbe;
    probe.col = *eq_col;
    probe.column_name = src.columns[*eq_col].name;
    probe.eq_key = std::move(eq_key);
    probe.hash = catalog.Hash(src.base, *eq_col);
    probe.estimated_rows =
        options.stats != nullptr
            ? static_cast<size_t>(std::llround(
                  options.stats->EstimateSelectivity(
                      eq_attr, stats::CompareOp::kEq, probe.eq_key) *
                  static_cast<double>(num_rows)))
            : probe.Prefetch(*src.base);
    if (probe.estimated_rows < num_rows) return chosen(std::move(probe));
    path.estimated_rows = probe.estimated_rows;
    return path;
  }
  path.estimated_rows = num_rows;
  for (const auto& [col, b] : per_column) {
    if (!b.has_lo && !b.has_hi) continue;
    index::AccessPath range;
    range.kind = index::AccessPath::Kind::kBTreeRange;
    range.col = col;
    range.column_name = src.columns[col].name;
    range.bounds = b;
    range.sorted = catalog.Range(src.base, col);
    const bool numeric_bounds =
        (!b.has_lo || b.lo.is_numeric()) && (!b.has_hi || b.hi.is_numeric());
    range.estimated_rows =
        options.stats != nullptr && numeric_bounds
            ? static_cast<size_t>(std::llround(
                  options.stats->EstimateRangeSelectivity(
                      column_attr[col], b.has_lo ? b.lo.ToNumeric() : -HUGE_VAL,
                      b.has_hi ? b.hi.ToNumeric() : HUGE_VAL) *
                  static_cast<double>(num_rows)))
            : range.Prefetch(*src.base);
    if (range.estimated_rows < path.estimated_rows) path = std::move(range);
  }
  return chosen(std::move(path));
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

/// Every left tuple extended by each right tuple's row in slot `s`, left
/// tuples outermost.
Tuples CrossProduct(const Tuples& left, const Tuples& right, size_t s) {
  Tuples out{left.width, {}};
  out.slots.reserve(left.slots.size() * right.size());
  for (size_t i = 0; i < left.size(); ++i) {
    for (size_t j = 0; j < right.size(); ++j) {
      out.slots.insert(out.slots.end(), left[i], left[i] + left.width);
      out.slots[out.slots.size() - left.width + s] = right[j][s];
    }
  }
  return out;
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

template <typename Body>
Status Executor::ForEachMorsel(size_t n, const Body& body) const {
  common::ThreadPool* pool = ParallelEnabled() ? ActivePool() : nullptr;
  return common::ThreadPool::ParallelFor(pool, n, [&](size_t m) -> Status {
    QP_RETURN_IF_ERROR(CheckCancel());
    const auto t0 = std::chrono::steady_clock::now();
    const Status status = body(m);
    thread_seconds_.Add(SecondsSince(t0));
    return status;
  });
}

Result<RowSet> Executor::Execute(const sql::Query& query,
                                 obs::TraceSpan* trace) const {
  if (!query.is_union()) return Execute(query.single(), trace);
  Add(kQueries);
  RowSet out;
  size_t branch_no = 0;
  for (const auto& branch : query.branches()) {
    obs::TraceSpan* branch_span =
        trace != nullptr ? trace->AddChild("union branch " +
                                           std::to_string(branch_no + 1) + ":")
                         : nullptr;
    obs::SpanTimer branch_timer(branch_span);
    auto part_result = ExecuteSelect(branch, branch_span);
    branch_timer.Stop();
    QP_ASSIGN_OR_RETURN(RowSet part, std::move(part_result));
    if (branch_span != nullptr) branch_span->AddAttr("rows", part.num_rows());
    if (branch_no++ == 0) {
      out = std::move(part);
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

Result<RowSet> Executor::Execute(const SelectQuery& query,
                                 obs::TraceSpan* trace) const {
  Add(kQueries);
  return ExecuteSelect(query, trace);
}

Result<RowSet> Executor::ExecuteSelect(const SelectQuery& q,
                                       obs::TraceSpan* span) const {
  QP_RETURN_IF_ERROR(CheckCancel());
  QP_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(q, span));
  // A source's rows: a derived table's, filtered by the plan step, or a
  // base table's through scan+filter.
  const auto rows_of = [&](size_t s) -> Result<Tuples> {
    Source& src = plan.sources[s];
    if (src.materialized) return std::move(src.kept);
    return ScanFilter(plan, s);
  };
  const auto start_t0 = std::chrono::steady_clock::now();
  QP_ASSIGN_OR_RETURN(Tuples tuples, rows_of(plan.start));
  if (span != nullptr) {
    obs::TraceSpan* start_span = span->AddChild(
        "start from '" + plan.sources[plan.start].alias + "' (" +
        std::to_string(tuples.size()) + " rows after filters)");
    start_span->AddAttr("rows", tuples.size());
    start_span->set_seconds(SecondsSince(start_t0));
  }
  for (const JoinStep& step : plan.steps) {
    const auto step_t0 = std::chrono::steady_clock::now();
    const Source& next = plan.sources[step.source];
    Tuples joined;
    if (step.edge.has_value()) {
      const JoinEdge& edge = plan.edges[*step.edge];
      const bool next_on_right = edge.right_source == step.source;
      QP_ASSIGN_OR_RETURN(
          joined,
          HashJoin(plan, tuples,
                   next_on_right ? edge.left_source : edge.right_source,
                   next_on_right ? edge.left_col : edge.right_col,
                   step.source, next_on_right ? edge.right_col : edge.left_col));
    } else {
      QP_ASSIGN_OR_RETURN(Tuples right, rows_of(step.source));
      joined = CrossProduct(tuples, right, step.source);
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
            " [" + plan.edges[*step.edge].atom.expr().ToString() + "] -> " +
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
    tuples = std::move(joined);
    QP_RETURN_IF_ERROR(Filter(step.internal, &tuples));
  }

  if (!plan.residual.empty()) {
    obs::TraceSpan* residual_span =
        span != nullptr ? span->AddChild("apply " +
                                         std::to_string(plan.residual.size()) +
                                         " residual predicate(s)")
                        : nullptr;
    obs::SpanTimer residual_timer(residual_span);
    QP_RETURN_IF_ERROR(Filter(plan.residual, &tuples));
    residual_timer.Stop();
    if (residual_span != nullptr) {
      residual_span->AddAttr("rows", tuples.size());
    }
  }
  RowSet out;
  if (!q.IsAggregate()) {
    QP_ASSIGN_OR_RETURN(out, Finish(q, plan, tuples, nullptr));
  } else {
    obs::TraceSpan* agg_span =
        span != nullptr
            ? span->AddChild("aggregate: group by " +
                             std::to_string(q.group_by.size()) + " key(s)" +
                             (q.having != nullptr ? ", with HAVING" : ""))
            : nullptr;
    obs::SpanTimer agg_timer(agg_span);
    QP_ASSIGN_OR_RETURN(Groups groups, Aggregate(plan, tuples));
    QP_ASSIGN_OR_RETURN(
        out, Finish(q, plan, groups.reps, groups.aggregates.data()));
    agg_timer.Stop();
    if (agg_span != nullptr) {
      agg_span->AddAttr("groups", groups.num_groups);
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
  Scope from;
  for (const Source& src : plan.sources) from.AddSource(src.columns);
  QP_RETURN_IF_ERROR(Classify(q.where, {from, plan.subqueries}, &plan));

  // Expand '*' over every source's columns, in FROM order, and bind the
  // output side.
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
  const AggregateRegistry builtins;
  QP_RETURN_IF_ERROR(BindOutput(
      q, from, aggregates_ != nullptr ? *aggregates_ : builtins, &plan));

  // Access paths, without reading base tables; derived tables are filtered
  // now. Path-choice counters, one per base source, follow the logical
  // choice, so ExecStats::paths_* (and the QueryLog fields fed from it) are
  // deterministic regardless of which indexes exist.
  plan.access.resize(plan.sources.size());
  for (size_t s = 0; s < plan.sources.size(); ++s) {
    Source& src = plan.sources[s];
    if (!src.materialized) {
      plan.access[s] =
          ChooseAccessPath(src, plan.filters[s], db_->indexes(), options_);
      continue;
    }
    src.kept = OneSource(plan.sources.size(), s, src.rows.size(),
                         [&](size_t i) { return &src.rows[i]; });
    QP_RETURN_IF_ERROR(Filter(plan.filters[s], &src.kept));
    plan.access[s].estimated_rows = src.kept.size();
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
  std::vector<ValueSet> sets(nodes.size());
  // Each subquery records into its own preallocated span slot; slots are
  // adopted in index order afterwards, so the trace tree is the same at
  // every thread count.
  std::vector<obs::TraceSpan> slots =
      obs::TraceSpan::MakeSlots(span != nullptr ? nodes.size() : 0);
  QP_RETURN_IF_ERROR(ForEachMorsel(nodes.size(), [&](size_t n) -> Status {
    obs::TraceSpan* sub_span = span != nullptr ? &slots[n] : nullptr;
    if (sub_span != nullptr) {
      sub_span->set_name(std::string(nodes[n]->negated() ? "NOT IN" : "IN") +
                         " subquery (materialized to a hash set):");
    }
    obs::SpanTimer sub_timer(sub_span);
    QP_ASSIGN_OR_RETURN(RowSet sub, Execute(*nodes[n]->subquery(), sub_span));
    sub_timer.Stop();
    if (sub.num_columns() != 1) {
      return Status::InvalidArgument(
          "IN-subquery must return exactly one column");
    }
    sets[n].reserve(sub.num_rows());
    for (auto& row : sub.rows()) {
      if (!row[0].is_null()) sets[n].insert(std::move(row[0]));
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

Result<Tuples> Executor::ScanFilter(const SelectPlan& plan, size_t s) const {
  const storage::Table& table = *plan.sources[s].base;
  const index::AccessPath& path = plan.access[s];
  // A probe or range path's candidates were kept by the planner
  // (AccessPath::Prefetch), in ascending row order whether an index
  // snapshot or the scan fallback produced them — the backing is
  // unobservable in results. Only rows_examined (physical work) can tell
  // the difference.
  const bool full = path.kind == index::AccessPath::Kind::kFullScan;
  const size_t examined = full ? table.num_rows() : path.examined;
  Add(kRowsExamined, examined);
  // Physical win of the index snapshot: the rows a full scan would have
  // touched that the probe/range never did. Zero when Prefetch fell back
  // to scanning (no index registered).
  if (path.indexed() && examined < table.num_rows()) {
    Add(kRowsSaved, table.num_rows() - examined);
  }
  Tuples tuples = OneSource(
      plan.sources.size(), s, full ? table.num_rows() : path.positions.size(),
      [&](size_t i) { return &table.row(full ? i : path.positions[i]); });
  Add(kRowsScanned, tuples.size());
  QP_RETURN_IF_ERROR(Filter(plan.filters[s], &tuples));
  return tuples;
}

Status Executor::Filter(const std::vector<BoundExpr>& filters,
                        Tuples* tuples) const {
  if (filters.empty()) return Status::OK();
  const size_t width = tuples->width;
  const auto morsels = MorselsFor(tuples->size());
  std::vector<std::vector<const Row*>> kept(morsels.size());
  QP_RETURN_IF_ERROR(ForEachMorsel(morsels.size(), [&](size_t m) -> Status {
    for (size_t r = morsels[m].first; r < morsels[m].second; ++r) {
      const Row* const* tuple = (*tuples)[r];
      if (AllHold(filters, Frame{tuple})) {
        kept[m].insert(kept[m].end(), tuple, tuple + width);
      }
    }
    return Status::OK();
  }));
  tuples->slots = Splice(std::move(kept));
  return Status::OK();
}

Result<Tuples> Executor::HashJoin(const SelectPlan& plan, const Tuples& left,
                                  size_t probe_source, size_t probe_col,
                                  size_t s, size_t build_col) const {
  // A base table is probed through the catalog's hash snapshot on the join
  // column, or a transient build over the whole table when no index is
  // registered (identical matches in identical order, more rows examined);
  // its pending filters apply to matched rows only, which keeps PPA's
  // per-tuple point probes O(fan-out) instead of O(table). A derived
  // table's rows are already filtered.
  const Source& next = plan.sources[s];
  const bool base = !next.materialized;
  const size_t build_size = base ? next.base->num_rows() : next.kept.size();
  const auto build_row = [&](size_t i) {
    return base ? &next.base->row(i) : next.kept[i][s];
  };
  const std::vector<BoundExpr> no_filters;
  const std::vector<BoundExpr>& filters = base ? plan.filters[s] : no_filters;
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
    const auto morsels = MorselsFor(build_size);
    std::vector<BuildMap> partial(morsels.size());
    QP_RETURN_IF_ERROR(ForEachMorsel(morsels.size(), [&](size_t m) -> Status {
      const auto [lo, hi] = morsels[m];
      partial[m].reserve(hi - lo);
      for (size_t i = lo; i < hi; ++i) {
        const Value& key = (*build_row(i))[build_col];
        if (!key.is_null()) partial[m][key].push_back(i);
      }
      return Status::OK();
    }));
    if (partial.size() == 1) {
      build = std::move(partial[0]);
    } else {
      build.reserve(build_size);
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
    if (base) Add(kRowsExamined, build_size);
  }
  const auto match_positions =
      [&](const Value& key) -> const std::vector<size_t>* {
    if (snapshot != nullptr) return snapshot->Lookup(key);
    const auto it = build.find(key);
    return it == build.end() ? nullptr : &it->second;
  };
  // The probe is morsel-parallel over `left`; matches per left tuple keep
  // ascending build order and morsel outputs splice in morsel order, so the
  // joined tuple order is scheduling-independent.
  const size_t width = left.width;
  const auto morsels = MorselsFor(left.size());
  std::vector<std::vector<const Row*>> parts(morsels.size());
  QP_RETURN_IF_ERROR(ForEachMorsel(morsels.size(), [&](size_t m) -> Status {
    std::vector<const Row*>& out = parts[m];
    size_t examined = 0;
    for (size_t r = morsels[m].first; r < morsels[m].second; ++r) {
      const Row* const* tuple = left[r];
      const Value& key = (*tuple[probe_source])[probe_col];
      if (key.is_null()) continue;
      const std::vector<size_t>* matches = match_positions(key);
      if (matches == nullptr) continue;
      examined += matches->size();
      for (size_t pos : *matches) {
        out.insert(out.end(), tuple, tuple + width);
        const Row** joined = out.data() + out.size() - width;
        joined[s] = build_row(pos);
        if (!AllHold(filters, Frame{joined})) out.resize(out.size() - width);
      }
    }
    if (base) Add(kRowsExamined, examined);
    return Status::OK();
  }));
  return Tuples{width, Splice(std::move(parts))};
}

Result<Groups> Executor::Aggregate(const SelectPlan& plan,
                                   const Tuples& tuples) const {
  const size_t n = tuples.size();
  const size_t num_aggs = plan.aggregates.size();
  // Each tuple's GROUP BY key hash (FNV over the referenced key values),
  // in per-tuple slots, so extraction parallelizes freely.
  std::vector<size_t> hashes(n);
  const auto key_morsels = MorselsFor(n);
  QP_RETURN_IF_ERROR(ForEachMorsel(key_morsels.size(), [&](size_t m) -> Status {
    Value scratch;
    for (size_t i = key_morsels[m].first; i < key_morsels[m].second; ++i) {
      size_t h = 1469598103934665603ULL;
      for (const BoundExpr& g : plan.group_by) {
        h = (h ^ g.Eval(Frame{tuples[i]}, scratch).Hash()) * 1099511628211ULL;
      }
      hashes[i] = h;
    }
    return Status::OK();
  }));
  // Groups keyed by their first tuple, each with its tuples in order. The
  // insertion stays serial in tuple order, so the map iterates its groups
  // — the order they are aggregated and output in — identically at every
  // thread count.
  const auto key_hash = [&](size_t i) { return hashes[i]; };
  const auto key_eq = [&](size_t a, size_t b) {
    Value scratch_a;
    Value scratch_b;
    return std::all_of(
        plan.group_by.begin(), plan.group_by.end(), [&](const BoundExpr& g) {
          return g.Eval(Frame{tuples[a]}, scratch_a) ==
                 g.Eval(Frame{tuples[b]}, scratch_b);
        });
  };
  std::unordered_map<size_t, std::vector<size_t>, decltype(key_hash),
                     decltype(key_eq)>
      groups(0, key_hash, key_eq);
  for (size_t i = 0; i < n; ++i) groups[i].push_back(i);
  // The groups in iteration order, each standing as its first tuple. A
  // fully aggregated block with no GROUP BY has one (possibly empty)
  // global group, so COUNT(*) over no tuples yields 0; the empty group
  // stands as a tuple of all-NULL rows.
  Groups out;
  out.reps.width = tuples.width;
  std::vector<const std::vector<size_t>*> members;
  std::vector<const Row* const*> reps;
  for (const auto& [first, group] : groups) {
    members.push_back(&group);
    reps.push_back(tuples[first]);
  }
  const std::vector<size_t> no_members;
  std::vector<const Row*> null_tuple;
  if (plan.group_by.empty() && n == 0) {
    for (const Source& src : plan.sources) {
      out.null_rows.emplace_back(src.columns.size());
    }
    for (const Row& row : out.null_rows) null_tuple.push_back(&row);
    members.push_back(&no_members);
    reps.push_back(null_tuple.data());
  }
  // Each group folds into its own slots — the parallel analogue of a
  // partial-aggregate merge, exact at any thread count. HAVING rejections
  // are marked and dropped afterwards.
  out.num_groups = members.size();
  std::vector<Value> values(out.num_groups * num_aggs);
  std::vector<char> keep(out.num_groups, 1);
  static const Value kNull;
  const auto group_morsels = MorselsFor(out.num_groups);
  QP_RETURN_IF_ERROR(
      ForEachMorsel(group_morsels.size(), [&](size_t m) -> Status {
        Value scratch;
        for (size_t g = group_morsels[m].first; g < group_morsels[m].second;
             ++g) {
          const std::vector<size_t>& group = *members[g];
          Value* slots = values.data() + g * num_aggs;
          for (size_t a = 0; a < num_aggs; ++a) {
            const AggregateCall& call = plan.aggregates[a];
            slots[a] = call.fn.Fold(group.size(), [&](size_t k) -> const Value& {
              return call.argument.has_value()
                         ? call.argument->Eval(Frame{tuples[group[k]]},
                                               scratch)
                         : kNull;
            });
          }
          // Non-aggregate references read the group's first tuple.
          if (plan.having.has_value()) {
            keep[g] = plan.having->Holds(Frame{reps[g], slots});
          }
        }
        return Status::OK();
      }));
  for (size_t g = 0; g < out.num_groups; ++g) {
    if (!keep[g]) continue;
    out.reps.slots.insert(out.reps.slots.end(), reps[g],
                          reps[g] + tuples.width);
    out.aggregates.insert(
        out.aggregates.end(),
        std::make_move_iterator(values.begin() + g * num_aggs),
        std::make_move_iterator(values.begin() + (g + 1) * num_aggs));
  }
  return out;
}

Result<RowSet> Executor::Finish(const SelectQuery& q, const SelectPlan& plan,
                                const Tuples& rows,
                                const Value* aggregates) const {
  const size_t num_aggs = plan.aggregates.size();
  const auto frame = [&](size_t i) {
    return Frame{rows[i],
                 aggregates != nullptr ? aggregates + i * num_aggs : nullptr};
  };
  // ORDER BY: each key was bound by the plan step. Sort keys fill per-row
  // slots — a reference into the rows or aggregate values, or a computed
  // value kept beside it — so extraction is morsel-parallel; the stable
  // sort stays serial and sees identical inputs either way.
  const size_t n = rows.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  const size_t num_keys = plan.order_by.size();
  if (num_keys > 0) {
    std::vector<Value> computed(n * num_keys);
    std::vector<const Value*> keys(n * num_keys);
    const auto morsels = MorselsFor(n);
    QP_RETURN_IF_ERROR(ForEachMorsel(morsels.size(), [&](size_t m) -> Status {
      for (size_t i = morsels[m].first; i < morsels[m].second; ++i) {
        for (size_t k = 0; k < num_keys; ++k) {
          const size_t slot = i * num_keys + k;
          keys[slot] = &plan.order_by[k].Eval(frame(i), computed[slot]);
        }
      }
      return Status::OK();
    }));
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < num_keys; ++k) {
        const int cmp =
            keys[a * num_keys + k]->Compare(*keys[b * num_keys + k]);
        if (cmp != 0) return q.order_by[k].ascending ? cmp < 0 : cmp > 0;
      }
      return false;
    });
  }

  // Projection is the one place values are copied: into per-row slots, in
  // sorted order. Under a LIMIT without DISTINCT only the rows the limit
  // keeps are projected; DISTINCT needs every row, since its selection
  // depends on order.
  const size_t to_project = q.limit.has_value() && !q.distinct
                                ? std::min(*q.limit, n)
                                : n;
  std::vector<Row> projected(to_project);
  const auto morsels = MorselsFor(to_project);
  QP_RETURN_IF_ERROR(ForEachMorsel(morsels.size(), [&](size_t m) -> Status {
    Value scratch;
    for (size_t i = morsels[m].first; i < morsels[m].second; ++i) {
      Row& row = projected[i];
      row.reserve(plan.projection.size());
      for (const BoundExpr& item : plan.projection) {
        row.push_back(item.Eval(frame(order[i]), scratch));
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
  std::vector<Row>& kept = out.rows();
  kept.reserve(projected.size());
  const auto less = [&](size_t a, size_t b) { return kept[a] < kept[b]; };
  std::set<size_t, decltype(less)> seen(less);
  for (Row& row : projected) {
    if (q.limit.has_value() && kept.size() >= *q.limit) break;
    kept.push_back(std::move(row));
    if (q.distinct && !seen.insert(kept.size() - 1).second) kept.pop_back();
  }
  return out;
}

}  // namespace qp::exec
