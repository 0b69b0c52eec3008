// Helpers shared by several suites: the small generated-profile
// configuration the serving-stack tests personalize against, a latch that
// parks a scheduler worker, and the naive reference executor (with its own
// evaluator) the executor tests compare against.

#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "datagen/profilegen.h"
#include "exec/aggregate.h"
#include "exec/evaluator.h"
#include "exec/row_set.h"
#include "sql/query.h"
#include "storage/database.h"

namespace qp::test {

/// A small profile over an 80-movie database: 4 presence, 2 negative, one
/// 1-1 absence and one elastic preference.
inline datagen::ProfileGenConfig SmallConfig(uint64_t seed) {
  datagen::ProfileGenConfig config;
  config.seed = seed;
  config.num_presence = 4;
  config.num_negative = 2;
  config.num_absence_11 = 1;
  config.num_elastic = 1;
  config.db_config.num_movies = 80;
  config.db_config.num_directors = 15;
  config.db_config.num_actors = 40;
  config.db_config.num_theatres = 6;
  config.db_config.plays_per_theatre = 8;
  return config;
}

/// Wedge: an intercept that parks the (single) worker thread until
/// Release(), so everything submitted behind it queues up deterministically.
class Latch {
 public:
  std::optional<Status> Block() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
    return Status::OK();
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

/// Rows rendered to strings, in order, for sequence and multiset equality.
inline std::vector<std::string> AsSequence(const exec::RowSet& rows) {
  std::vector<std::string> out;
  out.reserve(rows.num_rows());
  for (const auto& row : rows.rows()) {
    std::string key;
    for (const auto& v : row) {
      key += v.ToString();
      key += '\x1f';
    }
    out.push_back(std::move(key));
  }
  return out;
}

inline std::multiset<std::string> AsMultiset(const exec::RowSet& rows) {
  const std::vector<std::string> seq = AsSequence(rows);
  return {seq.begin(), seq.end()};
}

inline Result<exec::RowSet> NaiveExecute(
    const storage::Database& db, const sql::Query& query,
    const exec::AggregateRegistry* aggregates = nullptr);

/// Calls `visit` on `expr` and every sub-expression, aggregate arguments
/// included (not into subqueries).
template <typename Visit>
void NaiveWalk(const sql::ExprPtr& expr, const Visit& visit) {
  if (expr == nullptr) return;
  visit(*expr);
  NaiveWalk(expr->left(), visit);
  NaiveWalk(expr->right(), visit);
}

/// What one evaluation of the reference reads: the combined row of every
/// FROM source, its layout (with the block's resolved names, filled as
/// they are first met), the IN-subquery sets and, over a group, the
/// group's aggregate values by call node.
struct NaiveEnv {
  const exec::Scope& scope;
  std::map<const sql::Expr*, size_t>* resolved;
  const storage::Row& row;
  const std::map<const sql::Expr*, std::set<storage::Value>>* subqueries;
  const std::map<const sql::Expr*, storage::Value>* aggregates;
};

/// Three-valued truth.
enum class NaiveTruth { kFalse, kTrue, kNull };

inline Result<NaiveTruth> NaiveTruthOf(const sql::Expr& expr,
                                       const NaiveEnv& env);

/// The reference's own tree-walking evaluator: a name resolves through the
/// layout the first time its node is met, every value is a copy.
inline Result<storage::Value> NaiveValue(const sql::Expr& expr,
                                         const NaiveEnv& env) {
  switch (expr.kind()) {
    case sql::ExprKind::kLiteral:
      return expr.literal();
    case sql::ExprKind::kColumnRef: {
      auto it = env.resolved->find(&expr);
      if (it == env.resolved->end()) {
        QP_ASSIGN_OR_RETURN(size_t i,
                            env.scope.Resolve(expr.table(), expr.column()));
        it = env.resolved->emplace(&expr, i).first;
      }
      return env.row[it->second];
    }
    case sql::ExprKind::kAggregateCall: {
      if (env.aggregates != nullptr) {
        const auto it = env.aggregates->find(&expr);
        if (it != env.aggregates->end()) return it->second;
      }
      return Status::InvalidArgument("naive reference: aggregate '" +
                                     expr.function() + "' outside a group");
    }
    case sql::ExprKind::kScalarFn: {
      QP_ASSIGN_OR_RETURN(storage::Value arg,
                          NaiveValue(*expr.argument(), env));
      return expr.scalar_fn()(arg);
    }
    default: {
      QP_ASSIGN_OR_RETURN(NaiveTruth t, NaiveTruthOf(expr, env));
      if (t == NaiveTruth::kNull) return storage::Value::Null();
      return storage::Value(static_cast<int64_t>(t == NaiveTruth::kTrue));
    }
  }
}

inline Result<NaiveTruth> NaiveTruthOf(const sql::Expr& expr,
                                       const NaiveEnv& env) {
  using sql::BinaryOp;
  switch (expr.kind()) {
    case sql::ExprKind::kComparison: {
      QP_ASSIGN_OR_RETURN(storage::Value l, NaiveValue(*expr.left(), env));
      QP_ASSIGN_OR_RETURN(storage::Value r, NaiveValue(*expr.right(), env));
      if (l.is_null() || r.is_null()) return NaiveTruth::kNull;
      bool result = false;
      switch (expr.op()) {
        case BinaryOp::kEq: result = l == r; break;
        case BinaryOp::kNe: result = l != r; break;
        case BinaryOp::kLt: result = l < r; break;
        case BinaryOp::kLe: result = l <= r; break;
        case BinaryOp::kGt: result = l > r; break;
        case BinaryOp::kGe: result = l >= r; break;
      }
      return result ? NaiveTruth::kTrue : NaiveTruth::kFalse;
    }
    case sql::ExprKind::kAnd:
    case sql::ExprKind::kOr: {
      // AND is FALSE if either side is, OR is TRUE if either side is;
      // otherwise NULL if either side is.
      const bool is_and = expr.kind() == sql::ExprKind::kAnd;
      const NaiveTruth decisive = is_and ? NaiveTruth::kFalse : NaiveTruth::kTrue;
      QP_ASSIGN_OR_RETURN(NaiveTruth l, NaiveTruthOf(*expr.left(), env));
      if (l == decisive) return decisive;
      QP_ASSIGN_OR_RETURN(NaiveTruth r, NaiveTruthOf(*expr.right(), env));
      if (r == decisive) return decisive;
      if (l == NaiveTruth::kNull || r == NaiveTruth::kNull) {
        return NaiveTruth::kNull;
      }
      return is_and ? NaiveTruth::kTrue : NaiveTruth::kFalse;
    }
    case sql::ExprKind::kNot: {
      QP_ASSIGN_OR_RETURN(NaiveTruth t, NaiveTruthOf(*expr.operand(), env));
      if (t == NaiveTruth::kNull) return NaiveTruth::kNull;
      return t == NaiveTruth::kTrue ? NaiveTruth::kFalse : NaiveTruth::kTrue;
    }
    case sql::ExprKind::kInSubquery: {
      const auto it = env.subqueries->find(&expr);
      if (it == env.subqueries->end()) {
        return Status::Internal("naive reference: IN-subquery not run");
      }
      QP_ASSIGN_OR_RETURN(storage::Value needle, NaiveValue(*expr.left(), env));
      if (needle.is_null()) return NaiveTruth::kNull;
      return (it->second.count(needle) > 0) != expr.negated()
                 ? NaiveTruth::kTrue
                 : NaiveTruth::kFalse;
    }
    case sql::ExprKind::kLiteral: {
      const storage::Value& v = expr.literal();
      if (v.is_null()) return NaiveTruth::kNull;
      return v.is_numeric() && v.ToNumeric() != 0.0 ? NaiveTruth::kTrue
                                                    : NaiveTruth::kFalse;
    }
    default:
      return Status::InvalidArgument(
          "naive reference: not a predicate: " + expr.ToString());
  }
}

/// Whether `expr` holds (definite TRUE) on `row`.
inline Result<bool> NaiveHolds(const sql::Expr& expr, const NaiveEnv& env) {
  QP_ASSIGN_OR_RETURN(NaiveTruth t, NaiveTruthOf(expr, env));
  return t == NaiveTruth::kTrue;
}

/// Resolves every column `expr` names, aggregate arguments included, so an
/// unknown or ambiguous name fails even when no row reaches it.
inline Status NaiveCheckNames(const sql::ExprPtr& expr,
                              const exec::Scope& scope) {
  Status status;
  NaiveWalk(expr, [&](const sql::Expr& e) {
    if (e.kind() == sql::ExprKind::kColumnRef && status.ok()) {
      status = scope.Resolve(e.table(), e.column()).status();
    }
  });
  return status;
}

/// One select block of NaiveExecute.
inline Result<exec::RowSet> NaiveSelect(
    const storage::Database& db, const sql::SelectQuery& q,
    const exec::AggregateRegistry* aggregates) {
  std::vector<exec::OutputColumn> columns;
  std::vector<std::vector<storage::Row>> sources;
  for (const auto& ref : q.from) {
    const std::string alias = ToLower(ref.EffectiveAlias());
    if (ref.derived != nullptr) {
      QP_ASSIGN_OR_RETURN(exec::RowSet sub,
                          NaiveExecute(db, *ref.derived, aggregates));
      for (const auto& col : sub.columns()) columns.push_back({alias, col.name});
      sources.push_back(sub.rows());
    } else {
      QP_ASSIGN_OR_RETURN(const storage::Table* table, db.GetTable(ref.table));
      for (const auto& col : table->schema().columns()) {
        columns.push_back({alias, col.name});
      }
      sources.push_back(table->rows());
    }
  }
  std::map<const sql::Expr*, std::set<storage::Value>> subqueries;
  std::vector<const sql::Expr*> in_nodes;
  const auto collect_in = [&](const sql::Expr& e) {
    if (e.kind() == sql::ExprKind::kInSubquery) in_nodes.push_back(&e);
  };
  NaiveWalk(q.where, collect_in);
  NaiveWalk(q.having, collect_in);
  for (const sql::Expr* node : in_nodes) {
    QP_ASSIGN_OR_RETURN(exec::RowSet sub,
                        NaiveExecute(db, *node->subquery(), aggregates));
    auto& set = subqueries[node];
    for (const auto& row : sub.rows()) {
      if (!row[0].is_null()) set.insert(row[0]);
    }
  }
  const exec::Scope scope(columns);
  std::map<const sql::Expr*, size_t> resolved;
  const auto env = [&](const storage::Row& row,
                       const std::map<const sql::Expr*, storage::Value>* values) {
    return NaiveEnv{scope, &resolved, row, &subqueries, values};
  };

  // The select list, '*' standing for every FROM column in FROM order.
  std::vector<sql::SelectItem> items;
  for (const auto& item : q.select) {
    if (item.expr->kind() != sql::ExprKind::kColumnRef ||
        item.expr->column() != "*") {
      items.push_back(item);
      continue;
    }
    for (const auto& col : columns) {
      items.push_back({sql::Expr::Column(col.qualifier, col.name), col.name});
    }
  }

  // ORDER BY keys: a name is an input column, else the select item it
  // names; an integer literal is a 1-based select-list position; anything
  // else is an input expression. key_item holds the select item a key
  // stands for. Under DISTINCT a key evaluated as written must be a select
  // item all the same: the same SQL text, or the same input column.
  std::vector<std::optional<size_t>> key_item(q.order_by.size());
  for (size_t k = 0; k < q.order_by.size(); ++k) {
    const sql::Expr& key = *q.order_by[k].expr;
    if (key.kind() == sql::ExprKind::kLiteral && key.literal().is_int()) {
      const int64_t position = key.literal().as_int();
      if (position < 1 || position > static_cast<int64_t>(items.size())) {
        return Status::InvalidArgument("naive reference: ORDER BY position " +
                                       std::to_string(position));
      }
      key_item[k] = static_cast<size_t>(position - 1);
      continue;
    }
    if (key.kind() == sql::ExprKind::kColumnRef &&
        scope.Count(key.table(), key.column()) != 1) {
      for (size_t i = 0; i < items.size() && !key_item[k]; ++i) {
        if (EqualsIgnoreCase(items[i].OutputName(), key.column())) {
          key_item[k] = i;
        }
      }
      if (key_item[k]) continue;
    }
    QP_RETURN_IF_ERROR(NaiveCheckNames(q.order_by[k].expr, scope));
    if (!q.distinct) continue;
    const auto same = [&](const sql::Expr& item) {
      if (item.ToString() == key.ToString()) return true;
      return item.kind() == sql::ExprKind::kColumnRef &&
             key.kind() == sql::ExprKind::kColumnRef &&
             *scope.Resolve(item.table(), item.column()) ==
                 *scope.Resolve(key.table(), key.column());
    };
    if (std::none_of(items.begin(), items.end(),
                     [&](const auto& item) { return same(*item.expr); })) {
      return Status::InvalidArgument("naive reference: DISTINCT ORDER BY " +
                                     key.ToString());
    }
  }
  // Every other name must resolve too, whether or not a row reaches it.
  for (const auto& item : items) {
    QP_RETURN_IF_ERROR(NaiveCheckNames(item.expr, scope));
  }
  for (const auto& g : q.group_by) QP_RETURN_IF_ERROR(NaiveCheckNames(g, scope));
  QP_RETURN_IF_ERROR(NaiveCheckNames(q.where, scope));
  QP_RETURN_IF_ERROR(NaiveCheckNames(q.having, scope));

  // The full cross product (an odometer over the sources), filtered by the
  // whole WHERE. `combined` holds each source's current row at its offset;
  // a step rewrites only the sources whose row changed.
  std::vector<storage::Row> rows;
  std::vector<size_t> idx(sources.size(), 0);
  std::vector<size_t> offset(sources.size() + 1, 0);
  for (size_t t = 0; t < sources.size(); ++t) {
    offset[t + 1] = offset[t] + (sources[t].empty() ? 0 : sources[t][0].size());
  }
  bool done = std::any_of(sources.begin(), sources.end(),
                          [](const auto& rows) { return rows.empty(); });
  storage::Row combined(offset.back());
  size_t changed = 0;  // sources [changed, end) moved to a new row
  while (!done) {
    for (size_t t = changed; t < sources.size(); ++t) {
      std::copy(sources[t][idx[t]].begin(), sources[t][idx[t]].end(),
                combined.begin() + static_cast<std::ptrdiff_t>(offset[t]));
    }
    bool pass = true;
    if (q.where != nullptr) {
      QP_ASSIGN_OR_RETURN(pass, NaiveHolds(*q.where, env(combined, nullptr)));
    }
    if (pass) rows.push_back(combined);
    size_t t = sources.size();
    while (true) {
      if (t == 0) {
        done = true;
        break;
      }
      --t;
      if (++idx[t] < sources[t].size()) break;
      idx[t] = 0;
    }
    changed = t;
  }

  // Grouping: groups in first-seen order, each aggregate call computed over
  // its group; a group stands as its first row (all NULLs when empty).
  const bool grouped = q.IsAggregate();
  std::vector<std::map<const sql::Expr*, storage::Value>> group_values;
  if (grouped) {
    std::vector<const sql::Expr*> calls;
    const auto collect_call = [&](const sql::Expr& e) {
      if (e.kind() == sql::ExprKind::kAggregateCall) calls.push_back(&e);
    };
    for (const auto& item : items) NaiveWalk(item.expr, collect_call);
    NaiveWalk(q.having, collect_call);
    for (const auto& o : q.order_by) NaiveWalk(o.expr, collect_call);
    std::vector<storage::Row> keys;
    std::vector<std::vector<size_t>> members;
    for (size_t i = 0; i < rows.size(); ++i) {
      storage::Row key;
      for (const auto& g : q.group_by) {
        QP_ASSIGN_OR_RETURN(storage::Value v,
                            NaiveValue(*g, env(rows[i], nullptr)));
        key.push_back(std::move(v));
      }
      const auto it = std::find(keys.begin(), keys.end(), key);
      if (it == keys.end()) {
        keys.push_back(std::move(key));
        members.push_back({i});
      } else {
        members[it - keys.begin()].push_back(i);
      }
    }
    if (q.group_by.empty() && members.empty()) members.emplace_back();
    const exec::AggregateRegistry builtins;
    const exec::AggregateRegistry& registry =
        aggregates != nullptr ? *aggregates : builtins;
    std::vector<storage::Row> reps;
    for (const auto& group : members) {
      std::map<const sql::Expr*, storage::Value> values;
      for (const sql::Expr* call : calls) {
        QP_ASSIGN_OR_RETURN(exec::AggregateFunction fn,
                            registry.Resolve(call->function()));
        std::vector<storage::Value> args;
        for (size_t i : group) {
          storage::Value arg = storage::Value::Null();
          if (call->argument() != nullptr) {
            QP_ASSIGN_OR_RETURN(arg,
                                NaiveValue(*call->argument(),
                                           env(rows[i], nullptr)));
          }
          args.push_back(std::move(arg));
        }
        values[call] = fn.Fold(args.size(), [&](size_t i) -> const auto& {
          return args[i];
        });
      }
      storage::Row rep =
          group.empty() ? storage::Row(columns.size()) : rows[group[0]];
      if (q.having != nullptr) {
        QP_ASSIGN_OR_RETURN(bool keep, NaiveHolds(*q.having, env(rep, &values)));
        if (!keep) continue;
      }
      reps.push_back(std::move(rep));
      group_values.push_back(std::move(values));
    }
    rows = std::move(reps);
  }

  // Projection and keys, then a stable sort, DISTINCT (first occurrences)
  // and LIMIT.
  std::vector<std::pair<storage::Row, storage::Row>> keyed;  // keys, row
  for (size_t i = 0; i < rows.size(); ++i) {
    const NaiveEnv row_env = env(rows[i], grouped ? &group_values[i] : nullptr);
    storage::Row out;
    for (const auto& item : items) {
      QP_ASSIGN_OR_RETURN(storage::Value v, NaiveValue(*item.expr, row_env));
      out.push_back(std::move(v));
    }
    storage::Row keys;
    for (size_t k = 0; k < q.order_by.size(); ++k) {
      if (key_item[k]) {
        keys.push_back(out[*key_item[k]]);
        continue;
      }
      QP_ASSIGN_OR_RETURN(storage::Value v,
                          NaiveValue(*q.order_by[k].expr, row_env));
      keys.push_back(std::move(v));
    }
    keyed.emplace_back(std::move(keys), std::move(out));
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&](const auto& a, const auto& b) {
                     for (size_t k = 0; k < q.order_by.size(); ++k) {
                       const int cmp = a.first[k].Compare(b.first[k]);
                       if (cmp != 0) {
                         return q.order_by[k].ascending ? cmp < 0 : cmp > 0;
                       }
                     }
                     return false;
                   });
  std::vector<exec::OutputColumn> out_cols;
  for (const auto& item : items) out_cols.push_back({"", item.OutputName()});
  exec::RowSet result(std::move(out_cols));
  std::set<storage::Row> seen;
  for (auto& [keys, row] : keyed) {
    if (q.distinct && !seen.insert(row).second) continue;
    result.Add(std::move(row));
  }
  if (q.limit.has_value() && result.num_rows() > *q.limit) {
    result.rows().resize(*q.limit);
  }
  return result;
}

/// The slow, obviously correct reference the executor tests compare
/// against. It shares no evaluation or plan code with the executor, only
/// name resolution (exec::Scope) and the aggregate functions: each select
/// block is the full cross product of its FROM sources filtered by the
/// whole WHERE through its own tree-walking evaluator, with derived tables
/// and [NOT] IN subqueries run through this same reference; then grouping
/// (first-seen group order) and HAVING, projection, a stable ORDER BY
/// sort, DISTINCT (first occurrences) and LIMIT. UNION ALL concatenates
/// its branches. Every name must resolve, and under DISTINCT every ORDER
/// BY key must be a select item, whether or not any row reaches them.
/// `aggregates` registers user-defined aggregates (SPA's rank).
inline Result<exec::RowSet> NaiveExecute(
    const storage::Database& db, const sql::Query& query,
    const exec::AggregateRegistry* aggregates) {
  exec::RowSet out;
  for (size_t b = 0; b < query.branches().size(); ++b) {
    QP_ASSIGN_OR_RETURN(exec::RowSet part,
                        NaiveSelect(db, query.branches()[b], aggregates));
    if (b == 0) {
      out = std::move(part);
    } else {
      out.Append(std::move(part));
    }
  }
  return out;
}

}  // namespace qp::test
