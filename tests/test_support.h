// Helpers shared by several suites: the small generated-profile
// configuration the serving-stack tests personalize against, a latch that
// parks a scheduler worker, and the naive reference executor the executor
// tests compare against.

#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
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

inline Result<exec::RowSet> NaiveExecute(const storage::Database& db,
                                         const sql::Query& query);

/// Calls `visit` on `expr` and every sub-expression (not into subqueries).
template <typename Visit>
void NaiveWalk(const sql::ExprPtr& expr, const Visit& visit) {
  if (expr == nullptr) return;
  visit(*expr);
  NaiveWalk(expr->left(), visit);
  NaiveWalk(expr->right(), visit);
}

/// One select block of NaiveExecute.
inline Result<exec::RowSet> NaiveSelect(const storage::Database& db,
                                        const sql::SelectQuery& q) {
  std::vector<exec::OutputColumn> columns;
  std::vector<std::vector<storage::Row>> sources;
  for (const auto& ref : q.from) {
    const std::string alias = ToLower(ref.EffectiveAlias());
    if (ref.derived != nullptr) {
      QP_ASSIGN_OR_RETURN(exec::RowSet sub, NaiveExecute(db, *ref.derived));
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
  exec::SubqueryResults subqueries;
  std::vector<const sql::Expr*> in_nodes;
  const auto collect_in = [&](const sql::Expr& e) {
    if (e.kind() == sql::ExprKind::kInSubquery) in_nodes.push_back(&e);
  };
  NaiveWalk(q.where, collect_in);
  NaiveWalk(q.having, collect_in);
  for (const sql::Expr* node : in_nodes) {
    QP_ASSIGN_OR_RETURN(exec::RowSet sub, NaiveExecute(db, *node->subquery()));
    auto& set = subqueries[node];
    for (const auto& row : sub.rows()) {
      if (!row[0].is_null()) set.insert(row[0]);
    }
  }

  // The full cross product (an odometer over the sources), filtered by the
  // whole WHERE.
  const exec::Scope scope(columns);
  std::vector<storage::Row> rows;
  std::vector<size_t> idx(sources.size(), 0);
  bool done = std::any_of(sources.begin(), sources.end(),
                          [](const auto& rows) { return rows.empty(); });
  while (!done) {
    storage::Row combined;
    for (size_t t = 0; t < sources.size(); ++t) {
      combined.insert(combined.end(), sources[t][idx[t]].begin(),
                      sources[t][idx[t]].end());
    }
    bool pass = true;
    if (q.where != nullptr) {
      QP_ASSIGN_OR_RETURN(pass, exec::EvalPredicate(*q.where, scope, combined,
                                                    &subqueries));
    }
    if (pass) rows.push_back(std::move(combined));
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
  }

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

  // Grouping: groups in first-seen order, each aggregate call computed over
  // its group; a group stands as its first row (all NULLs when empty).
  const bool grouped = q.IsAggregate();
  std::vector<exec::AggregateValues> aggregates;
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
                            exec::EvalScalar(*g, scope, rows[i], &subqueries));
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
    const exec::AggregateRegistry registry;
    std::vector<storage::Row> reps;
    for (const auto& group : members) {
      exec::AggregateValues values;
      for (const sql::Expr* call : calls) {
        QP_ASSIGN_OR_RETURN(auto agg, registry.Create(call->function()));
        for (size_t i : group) {
          storage::Value arg = storage::Value::Null();
          if (call->argument() != nullptr) {
            QP_ASSIGN_OR_RETURN(arg, exec::EvalScalar(*call->argument(), scope,
                                                      rows[i], &subqueries));
          }
          agg->Add(arg);
        }
        values.emplace(call, agg->Finalize());
      }
      storage::Row rep =
          group.empty() ? storage::Row(columns.size()) : rows[group[0]];
      if (q.having != nullptr) {
        QP_ASSIGN_OR_RETURN(bool keep,
                            exec::EvalPredicate(*q.having, scope, rep,
                                                &subqueries, &values));
        if (!keep) continue;
      }
      reps.push_back(std::move(rep));
      aggregates.push_back(std::move(values));
    }
    rows = std::move(reps);
  }

  // ORDER BY keys: a name is an input column, else the select item it
  // names; an integer literal is a 1-based select-list position; anything
  // else is an input expression. key_item holds the select item a key
  // stands for.
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
    } else if (key.kind() == sql::ExprKind::kColumnRef &&
               scope.Count(key.table(), key.column()) != 1) {
      for (size_t i = 0; i < items.size() && !key_item[k]; ++i) {
        if (EqualsIgnoreCase(items[i].OutputName(), key.column())) {
          key_item[k] = i;
        }
      }
      if (!key_item[k]) {
        QP_RETURN_IF_ERROR(scope.Resolve(key.table(), key.column()).status());
      }
    }
  }

  // Projection and keys, then a stable sort, DISTINCT (first occurrences)
  // and LIMIT.
  std::vector<std::pair<storage::Row, storage::Row>> keyed;  // keys, row
  for (size_t i = 0; i < rows.size(); ++i) {
    const exec::AggregateValues* values = grouped ? &aggregates[i] : nullptr;
    storage::Row out;
    for (const auto& item : items) {
      QP_ASSIGN_OR_RETURN(storage::Value v,
                          exec::EvalScalar(*item.expr, scope, rows[i],
                                           &subqueries, values));
      out.push_back(std::move(v));
    }
    storage::Row keys;
    for (size_t k = 0; k < q.order_by.size(); ++k) {
      if (key_item[k]) {
        keys.push_back(out[*key_item[k]]);
        continue;
      }
      QP_ASSIGN_OR_RETURN(storage::Value v,
                          exec::EvalScalar(*q.order_by[k].expr, scope, rows[i],
                                           &subqueries, values));
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
/// against. It shares the evaluator and the built-in aggregate functions,
/// but no plan code: each select block is the full cross product of its
/// FROM sources filtered by the whole WHERE, with derived tables and
/// [NOT] IN subqueries run through this same reference; then grouping
/// (first-seen group order) and HAVING, projection, a stable ORDER BY
/// sort, DISTINCT (first occurrences) and LIMIT. UNION ALL concatenates
/// its branches.
inline Result<exec::RowSet> NaiveExecute(const storage::Database& db,
                                         const sql::Query& query) {
  exec::RowSet out;
  for (size_t b = 0; b < query.branches().size(); ++b) {
    QP_ASSIGN_OR_RETURN(exec::RowSet part,
                        NaiveSelect(db, query.branches()[b]));
    if (b == 0) {
      out = std::move(part);
    } else {
      out.Append(std::move(part));
    }
  }
  return out;
}

}  // namespace qp::test
