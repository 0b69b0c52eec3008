// Runtime expression evaluation: name resolution against a row layout
// (Scope) and predicate/scalar evaluation. NULL semantics are simplified
// SQL: a comparison involving NULL yields NULL, and WHERE keeps a row only
// when its predicate evaluates to definite TRUE.

#pragma once

#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "exec/row_set.h"
#include "sql/expr.h"

namespace qp::exec {

/// \brief Column-name resolution for one row layout.
class Scope {
 public:
  Scope() = default;
  explicit Scope(std::vector<OutputColumn> columns)
      : columns_(std::move(columns)) {}

  const std::vector<OutputColumn>& columns() const { return columns_; }

  /// Index of `qualifier.name`; unqualified lookups must be unambiguous.
  Result<size_t> Resolve(const std::string& qualifier,
                         const std::string& name) const;

  /// How many columns `qualifier.name` names; Resolve succeeds exactly
  /// when this is 1. Lets a caller with a fallback probe a name without
  /// originating an error Status.
  size_t Count(const std::string& qualifier, const std::string& name) const;

  /// Resolves a kColumnRef expression. Resolutions are memoized per scope
  /// instance (expression nodes are immutable), which matters when the same
  /// predicate is evaluated over many rows.
  Result<size_t> ResolveColumn(const sql::Expr& column_ref) const;

 private:
  std::vector<OutputColumn> columns_;
  mutable std::unordered_map<const sql::Expr*, size_t> resolution_cache_;
};

/// Materialized membership sets for IN-subqueries, keyed by the kInSubquery
/// expression node. Built by the executor before predicate evaluation.
using SubqueryResults =
    std::unordered_map<const sql::Expr*,
                       std::unordered_set<storage::Value, storage::ValueHash>>;

/// One group's aggregate values, keyed by the kAggregateCall expression
/// node. Built by the executor per group before HAVING, the select items
/// and the ORDER BY keys are evaluated over the group.
using AggregateValues =
    std::unordered_map<const sql::Expr*, storage::Value>;

/// Evaluates a scalar expression over `row`. An aggregate call reads its
/// value from `aggregates` and is an error without it.
Result<storage::Value> EvalScalar(const sql::Expr& expr, const Scope& scope,
                                  const storage::Row& row,
                                  const SubqueryResults* subqueries = nullptr,
                                  const AggregateValues* aggregates = nullptr);

/// Evaluates a predicate; returns true only for a definite TRUE.
Result<bool> EvalPredicate(const sql::Expr& expr, const Scope& scope,
                           const storage::Row& row,
                           const SubqueryResults* subqueries = nullptr,
                           const AggregateValues* aggregates = nullptr);

}  // namespace qp::exec
