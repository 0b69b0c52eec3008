#include "exec/evaluator.h"

#include "common/string_util.h"

namespace qp::exec {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using storage::Value;

namespace {

/// Whether `column` is what `qualifier.name` names (an empty qualifier
/// matches any).
bool Names(const OutputColumn& column, const std::string& qualifier,
           const std::string& name) {
  return EqualsIgnoreCase(column.name, name) &&
         (qualifier.empty() || EqualsIgnoreCase(column.qualifier, qualifier));
}

}  // namespace

Result<size_t> Scope::Resolve(const std::string& qualifier,
                              const std::string& name) const {
  int found = -1;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!Names(columns_[i], qualifier, name)) continue;
    if (found >= 0) {
      return Status::InvalidArgument("ambiguous column reference '" +
                                     (qualifier.empty() ? name
                                                        : qualifier + "." + name) +
                                     "'");
    }
    found = static_cast<int>(i);
  }
  if (found < 0) {
    return Status::NotFound("unknown column '" +
                            (qualifier.empty() ? name : qualifier + "." + name) +
                            "'");
  }
  return static_cast<size_t>(found);
}

size_t Scope::Count(const std::string& qualifier,
                    const std::string& name) const {
  size_t n = 0;
  for (const OutputColumn& column : columns_) {
    if (Names(column, qualifier, name)) ++n;
  }
  return n;
}

Result<size_t> Scope::ResolveColumn(const Expr& column_ref) const {
  auto it = resolution_cache_.find(&column_ref);
  if (it != resolution_cache_.end()) return it->second;
  QP_ASSIGN_OR_RETURN(size_t idx,
                      Resolve(column_ref.table(), column_ref.column()));
  resolution_cache_.emplace(&column_ref, idx);
  return idx;
}

namespace {

/// Three-valued truth.
enum class Truth { kFalse, kTrue, kNull };

Truth Invert(Truth t) {
  switch (t) {
    case Truth::kFalse:
      return Truth::kTrue;
    case Truth::kTrue:
      return Truth::kFalse;
    case Truth::kNull:
      return Truth::kNull;
  }
  return Truth::kNull;
}

/// What an evaluation reads besides the expression: the row, its layout,
/// and the values materialized before the row loop.
struct Env {
  const Scope& scope;
  const storage::Row& row;
  const SubqueryResults* subqueries;
  const AggregateValues* aggregates;
};

Result<Truth> EvalTruth(const Expr& expr, const Env& env);

Result<Value> EvalValue(const Expr& expr, const Env& env) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return expr.literal();
    case ExprKind::kColumnRef: {
      QP_ASSIGN_OR_RETURN(size_t idx, env.scope.ResolveColumn(expr));
      return env.row[idx];
    }
    case ExprKind::kAggregateCall: {
      if (env.aggregates != nullptr) {
        const auto it = env.aggregates->find(&expr);
        if (it != env.aggregates->end()) return it->second;
      }
      return Status::InvalidArgument(
          "aggregate '" + expr.function() +
          "' used outside GROUP BY evaluation");
    }
    case ExprKind::kScalarFn: {
      QP_ASSIGN_OR_RETURN(Value arg, EvalValue(*expr.argument(), env));
      return expr.scalar_fn()(arg);
    }
    default: {
      QP_ASSIGN_OR_RETURN(Truth t, EvalTruth(expr, env));
      return t == Truth::kNull
                 ? Value::Null()
                 : Value(static_cast<int64_t>(t == Truth::kTrue ? 1 : 0));
    }
  }
}

Result<Truth> EvalTruth(const Expr& expr, const Env& env) {
  switch (expr.kind()) {
    case ExprKind::kComparison: {
      QP_ASSIGN_OR_RETURN(Value l, EvalValue(*expr.left(), env));
      QP_ASSIGN_OR_RETURN(Value r, EvalValue(*expr.right(), env));
      if (l.is_null() || r.is_null()) return Truth::kNull;
      const int cmp = l.Compare(r);
      bool result = false;
      switch (expr.op()) {
        case BinaryOp::kEq:
          result = cmp == 0;
          break;
        case BinaryOp::kNe:
          result = cmp != 0;
          break;
        case BinaryOp::kLt:
          result = cmp < 0;
          break;
        case BinaryOp::kLe:
          result = cmp <= 0;
          break;
        case BinaryOp::kGt:
          result = cmp > 0;
          break;
        case BinaryOp::kGe:
          result = cmp >= 0;
          break;
      }
      return result ? Truth::kTrue : Truth::kFalse;
    }
    case ExprKind::kAnd: {
      QP_ASSIGN_OR_RETURN(Truth l, EvalTruth(*expr.left(), env));
      if (l == Truth::kFalse) return Truth::kFalse;
      QP_ASSIGN_OR_RETURN(Truth r, EvalTruth(*expr.right(), env));
      if (r == Truth::kFalse) return Truth::kFalse;
      if (l == Truth::kNull || r == Truth::kNull) return Truth::kNull;
      return Truth::kTrue;
    }
    case ExprKind::kOr: {
      QP_ASSIGN_OR_RETURN(Truth l, EvalTruth(*expr.left(), env));
      if (l == Truth::kTrue) return Truth::kTrue;
      QP_ASSIGN_OR_RETURN(Truth r, EvalTruth(*expr.right(), env));
      if (r == Truth::kTrue) return Truth::kTrue;
      if (l == Truth::kNull || r == Truth::kNull) return Truth::kNull;
      return Truth::kFalse;
    }
    case ExprKind::kNot: {
      QP_ASSIGN_OR_RETURN(Truth t, EvalTruth(*expr.operand(), env));
      return Invert(t);
    }
    case ExprKind::kInSubquery: {
      if (env.subqueries == nullptr) {
        return Status::Internal("IN-subquery encountered without materialized "
                                "subquery results");
      }
      auto it = env.subqueries->find(&expr);
      if (it == env.subqueries->end()) {
        return Status::Internal("IN-subquery was not pre-materialized");
      }
      QP_ASSIGN_OR_RETURN(Value needle, EvalValue(*expr.left(), env));
      if (needle.is_null()) return Truth::kNull;
      const bool member = it->second.count(needle) > 0;
      const bool result = expr.negated() ? !member : member;
      return result ? Truth::kTrue : Truth::kFalse;
    }
    case ExprKind::kLiteral: {
      const Value& v = expr.literal();
      if (v.is_null()) return Truth::kNull;
      if (v.is_numeric()) {
        return v.ToNumeric() != 0.0 ? Truth::kTrue : Truth::kFalse;
      }
      return Truth::kFalse;
    }
    default:
      return Status::InvalidArgument("expression is not a predicate: " +
                                     expr.ToString());
  }
}

}  // namespace

Result<Value> EvalScalar(const Expr& expr, const Scope& scope,
                         const storage::Row& row,
                         const SubqueryResults* subqueries,
                         const AggregateValues* aggregates) {
  return EvalValue(expr, Env{scope, row, subqueries, aggregates});
}

Result<bool> EvalPredicate(const Expr& expr, const Scope& scope,
                           const storage::Row& row,
                           const SubqueryResults* subqueries,
                           const AggregateValues* aggregates) {
  QP_ASSIGN_OR_RETURN(Truth t,
                      EvalTruth(expr, Env{scope, row, subqueries, aggregates}));
  return t == Truth::kTrue;
}

}  // namespace qp::exec
