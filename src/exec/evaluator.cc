#include "exec/evaluator.h"

#include <algorithm>

#include "common/string_util.h"

namespace qp::exec {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using storage::Value;
using Node = BoundExpr::Node;

namespace {

/// Whether `column` is what `qualifier.name` names (an empty qualifier
/// matches any).
bool Names(const OutputColumn& column, const std::string& qualifier,
           const std::string& name) {
  return EqualsIgnoreCase(column.name, name) &&
         (qualifier.empty() || EqualsIgnoreCase(column.qualifier, qualifier));
}

}  // namespace

void Scope::AddSource(const std::vector<OutputColumn>& columns) {
  const size_t source = slots_.empty() ? 0 : slots_.back().first + 1;
  for (size_t c = 0; c < columns.size(); ++c) {
    columns_.push_back(columns[c]);
    slots_.emplace_back(source, c);
  }
}

Result<size_t> Scope::Resolve(const std::string& qualifier,
                              const std::string& name) const {
  const auto label = [&] {
    return "'" + (qualifier.empty() ? name : qualifier + "." + name) + "'";
  };
  int found = -1;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!Names(columns_[i], qualifier, name)) continue;
    if (found >= 0) {
      return Status::InvalidArgument("ambiguous column reference " + label());
    }
    found = static_cast<int>(i);
  }
  if (found < 0) return Status::NotFound("unknown column " + label());
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

namespace {

/// Appends `expr`'s program to `nodes` (root first, then the left subtree,
/// then the right), checking every name and shape on the way.
Status BindNode(const Expr& expr, const BindContext& context, bool predicate,
                std::vector<Node>* nodes) {
  const size_t at = nodes->size();
  nodes->emplace_back();
  Node node;
  node.kind = expr.kind();
  node.op = expr.op();
  if (expr.kind() == ExprKind::kScalarFn) node.call = &expr;
  const bool value_only = expr.kind() == ExprKind::kColumnRef ||
                          expr.kind() == ExprKind::kAggregateCall ||
                          expr.kind() == ExprKind::kScalarFn;
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      node.literal = expr.literal();
      break;
    case ExprKind::kColumnRef: {
      QP_ASSIGN_OR_RETURN(size_t i,
                          context.scope.Resolve(expr.table(), expr.column()));
      node.source = static_cast<uint32_t>(context.scope.Slot(i).first);
      node.column = static_cast<uint32_t>(context.scope.Slot(i).second);
      break;
    }
    case ExprKind::kAggregateCall: {
      if (context.aggregates == nullptr) {
        return Status::InvalidArgument("aggregate '" + expr.function() +
                                       "' used outside GROUP BY evaluation");
      }
      const std::vector<std::string>& texts = *context.aggregates;
      node.column = static_cast<uint32_t>(
          std::find(texts.begin(), texts.end(), expr.ToString()) -
          texts.begin());
      break;
    }
    case ExprKind::kInSubquery: {
      const auto it = context.subqueries.find(&expr);
      if (it == context.subqueries.end()) {
        return Status::Internal("IN-subquery was not pre-materialized");
      }
      node.set = &it->second;
      node.negated = expr.negated();
      break;
    }
    default:
      break;
  }
  if (predicate && value_only) {
    return Status::InvalidArgument("expression is not a predicate: " +
                                   expr.ToString());
  }
  // The operands: predicates under AND, OR and NOT, values elsewhere. An
  // aggregate's argument binds on its own, over the group's tuples.
  const bool logical = expr.kind() == ExprKind::kAnd ||
                       expr.kind() == ExprKind::kOr ||
                       expr.kind() == ExprKind::kNot;
  if (expr.left() != nullptr && expr.kind() != ExprKind::kAggregateCall) {
    node.left = static_cast<uint32_t>(nodes->size());
    QP_RETURN_IF_ERROR(BindNode(*expr.left(), context, logical, nodes));
  }
  if (expr.right() != nullptr) {
    node.right = static_cast<uint32_t>(nodes->size());
    QP_RETURN_IF_ERROR(BindNode(*expr.right(), context, logical, nodes));
  }
  (*nodes)[at] = std::move(node);
  return Status::OK();
}

/// Three-valued truth.
enum class Truth { kFalse, kTrue, kNull };

Truth TruthOf(const Node* nodes, uint32_t i, const Frame& frame);

const Value& ValueOf(const Node* nodes, uint32_t i, const Frame& frame,
                     Value& scratch) {
  const Node& n = nodes[i];
  switch (n.kind) {
    case ExprKind::kColumnRef:
      return (*frame.tuple[n.source])[n.column];
    case ExprKind::kLiteral:
      return n.literal;
    case ExprKind::kAggregateCall:
      return frame.aggregates[n.column];
    case ExprKind::kScalarFn: {
      Value arg;
      scratch = n.call->scalar_fn()(ValueOf(nodes, n.left, frame, arg));
      return scratch;
    }
    default: {
      const Truth t = TruthOf(nodes, i, frame);
      scratch = t == Truth::kNull
                    ? Value::Null()
                    : Value(static_cast<int64_t>(t == Truth::kTrue ? 1 : 0));
      return scratch;
    }
  }
}

Truth TruthOf(const Node* nodes, uint32_t i, const Frame& frame) {
  const Node& n = nodes[i];
  switch (n.kind) {
    case ExprKind::kComparison: {
      Value left_scratch;
      Value right_scratch;
      const Value& l = ValueOf(nodes, n.left, frame, left_scratch);
      const Value& r = ValueOf(nodes, n.right, frame, right_scratch);
      if (l.is_null() || r.is_null()) return Truth::kNull;
      const int c = l.Compare(r);
      const bool holds = n.op == BinaryOp::kEq   ? c == 0
                         : n.op == BinaryOp::kNe ? c != 0
                         : n.op == BinaryOp::kLt ? c < 0
                         : n.op == BinaryOp::kLe ? c <= 0
                         : n.op == BinaryOp::kGt ? c > 0
                                                 : c >= 0;
      return holds ? Truth::kTrue : Truth::kFalse;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      // AND is FALSE when either side is, OR is TRUE when either side is;
      // otherwise NULL when either side is.
      const Truth decisive =
          n.kind == ExprKind::kAnd ? Truth::kFalse : Truth::kTrue;
      const Truth l = TruthOf(nodes, n.left, frame);
      if (l == decisive) return decisive;
      const Truth r = TruthOf(nodes, n.right, frame);
      if (r == decisive) return decisive;
      if (l == Truth::kNull || r == Truth::kNull) return Truth::kNull;
      return decisive == Truth::kFalse ? Truth::kTrue : Truth::kFalse;
    }
    case ExprKind::kNot: {
      const Truth t = TruthOf(nodes, n.left, frame);
      if (t == Truth::kNull) return Truth::kNull;
      return t == Truth::kTrue ? Truth::kFalse : Truth::kTrue;
    }
    case ExprKind::kInSubquery: {
      Value scratch;
      const Value& needle = ValueOf(nodes, n.left, frame, scratch);
      if (needle.is_null()) return Truth::kNull;
      return (n.set->count(needle) > 0) != n.negated ? Truth::kTrue
                                                     : Truth::kFalse;
    }
    default: {
      // A literal; the bind admits no other kind as a predicate.
      if (n.literal.is_null()) return Truth::kNull;
      return n.literal.is_numeric() && n.literal.ToNumeric() != 0.0
                 ? Truth::kTrue
                 : Truth::kFalse;
    }
  }
}

}  // namespace

Result<BoundExpr> BoundExpr::Bind(const Expr& expr, const BindContext& context,
                                  bool predicate) {
  BoundExpr bound;
  bound.expr_ = &expr;
  QP_RETURN_IF_ERROR(BindNode(expr, context, predicate, &bound.nodes_));
  return bound;
}

const Value& BoundExpr::Eval(const Frame& frame, Value& scratch) const {
  return ValueOf(nodes_.data(), 0, frame, scratch);
}

bool BoundExpr::Holds(const Frame& frame) const {
  return TruthOf(nodes_.data(), 0, frame) == Truth::kTrue;
}

std::vector<std::pair<size_t, size_t>> BoundExpr::Columns() const {
  std::vector<std::pair<size_t, size_t>> out;
  for (const Node& node : nodes_) {
    if (node.kind == ExprKind::kColumnRef) {
      out.emplace_back(node.source, node.column);
    }
  }
  return out;
}

}  // namespace qp::exec
