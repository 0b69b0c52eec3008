// Bind-once expression evaluation. Bind() resolves an expression against a
// select block's FROM columns before any row is read: a column name becomes
// its (source, column) slot, a literal is held inline, an aggregate call
// becomes a per-group slot and an IN-subquery a reference to its
// materialized set. Every name and shape error comes from the bind.
// Evaluation then walks the immutable program over one tuple of row
// pointers (one per FROM source), reading values by const reference and
// copying only what a scalar function computes. NULL semantics are
// simplified SQL: a comparison involving NULL yields NULL, and a filter
// keeps a tuple only when its predicate evaluates to definite TRUE.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/row_set.h"
#include "sql/expr.h"

namespace qp::exec {

/// \brief Column-name resolution for one layout: the columns of one or
/// more sources, in order.
class Scope {
 public:
  Scope() = default;
  /// One source with `columns`.
  explicit Scope(const std::vector<OutputColumn>& columns) {
    AddSource(columns);
  }

  /// Appends the next source's columns.
  void AddSource(const std::vector<OutputColumn>& columns);

  /// Index of `qualifier.name` among all columns; unqualified lookups must
  /// be unambiguous.
  Result<size_t> Resolve(const std::string& qualifier,
                         const std::string& name) const;

  /// How many columns `qualifier.name` names; Resolve succeeds exactly
  /// when this is 1. Lets a caller with a fallback probe a name without
  /// originating an error Status.
  size_t Count(const std::string& qualifier, const std::string& name) const;

  /// The source column `i` belongs to, and its index there.
  std::pair<size_t, size_t> Slot(size_t i) const { return slots_[i]; }

 private:
  std::vector<OutputColumn> columns_;
  std::vector<std::pair<size_t, size_t>> slots_;
};

/// Materialized membership set of one IN-subquery.
using ValueSet = std::unordered_set<storage::Value, storage::ValueHash>;
/// A select block's IN-subquery sets, keyed by their kInSubquery nodes.
/// Built by the executor before anything binds to them.
using SubqueryResults = std::unordered_map<const sql::Expr*, ValueSet>;

/// What a bound expression reads: one tuple, a row pointer per FROM source
/// (indexed by source), and over a group its aggregate values by slot.
struct Frame {
  const storage::Row* const* tuple = nullptr;
  const storage::Value* aggregates = nullptr;
};

/// What Bind resolves against.
struct BindContext {
  const Scope& scope;
  const SubqueryResults& subqueries;
  /// The SQL text of each distinct aggregate call, by slot; null where no
  /// aggregate may appear (WHERE, aggregate arguments, ungrouped blocks).
  const std::vector<std::string>* aggregates = nullptr;
};

/// \brief An expression bound to its input layout: a flat program, root
/// first, evaluated over Frames.
class BoundExpr {
 public:
  /// One program node; children are indexes into the program.
  struct Node {
    sql::ExprKind kind = sql::ExprKind::kLiteral;
    sql::BinaryOp op = sql::BinaryOp::kEq;
    bool negated = false;
    uint32_t left = 0;
    uint32_t right = 0;
    /// Column: source and column; aggregate: `column` is the slot.
    uint32_t source = 0;
    uint32_t column = 0;
    storage::Value literal;
    const ValueSet* set = nullptr;
    /// The scalar-function call this node evaluates.
    const sql::Expr* call = nullptr;

    bool operator==(const Node&) const = default;
  };

  /// Binds `expr` as a value, or as a predicate (a column, aggregate or
  /// scalar function is then "not a predicate").
  static Result<BoundExpr> Bind(const sql::Expr& expr,
                                const BindContext& context,
                                bool predicate = false);

  /// The expression this program was bound from.
  const sql::Expr& expr() const { return *expr_; }

  /// The value on `frame`: a reference into the frame's rows or aggregate
  /// values or the program's literals, or `scratch` holding a computed
  /// value.
  const storage::Value& Eval(const Frame& frame,
                             storage::Value& scratch) const;

  /// True only when the predicate is definitely TRUE on `frame`.
  bool Holds(const Frame& frame) const;

  /// Same program: the same names bound to the same slots, literals and
  /// calls (`g.genre` and `genre` over one genre source are equal).
  bool operator==(const BoundExpr& other) const {
    return nodes_ == other.nodes_;
  }

  /// The (source, column) slots of the program's column references, in
  /// pre-order.
  std::vector<std::pair<size_t, size_t>> Columns() const;

 private:
  const sql::Expr* expr_ = nullptr;
  std::vector<Node> nodes_;
};

}  // namespace qp::exec
