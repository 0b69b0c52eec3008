// Secondary ordered index: one column's non-NULL (value, row position)
// entries, sorted by value then position, serving the range predicates
// elastic preferences translate into. Like HashIndex, a run is an immutable
// snapshot, lock-free to share across threads; staleness is the
// IndexCatalog's job (rebuild when the table's data_version moved).

#pragma once

#include <vector>

#include "storage/table.h"
#include "storage/value.h"

namespace qp::index {

/// Inclusive/exclusive bounds of a range read; `has_*` false = open side.
/// Open bounds still exclude NULLs (NULL is never indexed, matching SQL
/// predicate semantics where comparisons with NULL are never true).
struct RangeBounds {
  storage::Value lo, hi;
  bool has_lo = false, has_hi = false;
  bool lo_inclusive = true, hi_inclusive = true;

  /// True when non-NULL `v` falls inside the bounds. The single definition
  /// of range membership — the executor's scan fallback and the tests'
  /// oracle both use it, and the sorted run searches its two sides, so
  /// index and scan can never disagree.
  bool Contains(const storage::Value& v) const {
    return !v.is_null() && !BelowLo(v) && !AboveHi(v);
  }
  /// `v` fails the low side / the high side.
  bool BelowLo(const storage::Value& v) const;
  bool AboveHi(const storage::Value& v) const;
};

/// \brief Immutable (value, row position) run, sorted by value then position.
class SortedRun {
 public:
  /// Builds the run over `table` column `col`; NULLs are not indexed.
  static SortedRun Build(const storage::Table& table, size_t col);

  /// Indexed (non-NULL) row count.
  size_t size() const { return keys_.size(); }

  /// Row positions inside `bounds`, in (value, position) order.
  std::vector<size_t> RangePositions(const RangeBounds& bounds) const;

 private:
  std::vector<storage::Value> keys_;  ///< ascending
  std::vector<size_t> positions_;     ///< positions_[i] holds keys_[i]
};

}  // namespace qp::index
