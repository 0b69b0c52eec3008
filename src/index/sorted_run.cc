#include "index/sorted_run.h"

#include <algorithm>

namespace qp::index {

using storage::Value;

bool RangeBounds::BelowLo(const Value& v) const {
  if (!has_lo) return false;
  const int c = v.Compare(lo);
  return c < 0 || (c == 0 && !lo_inclusive);
}

bool RangeBounds::AboveHi(const Value& v) const {
  if (!has_hi) return false;
  const int c = v.Compare(hi);
  return c > 0 || (c == 0 && !hi_inclusive);
}

SortedRun SortedRun::Build(const storage::Table& table, size_t col) {
  SortedRun run;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (!table.row(i)[col].is_null()) run.positions_.push_back(i);
  }
  // Positions start ascending, so equal values stay in position order.
  std::stable_sort(run.positions_.begin(), run.positions_.end(),
                   [&](size_t a, size_t b) {
                     return table.row(a)[col].Compare(table.row(b)[col]) < 0;
                   });
  run.keys_.reserve(run.positions_.size());
  for (size_t pos : run.positions_) run.keys_.push_back(table.row(pos)[col]);
  return run;
}

std::vector<size_t> SortedRun::RangePositions(const RangeBounds& bounds) const {
  // The entries inside `bounds` are one stretch of the run: past those
  // below the low side, short of those above the high side.
  const auto first = std::partition_point(
      keys_.begin(), keys_.end(),
      [&](const Value& k) { return bounds.BelowLo(k); });
  const auto last = std::partition_point(
      first, keys_.end(), [&](const Value& k) { return !bounds.AboveHi(k); });
  return std::vector<size_t>(positions_.begin() + (first - keys_.begin()),
                             positions_.begin() + (last - keys_.begin()));
}

}  // namespace qp::index
