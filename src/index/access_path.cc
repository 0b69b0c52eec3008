#include "index/access_path.h"

#include <algorithm>

namespace qp::index {

const char* AccessPath::kind_name() const {
  switch (kind) {
    case Kind::kFullScan: return "scan";
    case Kind::kHashProbe: return "index";
    case Kind::kBTreeRange: return "range";
  }
  return "?";
}

size_t AccessPath::Prefetch(const storage::Table& table) {
  const size_t num_rows = table.num_rows();
  positions.clear();
  examined = num_rows;
  switch (kind) {
    case Kind::kFullScan:
      positions.reserve(num_rows);
      for (size_t i = 0; i < num_rows; ++i) positions.push_back(i);
      break;
    case Kind::kHashProbe:
      if (hash != nullptr) {
        const std::vector<size_t>* matches = hash->Lookup(eq_key);
        if (matches != nullptr) positions = *matches;
        examined = positions.size();
      } else if (eq_key.is_null()) {
        examined = 0;  // NULL never matches (and is never indexed)
      } else {
        for (size_t i = 0; i < num_rows; ++i) {
          if (table.row(i)[col] == eq_key) positions.push_back(i);
        }
      }
      break;
    case Kind::kBTreeRange:
      if (sorted != nullptr) {
        // The run replays matches in (value, position) order; re-sort into
        // ascending row order so backing is unobservable downstream.
        positions = sorted->RangePositions(bounds);
        std::sort(positions.begin(), positions.end());
        examined = positions.size();
      } else {
        for (size_t i = 0; i < num_rows; ++i) {
          if (bounds.Contains(table.row(i)[col])) positions.push_back(i);
        }
      }
      break;
  }
  return positions.size();
}

}  // namespace qp::index
