// AccessPath: the one abstraction the planner hands to the executor for
// "get me this table's candidate rows". Three kinds — full scan, hash
// probe, sorted-run range — chosen *logically* from the predicate shape and
// index-independent cardinality estimates, then *physically* backed by a
// catalog snapshot when one exists.
//
// The logical/physical split is the core contract: whether an index is
// registered never changes which kind is chosen, what estimated_rows says,
// or which rows come back (Prefetch always keeps the identical candidate
// set in ascending row order). Indexes only change how much work Prefetch
// does to produce it — reported via its examined-rows count, never via
// ExecStats. That is what keeps answers, ExecStats, and emission order
// byte-identical with indexes on vs off.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "index/hash_index.h"
#include "index/sorted_run.h"
#include "storage/table.h"
#include "storage/value.h"

namespace qp::index {

/// \brief One way of producing a table's candidate rows.
struct AccessPath {
  enum class Kind {
    kFullScan,    ///< examine every row
    kHashProbe,   ///< col == key point lookup
    kBTreeRange,  ///< col within RangeBounds
  };

  Kind kind = Kind::kFullScan;
  size_t col = 0;            ///< predicate column (probe/range kinds)
  std::string column_name;   ///< for EXPLAIN span text
  storage::Value eq_key;     ///< kHashProbe key
  RangeBounds bounds;        ///< kBTreeRange bounds
  size_t estimated_rows = 0; ///< index-independent cardinality estimate

  /// Physical backing. Null = scan fallback with identical results; the
  /// snapshot keeps a stale-but-valid index alive for this path's lifetime.
  std::shared_ptr<const HashIndex> hash;
  std::shared_ptr<const SortedRun> sorted;

  /// "scan" | "index" | "range" — the logical kind, as recorded in span
  /// attributes (stable whether or not an index backs it).
  const char* kind_name() const;

  /// True when a catalog snapshot physically backs this path.
  bool indexed() const {
    return (kind == Kind::kHashProbe && hash != nullptr) ||
           (kind == Kind::kBTreeRange && sorted != nullptr);
  }

  /// Collects the candidate row positions once and keeps them, always in
  /// ascending row order regardless of backing, and returns their count:
  /// the planner's exact estimate. `examined` is the number of rows
  /// physically examined to produce them: table.num_rows() on the scan
  /// fallback, the match count when an index snapshot answers the probe.
  size_t Prefetch(const storage::Table& table);
  std::vector<size_t> positions;  ///< kept by Prefetch
  size_t examined = 0;            ///< rows Prefetch's collection examined
};

}  // namespace qp::index
