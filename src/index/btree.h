// Secondary B+ tree index over one column: entries are (value, row
// position) pairs ordered by value then position, so duplicate keys are
// first-class and a range scan replays matches in (key, row) order. Serves
// the range predicates elastic preferences translate into.
//
// Unlike HashIndex snapshots, the tree is a dynamic structure with real
// insert/erase maintenance (leaf and internal splits, borrows and merges) —
// the index_test drives churn against a scan oracle with a tiny node
// capacity to force deep trees. The IndexCatalog still treats trees as
// rebuild-on-stale snapshots (tables are bulk-append today), but the
// maintenance path is what incremental repair will ride on.
//
// Reads after construction are lock-free and safe to share across threads;
// Insert/Erase require external exclusion (the catalog rebuilds under its
// mutex, never in place while readers exist).

#pragma once

#include <memory>
#include <vector>

#include "storage/table.h"
#include "storage/value.h"

namespace qp::index {

/// Tree node, defined in btree.cc (out of line so the header stays free of
/// the node layout).
struct BTreeNode;

/// Inclusive/exclusive bounds of a range scan; `has_*` false = open side.
/// Open bounds still exclude NULLs (NULL is never indexed, matching SQL
/// predicate semantics where comparisons with NULL are never true).
struct RangeBounds {
  storage::Value lo, hi;
  bool has_lo = false, has_hi = false;
  bool lo_inclusive = true, hi_inclusive = true;

  /// True when non-NULL `v` falls inside the bounds. The single definition
  /// of range membership — the executor's scan fallback and the tests'
  /// oracle both use it, so index and scan can never disagree.
  bool Contains(const storage::Value& v) const;
};

/// \brief B+ tree mapping (value, row position) -> presence.
class BPlusTree {
 public:
  /// `max_keys` is the node capacity (tests shrink it to force splits);
  /// nodes underflow below max_keys / 2.
  explicit BPlusTree(size_t max_keys = 64);
  ~BPlusTree();
  // Out of line: BTreeNode is incomplete here.
  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;

  /// Builds a tree over `table` column `col`; NULLs are not indexed.
  static BPlusTree Build(const storage::Table& table, size_t col,
                         size_t max_keys = 64);

  /// Inserts one entry. NULL keys are ignored; duplicate (key, pos) pairs
  /// are kept once.
  void Insert(const storage::Value& key, size_t pos);

  /// Removes one entry; false when it was not present.
  bool Erase(const storage::Value& key, size_t pos);

  size_t size() const { return size_; }
  size_t height() const;
  size_t max_keys() const { return max_keys_; }

  /// \brief Forward iterator over (key, position) entries in index order.
  class Iterator {
   public:
    bool valid() const { return leaf_ != nullptr; }
    const storage::Value& key() const;
    size_t pos() const;
    Iterator& operator++();

   private:
    friend class BPlusTree;
    const void* leaf_ = nullptr;  // internal node type, opaque here
    size_t idx_ = 0;
  };

  /// Iterator at the smallest entry (invalid when empty).
  Iterator Begin() const;

  /// First entry with key >= `v` (inclusive) or key > `v` (exclusive).
  Iterator Seek(const storage::Value& v, bool inclusive) const;

  /// Iterator at the first in-bounds entry; callers stop when the key
  /// leaves the bounds (see RangeBounds::Contains / RangePositions).
  Iterator SeekRange(const RangeBounds& bounds) const;

  /// Row positions inside `bounds`, in (key, position) index order.
  std::vector<size_t> RangePositions(const RangeBounds& bounds) const;

  /// Structural self-check: key ordering within and across nodes, fill
  /// factors, leaf chain consistency, separator agreement, entry count.
  /// Returns false (and the tree is broken) on any violation — the churn
  /// test calls this after every mutation batch.
  bool CheckInvariants() const;

 private:
  std::unique_ptr<BTreeNode> root_;
  size_t max_keys_ = 64;
  size_t size_ = 0;
};

}  // namespace qp::index
