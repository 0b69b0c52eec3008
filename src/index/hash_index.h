// Secondary hash index: an immutable snapshot mapping one column's values
// to the ascending row positions holding them. Built for equality lookups —
// primary keys, join columns, PPA's per-tuple point probes.
//
// The table is a separately chained hash: `bucket_count` chains of
// (value, positions) entries. Chaining is explicit (not std::unordered_map)
// so collision behavior is first-class and testable: the index_test pins
// lookups through forced collisions by building with a tiny bucket count.
// Snapshots are immutable after Build and therefore safe to share lock-free
// across executor morsels and PPA probe workers; staleness is the
// IndexCatalog's job (rebuild when the table's data_version moved).

#pragma once

#include <vector>

#include "storage/table.h"
#include "storage/value.h"

namespace qp::index {

/// \brief Immutable value -> ascending-row-positions hash index snapshot.
class HashIndex {
 public:
  HashIndex() = default;

  /// Builds an index over `table` column `col`. NULLs are not indexed (an
  /// equality predicate never matches NULL). `bucket_count` of 0 sizes the
  /// table to the row count; tests pass tiny counts to force collisions.
  static HashIndex Build(const storage::Table& table, size_t col,
                         size_t bucket_count = 0);

  /// Row positions holding `key`, ascending; nullptr when absent. Lock-free.
  const std::vector<size_t>* Lookup(const storage::Value& key) const;

  /// Indexed (non-NULL) row count.
  size_t num_entries() const { return num_entries_; }
  /// Distinct indexed keys.
  size_t num_keys() const { return num_keys_; }
  size_t bucket_count() const { return buckets_.size(); }
  /// Length of the longest chain — >1 with distinct keys means collisions.
  size_t max_chain_length() const;

 private:
  struct Entry {
    storage::Value key;
    std::vector<size_t> positions;  // ascending
  };

  std::vector<std::vector<Entry>> buckets_;
  size_t num_entries_ = 0;
  size_t num_keys_ = 0;
};

}  // namespace qp::index
