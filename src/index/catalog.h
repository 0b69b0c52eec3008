// The per-Database index catalog: explicitly created secondary indexes
// (hash for equality/join columns, sorted run for range predicates), kept
// consistent under data mutation by version coupling.
//
// Consistency model — "stale means rebuild, never silently wrong": every
// index snapshot records the owning table's data_version at build time.
// Each access re-checks it under the catalog mutex and rebuilds a stale
// snapshot before handing it out, so a reader can never observe an index
// that disagrees with the table. The same data_version feeds
// Database::DataVersion() and therefore StatsManager::Epoch(): the epoch
// that invalidates histograms and the serving layer's cached PPA plans is
// exactly the version that marks index snapshots stale — one mutation
// counter drives both.
//
// Snapshots are handed out as shared_ptr<const ...>: a plan prepared under
// an older epoch keeps its (stale but structurally valid) snapshot alive
// until dropped, while new accesses already see the rebuilt one. Like every
// mutation path in this engine, mutating tables while queries are in flight
// is unsupported; the guarantee here is about *between-query* consistency.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/profiled_mutex.h"
#include "common/status.h"
#include "index/hash_index.h"
#include "index/sorted_run.h"
#include "storage/table.h"

namespace qp::index {

/// Kind of secondary index.
enum class IndexKind {
  kHash,   ///< equality lookups: PK/join columns, point probes
  kBTree,  ///< range predicates: elastic preferences, year/duration bounds
};

const char* IndexKindName(IndexKind kind);

/// \brief Registry of secondary indexes for one Database.
///
/// Held behind a unique_ptr by storage::Database (which stays movable and
/// surfaces the DDL as Database::CreateIndex / DropIndex). Thread-safe:
/// lookups serialize on an internal mutex only to check freshness and
/// rebuild; the returned snapshots are immutable and lock-free to read.
class IndexCatalog {
 public:
  IndexCatalog() = default;
  IndexCatalog(const IndexCatalog&) = delete;
  IndexCatalog& operator=(const IndexCatalog&) = delete;

  /// Registers an index on `table`'s column `column`. The snapshot is built
  /// immediately. Fails if the column does not exist or the same
  /// (table, column, kind) index is already registered.
  Status Create(const storage::Table* table, const std::string& column,
                IndexKind kind);

  /// Unregisters an index (column resolved as in Create); NotFound if absent.
  Status Drop(const storage::Table* table, const std::string& column,
              IndexKind kind);

  /// Fresh hash-index snapshot for `table` column `col`, or nullptr when no
  /// such index is registered. Rebuilds first when the table's data_version
  /// moved since the snapshot was built.
  std::shared_ptr<const HashIndex> Hash(const storage::Table* table,
                                        size_t col) const;

  /// Fresh sorted-run snapshot for `table` column `col`, or nullptr.
  std::shared_ptr<const SortedRun> Range(const storage::Table* table,
                                         size_t col) const;

  /// One registered index, for \indexes-style listings.
  struct Info {
    std::string table;   ///< the schema's name
    std::string column;  ///< the schema's spelling
    IndexKind kind = IndexKind::kHash;
    size_t entries = 0;         ///< indexed (non-NULL) rows at last build
    uint64_t built_version = 0; ///< table data_version the snapshot saw
    bool fresh = false;         ///< built_version == current data_version
  };

  /// All registered indexes in creation order.
  std::vector<Info> List() const;

  size_t num_indexes() const;

  /// Snapshot builds over the catalog's lifetime, the one at Create
  /// included (every ServingContext over the Database publishes it as
  /// qp_index_builds_total).
  uint64_t builds() const { return builds_.load(std::memory_order_relaxed); }
  /// Accesses that found a snapshot's built_version behind its table and
  /// rebuilt it before answering (qp_index_staleness_hits_total).
  uint64_t staleness_hits() const {
    return staleness_hits_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    const storage::Table* table = nullptr;
    size_t col = 0;
    IndexKind kind = IndexKind::kHash;
    uint64_t built_version = 0;
    std::shared_ptr<const HashIndex> hash;
    std::shared_ptr<const SortedRun> sorted;
  };
  using Entries = std::vector<std::unique_ptr<Entry>>;

  /// Rebuilds `e`'s snapshot from the current table contents.
  void RebuildLocked(Entry& e) const;

  Entries::iterator FindLocked(const storage::Table* table, size_t col,
                               IndexKind kind) const;
  /// The registered entry, rebuilt first when stale; nullptr when absent.
  const Entry* FreshLocked(const storage::Table* table, size_t col,
                           IndexKind kind) const;

  /// Contention-profiled (site "index_catalog"): rebuild storms after bulk
  /// mutations show up in /contentionz instead of hiding in lookup latency.
  mutable common::ProfiledMutex mu_{"index_catalog"};
  mutable Entries entries_;
  /// Bumped under mu_; atomic so a scrape reads them without it.
  mutable std::atomic<uint64_t> builds_{0};
  mutable std::atomic<uint64_t> staleness_hits_{0};
};

}  // namespace qp::index
