// The database catalog: named tables plus declared join links between
// attributes. Join links let the personalization layer know which joins are
// meaningful (the schema graph the personalization graph extends).

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace qp::index {
class IndexCatalog;
enum class IndexKind;
}  // namespace qp::index

namespace qp::storage {

/// \brief A declared joinable attribute pair (undirected at schema level).
struct JoinLink {
  AttributeRef left;
  AttributeRef right;

  bool operator==(const JoinLink&) const = default;
};

/// \brief Named collection of tables with schema-level join metadata.
class Database {
 public:
  Database();
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  // Out of line: index::IndexCatalog is incomplete here.
  Database(Database&&) noexcept;
  Database& operator=(Database&&) noexcept;

  /// Creates an empty table; fails on duplicate name.
  Result<Table*> CreateTable(TableSchema schema);

  /// Looks up a table (case-insensitive); NotFound if absent.
  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const;

  /// All table names in creation order.
  std::vector<std::string> TableNames() const { return table_order_; }

  /// Declares `left` and `right` as joinable; both attributes must exist.
  Status AddJoinLink(const AttributeRef& left, const AttributeRef& right);

  const std::vector<JoinLink>& join_links() const { return join_links_; }

  /// True if a join link between the two attributes exists in either
  /// orientation.
  bool AreJoinable(const AttributeRef& a, const AttributeRef& b) const;

  /// Resolves an attribute reference; fails if table or column is missing.
  Status ValidateAttribute(const AttributeRef& attr) const;

  /// Type of the referenced attribute.
  Result<DataType> AttributeType(const AttributeRef& attr) const;

  /// Registers a secondary index on `table`.`column` in the index catalog
  /// and builds its first snapshot. Fails when the table or column is
  /// missing or the same (table, column, kind) index already exists.
  Status CreateIndex(const std::string& table, const std::string& column,
                     index::IndexKind kind);

  /// Unregisters a secondary index, naming the column as CreateIndex does
  /// (case-insensitively); NotFound when absent.
  Status DropIndex(const std::string& table, const std::string& column,
                   index::IndexKind kind);

  /// The secondary-index catalog. Snapshots handed out by it are kept
  /// consistent with table contents via Table::data_version — the same
  /// counter DataVersion() aggregates for the stats epoch.
  index::IndexCatalog& indexes() { return *indexes_; }
  const index::IndexCatalog& indexes() const { return *indexes_; }

  /// Monotonic catalog-wide data version: grows whenever a table is created
  /// or mutated (see Table::data_version). The stats manager compares this
  /// to decide when its histograms went stale; the serving layer keys plan
  /// caches by the derived stats epoch.
  uint64_t DataVersion() const {
    uint64_t v = table_order_.size();
    for (const auto& entry : tables_) v += entry.second->data_version();
    return v;
  }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::vector<std::string> table_order_;
  std::vector<JoinLink> join_links_;
  std::unique_ptr<index::IndexCatalog> indexes_;
};

}  // namespace qp::storage
