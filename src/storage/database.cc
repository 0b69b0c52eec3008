#include "storage/database.h"

#include "common/string_util.h"
#include "index/catalog.h"

namespace qp::storage {

Database::Database() : indexes_(std::make_unique<index::IndexCatalog>()) {}
Database::~Database() = default;
Database::Database(Database&&) noexcept = default;
Database& Database::operator=(Database&&) noexcept = default;

Result<Table*> Database::CreateTable(TableSchema schema) {
  const std::string key = ToLower(schema.name());
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table '" + key + "' already exists");
  }
  for (const auto& pk : schema.primary_key()) {
    if (!schema.HasColumn(pk)) {
      return Status::InvalidArgument("primary key column '" + pk +
                                     "' not in table '" + key + "'");
    }
  }
  auto table = std::make_unique<Table>(std::move(schema));
  Table* raw = table.get();
  tables_.emplace(key, std::move(table));
  table_order_.push_back(key);
  return raw;
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return it->second.get();
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return static_cast<const Table*>(it->second.get());
}

bool Database::HasTable(const std::string& name) const {
  return tables_.count(ToLower(name)) > 0;
}

Status Database::AddJoinLink(const AttributeRef& left,
                             const AttributeRef& right) {
  QP_RETURN_IF_ERROR(ValidateAttribute(left));
  QP_RETURN_IF_ERROR(ValidateAttribute(right));
  join_links_.push_back({left, right});
  return Status::OK();
}

bool Database::AreJoinable(const AttributeRef& a, const AttributeRef& b) const {
  for (const auto& link : join_links_) {
    if ((link.left == a && link.right == b) ||
        (link.left == b && link.right == a)) {
      return true;
    }
  }
  return false;
}

Status Database::ValidateAttribute(const AttributeRef& attr) const {
  QP_ASSIGN_OR_RETURN(const Table* table, GetTable(attr.table));
  QP_ASSIGN_OR_RETURN(size_t idx, table->schema().ColumnIndex(attr.column));
  (void)idx;
  return Status::OK();
}

Result<DataType> Database::AttributeType(const AttributeRef& attr) const {
  QP_ASSIGN_OR_RETURN(const Table* table, GetTable(attr.table));
  QP_ASSIGN_OR_RETURN(size_t idx, table->schema().ColumnIndex(attr.column));
  return table->schema().column(idx).type;
}

Status Database::CreateIndex(const std::string& table,
                             const std::string& column,
                             index::IndexKind kind) {
  QP_ASSIGN_OR_RETURN(const Table* t, GetTable(table));
  return indexes_->Create(t, column, kind);
}

Status Database::DropIndex(const std::string& table, const std::string& column,
                           index::IndexKind kind) {
  QP_ASSIGN_OR_RETURN(const Table* t, GetTable(table));
  return indexes_->Drop(t, column, kind);
}

}  // namespace qp::storage
