#include "index/catalog.h"

namespace qp::index {

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kHash: return "hash";
    case IndexKind::kBTree: return "btree";
  }
  return "?";
}

void IndexCatalog::RebuildLocked(Entry& e) const {
  if (e.kind == IndexKind::kHash) {
    e.hash = std::make_shared<const HashIndex>(
        HashIndex::Build(*e.table, e.col));
  } else {
    e.btree = std::make_shared<const BPlusTree>(
        BPlusTree::Build(*e.table, e.col));
  }
  e.built_version = e.table->data_version();
  builds_.fetch_add(1, std::memory_order_relaxed);
}

IndexCatalog::Entry* IndexCatalog::FindLocked(const storage::Table* table,
                                              size_t col,
                                              IndexKind kind) const {
  for (const auto& e : entries_) {
    if (e->table == table && e->col == col && e->kind == kind) return e.get();
  }
  return nullptr;
}

Status IndexCatalog::Create(const storage::Table* table,
                            const std::string& table_name,
                            const std::string& column, IndexKind kind) {
  QP_ASSIGN_OR_RETURN(size_t col, table->schema().ColumnIndex(column));
  std::lock_guard<common::ProfiledMutex> lock(mu_);
  if (FindLocked(table, col, kind) != nullptr) {
    return Status::InvalidArgument(std::string(IndexKindName(kind)) +
                                   " index on " + table_name + "." + column +
                                   " already exists");
  }
  auto entry = std::make_unique<Entry>();
  entry->table = table;
  entry->table_name = table_name;
  entry->column = column;
  entry->col = col;
  entry->kind = kind;
  RebuildLocked(*entry);
  entries_.push_back(std::move(entry));
  return Status::OK();
}

Status IndexCatalog::Drop(const std::string& table_name,
                          const std::string& column, IndexKind kind) {
  std::lock_guard<common::ProfiledMutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if ((*it)->table_name == table_name && (*it)->column == column &&
        (*it)->kind == kind) {
      entries_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound(std::string(IndexKindName(kind)) + " index on " +
                          table_name + "." + column + " does not exist");
}

std::shared_ptr<const HashIndex> IndexCatalog::Hash(
    const storage::Table* table, size_t col) const {
  std::lock_guard<common::ProfiledMutex> lock(mu_);
  Entry* e = FindLocked(table, col, IndexKind::kHash);
  if (e == nullptr) return nullptr;
  if (e->built_version != table->data_version()) {
    staleness_hits_.fetch_add(1, std::memory_order_relaxed);
    RebuildLocked(*e);
  }
  return e->hash;
}

std::shared_ptr<const BPlusTree> IndexCatalog::Range(
    const storage::Table* table, size_t col) const {
  std::lock_guard<common::ProfiledMutex> lock(mu_);
  Entry* e = FindLocked(table, col, IndexKind::kBTree);
  if (e == nullptr) return nullptr;
  if (e->built_version != table->data_version()) {
    staleness_hits_.fetch_add(1, std::memory_order_relaxed);
    RebuildLocked(*e);
  }
  return e->btree;
}

std::vector<IndexCatalog::Info> IndexCatalog::List() const {
  std::lock_guard<common::ProfiledMutex> lock(mu_);
  std::vector<Info> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    Info info;
    info.table = e->table_name;
    info.column = e->column;
    info.kind = e->kind;
    info.entries = e->kind == IndexKind::kHash ? e->hash->num_entries()
                                               : e->btree->size();
    info.built_version = e->built_version;
    info.fresh = e->built_version == e->table->data_version();
    out.push_back(std::move(info));
  }
  return out;
}

size_t IndexCatalog::num_indexes() const {
  std::lock_guard<common::ProfiledMutex> lock(mu_);
  return entries_.size();
}

}  // namespace qp::index
