#include "index/catalog.h"

#include <algorithm>

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
    e.sorted = std::make_shared<const SortedRun>(
        SortedRun::Build(*e.table, e.col));
  }
  e.built_version = e.table->data_version();
  builds_.fetch_add(1, std::memory_order_relaxed);
}

IndexCatalog::Entries::iterator IndexCatalog::FindLocked(
    const storage::Table* table, size_t col, IndexKind kind) const {
  return std::find_if(entries_.begin(), entries_.end(), [&](const auto& e) {
    return e->table == table && e->col == col && e->kind == kind;
  });
}

const IndexCatalog::Entry* IndexCatalog::FreshLocked(
    const storage::Table* table, size_t col, IndexKind kind) const {
  const auto it = FindLocked(table, col, kind);
  if (it == entries_.end()) return nullptr;
  if ((*it)->built_version != table->data_version()) {
    staleness_hits_.fetch_add(1, std::memory_order_relaxed);
    RebuildLocked(**it);
  }
  return it->get();
}

Status IndexCatalog::Create(const storage::Table* table,
                            const std::string& column, IndexKind kind) {
  QP_ASSIGN_OR_RETURN(size_t col, table->schema().ColumnIndex(column));
  std::lock_guard<common::ProfiledMutex> lock(mu_);
  if (FindLocked(table, col, kind) != entries_.end()) {
    return Status::InvalidArgument(std::string(IndexKindName(kind)) +
                                   " index on " + table->schema().name() +
                                   "." + column + " already exists");
  }
  auto entry = std::make_unique<Entry>();
  entry->table = table;
  entry->col = col;
  entry->kind = kind;
  RebuildLocked(*entry);
  entries_.push_back(std::move(entry));
  return Status::OK();
}

Status IndexCatalog::Drop(const storage::Table* table,
                          const std::string& column, IndexKind kind) {
  QP_ASSIGN_OR_RETURN(size_t col, table->schema().ColumnIndex(column));
  std::lock_guard<common::ProfiledMutex> lock(mu_);
  const auto it = FindLocked(table, col, kind);
  if (it == entries_.end()) {
    return Status::NotFound(std::string(IndexKindName(kind)) + " index on " +
                            table->schema().name() + "." + column +
                            " does not exist");
  }
  entries_.erase(it);
  return Status::OK();
}

std::shared_ptr<const HashIndex> IndexCatalog::Hash(
    const storage::Table* table, size_t col) const {
  std::lock_guard<common::ProfiledMutex> lock(mu_);
  const Entry* e = FreshLocked(table, col, IndexKind::kHash);
  return e != nullptr ? e->hash : nullptr;
}

std::shared_ptr<const SortedRun> IndexCatalog::Range(
    const storage::Table* table, size_t col) const {
  std::lock_guard<common::ProfiledMutex> lock(mu_);
  const Entry* e = FreshLocked(table, col, IndexKind::kBTree);
  return e != nullptr ? e->sorted : nullptr;
}

std::vector<IndexCatalog::Info> IndexCatalog::List() const {
  std::lock_guard<common::ProfiledMutex> lock(mu_);
  std::vector<Info> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    Info info;
    info.table = e->table->schema().name();
    info.column = e->table->schema().column(e->col).name;
    info.kind = e->kind;
    info.entries = e->kind == IndexKind::kHash ? e->hash->num_entries()
                                               : e->sorted->size();
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
