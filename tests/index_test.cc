// The secondary index structures against scan oracles: B+ tree insert /
// erase maintenance (leaf and internal splits, borrows and merges forced
// by a tiny node capacity), duplicate keys, range iteration order; hash
// index lookups through forced bucket collisions; and the catalog's
// rebuild-on-stale contract under random table churn. Every mutation batch
// re-checks the tree's structural invariants — the index is allowed to be
// slow, never silently wrong.
// Runs under TSan/ASan/UBSan via the `sanitizer` CTest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "index/btree.h"
#include "index/catalog.h"
#include "index/hash_index.h"
#include "storage/database.h"

namespace qp::index {
namespace {

using qp::Rng;
using storage::DataType;
using storage::Table;
using storage::TableSchema;
using storage::Value;

/// (key, pos) entries of `tree` in iteration order.
std::vector<std::pair<Value, size_t>> Entries(const BPlusTree& tree) {
  std::vector<std::pair<Value, size_t>> out;
  for (auto it = tree.Begin(); it.valid(); ++it) {
    out.emplace_back(it.key(), it.pos());
  }
  return out;
}

/// The scan oracle for a range: every entry whose key Contains() admits,
/// in (key, pos) order — the same membership definition the tree uses.
std::vector<std::pair<Value, size_t>> OracleRange(
    const std::set<std::pair<int64_t, size_t>>& oracle,
    const RangeBounds& bounds) {
  std::vector<std::pair<Value, size_t>> out;
  for (const auto& [key, pos] : oracle) {
    const Value value(key);
    if (bounds.Contains(value)) out.emplace_back(value, pos);
  }
  return out;
}

RangeBounds Between(int64_t lo, bool lo_inc, int64_t hi, bool hi_inc) {
  RangeBounds bounds;
  bounds.lo = Value(lo);
  bounds.has_lo = true;
  bounds.lo_inclusive = lo_inc;
  bounds.hi = Value(hi);
  bounds.has_hi = true;
  bounds.hi_inclusive = hi_inc;
  return bounds;
}

TEST(BPlusTreeTest, InsertAndIterateSorted) {
  BPlusTree tree(4);  // tiny capacity: splits after a handful of inserts
  const int64_t keys[] = {9, 3, 7, 1, 5, 8, 2, 6, 4, 0};
  for (size_t i = 0; i < std::size(keys); ++i) {
    tree.Insert(Value(keys[i]), i);
  }
  ASSERT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.size(), 10u);
  EXPECT_GT(tree.height(), 1u);  // capacity 4 must have split
  const auto entries = Entries(tree);
  ASSERT_EQ(entries.size(), 10u);
  for (size_t i = 0; i + 1 < entries.size(); ++i) {
    EXPECT_LT(entries[i].first, entries[i + 1].first);
  }
}

TEST(BPlusTreeTest, DuplicateKeysIterateInPositionOrder) {
  BPlusTree tree(4);
  // Key 5 lands on rows 30, 10, 20; duplicates order by position.
  tree.Insert(Value(int64_t{5}), 30);
  tree.Insert(Value(int64_t{5}), 10);
  tree.Insert(Value(int64_t{5}), 20);
  tree.Insert(Value(int64_t{5}), 10);  // duplicate (key, pos): kept once
  tree.Insert(Value(int64_t{3}), 1);
  ASSERT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.size(), 4u);
  const auto positions = tree.RangePositions(Between(5, true, 5, true));
  EXPECT_EQ(positions, (std::vector<size_t>{10, 20, 30}));
}

TEST(BPlusTreeTest, NullKeysAreNeverIndexed) {
  BPlusTree tree(4);
  tree.Insert(Value::Null(), 0);
  tree.Insert(Value(int64_t{1}), 1);
  EXPECT_EQ(tree.size(), 1u);
  // An open range (no bounds at all) still excludes NULL.
  EXPECT_EQ(tree.RangePositions(RangeBounds{}).size(), 1u);
}

TEST(BPlusTreeTest, RangeBoundsInclusivity) {
  BPlusTree tree(4);
  for (int64_t k = 0; k < 10; ++k) tree.Insert(Value(k), static_cast<size_t>(k));
  using Positions = std::vector<size_t>;
  EXPECT_EQ(tree.RangePositions(Between(3, true, 6, true)),
            (Positions{3, 4, 5, 6}));  // [3,6]
  EXPECT_EQ(tree.RangePositions(Between(3, false, 6, true)),
            (Positions{4, 5, 6}));  // (3,6]
  EXPECT_EQ(tree.RangePositions(Between(3, true, 6, false)),
            (Positions{3, 4, 5}));  // [3,6)
  EXPECT_EQ(tree.RangePositions(Between(3, false, 6, false)),
            (Positions{4, 5}));  // (3,6)
  RangeBounds lo_only;
  lo_only.lo = Value(int64_t{7});
  lo_only.has_lo = true;
  lo_only.lo_inclusive = false;
  EXPECT_EQ(tree.RangePositions(lo_only), (Positions{8, 9}));  // (7, +inf)
  RangeBounds hi_only;
  hi_only.hi = Value(int64_t{2});
  hi_only.has_hi = true;
  EXPECT_EQ(tree.RangePositions(hi_only), (Positions{0, 1, 2}));  // (-inf, 2]
}

TEST(BPlusTreeTest, SeekHonorsInclusivity) {
  BPlusTree tree(4);
  for (int64_t k = 0; k < 20; k += 2) {
    tree.Insert(Value(k), static_cast<size_t>(k));
  }
  auto at = tree.Seek(Value(int64_t{6}), /*inclusive=*/true);
  ASSERT_TRUE(at.valid());
  EXPECT_EQ(at.key(), Value(int64_t{6}));
  auto after = tree.Seek(Value(int64_t{6}), /*inclusive=*/false);
  ASSERT_TRUE(after.valid());
  EXPECT_EQ(after.key(), Value(int64_t{8}));
  auto between = tree.Seek(Value(int64_t{7}), /*inclusive=*/true);
  ASSERT_TRUE(between.valid());
  EXPECT_EQ(between.key(), Value(int64_t{8}));
  EXPECT_FALSE(tree.Seek(Value(int64_t{19}), true).valid());
}

TEST(BPlusTreeTest, EraseMergesBackToEmpty) {
  BPlusTree tree(4);
  for (int64_t k = 0; k < 100; ++k) tree.Insert(Value(k), static_cast<size_t>(k));
  ASSERT_TRUE(tree.CheckInvariants());
  // Erase in an order that exercises both borrow directions and merges.
  for (int64_t k = 0; k < 100; k += 2) {
    EXPECT_TRUE(tree.Erase(Value(k), static_cast<size_t>(k)));
    ASSERT_TRUE(tree.CheckInvariants()) << "after erasing " << k;
  }
  EXPECT_FALSE(tree.Erase(Value(int64_t{2}), 2));  // already gone
  for (int64_t k = 99; k >= 1; k -= 2) {
    EXPECT_TRUE(tree.Erase(Value(k), static_cast<size_t>(k)));
    ASSERT_TRUE(tree.CheckInvariants()) << "after erasing " << k;
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Begin().valid());
}

TEST(BPlusTreeTest, RandomChurnMatchesOracle) {
  Rng rng(20260808);
  BPlusTree tree(4);
  std::set<std::pair<int64_t, size_t>> oracle;
  for (int round = 0; round < 40; ++round) {
    for (int step = 0; step < 50; ++step) {
      const int64_t key = rng.UniformInt(0, 60);
      const size_t pos = static_cast<size_t>(rng.UniformInt(0, 5));
      if (!oracle.empty() && rng.UniformInt(0, 2) == 0) {
        // Erase a random existing entry (about a third of the steps).
        auto victim = oracle.begin();
        std::advance(victim, rng.Index(oracle.size()));
        EXPECT_TRUE(tree.Erase(Value(victim->first), victim->second));
        oracle.erase(victim);
      } else {
        tree.Insert(Value(key), pos);
        oracle.emplace(key, pos);
      }
    }
    ASSERT_TRUE(tree.CheckInvariants()) << "round " << round;
    ASSERT_EQ(tree.size(), oracle.size()) << "round " << round;
    // Full iteration replays the oracle in (key, pos) order.
    const auto entries = Entries(tree);
    ASSERT_EQ(entries.size(), oracle.size());
    size_t i = 0;
    for (const auto& [key, pos] : oracle) {
      EXPECT_EQ(entries[i].first, Value(key));
      EXPECT_EQ(entries[i].second, pos);
      ++i;
    }
    // Random range agrees with the Contains()-based oracle.
    const int64_t a = rng.UniformInt(0, 60), b = rng.UniformInt(0, 60);
    const RangeBounds bounds = Between(std::min(a, b), rng.UniformInt(0, 1),
                                       std::max(a, b), rng.UniformInt(0, 1));
    const auto expect = OracleRange(oracle, bounds);
    std::vector<size_t> expect_pos;
    for (const auto& [key, pos] : expect) expect_pos.push_back(pos);
    EXPECT_EQ(tree.RangePositions(bounds), expect_pos) << "round " << round;
  }
}

Table SmallTable(size_t rows, size_t distinct) {
  Table t(TableSchema("t", {{"k", DataType::kInt}}));
  for (size_t i = 0; i < rows; ++i) {
    t.AppendUnchecked({Value(static_cast<int64_t>(i % distinct))});
  }
  return t;
}

TEST(HashIndexTest, LookupThroughForcedCollisions) {
  // 2 buckets for 17 distinct keys: nearly every chain collides.
  const Table t = SmallTable(51, 17);
  const HashIndex idx = HashIndex::Build(t, 0, /*bucket_count=*/2);
  EXPECT_EQ(idx.bucket_count(), 2u);
  EXPECT_EQ(idx.num_keys(), 17u);
  EXPECT_EQ(idx.num_entries(), 51u);
  EXPECT_GT(idx.max_chain_length(), 1u);
  for (int64_t k = 0; k < 17; ++k) {
    const std::vector<size_t>* positions = idx.Lookup(Value(k));
    ASSERT_NE(positions, nullptr) << k;
    // Each key lands on rows k, k+17, k+34 — ascending.
    EXPECT_EQ(*positions,
              (std::vector<size_t>{static_cast<size_t>(k),
                                   static_cast<size_t>(k) + 17,
                                   static_cast<size_t>(k) + 34}));
  }
  EXPECT_EQ(idx.Lookup(Value(int64_t{99})), nullptr);
}

TEST(HashIndexTest, NullsAreNeverIndexed) {
  Table t(TableSchema("t", {{"k", DataType::kInt}}));
  t.AppendUnchecked({Value::Null()});
  t.AppendUnchecked({Value(int64_t{1})});
  t.AppendUnchecked({Value::Null()});
  const HashIndex idx = HashIndex::Build(t, 0);
  EXPECT_EQ(idx.num_entries(), 1u);
  EXPECT_EQ(idx.Lookup(Value::Null()), nullptr);
}

TEST(HashIndexTest, NumericKeysUnifyAcrossTypes) {
  // Value(2) and Value(2.0) compare and hash equal; the index must agree.
  Table t(TableSchema("t", {{"k", DataType::kDouble}}));
  t.AppendUnchecked({Value(2.0)});
  t.AppendUnchecked({Value(int64_t{2})});
  const HashIndex idx = HashIndex::Build(t, 0);
  for (const Value& key : {Value(int64_t{2}), Value(2.0)}) {
    const std::vector<size_t>* positions = idx.Lookup(key);
    ASSERT_NE(positions, nullptr) << key.ToString();
    EXPECT_EQ(positions->size(), 2u) << key.ToString();
  }
}

/// Catalog under churn: after every batch of random appends, both index
/// kinds must answer exactly like a fresh scan of the table — the
/// rebuild-on-stale contract means a stale snapshot is never served.
TEST(IndexCatalogTest, ChurnedIndexMatchesScanOracle) {
  storage::Database db;
  ASSERT_TRUE(
      db.CreateTable(TableSchema("t", {{"k", DataType::kInt}})).ok());
  Table* t = *db.GetTable("t");
  ASSERT_TRUE(db.CreateIndex("t", "k", IndexKind::kHash).ok());
  ASSERT_TRUE(db.CreateIndex("t", "k", IndexKind::kBTree).ok());

  Rng rng(7);
  for (int round = 0; round < 30; ++round) {
    const int batch = static_cast<int>(rng.UniformInt(1, 8));
    for (int i = 0; i < batch; ++i) {
      const int64_t k = rng.UniformInt(0, 25);
      ASSERT_TRUE(t->Append({rng.UniformInt(0, 9) == 0 ? Value::Null()
                                                       : Value(k)})
                      .ok());
    }
    const auto hash = db.indexes().Hash(t, 0);
    const auto btree = db.indexes().Range(t, 0);
    ASSERT_NE(hash, nullptr);
    ASSERT_NE(btree, nullptr);

    const int64_t probe = rng.UniformInt(0, 25);
    std::vector<size_t> scan_eq;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      if (t->row(r)[0] == Value(probe) && !t->row(r)[0].is_null()) {
        scan_eq.push_back(r);
      }
    }
    const std::vector<size_t>* looked = hash->Lookup(Value(probe));
    EXPECT_EQ(looked != nullptr ? *looked : std::vector<size_t>{}, scan_eq)
        << "round " << round << " key " << probe;

    const int64_t a = rng.UniformInt(0, 25), b = rng.UniformInt(0, 25);
    const RangeBounds bounds = Between(std::min(a, b), true, std::max(a, b),
                                       rng.UniformInt(0, 1));
    std::vector<size_t> scan_range;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      if (!t->row(r)[0].is_null() && bounds.Contains(t->row(r)[0])) {
        scan_range.push_back(r);
      }
    }
    std::vector<size_t> indexed = btree->RangePositions(bounds);
    std::sort(indexed.begin(), indexed.end());
    EXPECT_EQ(indexed, scan_range) << "round " << round;
  }
}

}  // namespace
}  // namespace qp::index
