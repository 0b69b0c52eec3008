// The secondary index structures against scan oracles: the sorted run's
// (value, position) order, duplicate keys, NULLs and bound inclusivity;
// hash index lookups through forced bucket collisions; and the catalog's
// rebuild-on-stale contract under random table churn, where every range
// read (inclusive and exclusive sides, one-sided, unbounded and inverted
// ranges, integer bounds over int and double columns) must equal a scan
// filtered by RangeBounds::Contains. The index is allowed to be slow,
// never silently wrong.
// Runs under TSan/ASan/UBSan via the `sanitizer` CTest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "index/catalog.h"
#include "index/hash_index.h"
#include "index/sorted_run.h"
#include "storage/database.h"

namespace qp::index {
namespace {

using qp::Rng;
using storage::DataType;
using storage::Table;
using storage::TableSchema;
using storage::Value;
using Positions = std::vector<size_t>;

/// A one-column table holding `values` in row order.
Table ColumnTable(DataType type, const std::vector<Value>& values) {
  Table t(TableSchema("t", {{"k", type}}));
  for (const Value& v : values) t.AppendUnchecked({v});
  return t;
}

Table IntTable(const std::vector<int64_t>& keys) {
  std::vector<Value> values;
  for (int64_t k : keys) values.emplace_back(k);
  return ColumnTable(DataType::kInt, values);
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

/// The scan oracle for a range read: the rows of column `col` that
/// Contains() admits, in (value, position) order.
Positions ScanRange(const Table& t, size_t col, const RangeBounds& bounds) {
  Positions out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (bounds.Contains(t.row(r)[col])) out.push_back(r);
  }
  std::stable_sort(out.begin(), out.end(), [&](size_t a, size_t b) {
    return t.row(a)[col].Compare(t.row(b)[col]) < 0;
  });
  return out;
}

TEST(SortedRunTest, BuildOrdersEntriesByValue) {
  const Table t = IntTable({9, 3, 7, 1, 5, 8, 2, 6, 4, 0});
  const SortedRun run = SortedRun::Build(t, 0);
  EXPECT_EQ(run.size(), 10u);
  // Unbounded: every row, by value (value k sits on the row holding k).
  EXPECT_EQ(run.RangePositions(RangeBounds{}),
            (Positions{9, 3, 6, 1, 8, 4, 7, 2, 5, 0}));
}

TEST(SortedRunTest, DuplicateKeysReadInPositionOrder) {
  // Key 5 lands on rows 0, 2 and 4, between rows of other keys.
  const Table t = IntTable({5, 3, 5, 7, 5});
  const SortedRun run = SortedRun::Build(t, 0);
  EXPECT_EQ(run.size(), 5u);
  EXPECT_EQ(run.RangePositions(Between(5, true, 5, true)),
            (Positions{0, 2, 4}));
  EXPECT_EQ(run.RangePositions(RangeBounds{}), (Positions{1, 0, 2, 4, 3}));
}

TEST(SortedRunTest, NullKeysAreNeverIndexed) {
  const Table t = ColumnTable(DataType::kInt,
                              {Value::Null(), Value(int64_t{1}), Value::Null()});
  const SortedRun run = SortedRun::Build(t, 0);
  EXPECT_EQ(run.size(), 1u);
  // An open range (no bounds at all) still excludes NULL.
  EXPECT_EQ(run.RangePositions(RangeBounds{}), (Positions{1}));
}

TEST(SortedRunTest, RangeBoundsInclusivity) {
  const SortedRun run =
      SortedRun::Build(IntTable({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}), 0);
  EXPECT_EQ(run.RangePositions(Between(3, true, 6, true)),
            (Positions{3, 4, 5, 6}));  // [3,6]
  EXPECT_EQ(run.RangePositions(Between(3, false, 6, true)),
            (Positions{4, 5, 6}));  // (3,6]
  EXPECT_EQ(run.RangePositions(Between(3, true, 6, false)),
            (Positions{3, 4, 5}));  // [3,6)
  EXPECT_EQ(run.RangePositions(Between(3, false, 6, false)),
            (Positions{4, 5}));  // (3,6)
  EXPECT_EQ(run.RangePositions(Between(6, true, 3, true)),
            Positions{});  // inverted: empty
  RangeBounds lo_only;
  lo_only.lo = Value(int64_t{7});
  lo_only.has_lo = true;
  lo_only.lo_inclusive = false;
  EXPECT_EQ(run.RangePositions(lo_only), (Positions{8, 9}));  // (7, +inf)
  RangeBounds hi_only;
  hi_only.hi = Value(int64_t{2});
  hi_only.has_hi = true;
  EXPECT_EQ(run.RangePositions(hi_only), (Positions{0, 1, 2}));  // (-inf, 2]
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

/// A random range over [0, 25] with each side drawn independently as open,
/// inclusive or exclusive, so the draws include exclusive low sides,
/// one-sided, unbounded and inverted (empty) ranges.
RangeBounds RandomBounds(Rng& rng) {
  RangeBounds bounds;
  const int64_t lo_side = rng.UniformInt(0, 2), hi_side = rng.UniformInt(0, 2);
  const int64_t lo = rng.UniformInt(0, 25), hi = rng.UniformInt(0, 25);
  if (lo_side != 0) {
    bounds.lo = Value(lo);
    bounds.has_lo = true;
    bounds.lo_inclusive = lo_side == 1;
  }
  if (hi_side != 0) {
    bounds.hi = Value(hi);
    bounds.has_hi = true;
    bounds.hi_inclusive = hi_side == 1;
  }
  return bounds;
}

/// Catalog under churn: after every batch of random appends, both index
/// kinds must answer exactly like a fresh scan of the table — the
/// rebuild-on-stale contract means a stale snapshot is never served. The
/// range index is probed with integer bounds over an int column and over a
/// double column holding halves, and must return the scan's rows in
/// (value, position) order.
TEST(IndexCatalogTest, ChurnedIndexMatchesScanOracle) {
  storage::Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("t", {{"k", DataType::kInt},
                                               {"d", DataType::kDouble}}))
                  .ok());
  Table* t = *db.GetTable("t");
  ASSERT_TRUE(db.CreateIndex("t", "k", IndexKind::kHash).ok());
  ASSERT_TRUE(db.CreateIndex("t", "k", IndexKind::kBTree).ok());
  ASSERT_TRUE(db.CreateIndex("t", "d", IndexKind::kBTree).ok());

  Rng rng(7);
  size_t one_sided = 0, unbounded = 0, exclusive_lo = 0, nonempty = 0;
  for (int round = 0; round < 60; ++round) {
    const int batch = static_cast<int>(rng.UniformInt(1, 8));
    for (int i = 0; i < batch; ++i) {
      const int64_t k = rng.UniformInt(0, 25);
      const int64_t halves = rng.UniformInt(0, 51);
      const Value d = rng.UniformInt(0, 9) == 0
                          ? Value::Null()
                          : Value(static_cast<double>(halves) / 2.0);
      ASSERT_TRUE(
          t->Append({rng.UniformInt(0, 9) == 0 ? Value::Null() : Value(k), d})
              .ok());
    }
    const auto hash = db.indexes().Hash(t, 0);
    ASSERT_NE(hash, nullptr);

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

    for (size_t col : {size_t{0}, size_t{1}}) {
      const auto run = db.indexes().Range(t, col);
      ASSERT_NE(run, nullptr);
      for (int draw = 0; draw < 4; ++draw) {
        const RangeBounds bounds = RandomBounds(rng);
        one_sided += bounds.has_lo != bounds.has_hi;
        unbounded += !bounds.has_lo && !bounds.has_hi;
        exclusive_lo += bounds.has_lo && !bounds.lo_inclusive;
        const Positions expect = ScanRange(*t, col, bounds);
        nonempty += !expect.empty();
        EXPECT_EQ(run->RangePositions(bounds), expect)
            << "round " << round << " column " << col << " draw " << draw;
      }
    }
  }
  // The draws reached every kind of range they are meant to cover.
  EXPECT_GT(one_sided, 0u);
  EXPECT_GT(unbounded, 0u);
  EXPECT_GT(exclusive_lo, 0u);
  EXPECT_GT(nonempty, 0u);
}

}  // namespace
}  // namespace qp::index
