#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "index/catalog.h"
#include "storage/csv.h"
#include "storage/database.h"

namespace qp::storage {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{5}).as_int(), 5);
  EXPECT_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("abc").as_string(), "abc");
  EXPECT_EQ(Value(int64_t{5}).type(), DataType::kInt);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_LT(Value(int64_t{2}), Value(2.5));
  EXPECT_GT(Value(3.1), Value(int64_t{3}));
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null(), Value(int64_t{0}));
  EXPECT_LT(Value::Null(), Value("a"));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, StringsCompareLexicographically) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_EQ(Value("x"), Value("x"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{7}).Hash(), Value(7.0).Hash());
  EXPECT_EQ(Value("k").Hash(), Value("k").Hash());
}

TEST(ValueTest, ParseRoundTrips) {
  EXPECT_EQ(*Value::Parse("42", DataType::kInt), Value(int64_t{42}));
  EXPECT_EQ(*Value::Parse("2.5", DataType::kDouble), Value(2.5));
  EXPECT_EQ(*Value::Parse("hi", DataType::kString), Value("hi"));
  EXPECT_TRUE(Value::Parse("NULL", DataType::kInt)->is_null());
  EXPECT_FALSE(Value::Parse("4x", DataType::kInt).ok());
  EXPECT_FALSE(Value::Parse("x.y", DataType::kDouble).ok());
}

TEST(AttributeRefTest, ParseAndNormalize) {
  auto ref = AttributeRef::Parse("MOVIE.Year");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->table, "movie");
  EXPECT_EQ(ref->column, "year");
  EXPECT_EQ(ref->ToString(), "movie.year");
  EXPECT_FALSE(AttributeRef::Parse("noDot").ok());
  EXPECT_FALSE(AttributeRef::Parse(".x").ok());
  EXPECT_FALSE(AttributeRef::Parse("x.").ok());
}

TEST(SchemaTest, ColumnLookupIsCaseInsensitive) {
  TableSchema schema("Movie", {{"Mid", DataType::kInt},
                               {"Title", DataType::kString}},
                     {"mid"});
  EXPECT_EQ(schema.name(), "movie");
  EXPECT_EQ(*schema.ColumnIndex("MID"), 0u);
  EXPECT_EQ(*schema.ColumnIndex("title"), 1u);
  EXPECT_FALSE(schema.ColumnIndex("year").ok());
  EXPECT_EQ(schema.primary_key(), std::vector<std::string>{"mid"});
}

TEST(TableTest, AppendChecksArity) {
  Table t(TableSchema("t", {{"a", DataType::kInt}}));
  EXPECT_TRUE(t.Append({Value(int64_t{1})}).ok());
  EXPECT_FALSE(t.Append({Value(int64_t{1}), Value(int64_t{2})}).ok());
}

TEST(TableTest, AppendChecksTypes) {
  Table t(TableSchema("t", {{"a", DataType::kInt}, {"b", DataType::kDouble}}));
  EXPECT_FALSE(t.Append({Value("x"), Value(1.0)}).ok());
  // Ints are accepted in double columns; NULL anywhere.
  EXPECT_TRUE(t.Append({Value(int64_t{1}), Value(int64_t{2})}).ok());
  EXPECT_TRUE(t.Append({Value::Null(), Value::Null()}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, DataVersionBumpsOnEveryAppend) {
  Table t(TableSchema("t", {{"a", DataType::kInt}}));
  const uint64_t v0 = t.data_version();
  ASSERT_TRUE(t.Append({Value(int64_t{1})}).ok());
  EXPECT_GT(t.data_version(), v0);
  const uint64_t v1 = t.data_version();
  t.AppendUnchecked({Value(int64_t{2})});
  EXPECT_GT(t.data_version(), v1);
}

TEST(DatabaseTest, IndexDdlRegistersAndDrops) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable(TableSchema("m", {{"mid", DataType::kInt},
                                       {"Year", DataType::kInt}}))
          .ok());
  Table* t = *db.GetTable("m");
  ASSERT_TRUE(t->Append({Value(int64_t{1}), Value(int64_t{1999})}).ok());
  ASSERT_TRUE(t->Append({Value(int64_t{2}), Value(int64_t{2003})}).ok());

  ASSERT_TRUE(db.CreateIndex("m", "mid", index::IndexKind::kHash).ok());
  ASSERT_TRUE(db.CreateIndex("m", "Year", index::IndexKind::kBTree).ok());
  // Duplicate (table, column, kind) under any spelling and unknown names
  // fail.
  EXPECT_FALSE(db.CreateIndex("m", "mid", index::IndexKind::kHash).ok());
  EXPECT_FALSE(db.CreateIndex("m", "YEAR", index::IndexKind::kBTree).ok());
  EXPECT_FALSE(db.CreateIndex("m", "nope", index::IndexKind::kHash).ok());
  EXPECT_FALSE(db.CreateIndex("nope", "mid", index::IndexKind::kHash).ok());

  const auto infos = db.indexes().List();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].table, "m");
  EXPECT_EQ(infos[0].column, "mid");
  EXPECT_EQ(infos[0].kind, index::IndexKind::kHash);
  EXPECT_EQ(infos[0].entries, 2u);
  EXPECT_TRUE(infos[0].fresh);
  EXPECT_EQ(infos[1].column, "year");  // the schema's (lower-cased) name
  EXPECT_EQ(infos[1].kind, index::IndexKind::kBTree);

  // Drop names the column as Create does: case-insensitively.
  ASSERT_TRUE(db.DropIndex("m", "YEAR", index::IndexKind::kBTree).ok());
  EXPECT_EQ(db.DropIndex("m", "year", index::IndexKind::kBTree).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.indexes().num_indexes(), 1u);
  ASSERT_TRUE(db.CreateIndex("m", "year", index::IndexKind::kBTree).ok());
  ASSERT_TRUE(db.DropIndex("m", "Year", index::IndexKind::kBTree).ok());
  EXPECT_FALSE(db.DropIndex("m", "nope", index::IndexKind::kHash).ok());
  EXPECT_EQ(db.indexes().num_indexes(), 1u);
}

TEST(DatabaseTest, IndexSnapshotsRebuildWhenStale) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable(TableSchema("m", {{"mid", DataType::kInt}})).ok());
  Table* t = *db.GetTable("m");
  ASSERT_TRUE(t->Append({Value(int64_t{1})}).ok());
  ASSERT_TRUE(db.CreateIndex("m", "mid", index::IndexKind::kHash).ok());
  const auto before = db.indexes().Hash(t, 0);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->Lookup(Value(int64_t{2})), nullptr);

  // Mutating the table marks the snapshot stale; the next access rebuilds
  // (never silently wrong), while the old shared_ptr stays valid.
  ASSERT_TRUE(t->Append({Value(int64_t{2})}).ok());
  EXPECT_FALSE(db.indexes().List()[0].fresh);
  const auto after = db.indexes().Hash(t, 0);
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after, before);
  ASSERT_NE(after->Lookup(Value(int64_t{2})), nullptr);
  EXPECT_EQ(after->Lookup(Value(int64_t{2}))->size(), 1u);
  EXPECT_TRUE(db.indexes().List()[0].fresh);
  // The old snapshot is intact.
  ASSERT_NE(before->Lookup(Value(int64_t{1})), nullptr);
  EXPECT_EQ(before->Lookup(Value(int64_t{1}))->size(), 1u);
}

TEST(DatabaseTest, CreateAndLookup) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("m", {{"a", DataType::kInt}})).ok());
  EXPECT_TRUE(db.HasTable("M"));
  EXPECT_TRUE(db.GetTable("m").ok());
  EXPECT_FALSE(db.GetTable("x").ok());
  EXPECT_FALSE(db.CreateTable(TableSchema("M", {{"b", DataType::kInt}})).ok());
}

TEST(DatabaseTest, RejectsBadPrimaryKey) {
  Database db;
  EXPECT_FALSE(
      db.CreateTable(TableSchema("m", {{"a", DataType::kInt}}, {"zz"})).ok());
}

TEST(DatabaseTest, JoinLinksValidated) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("a", {{"x", DataType::kInt}})).ok());
  ASSERT_TRUE(db.CreateTable(TableSchema("b", {{"x", DataType::kInt}})).ok());
  AttributeRef ax("a", "x"), bx("b", "x"), bogus("a", "zz");
  EXPECT_TRUE(db.AddJoinLink(ax, bx).ok());
  EXPECT_FALSE(db.AddJoinLink(ax, bogus).ok());
  EXPECT_TRUE(db.AreJoinable(ax, bx));
  EXPECT_TRUE(db.AreJoinable(bx, ax));
  EXPECT_FALSE(db.AreJoinable(ax, ax));
}

TEST(DatabaseTest, AttributeTypeLookup) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("m", {{"a", DataType::kDouble}})).ok());
  EXPECT_EQ(*db.AttributeType(AttributeRef("m", "a")), DataType::kDouble);
  EXPECT_FALSE(db.AttributeType(AttributeRef("m", "b")).ok());
}

TEST(CsvTest, EscapeAndParseLine) {
  EXPECT_EQ(EscapeCsvField("plain"), "plain");
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("say \"hi\""), "\"say \"\"hi\"\"\"");
  auto fields = ParseCsvLine("a,\"b,c\",\"d\"\"e\"");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b,c", "d\"e"}));
  EXPECT_FALSE(ParseCsvLine("\"unterminated").ok());
}

TEST(CsvTest, WriteReadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "qp_csv_test.csv").string();
  Table out(TableSchema("t", {{"k", DataType::kInt},
                              {"name", DataType::kString},
                              {"score", DataType::kDouble}}));
  ASSERT_TRUE(out.Append({Value(int64_t{1}), Value("a,b"), Value(1.5)}).ok());
  ASSERT_TRUE(out.Append({Value(int64_t{2}), Value::Null(), Value(2.0)}).ok());
  ASSERT_TRUE(WriteCsv(out, path).ok());

  Table in(out.schema());
  ASSERT_TRUE(ReadCsv(&in, path).ok());
  ASSERT_EQ(in.num_rows(), 2u);
  EXPECT_EQ(in.row(0)[1], Value("a,b"));
  EXPECT_TRUE(in.row(1)[1].is_null());
  EXPECT_EQ(in.row(1)[2], Value(2.0));
  std::remove(path.c_str());
}

TEST(CsvTest, HeaderMismatchFails) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "qp_csv_bad.csv").string();
  Table out(TableSchema("t", {{"k", DataType::kInt}}));
  ASSERT_TRUE(WriteCsv(out, path).ok());
  Table in(TableSchema("t", {{"other", DataType::kInt}}));
  EXPECT_FALSE(ReadCsv(&in, path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qp::storage
