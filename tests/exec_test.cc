#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "sql/parser.h"
#include "storage/database.h"

namespace qp::exec {
namespace {

using sql::ParseQuery;
using storage::Column;
using storage::Database;
using storage::DataType;
using storage::TableSchema;
using storage::Value;

/// Small fixture database: movies with genres and directors.
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto movie = db_.CreateTable(TableSchema(
        "movie",
        {{"mid", DataType::kInt}, {"title", DataType::kString},
         {"year", DataType::kInt}, {"duration", DataType::kInt}},
        {"mid"}));
    ASSERT_TRUE(movie.ok());
    auto genre = db_.CreateTable(TableSchema(
        "genre", {{"mid", DataType::kInt}, {"genre", DataType::kString}}));
    ASSERT_TRUE(genre.ok());
    auto add_movie = [&](int64_t mid, const char* title, int64_t year,
                         int64_t duration) {
      ASSERT_TRUE((*movie)->Append({Value(mid), Value(title), Value(year),
                                    Value(duration)}).ok());
    };
    add_movie(1, "Alpha", 1975, 120);
    add_movie(2, "Beta", 1985, 95);
    add_movie(3, "Gamma", 1995, 130);
    add_movie(4, "Delta", 2001, 110);
    auto add_genre = [&](int64_t mid, const char* g) {
      ASSERT_TRUE((*genre)->Append({Value(mid), Value(g)}).ok());
    };
    add_genre(1, "comedy");
    add_genre(1, "musical");
    add_genre(2, "comedy");
    add_genre(3, "drama");
    add_genre(4, "comedy");
  }

  Result<RowSet> Run(const std::string& sql) {
    Executor executor(&db_);
    return executor.ExecuteSql(sql);
  }

  Database db_;
};

TEST_F(ExecutorTest, FullScan) {
  auto rows = Run("select title from movie");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), 4u);
  EXPECT_EQ(rows->columns()[0].name, "title");
}

TEST_F(ExecutorTest, FilterComparisons) {
  EXPECT_EQ(Run("select title from movie where year >= 1990")->num_rows(), 2u);
  EXPECT_EQ(Run("select title from movie where year < 1980")->num_rows(), 1u);
  EXPECT_EQ(Run("select title from movie where title = 'Beta'")->num_rows(),
            1u);
  EXPECT_EQ(Run("select title from movie where year <> 1985")->num_rows(), 3u);
}

TEST_F(ExecutorTest, AndOrNot) {
  EXPECT_EQ(
      Run("select title from movie where year > 1980 and duration < 120")
          ->num_rows(),
      2u);
  EXPECT_EQ(
      Run("select title from movie where year < 1980 or year > 2000")
          ->num_rows(),
      2u);
  EXPECT_EQ(Run("select title from movie where not year < 1980")->num_rows(),
            3u);
}

TEST_F(ExecutorTest, HashJoin) {
  auto rows = Run(
      "select movie.title, genre.genre from movie, genre "
      "where movie.mid = genre.mid and genre.genre = 'comedy'");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), 3u);
}

TEST_F(ExecutorTest, JoinWithAliases) {
  auto rows = Run(
      "select m.title from movie m, genre g "
      "where m.mid = g.mid and g.genre = 'musical'");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->num_rows(), 1u);
  EXPECT_EQ(rows->row(0)[0], Value("Alpha"));
}

TEST_F(ExecutorTest, SelfJoinThroughTwoOccurrences) {
  // Movies sharing a genre with Beta (including Beta itself).
  auto rows = Run(
      "select distinct m2.title from genre g1, genre g2, movie m2 "
      "where g1.genre = g2.genre and g2.mid = m2.mid and g1.mid = 2");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), 3u);  // Alpha, Beta, Delta share 'comedy'
}

TEST_F(ExecutorTest, NotInSubquery) {
  auto rows = Run(
      "select title from movie where movie.mid not in "
      "(select mid from genre where genre.genre = 'musical')");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), 3u);  // all but Alpha
}

TEST_F(ExecutorTest, InSubquery) {
  auto rows = Run(
      "select title from movie where movie.mid in "
      "(select mid from genre where genre.genre = 'comedy')");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), 3u);
}

TEST_F(ExecutorTest, UnionAll) {
  auto rows = Run(
      "select title from movie where year < 1980 union all "
      "select title from movie where year > 2000");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), 2u);
}

TEST_F(ExecutorTest, UnionArityMismatchFails) {
  EXPECT_FALSE(Run("select title from movie union all "
                   "select title, year from movie")
                   .ok());
}

TEST_F(ExecutorTest, OrderByAndLimit) {
  auto rows = Run("select title from movie order by year desc limit 2");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->num_rows(), 2u);
  EXPECT_EQ(rows->row(0)[0], Value("Delta"));
  EXPECT_EQ(rows->row(1)[0], Value("Gamma"));
  for (const char* sql : {"select title from movie order by year desc limit 0",
                          "select distinct title from movie limit 0"}) {
    auto none = Run(sql);
    ASSERT_TRUE(none.ok()) << sql;
    EXPECT_EQ(none->num_rows(), 0u) << sql;
  }
}

TEST_F(ExecutorTest, OrderByNonProjectedColumn) {
  auto rows = Run("select title from movie order by duration asc");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->row(0)[0], Value("Beta"));
}

TEST_F(ExecutorTest, Distinct) {
  auto rows = Run("select distinct genre from genre");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), 3u);
  // Over groups too: the genre counts are 3, 1 and 1.
  auto counts = Run("select distinct count(*) from genre group by genre");
  ASSERT_TRUE(counts.ok()) << counts.status();
  EXPECT_EQ(counts->num_rows(), 2u);
}

TEST_F(ExecutorTest, GroupByCountHaving) {
  auto rows = Run(
      "select genre, count(*) as n from genre group by genre "
      "having count(*) >= 2 order by genre asc");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->num_rows(), 1u);
  EXPECT_EQ(rows->row(0)[0], Value("comedy"));
  EXPECT_EQ(rows->row(0)[1], Value(int64_t{3}));
}

TEST_F(ExecutorTest, GlobalAggregates) {
  auto rows = Run(
      "select count(*) as n, min(year) as lo, max(year) as hi, "
      "avg(duration) as avg_d, sum(duration) as sum_d from movie");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->num_rows(), 1u);
  EXPECT_EQ(rows->row(0)[0], Value(int64_t{4}));
  EXPECT_EQ(rows->row(0)[1], Value(int64_t{1975}));
  EXPECT_EQ(rows->row(0)[2], Value(int64_t{2001}));
  EXPECT_EQ(rows->row(0)[3], Value((120 + 95 + 130 + 110) / 4.0));
  EXPECT_EQ(rows->row(0)[4], Value(120.0 + 95 + 130 + 110));
}

TEST_F(ExecutorTest, GlobalAggregateOverEmptyInput) {
  auto rows = Run("select count(*) as n from movie where year > 3000");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->num_rows(), 1u);
  EXPECT_EQ(rows->row(0)[0], Value(int64_t{0}));
}

TEST_F(ExecutorTest, DerivedTableWithOuterAggregation) {
  auto rows = Run(
      "select title, count(*) as n from "
      "(select movie.title title from movie, genre "
      " where movie.mid = genre.mid) u "
      "group by title having count(*) >= 2");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->num_rows(), 1u);
  EXPECT_EQ(rows->row(0)[0], Value("Alpha"));
}

TEST_F(ExecutorTest, LiteralSelectItems) {
  auto rows = Run("select title, 0.7 degree from movie where mid = 1");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->num_rows(), 1u);
  EXPECT_EQ(rows->row(0)[1], Value(0.7));
}

TEST_F(ExecutorTest, CustomAggregateRegistry) {
  // A product aggregate: prod(x) over the group.
  class Product : public Aggregator {
   public:
    void Add(const Value& v) override {
      if (v.is_numeric()) product_ *= v.ToNumeric();
    }
    Value Finalize() const override { return Value(product_); }

   private:
    double product_ = 1.0;
  };
  AggregateRegistry registry;
  ASSERT_TRUE(registry.Register("prod", [] {
    return std::unique_ptr<Aggregator>(new Product());
  }).ok());
  EXPECT_FALSE(registry.Register("count", nullptr).ok());
  EXPECT_FALSE(registry.Register("prod", nullptr).ok());
  EXPECT_TRUE(registry.Contains("PROD"));
  EXPECT_FALSE(registry.Contains("nope"));

  Executor executor(&db_, &registry);
  auto rows = executor.ExecuteSql(
      "select prod(duration) as p from movie where year > 1990");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->row(0)[0], Value(130.0 * 110.0));
}

TEST_F(ExecutorTest, UnknownAggregateFails) {
  EXPECT_FALSE(Run("select bogus(year) from movie").ok());
}

TEST_F(ExecutorTest, UnknownTableAndColumnFail) {
  EXPECT_FALSE(Run("select title from nosuch").ok());
  EXPECT_FALSE(Run("select nosuch from movie").ok());
  EXPECT_FALSE(Run("select title from movie where nosuch = 1").ok());
}

TEST_F(ExecutorTest, AmbiguousColumnFails) {
  EXPECT_FALSE(Run("select mid from movie, genre "
                   "where movie.mid = genre.mid").ok());
  // A WHERE name fails when the conjuncts are classified, before the
  // cross product is built.
  Executor executor(&db_);
  auto rows =
      executor.ExecuteSql("select m.title from movie m, genre g where mid = 3");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().message(), "ambiguous column reference 'mid'");
  EXPECT_EQ(executor.stats().rows_joined, 0u);
}

TEST_F(ExecutorTest, DuplicateAliasFails) {
  EXPECT_FALSE(Run("select m.title from movie m, genre m").ok());
}

TEST_F(ExecutorTest, IndexedPointLookupUsesLessScanning) {
  Executor executor(&db_);
  auto rows = executor.ExecuteSql("select title from movie where mid = 3");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), 1u);
  // Index lookup: only matching candidates are scanned, not the full table.
  EXPECT_LE(executor.stats().rows_scanned, 1u);
}

TEST_F(ExecutorTest, NullsNeverMatchComparisons) {
  auto table = db_.GetTable("movie");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(
      (*table)->Append({Value(int64_t{9}), Value("Nully"), Value::Null(),
                        Value::Null()}).ok());
  EXPECT_EQ(Run("select title from movie where year < 3000")->num_rows(), 4u);
  EXPECT_EQ(Run("select title from movie where year >= 0")->num_rows(), 4u);
  EXPECT_EQ(Run("select title from movie where not year < 3000")->num_rows(),
            0u);
  // NOT of NULL AND TRUE is NULL in WHERE and in HAVING alike: no row
  // counts and no group survives.
  auto counted =
      Run("select count(*) from movie where not (null > 1 and mid > 0)");
  ASSERT_TRUE(counted.ok()) << counted.status();
  EXPECT_EQ(counted->rows()[0][0], Value(int64_t{0}));
  auto grouped = Run(
      "select year, count(*) from movie group by year "
      "having not (max(null) > 1 and count(*) > 0)");
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  EXPECT_EQ(grouped->num_rows(), 0u);
}

TEST_F(ExecutorTest, ScalarFnExpressionsEvaluatePerRow) {
  // Build `select title, half(duration) from movie` programmatically (the
  // same mechanism elastic preferences use for per-tuple degrees).
  sql::SelectQuery q;
  q.from.push_back(sql::TableRef{"movie", "", nullptr});
  q.select.push_back({sql::Expr::Column("movie", "title"), ""});
  q.select.push_back(
      {sql::Expr::ScalarFn(
           "half",
           [](const Value& v) {
             return v.is_numeric() ? Value(v.ToNumeric() / 2.0) : Value::Null();
           },
           sql::Expr::Column("movie", "duration")),
       "half_duration"});
  Executor executor(&db_);
  auto rows = executor.Execute(*sql::Query::Single(q));
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->num_rows(), 4u);
  EXPECT_EQ(rows->columns()[1].name, "half_duration");
  for (const auto& row : rows->rows()) {
    EXPECT_TRUE(row[1].is_double());
  }
}

TEST_F(ExecutorTest, OrderByOutputAliasOfComputedColumn) {
  // `degree` only exists as a select alias; ORDER BY must fall back to it.
  auto rows = Run(
      "select title, duration degree from movie order by degree desc");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->num_rows(), 4u);
  EXPECT_EQ(rows->row(0)[0], Value("Gamma"));  // duration 130
  // Grouped ORDER BY reads the alias of an aggregate the same way.
  auto grouped = Run(
      "select genre, count(*) n from genre group by genre order by n desc");
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  ASSERT_EQ(grouped->num_rows(), 3u);
  EXPECT_EQ(grouped->row(0)[0], Value("comedy"));
}

TEST_F(ExecutorTest, OrderByIntegerIsSelectListPosition) {
  // `order by 2` sorts by the second select item, year.
  auto rows = Run("select title, year from movie order by 2 desc");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->num_rows(), 4u);
  EXPECT_EQ(rows->row(0)[0], Value("Delta"));  // 2001
  // A position outside the select list fails, naming the position.
  auto out_of_range = Run("select title, year from movie order by 3");
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out_of_range.status().message().find("position 3"),
            std::string::npos)
      << out_of_range.status();
}

std::atomic<int> g_originated{0};
void CountOrigination(StatusCode, const std::string&) { ++g_originated; }

TEST_F(ExecutorTest, OrderByAliasOriginatesNoError) {
  // The key resolves to the alias once, before the row loop: no row tries
  // `t` as an input column first and originates a NotFound.
  g_originated = 0;
  const StatusListener previous = SetStatusListener(CountOrigination);
  auto rows = Run("select mid, title t from movie order by t");
  SetStatusListener(previous);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->row(0)[1], Value("Alpha"));
  EXPECT_EQ(g_originated.load(), 0);
}

TEST_F(ExecutorTest, OrderByUnknownNameFailsBeforeAnyRow) {
  // No row reaches the key, and the unknown name still fails.
  auto rows = Run("select mid from movie where mid = -1 order by nosuch");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kNotFound) << rows.status();
}

TEST_F(ExecutorTest, UnknownNamesFailOverEmptyInput) {
  // No row reaches the select list, the GROUP BY key or HAVING, and each
  // unknown name still fails, naming the column.
  for (const char* sql :
       {"select nosuch from movie where mid = -1",
        "select mid from movie where mid = -1 group by nosuch",
        "select mid, count(*) from movie where mid = -1 group by mid "
        "having nosuch > 1"}) {
    Executor executor(&db_);
    auto rows = executor.ExecuteSql(sql);
    EXPECT_FALSE(rows.ok()) << sql;
    if (rows.ok()) continue;
    EXPECT_EQ(rows.status().code(), StatusCode::kNotFound) << sql;
    EXPECT_NE(rows.status().message().find("nosuch"), std::string::npos)
        << rows.status();
    EXPECT_EQ(executor.stats().rows_scanned, 0u) << sql;
  }
}

TEST_F(ExecutorTest, DistinctOrderByKeyMustBeASelectItem) {
  // Sorting DISTINCT rows by a column outside the select list would keep
  // order-dependent first occurrences: the statement fails, naming the key.
  auto rows = Run("select distinct year from movie order by title limit 3");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rows.status().message().find("'title'"), std::string::npos)
      << rows.status();
  // A key that is a select item sorts, as a position, an alias or the same
  // expression (qualified or not).
  for (const char* sql :
       {"select distinct genre from genre order by genre desc",
        "select distinct genre from genre order by 1 desc",
        "select distinct genre g from genre order by g desc",
        "select distinct genre from genre order by genre.genre desc"}) {
    auto sorted = Run(sql);
    ASSERT_TRUE(sorted.ok()) << sql << ": " << sorted.status();
    ASSERT_EQ(sorted->num_rows(), 3u) << sql;
    EXPECT_EQ(sorted->row(0)[0], Value("musical")) << sql;
  }
}

TEST_F(ExecutorTest, StarExpandsInFromOrder) {
  // The join starts from movie (4 rows < 5), but '*' lists genre's columns
  // first, as the FROM clause does.
  auto rows = Run("select * from genre g, movie m where g.mid = m.mid");
  ASSERT_TRUE(rows.ok()) << rows.status();
  std::vector<std::string> names;
  for (const auto& col : rows->columns()) names.push_back(col.name);
  EXPECT_EQ(names, (std::vector<std::string>{"mid", "genre", "mid", "title",
                                             "year", "duration"}));
  ASSERT_EQ(rows->num_rows(), 5u);
  const auto musical =
      std::find_if(rows->rows().begin(), rows->rows().end(),
                   [](const auto& row) { return row[1] == Value("musical"); });
  ASSERT_NE(musical, rows->rows().end());
  EXPECT_EQ((*musical)[2], Value(int64_t{1}));
  EXPECT_EQ((*musical)[3], Value("Alpha"));
}

TEST_F(ExecutorTest, LimitAppliesToAggregateOutput) {
  auto rows = Run(
      "select genre, count(*) n from genre group by genre "
      "order by genre asc limit 2");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), 2u);
  auto none = Run("select genre, count(*) n from genre group by genre limit 0");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->num_rows(), 0u);
}

TEST_F(ExecutorTest, StatsCountersAdvance) {
  Executor executor(&db_);
  ASSERT_TRUE(executor.ExecuteSql("select title from movie").ok());
  const auto after_scan = executor.stats();
  EXPECT_EQ(after_scan.queries_executed, 1u);
  EXPECT_GE(after_scan.rows_scanned, 4u);
  EXPECT_EQ(after_scan.rows_output, 4u);
  ASSERT_TRUE(executor
                  .ExecuteSql("select title from movie where movie.mid in "
                              "(select mid from genre)")
                  .ok());
  EXPECT_EQ(executor.stats().subqueries_materialized, 1u);
  // Counts belong to one executor: a fresh one starts at zero.
  EXPECT_EQ(Executor(&db_).stats(), ExecStats{});
}

TEST(ScopeTest, ResolveQualifiedAndAmbiguous) {
  Scope scope({{"m", "mid"}, {"g", "mid"}, {"g", "genre"}});
  EXPECT_EQ(*scope.Resolve("m", "mid"), 0u);
  EXPECT_EQ(*scope.Resolve("g", "mid"), 1u);
  EXPECT_EQ(*scope.Resolve("", "genre"), 2u);
  EXPECT_FALSE(scope.Resolve("", "mid").ok());   // ambiguous
  EXPECT_FALSE(scope.Resolve("x", "mid").ok());  // unknown qualifier
}

TEST(RowSetTest, FindColumnAndToString) {
  RowSet rs({{"m", "title"}, {"", "degree"}});
  rs.Add({Value("Alpha"), Value(0.7)});
  EXPECT_EQ(rs.FindColumn("m", "title"), 0);
  EXPECT_EQ(rs.FindColumn("", "degree"), 1);
  EXPECT_EQ(rs.FindColumn("", "nope"), -1);
  const std::string table = rs.ToString();
  EXPECT_NE(table.find("m.title"), std::string::npos);
  EXPECT_NE(table.find("Alpha"), std::string::npos);
}

}  // namespace
}  // namespace qp::exec
