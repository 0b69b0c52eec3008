// Differential harness for the morsel-driven executor. Every query runs at
// num_threads 1, 2 and 8 with a tiny morsel size (so even the 60-row movie
// table splits into many concurrent morsels) and the three row *sequences*
// must be byte-for-byte identical — order, ties and LIMIT cutoffs included.
// Results are additionally checked against the naive reference in
// tests/test_support.h (SPJ as multisets; aggregate, DISTINCT and ORDER BY
// queries as sequences), and ExecStats snapshots must be invariant in the
// thread count.
// Runs under TSan/ASan via the `sanitizer` CTest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "datagen/moviegen.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "test_support.h"

namespace qp::exec {
namespace {

using sql::SelectQuery;
using storage::Value;
using test::AsMultiset;
using test::AsSequence;
using test::NaiveExecute;

constexpr size_t kThreadCounts[] = {1, 2, 8};

class ParallelExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::MovieGenConfig config;
    config.num_movies = 60;
    config.num_directors = 12;
    config.num_actors = 30;
    config.num_theatres = 6;
    config.plays_per_theatre = 8;
    auto db = datagen::GenerateMovieDatabase(config);
    ASSERT_TRUE(db.ok());
    db_ = new storage::Database(std::move(db).value());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static ExecOptions OptionsFor(size_t threads) {
    ExecOptions options;
    options.num_threads = threads;
    // Force many morsels even on the tiny test tables.
    options.morsel_rows = 4;
    return options;
  }

  /// Runs `sql` at every thread count and expects identical row sequences.
  /// Returns the serial sequence for further checks.
  std::vector<std::string> ExpectThreadCountInvariant(const std::string& sql) {
    std::vector<std::string> serial;
    for (size_t threads : kThreadCounts) {
      Executor executor(db_, nullptr, OptionsFor(threads));
      auto parsed = sql::ParseQuery(sql);
      EXPECT_TRUE(parsed.ok()) << sql;
      if (!parsed.ok()) return serial;
      auto result = executor.Execute(**parsed);
      EXPECT_TRUE(result.ok()) << sql << " @" << threads << " threads: "
                               << result.status();
      if (!result.ok()) return serial;
      auto seq = AsSequence(*result);
      if (threads == 1) {
        serial = std::move(seq);
      } else {
        EXPECT_EQ(seq, serial)
            << sql << ": results differ at num_threads=" << threads;
      }
    }
    return serial;
  }

  /// Runs `sql` at every thread count and expects the naive reference's
  /// row sequence (the query's order must not depend on ties).
  void ExpectMatchesReference(const std::string& sql) {
    auto parsed = sql::ParseQuery(sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    auto slow = NaiveExecute(*db_, **parsed);
    ASSERT_TRUE(slow.ok()) << sql << ": " << slow.status();
    EXPECT_EQ(ExpectThreadCountInvariant(sql), AsSequence(*slow)) << sql;
  }

  static storage::Database* db_;
};

storage::Database* ParallelExecTest::db_ = nullptr;

TEST_F(ParallelExecTest, HandWrittenQueriesAreThreadCountInvariant) {
  // Scan + filter.
  ExpectThreadCountInvariant("select title from movie where movie.year >= 1990");
  // Hash join (persistent index on mid) and transient-build join.
  ExpectThreadCountInvariant(
      "select m.title, g.genre from movie m, genre g where m.mid = g.mid");
  ExpectThreadCountInvariant(
      "select m.title from movie m, directed d, director di "
      "where m.mid = d.mid and d.did = di.did and m.year < 2000");
  // Cross product + residual.
  ExpectThreadCountInvariant(
      "select d.name, g.genre from director d, genre g "
      "where d.did <= 3 and g.genre = 'musical'");
  // IN / NOT IN subquery materialization.
  ExpectThreadCountInvariant(
      "select title from movie where movie.mid in "
      "(select g.mid from genre g where g.genre = 'comedy')");
  ExpectThreadCountInvariant(
      "select title from movie where movie.mid not in "
      "(select g.mid from genre g where g.genre = 'drama') "
      "and movie.year >= 1980");
  // GROUP BY / HAVING / aggregate and its ORDER BY.
  ExpectMatchesReference(
      "select genre, count(*) as n from genre group by genre "
      "having count(*) >= 2 order by genre asc");
  ExpectMatchesReference(
      "select g.genre, count(*) n, min(m.year) y0, max(m.duration) d1 "
      "from movie m, genre g where m.mid = g.mid "
      "group by g.genre order by g.genre asc");
  ExpectMatchesReference(
      "select genre, count(*) n from genre group by genre "
      "order by n desc, genre asc");
  // ORDER BY with heavy ties (year has duplicates): tie-break must not
  // depend on scheduling.
  ExpectThreadCountInvariant(
      "select title, year from movie order by year desc");
  // DISTINCT + LIMIT.
  ExpectMatchesReference("select distinct genre from genre order by genre");
  ExpectMatchesReference(
      "select distinct count(*) n from genre group by genre order by n asc");
  ExpectMatchesReference(
      "select title from movie order by year desc, title asc limit 7");
  EXPECT_TRUE(
      ExpectThreadCountInvariant("select distinct genre from genre limit 0")
          .empty());
  // UNION ALL merges branch results in branch order.
  ExpectThreadCountInvariant(
      "select title from movie where year < 1980 union all "
      "select title from movie where year >= 1995");
}

TEST_F(ParallelExecTest, RandomSpjQueriesMatchNaiveReference) {
  Rng rng(2024);
  const char* columns[] = {"year", "duration", "mid"};
  const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
  for (int trial = 0; trial < 40; ++trial) {
    std::string sql;
    if (trial % 2 == 0) {
      const char* col = columns[rng.Index(std::size(columns))];
      const char* op = ops[rng.Index(std::size(ops))];
      sql = "select title from movie where movie." + std::string(col) + " " +
            op + " " + std::to_string(rng.UniformInt(1, 2004));
    } else {
      sql = "select m.title, d.did from movie m, directed d "
            "where m.mid = d.mid and m.year >= " +
            std::to_string(rng.UniformInt(1950, 2004));
    }
    auto parsed = sql::ParseQuery(sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    auto slow = NaiveExecute(*db_, **parsed);
    ASSERT_TRUE(slow.ok()) << sql << ": " << slow.status();
    const auto seq = ExpectThreadCountInvariant(sql);
    EXPECT_EQ(std::multiset<std::string>(seq.begin(), seq.end()),
              AsMultiset(*slow))
        << sql;
  }
}

TEST_F(ParallelExecTest, RandomAggregateQueriesAreThreadCountInvariant) {
  Rng rng(777);
  for (int trial = 0; trial < 25; ++trial) {
    const int year = static_cast<int>(rng.UniformInt(1950, 2000));
    const int min_count = static_cast<int>(rng.UniformInt(1, 3));
    std::string sql;
    switch (rng.Index(3)) {
      case 0:
        sql = "select g.genre, count(*) n, sum(m.duration) s from movie m, "
              "genre g where m.mid = g.mid and m.year >= " +
              std::to_string(year) +
              " group by g.genre having count(*) >= " +
              std::to_string(min_count) + " order by g.genre asc";
        break;
      case 1:
        sql = "select year, count(*) n, avg(duration) a from movie "
              "where year >= " + std::to_string(year) +
              " group by year order by year asc";
        break;
      default:
        sql = "select count(*) total, min(year) y0, max(year) y1 from movie "
              "where duration >= " +
              std::to_string(rng.UniformInt(60, 200));
        break;
    }
    ExpectMatchesReference(sql);
  }
}

TEST_F(ParallelExecTest, ExecStatsAreThreadCountInvariant) {
  // Satellite regression: the counter totals — not just the result rows —
  // must be exact and identical for every thread count.
  const std::vector<std::string> workload = {
      "select title from movie where movie.year >= 1985",
      "select m.title, g.genre from movie m, genre g where m.mid = g.mid",
      "select title from movie where movie.mid not in "
      "(select g.mid from genre g where g.genre = 'comedy')",
      "select g.genre, count(*) n from movie m, genre g where m.mid = g.mid "
      "group by g.genre order by g.genre asc",
      "select title from movie where year < 1975 union all "
      "select title from movie where year > 1999",
  };
  std::optional<ExecStats> serial_stats;
  for (size_t threads : kThreadCounts) {
    Executor executor(db_, nullptr, OptionsFor(threads));
    for (const auto& sql : workload) {
      auto result = executor.ExecuteSql(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status();
    }
    const ExecStats stats = executor.stats();
    // +1: the NOT IN subquery materializes through a nested Execute() call.
    EXPECT_EQ(stats.queries_executed, workload.size() + 1);
    if (!serial_stats.has_value()) {
      serial_stats = stats;
    } else {
      EXPECT_EQ(stats, *serial_stats) << "at num_threads=" << threads;
    }
  }
  EXPECT_GT(serial_stats->rows_scanned, 0u);
  EXPECT_GT(serial_stats->rows_joined, 0u);
  EXPECT_GT(serial_stats->rows_output, 0u);
  EXPECT_EQ(serial_stats->subqueries_materialized, 1u);
}

TEST_F(ParallelExecTest, CancelDuringTheFilterPassCancelsAtEveryThreadCount) {
  // A predicate requests cancellation on its 10th evaluation, inside the
  // base filter pass. Every thread count polls the token at a later morsel
  // boundary — the next filter morsel, or the projection region when the
  // pass is one inline morsel — and returns kCancelled.
  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    common::CancelToken cancel;
    std::atomic<size_t> evaluations{0};
    auto parsed = sql::ParseQuery("select title from movie");
    ASSERT_TRUE(parsed.ok());
    SelectQuery query = (*parsed)->single();
    query.where = sql::Expr::Compare(
        sql::BinaryOp::kEq,
        sql::Expr::ScalarFn(
            "trip",
            [&](const Value&) {
              if (evaluations.fetch_add(1) + 1 == 10) cancel.RequestCancel();
              return Value(int64_t{1});
            },
            sql::Expr::Column("movie", "mid")),
        sql::Expr::Literal(Value(int64_t{1})));
    ExecOptions options = OptionsFor(threads);
    options.cancel = &cancel;
    Executor executor(db_, nullptr, options);
    auto result = executor.Execute(*sql::Query::Single(query));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status();
  }
}

TEST_F(ParallelExecTest, ErrorsAreThreadCountInvariant) {
  // The lowest-index morsel's failure must surface regardless of which
  // morsel fails first on the wall clock.
  const std::string sql = "select title from movie where nope.bad = 1";
  std::optional<std::string> serial_message;
  for (size_t threads : kThreadCounts) {
    Executor executor(db_, nullptr, OptionsFor(threads));
    auto result = executor.ExecuteSql(sql);
    ASSERT_FALSE(result.ok());
    if (!serial_message.has_value()) {
      serial_message = result.status().ToString();
    } else {
      EXPECT_EQ(result.status().ToString(), *serial_message);
    }
  }
}

TEST_F(ParallelExecTest, ExplainIsIdenticalAtEveryThreadCount) {
  // Tracing no longer serializes execution, and the trace carries no
  // parallelism-dependent content (no morsel or thread counts): the Explain
  // text must be byte-identical at every thread count.
  const std::string sql =
      "select m.title from movie m, genre g where m.mid = g.mid "
      "and m.year >= 1990";
  std::optional<std::string> serial_plan;
  for (size_t threads : kThreadCounts) {
    Executor executor(db_, nullptr, OptionsFor(threads));
    auto plan = executor.ExplainSql(sql);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(plan->find("morsel"), std::string::npos) << *plan;
    if (!serial_plan.has_value()) {
      serial_plan = *plan;
    } else {
      EXPECT_EQ(*plan, *serial_plan) << "threads=" << threads;
    }
    // The traced run's answer must match an untraced one exactly.
    auto traced = executor.ExecuteSql(sql);
    ASSERT_TRUE(traced.ok());
    Executor untraced(db_, nullptr, OptionsFor(threads));
    auto plain = untraced.ExecuteSql(sql);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(AsSequence(*traced), AsSequence(*plain));
  }
}

}  // namespace
}  // namespace qp::exec
