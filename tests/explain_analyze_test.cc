// EXPLAIN ANALYZE determinism: the trace tree an execution records — span
// names, per-operator row-count attributes and children — must be
// byte-identical at every thread count; only wall times may differ. Also
// proves attaching a trace (or a metrics registry) never changes an answer,
// extending the differential harness to the observability layer.
// Runs under TSan/ASan via the `sanitizer` CTest label.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "datagen/moviegen.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/parser.h"

namespace qp::exec {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};

// The interesting operator shapes: scans, index lookups, hash joins,
// unions, NOT IN subqueries, aggregates and residual predicates.
const char* kQueries[] = {
    "select title from movie",
    "select title from movie where movie.year >= 1990",
    "select m.title from movie m, genre g where m.mid = g.mid "
    "and m.year >= 1990",
    "select m.title from movie m, directed d, director di "
    "where m.mid = d.mid and d.did = di.did",
    "select title from movie where movie.mid not in "
    "(select mid from genre where genre.genre = 'musical')",
    "select title from movie where movie.year >= 2000 "
    "union all select title from movie where movie.duration <= 100",
    "select genre.genre, count(*) from movie, genre "
    "where movie.mid = genre.mid group by genre.genre",
};

class ExplainAnalyzeTest : public ::testing::Test {
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
    options.morsel_rows = 4;  // many morsels even on the tiny tables
    return options;
  }

  static storage::Database* db_;
};

storage::Database* ExplainAnalyzeTest::db_ = nullptr;

/// Rows rendered to strings, preserving order.
std::vector<std::string> AsSequence(const RowSet& rows) {
  std::vector<std::string> out;
  out.reserve(rows.num_rows());
  for (const auto& row : rows.rows()) {
    std::string key;
    for (const auto& v : row) {
      key += v.ToString();
      key += '\x1f';
    }
    out.push_back(std::move(key));
  }
  return out;
}

TEST_F(ExplainAnalyzeTest, ExplainTextIsIdenticalAtEveryThreadCount) {
  for (const char* sql : kQueries) {
    std::optional<std::string> serial;
    for (size_t threads : kThreadCounts) {
      Executor executor(db_, nullptr, OptionsFor(threads));
      auto plan = executor.ExplainSql(sql);
      ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status();
      if (!serial.has_value()) {
        serial = *plan;
      } else {
        EXPECT_EQ(*plan, *serial) << sql << " @" << threads << " threads";
      }
    }
  }
}

TEST_F(ExplainAnalyzeTest, TraceTreesHaveSameShapeAtEveryThreadCount) {
  // Stronger than the rendered-text check: names, attrs (row counts,
  // selectivities, methods) and children must all match; only seconds may
  // differ (SameShape ignores it).
  for (const char* sql : kQueries) {
    auto parsed = sql::ParseQuery(sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    std::optional<obs::TraceSpan> serial;
    for (size_t threads : kThreadCounts) {
      Executor executor(db_, nullptr, OptionsFor(threads));
      obs::TraceSpan root("query");
      auto rows = executor.Execute(**parsed, &root);
      ASSERT_TRUE(rows.ok()) << sql << ": " << rows.status();
      if (!serial.has_value()) {
        serial = std::move(root);
      } else {
        EXPECT_TRUE(serial->SameShape(root))
            << sql << " @" << threads << " threads:\nserial:\n"
            << serial->ToString(true) << "parallel:\n"
            << root.ToString(true);
      }
    }
  }
}

TEST_F(ExplainAnalyzeTest, AnalyzeReportsPerOperatorRowCounts) {
  Executor executor(db_, nullptr, OptionsFor(8));
  auto analyzed = executor.ExplainAnalyzeSql(
      "select m.title from movie m, genre g where m.mid = g.mid "
      "and m.year >= 1990");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  // Every operator line carries (k=v, ...) attrs and a [x.xxx ms] timing.
  EXPECT_NE(analyzed->find("rows="), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find(" ms]"), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("result: "), std::string::npos) << *analyzed;

  // The plain Explain of the same query carries neither.
  auto plain = executor.ExplainSql(
      "select m.title from movie m, genre g where m.mid = g.mid "
      "and m.year >= 1990");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->find("rows="), std::string::npos) << *plain;
  EXPECT_EQ(plain->find(" ms]"), std::string::npos) << *plain;
}

TEST_F(ExplainAnalyzeTest, RowCountAttrsMatchActualRowCounts) {
  // Each union branch span must carry a `rows` attribute.
  auto parsed = sql::ParseQuery(
      "select title from movie where movie.year >= 2000 "
      "union all select title from movie where movie.year >= 2000");
  ASSERT_TRUE(parsed.ok());
  Executor executor(db_, nullptr, OptionsFor(8));
  obs::TraceSpan root("query");
  auto rows = executor.Execute(**parsed, &root);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(root.num_children(), 2u);
  for (size_t b = 0; b < 2; ++b) {
    const obs::TraceSpan& branch = root.child(b);
    EXPECT_EQ(branch.name(), "union branch " + std::to_string(b + 1) + ":");
    bool found_rows = false;
    for (const auto& [key, value] : branch.attrs()) {
      if (key == "rows") found_rows = true;
    }
    EXPECT_TRUE(found_rows) << branch.ToString(true);
  }
}

TEST_F(ExplainAnalyzeTest, TracedAndMeteredAnswersMatchUntraced) {
  // The observability differential: attaching a trace span, a metrics
  // registry, or both must not change a single output byte, at any
  // parallelism.
  for (const char* sql : kQueries) {
    auto parsed = sql::ParseQuery(sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    for (size_t threads : kThreadCounts) {
      Executor plain_exec(db_, nullptr, OptionsFor(threads));
      auto plain = plain_exec.Execute(**parsed);
      ASSERT_TRUE(plain.ok()) << sql << ": " << plain.status();

      obs::MetricsRegistry registry;
      ExecOptions metered_options = OptionsFor(threads);
      metered_options.metrics = &registry;
      Executor metered_exec(db_, nullptr, metered_options);
      obs::TraceSpan root("query");
      auto metered = metered_exec.Execute(**parsed, &root);
      ASSERT_TRUE(metered.ok()) << sql << ": " << metered.status();

      EXPECT_EQ(AsSequence(*plain), AsSequence(*metered))
          << sql << " @" << threads << " threads";
      EXPECT_GT(registry.GetCounter("qp_exec_queries_total")->Value(), 0u);
    }
  }
}

TEST_F(ExplainAnalyzeTest, ExecStatsMirrorRegistryCounters) {
  // Every row of the executor's counter table against the counter it
  // mirrors: a row with a wrong series or a wrong ExecStats field fails.
  // The workload moves every counter, each to a distinct value: a join,
  // IN-subqueries, hash probes and a B+-tree range over the fixture's
  // default indexes (which is what rows_saved counts).
  obs::MetricsRegistry registry;
  ExecOptions options = OptionsFor(8);
  options.metrics = &registry;
  Executor executor(db_, nullptr, options);
  const auto run = [&](const std::string& sql) -> size_t {
    auto rows = executor.ExecuteSql(sql);
    EXPECT_TRUE(rows.ok()) << sql << ": " << rows.status();
    return rows.ok() ? rows->num_rows() : 0;
  };
  run("select m.title from movie m, genre g where m.mid = g.mid");
  for (int i = 0; i < 3; ++i) {
    run("select title from movie where movie.mid not in "
        "(select mid from genre where genre.genre = 'musical')");
  }
  // Each indexed source saves the movies its probe or range skipped.
  const size_t movies = (*db_->GetTable("movie"))->num_rows();
  size_t saved = 0;
  saved += movies - run("select title from movie where movie.mid = 7");
  saved += movies - run("select title from movie where movie.mid = 11");
  saved += movies - run("select title from movie where movie.mid = 13");
  saved += movies - run("select title from movie where movie.year >= 2000");

  const ExecStats stats = executor.stats();
  EXPECT_EQ(stats.subqueries_materialized, 3u);
  const std::pair<std::string, size_t> expected[] = {
      {"qp_exec_queries_total", stats.queries_executed},
      {"qp_exec_rows_scanned_total", stats.rows_scanned},
      {"qp_exec_rows_joined_total", stats.rows_joined},
      {"qp_exec_rows_output_total", stats.rows_output},
      {"qp_exec_subqueries_materialized_total",
       stats.subqueries_materialized},
      {"qp_exec_rows_examined_total", executor.rows_examined()},
      {"qp_index_path_total{kind=\"scan\"}", stats.paths_scan},
      {"qp_index_path_total{kind=\"probe\"}", stats.paths_probe},
      {"qp_index_path_total{kind=\"range\"}", stats.paths_range},
      {"qp_index_rows_saved_total", saved},
  };
  const std::string text = obs::RenderText(registry);
  std::set<size_t> values;
  for (const auto& [series, value] : expected) {
    EXPECT_NE(text.find("\n" + series + " " + std::to_string(value) + "\n"),
              std::string::npos)
        << series << " != " << value << "\n"
        << text;
    values.insert(value);
  }
  // Distinct values, so no row can pass by mirroring the wrong counter.
  EXPECT_EQ(values.size(), std::size(expected)) << text;
}

}  // namespace
}  // namespace qp::exec
