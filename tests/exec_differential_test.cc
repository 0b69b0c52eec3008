// Differential testing for the executor: queries run both through the
// optimizing executor (bound programs, greedy index-aware hash joins over
// row-pointer tuples, early filters, the finish step) and the naive
// reference in tests/test_support.h (its own tree-walking evaluator over a
// cross product + filter, then grouping, sorting and projection written
// the obvious way). Results must match exactly: as sequences where the
// ORDER BY keys are unique, as multisets otherwise. A second corpus is the
// queries SPA and PPA emit, built the way the generators build them.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "core/pipeline.h"
#include "core/rewrite.h"
#include "core/spa.h"
#include "datagen/moviegen.h"
#include "datagen/profilegen.h"
#include "exec/executor.h"
#include "sim/trials.h"
#include "sql/parser.h"
#include "test_support.h"

namespace qp::exec {
namespace {

using test::AsMultiset;
using test::AsSequence;
using test::NaiveExecute;

class DifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::MovieGenConfig config;
    // Small enough that cross products stay tractable.
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

  /// Runs `sql` through the executor and the reference. `ordered`
  /// compares row sequences (for ORDER BY keys that are unique), otherwise
  /// multisets.
  void ExpectSameResults(const std::string& sql, bool ordered = false) {
    auto parsed = sql::ParseQuery(sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    Executor executor(db_);
    auto fast = executor.Execute(**parsed);
    ASSERT_TRUE(fast.ok()) << sql << ": " << fast.status();
    auto slow = NaiveExecute(*db_, **parsed);
    ASSERT_TRUE(slow.ok()) << sql << ": " << slow.status();
    if (ordered) {
      EXPECT_EQ(AsSequence(*fast), AsSequence(*slow)) << sql;
    } else {
      EXPECT_EQ(AsMultiset(*fast), AsMultiset(*slow)) << sql;
    }
  }

  static storage::Database* db_;
};

storage::Database* DifferentialTest::db_ = nullptr;

TEST_F(DifferentialTest, HandWrittenQueries) {
  ExpectSameResults("select title from movie where movie.year >= 1990");
  ExpectSameResults(
      "select m.title, g.genre from movie m, genre g where m.mid = g.mid");
  ExpectSameResults(
      "select m.title from movie m, genre g "
      "where m.mid = g.mid and g.genre = 'comedy' and m.year < 2000");
  ExpectSameResults(
      "select m.title from movie m, directed d, director di "
      "where m.mid = d.mid and d.did = di.did and di.name = 'Director 1'");
  ExpectSameResults(
      "select m.title from movie m where m.year < 1970 or m.duration > 150");
  ExpectSameResults(
      "select m.title from movie m where not (m.year < 1990)");
  ExpectSameResults("select movie.mid, 1 tag from movie where movie.mid = 7");
}

TEST_F(DifferentialTest, RandomizedSelections) {
  Rng rng(909);
  const char* columns[] = {"year", "duration", "mid"};
  const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
  for (int trial = 0; trial < 60; ++trial) {
    const char* col = columns[rng.Index(std::size(columns))];
    const char* op = ops[rng.Index(std::size(ops))];
    int64_t value;
    if (std::string(col) == "year") {
      value = rng.UniformInt(1950, 2004);
    } else if (std::string(col) == "duration") {
      value = rng.UniformInt(60, 220);
    } else {
      value = rng.UniformInt(1, 60);
    }
    std::string sql = "select title from movie where movie." +
                      std::string(col) + " " + op + " " +
                      std::to_string(value);
    if (rng.Bernoulli(0.4)) {
      const char* col2 = columns[rng.Index(std::size(columns))];
      const char* op2 = ops[rng.Index(std::size(ops))];
      sql += std::string(rng.Bernoulli(0.5) ? " and" : " or") + " movie." +
             col2 + " " + op2 + " " + std::to_string(rng.UniformInt(1, 2004));
    }
    ExpectSameResults(sql);
  }
}

TEST_F(DifferentialTest, RandomizedJoins) {
  Rng rng(1010);
  const auto& genres = datagen::GenreNames();
  for (int trial = 0; trial < 30; ++trial) {
    std::string sql;
    switch (rng.Index(3)) {
      case 0:
        sql = "select m.title from movie m, genre g where m.mid = g.mid "
              "and g.genre = '" + genres[rng.Index(genres.size())] + "'";
        break;
      case 1:
        sql = "select m.title, d.did from movie m, directed d "
              "where m.mid = d.mid and m.year >= " +
              std::to_string(rng.UniformInt(1950, 2004));
        break;
      default:
        sql = "select t.name from theatre t, play p "
              "where t.tid = p.tid and p.mid = " +
              std::to_string(rng.UniformInt(1, 60));
        break;
    }
    if (rng.Bernoulli(0.5)) {
      sql += " and m.duration < " + std::to_string(rng.UniformInt(80, 220));
      // Guard: only movie-based templates have alias m.
      if (sql.find("from theatre") != std::string::npos) continue;
    }
    ExpectSameResults(sql);
  }
}

TEST_F(DifferentialTest, ThreeWayJoinChains) {
  Rng rng(1111);
  for (int trial = 0; trial < 10; ++trial) {
    const std::string sql =
        "select m.title, di.name from movie m, directed d, director di "
        "where m.mid = d.mid and d.did = di.did and m.year >= " +
        std::to_string(rng.UniformInt(1950, 2000)) + " and m.duration <= " +
        std::to_string(rng.UniformInt(100, 220));
    ExpectSameResults(sql);
  }
}

TEST_F(DifferentialTest, CrossProductWithoutJoinAtom) {
  // No connecting predicate: the executor must fall back to a product.
  ExpectSameResults(
      "select d.name, g.genre from director d, genre g "
      "where d.did <= 2 and g.genre = 'musical'");
}

TEST_F(DifferentialTest, EveryQueryShape) {
  // Derived tables.
  ExpectSameResults(
      "select u.title from (select m.title title, m.year year from movie m "
      "where m.year > 1980) u where u.year < 2000");
  ExpectSameResults(
      "select u.title, g.genre from (select m.mid mid, m.title title "
      "from movie m where m.duration > 100) u, genre g where u.mid = g.mid");
  // [NOT] IN.
  ExpectSameResults(
      "select title from movie where movie.mid in "
      "(select g.mid from genre g where g.genre = 'comedy')");
  ExpectSameResults(
      "select title from movie where movie.mid not in "
      "(select g.mid from genre g where g.genre = 'drama') "
      "and movie.year >= 1980");
  // UNION ALL.
  ExpectSameResults(
      "select title from movie where year < 1970 union all "
      "select title from movie where year > 1995");
  // GROUP BY / HAVING with every built-in aggregate, and global aggregates
  // over some and no rows.
  ExpectSameResults(
      "select g.genre, count(*) n, min(m.year) y0, max(m.duration) d1, "
      "sum(m.duration) s, avg(m.year) a from movie m, genre g "
      "where m.mid = g.mid group by g.genre having count(*) >= 2");
  ExpectSameResults(
      "select count(*) n, sum(duration) s, max(year) y from movie "
      "where year > 1990");
  ExpectSameResults("select count(*) n, min(year) y from movie where year > 3000");
  // '*' over a join: every source's columns, in FROM order.
  ExpectSameResults("select * from genre g, movie m where g.mid = m.mid");
  // DISTINCT, plain and over groups.
  ExpectSameResults("select distinct g.genre from genre g");
  ExpectSameResults("select distinct count(*) from genre group by genre");
  // ORDER BY over input columns, a select-item alias (grouped and not), a
  // select-list position and LIMIT, on unique keys.
  ExpectSameResults("select title, year from movie order by year desc, mid asc",
                    /*ordered=*/true);
  ExpectSameResults(
      "select title, duration len from movie order by len desc, title asc",
      /*ordered=*/true);
  ExpectSameResults(
      "select genre, count(*) n from genre group by genre "
      "order by n desc, genre asc",
      /*ordered=*/true);
  ExpectSameResults("select title from movie order by mid desc limit 5",
                    /*ordered=*/true);
  ExpectSameResults("select mid, year from movie order by 2 desc, 1 asc",
                    /*ordered=*/true);
  ExpectSameResults(
      "select genre, count(*) from genre group by genre order by 2 desc, 1",
      /*ordered=*/true);
  ExpectSameResults("select distinct genre from genre order by genre limit 3",
                    /*ordered=*/true);
  ExpectSameResults(
      "select genre, count(*) n from genre group by genre "
      "order by genre asc limit 4",
      /*ordered=*/true);
}

TEST_F(DifferentialTest, EdgesInternalToTheJoinedRows) {
  // Two edges between one pair of sources: the second is a filter at the
  // step that joins the pair.
  ExpectSameResults(
      "select g1.genre, g2.mid from genre g1, genre g2 "
      "where g1.mid = g2.mid and g1.genre = g2.genre");
  ExpectSameResults(
      "select m.title from movie m, directed d "
      "where m.mid = d.mid and m.mid = d.did");
  // A three-source edge cycle: the third edge closes at the last join.
  ExpectSameResults(
      "select m.title, g.genre from movie m, genre g, directed d "
      "where m.mid = g.mid and g.mid = d.mid and d.mid = m.mid "
      "and m.year >= 1980");
  // A cross product followed by a join into the product's rows.
  ExpectSameResults(
      "select d.name, g.genre, m.title from director d, genre g, movie m "
      "where g.mid = m.mid and d.did <= 2 and g.genre = 'musical'");
}

/// SPA's rank(degree) for the emitted corpus: the inflationary positive
/// combination over the degrees in sorted order, so the result does not
/// depend on the order a group's rows arrive in (the executor and the
/// reference order a derived table's groups differently).
class SortedRankAggregator : public Aggregator {
 public:
  void Add(const storage::Value& v) override {
    if (v.is_numeric()) degrees_.push_back(v.ToNumeric());
  }
  storage::Value Finalize() const override {
    std::vector<double> sorted = degrees_;
    std::sort(sorted.begin(), sorted.end());
    return storage::Value(
        core::RankingFunction::Make(core::CombinationStyle::kInflationary)
            .RankPositive(sorted));
  }

 private:
  std::vector<double> degrees_;
};

/// Each ORDER BY key's select-list position (a position, an alias or the
/// same expression), or nothing when a key is not a select item.
std::optional<std::vector<size_t>> KeyColumns(const sql::SelectQuery& q) {
  std::vector<size_t> cols;
  for (const auto& o : q.order_by) {
    std::optional<size_t> col;
    for (size_t i = 0; i < q.select.size() && !col; ++i) {
      const auto& item = q.select[i];
      if (item.expr->ToString() == o.expr->ToString() ||
          (o.expr->kind() == sql::ExprKind::kColumnRef &&
           item.OutputName() == o.expr->column())) {
        col = i;
      }
    }
    if (!col) return std::nullopt;
    cols.push_back(*col);
  }
  return cols;
}

/// Rows restricted to `cols`, in order.
std::vector<std::string> Project(const RowSet& rows,
                                 const std::vector<size_t>& cols) {
  std::vector<std::string> out;
  for (const auto& row : rows.rows()) {
    std::string key;
    for (size_t c : cols) key += row[c].ToString() + '\x1f';
    out.push_back(std::move(key));
  }
  return out;
}

TEST(EmittedQueryCorpusTest, SpaAndPpaQueriesMatchTheReference) {
  // Every S/A query, complement base query and SPA personalized query the
  // generators emit, over tiny databases so the reference's cross products
  // stay small: serve_mixed's profile mix, the five study queries, K 4 and
  // 8. The executor runs each at 1 and 4 threads (tiny morsels, so the 4
  // threads really fan out); the two must agree byte for byte, and both
  // with the reference — in order for an ORDER BY query (on the sort keys,
  // whose ties the reference breaks in its own group order), as multisets
  // otherwise.
  AggregateRegistry registry;
  ASSERT_TRUE(registry
                  .Register("rank",
                            [] {
                              return std::unique_ptr<Aggregator>(
                                  new SortedRankAggregator());
                            })
                  .ok());
  size_t checked = 0;
  size_t ordered = 0;
  for (uint64_t d = 0; d < 10; ++d) {
    datagen::ProfileGenConfig pg = test::SmallConfig(500 + d);
    pg.db_config.seed = 900 + d;
    pg.db_config.num_movies = 20 + 3 * d;
    pg.db_config.num_directors = 5;
    pg.db_config.num_actors = 6;
    pg.db_config.num_theatres = 2;
    pg.db_config.plays_per_theatre = 3;
    pg.db_config.max_genres_per_movie = 2;
    pg.db_config.min_cast = 1;
    pg.db_config.max_cast = 2;
    auto db = datagen::GenerateMovieDatabase(pg.db_config);
    ASSERT_TRUE(db.ok()) << db.status();
    auto profile = datagen::GenerateProfile(pg);
    ASSERT_TRUE(profile.ok()) << profile.status();
    auto graph = core::PersonalizationGraph::Build(&*db, &*profile);
    ASSERT_TRUE(graph.ok()) << graph.status();
    const core::QueryRewriter rewriter(&*db);
    ExecOptions parallel;
    parallel.num_threads = 4;
    parallel.morsel_rows = 4;
    const Executor serial_executor(&*db, &registry);
    const Executor parallel_executor(&*db, &registry, parallel);
    const auto check = [&](const sql::Query& query) {
      const std::string sql = query.ToString();
      auto serial = serial_executor.Execute(query);
      ASSERT_TRUE(serial.ok()) << sql << ": " << serial.status();
      auto fanned = parallel_executor.Execute(query);
      ASSERT_TRUE(fanned.ok()) << sql << ": " << fanned.status();
      EXPECT_EQ(AsSequence(*serial), AsSequence(*fanned)) << sql;
      auto slow = NaiveExecute(*db, query, &registry);
      ASSERT_TRUE(slow.ok()) << sql << ": " << slow.status();
      EXPECT_EQ(AsMultiset(*serial), AsMultiset(*slow)) << sql;
      if (!query.is_union() && !query.single().order_by.empty()) {
        const auto cols = KeyColumns(query.single());
        ASSERT_TRUE(cols.has_value()) << sql;
        EXPECT_EQ(Project(*serial, *cols), Project(*slow, *cols)) << sql;
        ++ordered;
      }
      ++checked;
    };
    for (const std::string& text : sim::StudyQueries()) {
      auto parsed = sql::ParseQuery(text);
      ASSERT_TRUE(parsed.ok()) << text;
      const sql::SelectQuery& base = (*parsed)->single();
      for (size_t k : {4, 8}) {
        core::PersonalizeOptions options;
        options.k = k;
        options.l = k == 4 ? 1 : 2;
        auto resolved = core::ResolvePersonalization(options, *profile);
        ASSERT_TRUE(resolved.ok());
        auto prefs = core::RunSelection(*graph, base, options, *resolved);
        ASSERT_TRUE(prefs.ok()) << prefs.status();
        if (prefs->size() < options.l) continue;
        // PPA: the base query extended with the tuple id, then one S query
        // (presence, 1-1 absence) or A query (1-n absence) per preference.
        sql::SelectQuery base2 = base;
        const std::string anchor = base.from[0].table;
        const storage::Table* table = *db->GetTable(anchor);
        base2.select.push_back(
            {sql::Expr::Column(core::QueryRewriter::BaseAlias(base, anchor),
                               table->schema().primary_key()[0]),
             "_tid"});
        check(*sql::Query::Single(base2));
        for (const auto& selected : *prefs) {
          auto parts = rewriter.Rewrite(base2, selected.pref);
          if (!parts.ok()) continue;
          auto round =
              parts->kind == core::PreferenceKind::kAbsenceOneN
                  ? rewriter.BuildViolationQuery(base2, selected.pref)
                  : rewriter.BuildSatisfactionQuery(base2, selected.pref);
          ASSERT_TRUE(round.ok()) << round.status();
          check(*sql::Query::Single(*round));
        }
        // SPA: the union of grouped branches under the outer GROUP BY /
        // HAVING count(*) >= L / ORDER BY rank(degree).
        const core::SpaGenerator spa(&*db, core::RankingFunction::Make(
                                               core::CombinationStyle::
                                                   kInflationary));
        auto personalized =
            spa.BuildPersonalizedQuery(base, *prefs, options.l);
        ASSERT_TRUE(personalized.ok()) << personalized.status();
        check(**personalized);
      }
    }
  }
  // The corpus is not vacuous: hundreds of queries, the SPA ones ordered.
  EXPECT_GE(checked, 300u);
  EXPECT_GE(ordered, 50u);
}

}  // namespace
}  // namespace qp::exec
