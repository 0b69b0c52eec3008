// Differential testing for the executor: queries run both through the
// optimizing executor (greedy index-aware hash joins, early filters, the
// finish step) and the naive reference in tests/test_support.h (cross
// product + filter, then grouping, sorting and projection written the
// obvious way). Results must match exactly: as sequences where the ORDER BY
// keys are unique, as multisets otherwise.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "datagen/moviegen.h"
#include "exec/executor.h"
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

}  // namespace
}  // namespace qp::exec
