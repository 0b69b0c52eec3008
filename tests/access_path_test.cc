// The AccessPath contract, from both sides:
//
//  1. Path choice is a pure function of the predicate shape and the
//     index-independent cardinality estimate — golden plans pin scan vs
//     hash probe vs B+-tree range, and a path is taken only when its
//     estimate is strictly below the table's row count.
//  2. Which indexes exist changes ONLY the physical backing: plans,
//     answers, ExecStats and emission order are byte-identical with
//     indexes on vs off at 1, 2 and 8 threads. The one counter allowed
//     to move is rows_examined, and it must actually collapse.
//
// Runs under TSan/ASan/UBSan via the `sanitizer` CTest label.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/personalizer.h"
#include "datagen/moviegen.h"
#include "datagen/profilegen.h"
#include "exec/executor.h"
#include "index/catalog.h"
#include "sql/parser.h"
#include "test_support.h"

namespace qp::exec {
namespace {

using test::AsSequence;

constexpr size_t kThreadCounts[] = {1, 2, 8};

class AccessPathTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::MovieGenConfig config = datagen::MovieGenConfig::TestScale();
    auto indexed = datagen::GenerateMovieDatabase(config);
    ASSERT_TRUE(indexed.ok());
    indexed_ = new storage::Database(std::move(indexed).value());
    config.default_indexes = false;
    auto plain = datagen::GenerateMovieDatabase(config);
    ASSERT_TRUE(plain.ok());
    plain_ = new storage::Database(std::move(plain).value());
    ASSERT_EQ(indexed_->indexes().num_indexes(), 14u);
    ASSERT_EQ(plain_->indexes().num_indexes(), 0u);
  }
  static void TearDownTestSuite() {
    delete indexed_;
    delete plain_;
    indexed_ = plain_ = nullptr;
  }

  static std::string Plan(const storage::Database* db, const char* sql) {
    Executor executor(db);
    auto plan = executor.ExplainSql(sql);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status();
    return plan.ok() ? *plan : "";
  }

  static storage::Database* indexed_;
  static storage::Database* plain_;
};

storage::Database* AccessPathTest::indexed_ = nullptr;
storage::Database* AccessPathTest::plain_ = nullptr;

// ---------------------------------------------------------------------------
// 1. Golden path choice.

TEST_F(AccessPathTest, EqualityPredicatePicksHashProbe) {
  const std::string plan =
      Plan(indexed_, "select title from movie where mid = 7");
  EXPECT_NE(plan.find("index lookup on mid = 7"), std::string::npos) << plan;
}

TEST_F(AccessPathTest, RangePredicatePicksBTreeRange) {
  const std::string plan = Plan(
      indexed_,
      "select title from movie where movie.year >= 2000 and movie.year <= "
      "2002");
  EXPECT_NE(plan.find("range scan on year in [2000, 2002]"),
            std::string::npos)
      << plan;
}

TEST_F(AccessPathTest, NoPredicateMeansFullScan) {
  const std::string plan = Plan(indexed_, "select title from movie");
  EXPECT_NE(plan.find("full scan"), std::string::npos) << plan;
}

TEST_F(AccessPathTest, RangeIsTakenOnlyWhenItExcludesRows) {
  // year >= 1960 keeps ~80% of the rows: the range path still wins, since
  // it is estimated to exclude something. year >= 0 keeps every row, so
  // the source full-scans.
  const char* wide = "select title from movie where movie.year >= 1960";
  EXPECT_NE(Plan(indexed_, wide).find("range scan on year"),
            std::string::npos);
  const std::string all =
      Plan(indexed_, "select title from movie where movie.year >= 0");
  EXPECT_EQ(all.find("range scan"), std::string::npos) << all;
  EXPECT_NE(all.find("full scan"), std::string::npos) << all;
}

TEST_F(AccessPathTest, PlanTextIgnoresWhichIndexesExist) {
  // The plan is a logical decision: identical text whether the chosen path
  // is index-backed or served by the scan fallback.
  for (const char* sql :
       {"select title from movie where mid = 7",
        "select title from movie where movie.year >= 2000",
        "select m.title from movie m, genre g where m.mid = g.mid",
        "select title from movie"}) {
    EXPECT_EQ(Plan(indexed_, sql), Plan(plain_, sql)) << sql;
  }
}

// ---------------------------------------------------------------------------
// 2. Indexes on vs off is invisible in every logical output.

const char* kDifferentialQueries[] = {
    "select title from movie where mid = 7",
    "select title from movie where movie.year >= 1990 and movie.year <= "
    "1995",
    "select m.title from movie m, genre g where m.mid = g.mid "
    "and m.year >= 1990",
    "select m.title from movie m, directed d, director di "
    "where m.mid = d.mid and d.did = di.did and di.did = 3",
    "select title from movie where movie.mid not in "
    "(select mid from genre where genre.genre = 'musical')",
};

TEST_F(AccessPathTest, AnswersAndStatsAreIdenticalOnVsOffAtEveryThreadCount) {
  for (const char* sql : kDifferentialQueries) {
    auto parsed = sql::ParseQuery(sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    for (size_t threads : kThreadCounts) {
      ExecOptions options;
      options.num_threads = threads;
      options.morsel_rows = 16;  // force real morsel fan-out on tiny tables
      Executor off(plain_, nullptr, options);
      Executor on(indexed_, nullptr, options);
      auto rows_off = off.Execute(**parsed);
      auto rows_on = on.Execute(**parsed);
      ASSERT_TRUE(rows_off.ok()) << sql << ": " << rows_off.status();
      ASSERT_TRUE(rows_on.ok()) << sql << ": " << rows_on.status();
      EXPECT_EQ(AsSequence(*rows_off), AsSequence(*rows_on))
          << sql << " @" << threads;
      EXPECT_EQ(off.stats(), on.stats()) << sql << " @" << threads;
      // The physical counter is the one thing indexes move — downward.
      EXPECT_LE(on.rows_examined(), off.rows_examined())
          << sql << " @" << threads;
    }
  }
}

TEST_F(AccessPathTest, IndexedProbesExamineFewerRows) {
  ExecOptions options;
  Executor off(plain_, nullptr, options);
  Executor on(indexed_, nullptr, options);
  const char* sql = "select title from movie where mid = 7";
  ASSERT_TRUE(off.ExecuteSql(sql).ok());
  ASSERT_TRUE(on.ExecuteSql(sql).ok());
  // Unindexed: the scan fallback walks all 400 movies. Indexed: one match.
  EXPECT_EQ(off.rows_examined(), 400u);
  EXPECT_EQ(on.rows_examined(), 1u);
}

TEST_F(AccessPathTest, PersonalizedAnswersAreIdenticalOnVsOff) {
  auto profile = datagen::AlsProfile();
  ASSERT_TRUE(profile.ok());
  auto query = sql::ParseQuery("select mid, title from movie");
  ASSERT_TRUE(query.ok());
  const sql::SelectQuery& base = (*query)->single();

  for (size_t threads : kThreadCounts) {
    core::PersonalizeOptions options;
    options.k = 6;
    options.l = 2;
    options.exec.num_threads = threads;
    options.exec.morsel_rows = 16;

    auto p_off = core::Personalizer::Make(plain_, &*profile);
    auto p_on = core::Personalizer::Make(indexed_, &*profile);
    ASSERT_TRUE(p_off.ok());
    ASSERT_TRUE(p_on.ok());
    auto a_off = p_off->Personalize(base, options);
    auto a_on = p_on->Personalize(base, options);
    ASSERT_TRUE(a_off.ok()) << a_off.status();
    ASSERT_TRUE(a_on.ok()) << a_on.status();
    // Payload covers tuples (values, dois, explanations, emission order),
    // selected preferences and the logical work counters.
    EXPECT_TRUE(core::SameAnswerPayload(*a_off, *a_on)) << "@" << threads;
    // PPA's point probes ride the same access paths: physically cheaper
    // with the indexes, same answer.
    EXPECT_LT(a_on->stats.rows_examined, a_off->stats.rows_examined)
        << "@" << threads;
  }
}

}  // namespace
}  // namespace qp::exec
