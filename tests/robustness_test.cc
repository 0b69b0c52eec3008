// Robustness: malformed/adversarial inputs must produce Status errors, never
// crashes or silent misbehaviour — randomized token soup for the SQL parser
// and the profile parser, plus API misuse sequences.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/personalizer.h"
#include "core/profile.h"
#include "datagen/moviegen.h"
#include "datagen/profilegen.h"
#include "exec/executor.h"
#include "sql/parser.h"

namespace qp {
namespace {

using core::DoiPair;
using core::UserProfile;
using sql::BinaryOp;
using storage::Value;

TEST(ParserRobustnessTest, RandomTokenSoupNeverCrashes) {
  static const char* kTokens[] = {
      "select", "from",  "where", "and",   "or",   "not",   "in",
      "(",      ")",     ",",     ".",     "=",    "<",     ">",
      "<=",     ">=",    "<>",    "*",     "movie", "title", "mid",
      "42",     "3.14",  "'x'",   "union", "all",  "group", "by",
      "having", "order", "desc",  "limit", "between",
  };
  Rng rng(123);
  size_t parsed_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string sql;
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 20));
    for (size_t i = 0; i < n; ++i) {
      sql += kTokens[rng.Index(std::size(kTokens))];
      sql += ' ';
    }
    auto result = sql::ParseQuery(sql);  // must not crash
    if (result.ok()) ++parsed_ok;
  }
  // The soup occasionally forms valid queries; most attempts fail cleanly.
  EXPECT_LT(parsed_ok, 3000u);
}

TEST(ParserRobustnessTest, DeeplyNestedExpressions) {
  std::string sql = "select a from t where ";
  for (int i = 0; i < 200; ++i) sql += "(";
  sql += "a = 1";
  for (int i = 0; i < 200; ++i) sql += ")";
  auto result = sql::ParseQuery(sql);
  EXPECT_TRUE(result.ok()) << result.status();
}

TEST(ParserRobustnessTest, PathologicalStrings) {
  EXPECT_FALSE(sql::ParseQuery(std::string(1, '\0')).ok());
  EXPECT_FALSE(sql::ParseQuery("select \x01\x02 from t").ok());
  EXPECT_FALSE(sql::ParseQuery(std::string(10000, '(')).ok());
  auto long_ident = sql::ParseQuery("select " + std::string(5000, 'a') +
                                    " from " + std::string(5000, 'b'));
  EXPECT_TRUE(long_ident.ok());
}

TEST(ProfileRobustnessTest, RandomProfileLinesNeverCrash) {
  static const char* kPieces[] = {
      "doi(", ")", "=", "(", ",", "movie.year", "genre.genre", "'x'",
      "0.5",  "-0.9", "e(0.5)", "[90,150]", "<", ">", "1980", "#",
      "ranking:", "dominant", "sum",
  };
  Rng rng(321);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text;
    const size_t lines = static_cast<size_t>(rng.UniformInt(1, 4));
    for (size_t l = 0; l < lines; ++l) {
      const size_t n = static_cast<size_t>(rng.UniformInt(1, 10));
      for (size_t i = 0; i < n; ++i) {
        text += kPieces[rng.Index(std::size(kPieces))];
        if (rng.Bernoulli(0.7)) text += ' ';
      }
      text += '\n';
    }
    (void)UserProfile::Parse(text);  // must not crash
  }
}

TEST(ProfileRobustnessTest, RemoveSemantics) {
  UserProfile profile;
  ASSERT_TRUE(profile.AddSelection("movie.year", BinaryOp::kGe,
                                   Value(int64_t{1990}),
                                   *DoiPair::Exact(0.5, 0)).ok());
  ASSERT_TRUE(profile.AddJoin("movie.mid", "genre.mid", 0.8).ok());

  core::SelectionCondition cond{*storage::AttributeRef::Parse("movie.year"),
                                BinaryOp::kGe, Value(int64_t{1990})};
  EXPECT_TRUE(profile.RemoveSelection(cond).ok());
  EXPECT_EQ(profile.RemoveSelection(cond).code(), StatusCode::kNotFound);
  EXPECT_EQ(profile.selections().size(), 0u);

  const auto from = *storage::AttributeRef::Parse("movie.mid");
  const auto to = *storage::AttributeRef::Parse("genre.mid");
  EXPECT_TRUE(profile.RemoveJoin(from, to).ok());
  EXPECT_EQ(profile.RemoveJoin(from, to).code(), StatusCode::kNotFound);
  EXPECT_EQ(profile.NumPreferences(), 0u);
}

TEST(ProfileRobustnessTest, GraphSurvivesProfileMutation) {
  storage::Database db;
  ASSERT_TRUE(datagen::CreateMovieSchema(&db).ok());
  UserProfile profile;
  ASSERT_TRUE(profile.AddJoin("movie.mid", "genre.mid", 0.8).ok());
  ASSERT_TRUE(profile.AddSelection("genre.genre", BinaryOp::kEq,
                                   Value("comedy"),
                                   *DoiPair::Exact(0.9, 0)).ok());
  ASSERT_TRUE(profile.AddSelection("movie.year", BinaryOp::kGe,
                                   Value(int64_t{1990}),
                                   *DoiPair::Exact(0.5, 0)).ok());
  auto graph = core::PersonalizationGraph::Build(&db, &profile);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->NumSelectionEdges(), 2u);

  core::SelectionCondition cond{*storage::AttributeRef::Parse("movie.year"),
                                BinaryOp::kGe, Value(int64_t{1990})};
  ASSERT_TRUE(profile.RemoveSelection(cond).ok());
  graph->RefreshDerivedStats();
  EXPECT_EQ(graph->NumSelectionEdges(), 1u);
  EXPECT_TRUE(graph->SelectionEdges("movie").empty());
  EXPECT_EQ(graph->SelectionEdges("genre").size(), 1u);
}

TEST(ExecutorRobustnessTest, HostileQueriesFailCleanly) {
  auto db = datagen::GenerateMovieDatabase(datagen::MovieGenConfig::TestScale());
  ASSERT_TRUE(db.ok());
  exec::Executor executor(&*db);
  const char* bad[] = {
      "select * from movie, movie",                     // duplicate alias
      "select x.y from movie",                          // unknown qualifier
      "select title from movie where title > movie",    // unknown column ref
      "select count(title, year) from movie",           // arity abuse
      "select title from movie group by",               // truncated
      "select title from movie order by",               // truncated
      "select (select mid from movie) from movie",      // subquery in select
      // Unknown or ambiguous WHERE names fail whether or not a row would
      // reach them.
      "select title from movie where year > 0 or nosuch = 1",
      "select title from movie where nosuch = 1 and movie.mid = -1",
      "select m.title from movie m, genre g where mid = g.mid",
  };
  for (const char* sql : bad) {
    auto result = executor.ExecuteSql(sql);
    EXPECT_FALSE(result.ok()) << sql;
  }
}

TEST(ExecutorRobustnessTest, EmptyTablesAreFine) {
  storage::Database db;
  ASSERT_TRUE(datagen::CreateMovieSchema(&db).ok());
  exec::Executor executor(&db);
  auto scan = executor.ExecuteSql("select title from movie");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->num_rows(), 0u);
  auto join = executor.ExecuteSql(
      "select movie.title from movie, genre where movie.mid = genre.mid");
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->num_rows(), 0u);
  auto agg = executor.ExecuteSql("select count(*) n from movie");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->row(0)[0], Value(int64_t{0}));
}

TEST(PersonalizerRobustnessTest, EmptyDatabase) {
  storage::Database db;
  ASSERT_TRUE(datagen::CreateMovieSchema(&db).ok());
  auto profile = datagen::AlsProfile();
  ASSERT_TRUE(profile.ok());
  auto personalizer = core::Personalizer::Make(&db, &*profile);
  ASSERT_TRUE(personalizer.ok());
  auto query = sql::ParseQuery("select mid, title from movie");
  core::PersonalizeOptions options;
  options.k = 5;
  options.l = 1;
  auto answer = personalizer->Personalize((*query)->single(), options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->tuples.size(), 0u);
}

}  // namespace
}  // namespace qp
