// Differential harness for parallel PPA: across database/profile seeds,
// L values and every ranking combinator, a parallel run (num_threads 2 and
// 8) must emit the *identical tuple sequence* as the serial run — values,
// dois, satisfied/failed outcomes and the on_emit order that carries the
// paper's MEDI progressiveness guarantee. SPA's single integrated query is
// checked the same way. Runs under TSan/ASan via the `sanitizer` label.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "core/personalizer.h"
#include "datagen/moviegen.h"
#include "datagen/profilegen.h"
#include "sql/parser.h"

namespace qp::core {
namespace {

using storage::Value;

/// Everything observable about one run: the emission sequence (from
/// on_emit) and the final answer tuples.
struct RunTrace {
  std::vector<std::string> emitted;  ///< rendered tuple + doi, in emit order
  std::vector<std::string> answer;   ///< rendered final tuples, in rank order
  size_t queries_executed = 0;
};

std::string RenderTuple(const PersonalizedTuple& t) {
  std::string out;
  for (const auto& v : t.values) {
    out += v.ToString();
    out += '\x1f';
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "doi=%.12f|s=%zu|f=%zu", t.doi,
                t.satisfied.size(), t.failed.size());
  out += buf;
  // Outcomes themselves must match too (index + degree).
  for (const auto& o : t.satisfied) {
    out += "|S" + std::to_string(o.pref_index) + ":" + std::to_string(o.degree);
  }
  for (const auto& o : t.failed) {
    out += "|F" + std::to_string(o.pref_index) + ":" + std::to_string(o.degree);
  }
  return out;
}

class PpaParallelTest : public ::testing::Test {
 protected:
  static Result<RunTrace> Run(const storage::Database& db,
                              const UserProfile& profile,
                              const std::string& sql, size_t l,
                              CombinationStyle style, size_t num_threads,
                              AnswerAlgorithm algorithm = AnswerAlgorithm::kPpa,
                              size_t top_n = 0) {
    QP_ASSIGN_OR_RETURN(Personalizer personalizer,
                        Personalizer::Make(&db, &profile));
    QP_ASSIGN_OR_RETURN(sql::QueryPtr query, sql::ParseQuery(sql));
    PersonalizeOptions options;
    options.k = 8;
    options.l = l;
    options.algorithm = algorithm;
    options.ranking = RankingFunction::Make(style);
    options.exec.num_threads = num_threads;
    options.top_n = top_n;
    RunTrace trace;
    options.on_emit = [&trace](const PersonalizedTuple& t) {
      trace.emitted.push_back(RenderTuple(t));
    };
    QP_ASSIGN_OR_RETURN(PersonalizedAnswer answer,
                        personalizer.Personalize(query->single(), options));
    for (const auto& t : answer.tuples) {
      trace.answer.push_back(RenderTuple(t));
    }
    trace.queries_executed = answer.stats.queries_executed;
    return trace;
  }

  /// Runs serial and parallel and expects identical traces.
  static void ExpectThreadCountInvariant(
      const storage::Database& db, const UserProfile& profile,
      const std::string& sql, size_t l, CombinationStyle style,
      AnswerAlgorithm algorithm = AnswerAlgorithm::kPpa, size_t top_n = 0) {
    auto serial = Run(db, profile, sql, l, style, 1, algorithm, top_n);
    ASSERT_TRUE(serial.ok()) << serial.status();
    for (size_t threads : {size_t{2}, size_t{8}}) {
      auto parallel = Run(db, profile, sql, l, style, threads, algorithm,
                          top_n);
      ASSERT_TRUE(parallel.ok())
          << "threads=" << threads << ": " << parallel.status();
      EXPECT_EQ(parallel->answer, serial->answer)
          << "answer differs at num_threads=" << threads << " l=" << l;
      EXPECT_EQ(parallel->emitted, serial->emitted)
          << "emission order differs at num_threads=" << threads
          << " l=" << l;
      EXPECT_EQ(parallel->queries_executed, serial->queries_executed)
          << "query count differs at num_threads=" << threads;
    }
  }
};

/// The study's genre-join query. PPA anchors tuples at movie, its first
/// FROM relation, so genre-anchored preferences have no prepared walk and
/// probe through per-call hit maps built before the probe fan-out.
constexpr char kGenreJoinSql[] =
    "select movie.mid, movie.title from movie, genre "
    "where movie.mid = genre.mid and genre.genre = 'comedy'";

/// True when selection for `sql` (K = 8) picks a genre-anchored preference.
bool SelectsGenreAnchored(const storage::Database& db,
                          const UserProfile& profile, const std::string& sql) {
  auto personalizer = Personalizer::Make(&db, &profile);
  auto query = sql::ParseQuery(sql);
  if (!personalizer.ok() || !query.ok()) return false;
  PersonalizeOptions options;
  options.k = 8;
  auto prefs = personalizer->SelectPreferences((*query)->single(), options);
  if (!prefs.ok()) return false;
  for (const auto& p : *prefs) {
    if (p.pref.AnchorRelation() == "genre") return true;
  }
  return false;
}

TEST_F(PpaParallelTest, MixedProfilesAcrossSeedsAndLAndCombinators) {
  const CombinationStyle styles[] = {CombinationStyle::kInflationary,
                                     CombinationStyle::kDominant,
                                     CombinationStyle::kReserved};
  for (uint64_t seed : {11u, 47u}) {
    datagen::ProfileGenConfig config;
    config.seed = seed;
    config.num_presence = 4;
    config.num_negative = 2;
    config.num_absence_11 = 1;
    config.num_elastic = 1;
    config.db_config.num_movies = 80;
    config.db_config.num_directors = 15;
    config.db_config.num_actors = 40;
    config.db_config.num_theatres = 6;
    config.db_config.plays_per_theatre = 8;
    auto db = datagen::GenerateMovieDatabase(config.db_config);
    ASSERT_TRUE(db.ok());
    auto profile = datagen::GenerateProfile(config);
    ASSERT_TRUE(profile.ok()) << profile.status();
    // A strongly disliked genre: on the join query it anchors at genre.
    UserProfile join_profile = *profile;
    ASSERT_TRUE(join_profile
                    .AddSelection("genre.genre", sql::BinaryOp::kEq,
                                  Value("horror"), *DoiPair::Exact(-0.9, 0.6))
                    .ok());
    ASSERT_TRUE(SelectsGenreAnchored(*db, join_profile, kGenreJoinSql))
        << "seed=" << seed;
    for (size_t l : {size_t{1}, size_t{2}, size_t{3}}) {
      for (CombinationStyle style : styles) {
        ExpectThreadCountInvariant(*db, *profile,
                                   "select mid, title from movie", l, style);
        ExpectThreadCountInvariant(*db, join_profile, kGenreJoinSql, l, style);
      }
    }
  }
}

TEST_F(PpaParallelTest, AlsProfileWithBasePredicateAndTopN) {
  datagen::MovieGenConfig db_config;
  auto db = datagen::GenerateMovieDatabase(db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::AlsProfile();
  ASSERT_TRUE(profile.ok()) << profile.status();
  ExpectThreadCountInvariant(
      *db, *profile, "select mid, title from movie where movie.year >= 1980",
      1, CombinationStyle::kInflationary);
  // top_n exercises early termination: the prefix must be cut identically.
  ExpectThreadCountInvariant(*db, *profile, "select mid, title from movie", 1,
                             CombinationStyle::kInflationary,
                             AnswerAlgorithm::kPpa, /*top_n=*/5);
}

TEST_F(PpaParallelTest, SpaIntegratedQueryIsThreadCountInvariant) {
  for (uint64_t seed : {5u, 23u}) {
    datagen::ProfileGenConfig config;
    config.seed = seed;
    config.num_presence = 5;
    config.num_negative = 1;
    config.db_config.num_movies = 80;
    auto db = datagen::GenerateMovieDatabase(config.db_config);
    ASSERT_TRUE(db.ok());
    auto profile = datagen::GenerateProfile(config);
    ASSERT_TRUE(profile.ok());
    for (size_t l : {size_t{1}, size_t{2}}) {
      ExpectThreadCountInvariant(*db, *profile,
                                 "select mid, title from movie", l,
                                 CombinationStyle::kInflationary,
                                 AnswerAlgorithm::kSpa);
    }
  }
}

/// Threads of this process right now (the Threads: line of
/// /proc/self/status), or 0 when unreadable.
size_t ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

TEST_F(PpaParallelTest, ColdParallelCallRunsOnePool) {
  // With no pool injected, an 8-thread call owns one pool of 7 workers:
  // the executor's parallel regions and the point probes share it.
  const size_t before = ProcessThreads();
  if (before == 0) GTEST_SKIP() << "/proc/self/status unreadable";
  datagen::ProfileGenConfig config;
  config.seed = 5;
  config.num_presence = 5;
  config.num_negative = 2;
  config.db_config.num_movies = 200;
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok());
  auto personalizer = Personalizer::Make(&*db, &*profile);
  ASSERT_TRUE(personalizer.ok());
  auto query = sql::ParseQuery("select mid, title from movie");
  ASSERT_TRUE(query.ok());
  PersonalizeOptions options;
  options.k = 8;
  options.l = 1;
  options.exec.num_threads = 8;
  size_t during = 0;
  options.on_emit = [&during](const PersonalizedTuple&) {
    during = std::max(during, ProcessThreads());
  };
  auto answer = personalizer->Personalize((*query)->single(), options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_FALSE(answer->tuples.empty());
  EXPECT_GT(during, before);
  EXPECT_LE(during, before + 7);
}

TEST_F(PpaParallelTest, CountWeightedMixedStyleKeepsEmissionOrder) {
  // The count-weighted mixed style drives the tightest MEDI decay — the
  // most emission rounds and the strongest ordering constraint.
  datagen::ProfileGenConfig config;
  config.seed = 99;
  config.num_presence = 5;
  config.num_negative = 2;
  config.db_config.num_movies = 80;
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok());

  auto run = [&](size_t threads) {
    auto personalizer = Personalizer::Make(&*db, &*profile);
    EXPECT_TRUE(personalizer.ok());
    auto query = sql::ParseQuery("select mid, title from movie");
    EXPECT_TRUE(query.ok());
    PersonalizeOptions options;
    options.k = 7;
    options.l = 1;
    options.ranking = RankingFunction::Make(CombinationStyle::kInflationary,
                                            MixedStyle::kCountWeighted);
    options.exec.num_threads = threads;
    RunTrace trace;
    options.on_emit = [&trace](const PersonalizedTuple& t) {
      trace.emitted.push_back(RenderTuple(t));
    };
    auto answer = personalizer->Personalize((*query)->single(), options);
    EXPECT_TRUE(answer.ok()) << answer.status();
    if (answer.ok()) {
      for (const auto& t : answer->tuples) {
        trace.answer.push_back(RenderTuple(t));
      }
    }
    return trace;
  };
  const RunTrace serial = run(1);
  ASSERT_FALSE(serial.answer.empty());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    const RunTrace parallel = run(threads);
    EXPECT_EQ(parallel.emitted, serial.emitted) << "threads=" << threads;
    EXPECT_EQ(parallel.answer, serial.answer) << "threads=" << threads;
  }
  // Emission must still be doi-monotone (the MEDI guarantee itself).
  ASSERT_EQ(serial.emitted.size(), serial.answer.size());
}

}  // namespace
}  // namespace qp::core
