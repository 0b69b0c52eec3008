// Hand-verified PPA semantics on a four-movie database: every phase of
// Figure 6 is exercised (presence queries, 1-1 absence, 1-n absence with
// violation probing, the Nids complement step) and the resulting per-tuple
// outcomes and dois are checked against values computed by hand.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/personalizer.h"
#include "core/rewrite.h"
#include "datagen/moviegen.h"
#include "exec/executor.h"
#include "obs/trace.h"
#include "sql/parser.h"

namespace qp::core {
namespace {

using sql::BinaryOp;
using storage::Value;

class PpaSemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datagen::CreateMovieSchema(&db_).ok());
    auto movie = db_.GetTable("movie");
    auto genre = db_.GetTable("genre");
    ASSERT_TRUE(movie.ok());
    ASSERT_TRUE(genre.ok());
    auto add_movie = [&](int64_t mid, const char* title, int64_t year,
                         int64_t dur) {
      ASSERT_TRUE((*movie)->Append({Value(mid), Value(title), Value(year),
                                    Value(dur)}).ok());
    };
    add_movie(1, "m1", 1990, 120);
    add_movie(2, "m2", 1970, 90);
    add_movie(3, "m3", 2000, 150);
    add_movie(4, "m4", 1985, 110);
    auto add_genre = [&](int64_t mid, const char* g) {
      ASSERT_TRUE((*genre)->Append({Value(mid), Value(g)}).ok());
    };
    add_genre(1, "comedy");
    add_genre(2, "musical");
    add_genre(3, "comedy");
    add_genre(3, "musical");

    // P1: likes comedies (presence via the 0.9 join: degree 0.72).
    ASSERT_TRUE(profile_.AddJoin("movie.mid", "genre.mid", 0.9).ok());
    ASSERT_TRUE(profile_.AddSelection("genre.genre", BinaryOp::kEq,
                                      Value("comedy"),
                                      *DoiPair::Exact(0.8, 0)).ok());
    // P2: dislikes pre-1980 movies (1-1 absence; satisfaction degree 0).
    ASSERT_TRUE(profile_.AddSelection("movie.year", BinaryOp::kLt,
                                      Value(int64_t{1980}),
                                      *DoiPair::Exact(-0.6, 0)).ok());
    // P3: hates musicals, glad when absent (1-n absence; satisfaction
    // 0.45 = 0.9 * 0.5, violation -0.81 = 0.9 * -0.9).
    ASSERT_TRUE(profile_.AddSelection("genre.genre", BinaryOp::kEq,
                                      Value("musical"),
                                      *DoiPair::Exact(-0.9, 0.5)).ok());
  }

  Result<PersonalizedAnswer> Run(AnswerAlgorithm algorithm, size_t l) {
    auto personalizer = Personalizer::Make(&db_, &profile_);
    EXPECT_TRUE(personalizer.ok());
    auto query = sql::ParseQuery("select mid, title from movie");
    EXPECT_TRUE(query.ok());
    PersonalizeOptions options;
    options.k = 3;
    options.l = l;
    options.algorithm = algorithm;
    return personalizer->Personalize((*query)->single(), options);
  }

  storage::Database db_;
  UserProfile profile_;
};

TEST_F(PpaSemanticsTest, SelectionPicksAllThreeInCriticalityOrder) {
  auto personalizer = Personalizer::Make(&db_, &profile_);
  ASSERT_TRUE(personalizer.ok());
  auto query = sql::ParseQuery("select mid, title from movie");
  PersonalizeOptions options;
  options.k = 3;
  auto prefs = personalizer->SelectPreferences((*query)->single(), options);
  ASSERT_TRUE(prefs.ok());
  ASSERT_EQ(prefs->size(), 3u);
  // Criticalities: musical 0.9*(0.9+0.5)=1.26, comedy 0.9*0.8=0.72,
  // year 0.6.
  EXPECT_NEAR((*prefs)[0].criticality, 1.26, 1e-12);
  EXPECT_NEAR((*prefs)[1].criticality, 0.72, 1e-12);
  EXPECT_NEAR((*prefs)[2].criticality, 0.6, 1e-12);
}

TEST_F(PpaSemanticsTest, HandComputedDoisAtL2) {
  auto answer = Run(AnswerAlgorithm::kPpa, 2);
  ASSERT_TRUE(answer.ok()) << answer.status();
  // m2 satisfies nothing; the rest qualify.
  ASSERT_EQ(answer->tuples.size(), 3u);

  std::map<std::string, const PersonalizedTuple*> by_title;
  for (const auto& t : answer->tuples) {
    by_title[t.values[1].as_string()] = &t;
  }
  ASSERT_TRUE(by_title.count("m1"));
  ASSERT_TRUE(by_title.count("m3"));
  ASSERT_TRUE(by_title.count("m4"));
  EXPECT_FALSE(by_title.count("m2"));

  // m1: comedy (0.72), year ok (0), no musical (0.45) — all satisfied.
  // doi = r+ = 1 - (1-0.72)(1-0)(1-0.45) = 0.846.
  EXPECT_EQ(by_title["m1"]->satisfied.size(), 3u);
  EXPECT_EQ(by_title["m1"]->failed.size(), 0u);
  EXPECT_NEAR(by_title["m1"]->doi, 1.0 - 0.28 * 1.0 * 0.55, 1e-9);

  // m3: comedy + year satisfied, musical violated (-0.81).
  // doi = (2 * r+({0.72, 0}) + 1 * r-({-0.81})) / 3 = (1.44 - 0.81) / 3.
  EXPECT_EQ(by_title["m3"]->satisfied.size(), 2u);
  EXPECT_EQ(by_title["m3"]->failed.size(), 1u);
  EXPECT_NEAR(by_title["m3"]->doi, (2 * 0.72 - 0.81) / 3.0, 1e-9);

  // m4: no comedy (failed at degree 0), year ok (0), no musical (0.45).
  // doi = (2 * r+({0, 0.45}) + 1 * 0) / 3 = 0.9 / 3.
  EXPECT_EQ(by_title["m4"]->satisfied.size(), 2u);
  EXPECT_EQ(by_title["m4"]->failed.size(), 1u);
  EXPECT_NEAR(by_title["m4"]->doi, 2 * 0.45 / 3.0, 1e-9);

  // Rank order: m1 > m4 > m3.
  EXPECT_EQ(answer->tuples[0].values[1], Value("m1"));
  EXPECT_EQ(answer->tuples[1].values[1], Value("m4"));
  EXPECT_EQ(answer->tuples[2].values[1], Value("m3"));
}

TEST_F(PpaSemanticsTest, SpaAgreesOnTheTupleSet) {
  auto ppa = Run(AnswerAlgorithm::kPpa, 2);
  auto spa = Run(AnswerAlgorithm::kSpa, 2);
  ASSERT_TRUE(ppa.ok());
  ASSERT_TRUE(spa.ok()) << spa.status();
  ASSERT_EQ(spa->tuples.size(), ppa->tuples.size());
  std::set<std::string> spa_titles, ppa_titles;
  for (const auto& t : spa->tuples) spa_titles.insert(t.values[1].as_string());
  for (const auto& t : ppa->tuples) ppa_titles.insert(t.values[1].as_string());
  EXPECT_EQ(spa_titles, ppa_titles);
}

TEST_F(PpaSemanticsTest, L3RequiresAllThree) {
  auto answer = Run(AnswerAlgorithm::kPpa, 3);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->tuples.size(), 1u);
  EXPECT_EQ(answer->tuples[0].values[1], Value("m1"));
}

TEST_F(PpaSemanticsTest, L1IncludesEverythingExceptTotalFailures) {
  auto answer = Run(AnswerAlgorithm::kPpa, 1);
  ASSERT_TRUE(answer.ok());
  // m2 satisfies zero preferences (comedy missing, year 1970 < 1980 fails
  // the absence preference, musical present) and stays excluded.
  EXPECT_EQ(answer->tuples.size(), 3u);
  for (const auto& t : answer->tuples) {
    EXPECT_NE(t.values[1], Value("m2"));
  }
}

TEST_F(PpaSemanticsTest, BaseConditionRestrictsCandidates) {
  auto personalizer = Personalizer::Make(&db_, &profile_);
  ASSERT_TRUE(personalizer.ok());
  auto query = sql::ParseQuery(
      "select mid, title from movie where movie.year >= 1990");
  PersonalizeOptions options;
  options.k = 3;
  options.l = 1;
  auto answer = personalizer->Personalize((*query)->single(), options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  // Only m1 (1990) and m3 (2000) pass the base predicate.
  ASSERT_EQ(answer->tuples.size(), 2u);
  for (const auto& t : answer->tuples) {
    EXPECT_TRUE(t.values[1] == Value("m1") || t.values[1] == Value("m3"));
  }
}

TEST_F(PpaSemanticsTest, ProgressiveEmissionNeverInverts) {
  auto personalizer = Personalizer::Make(&db_, &profile_);
  ASSERT_TRUE(personalizer.ok());
  auto query = sql::ParseQuery("select mid, title from movie");
  PersonalizeOptions options;
  options.k = 3;
  options.l = 1;
  std::vector<double> emitted;
  options.on_emit = [&](const PersonalizedTuple& t) {
    emitted.push_back(t.doi);
  };
  auto answer = personalizer->Personalize((*query)->single(), options);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(emitted.size(), answer->tuples.size());
  for (size_t i = 1; i < emitted.size(); ++i) {
    EXPECT_GE(emitted[i - 1], emitted[i] - 1e-12);
  }
}

TEST_F(PpaSemanticsTest, TopNReturnsThePrefixOfTheFullAnswer) {
  auto full = Run(AnswerAlgorithm::kPpa, 1);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->tuples.size(), 3u);

  auto personalizer = Personalizer::Make(&db_, &profile_);
  ASSERT_TRUE(personalizer.ok());
  auto query = sql::ParseQuery("select mid, title from movie");
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{10}}) {
    PersonalizeOptions options;
    options.k = 3;
    options.l = 1;
    options.top_n = n;
    auto top = personalizer->Personalize((*query)->single(), options);
    ASSERT_TRUE(top.ok()) << "n=" << n;
    ASSERT_EQ(top->tuples.size(), std::min(n, full->tuples.size()));
    for (size_t i = 0; i < top->tuples.size(); ++i) {
      EXPECT_EQ(top->tuples[i].values, full->tuples[i].values)
          << "n=" << n << " i=" << i;
      EXPECT_NEAR(top->tuples[i].doi, full->tuples[i].doi, 1e-12);
    }
    // SPA with the same cap agrees.
    options.algorithm = AnswerAlgorithm::kSpa;
    auto spa_top = personalizer->Personalize((*query)->single(), options);
    ASSERT_TRUE(spa_top.ok());
    EXPECT_EQ(spa_top->tuples.size(), top->tuples.size());
  }
}

TEST_F(PpaSemanticsTest, TopNSkipsRemainingWork) {
  // With top_n = 1 the best tuple (m1, emitted once MEDI allows) must stop
  // further probing; queries_executed drops versus the full run.
  auto personalizer = Personalizer::Make(&db_, &profile_);
  ASSERT_TRUE(personalizer.ok());
  auto query = sql::ParseQuery("select mid, title from movie");
  PersonalizeOptions options;
  options.k = 3;
  options.l = 1;
  auto full = personalizer->Personalize((*query)->single(), options);
  ASSERT_TRUE(full.ok());
  options.top_n = 1;
  auto top = personalizer->Personalize((*query)->single(), options);
  ASSERT_TRUE(top.ok());
  EXPECT_LE(top->stats.queries_executed, full->stats.queries_executed);
  ASSERT_EQ(top->tuples.size(), 1u);
  EXPECT_EQ(top->tuples[0].values, full->tuples[0].values);
}

TEST_F(PpaSemanticsTest, ErrorsOnMissingPrimaryKeyAnchor) {
  auto personalizer = Personalizer::Make(&db_, &profile_);
  ASSERT_TRUE(personalizer.ok());
  // GENRE has no primary key: PPA cannot identify its tuples.
  auto query = sql::ParseQuery("select genre from genre");
  PersonalizeOptions options;
  options.k = 2;
  options.l = 1;
  options.algorithm = AnswerAlgorithm::kPpa;
  auto answer = personalizer->Personalize((*query)->single(), options);
  EXPECT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kUnsupported);
}

TEST_F(PpaSemanticsTest, ReservedColumnNamesRejected) {
  auto personalizer = Personalizer::Make(&db_, &profile_);
  ASSERT_TRUE(personalizer.ok());
  auto query = sql::ParseQuery("select mid, year degree from movie");
  PersonalizeOptions options;
  options.k = 2;
  options.l = 1;
  EXPECT_FALSE(personalizer->Personalize((*query)->single(), options).ok());
}

// ---------------------------------------------------------------------------
// Preferences anchored off the first FROM relation. On the movie-genre join
// the genre-anchored preferences have no prepared walk, so PPA answers their
// probes from one run of each preference's own S/A query per call. The
// reference below runs one query per tuple and preference instead.

/// One base tuple's outcomes: preference index -> degree.
struct ReferenceTuple {
  storage::Row values;
  std::map<size_t, double> satisfied;
  std::map<size_t, double> failed;
};

/// Probes every preference for every tuple of `base` separately: the
/// satisfaction query (violation query for 1-n absence) with
/// `movie.mid = t` appended. A hit carries the max degree of its rows.
Result<std::map<Value, ReferenceTuple>> PerTupleReference(
    const storage::Database& db, const sql::SelectQuery& base,
    const std::vector<SelectedPreference>& prefs) {
  const QueryRewriter rewriter(&db);
  const exec::Executor executor(&db);
  QP_ASSIGN_OR_RETURN(exec::RowSet rows,
                      executor.Execute(*sql::Query::Single(base)));
  std::map<Value, ReferenceTuple> out;
  for (const auto& row : rows.rows()) {
    const Value& mid = row[0];
    if (out.count(mid) > 0) continue;
    ReferenceTuple& t = out[mid];
    t.values = row;
    for (size_t i = 0; i < prefs.size(); ++i) {
      const ImplicitPreference& pref = prefs[i].pref;
      QP_ASSIGN_OR_RETURN(RewrittenPreference parts,
                          rewriter.Rewrite(base, pref));
      const bool violation = parts.kind == PreferenceKind::kAbsenceOneN;
      QP_ASSIGN_OR_RETURN(
          sql::SelectQuery q,
          violation ? rewriter.BuildViolationQuery(base, pref)
                    : rewriter.BuildSatisfactionQuery(base, pref));
      q.where = sql::Expr::And(
          q.where, sql::Expr::Compare(BinaryOp::kEq,
                                      sql::Expr::Column("movie", "mid"),
                                      sql::Expr::Literal(mid)));
      QP_ASSIGN_OR_RETURN(exec::RowSet hits,
                          executor.Execute(*sql::Query::Single(q)));
      std::optional<double> degree;
      for (const auto& hit : hits.rows()) {
        const double d = hit.back().ToNumeric();
        degree = degree.has_value() ? std::max(*degree, d) : d;
      }
      // A violation-query hit fails the preference; any other hit
      // satisfies it.
      if (degree.has_value() != violation) {
        t.satisfied[i] = degree.value_or(parts.satisfaction_degree);
      } else {
        t.failed[i] = degree.value_or(parts.failure_degree);
      }
    }
  }
  return out;
}

/// The movie-genre join fixture: the genre preferences anchor at genre, a
/// query relation after the first, so they have no prepared walk; the year
/// preference walks from movie.
void AddGenreJoinPreferences(UserProfile* profile) {
  ASSERT_TRUE(profile->AddJoin("movie.mid", "genre.mid", 0.9).ok());
  ASSERT_TRUE(profile->AddSelection("genre.genre", BinaryOp::kEq,
                                    Value("comedy"), *DoiPair::Exact(0.8, 0))
                  .ok());
  ASSERT_TRUE(profile->AddSelection("genre.genre", BinaryOp::kEq,
                                    Value("horror"),
                                    *DoiPair::Exact(-0.7, 0.4))
                  .ok());
  // m3 (mid 3) satisfies this one on the genre anchor, m1 fails it.
  ASSERT_TRUE(profile->AddSelection("genre.mid", BinaryOp::kNe,
                                    Value(int64_t{1}),
                                    *DoiPair::Exact(0.5, 0))
                  .ok());
  // m1 (1990) satisfies this one on the movie anchor, m3 (2000) fails it.
  ASSERT_TRUE(profile->AddSelection("movie.year", BinaryOp::kLe,
                                    Value(int64_t{1990}),
                                    *DoiPair::Exact(0.6, 0))
                  .ok());
}

constexpr char kGenreJoinQuery[] =
    "select movie.mid, movie.title from movie, genre "
    "where movie.mid = genre.mid and genre.genre = 'comedy'";

TEST_F(PpaSemanticsTest,
       PreferencesAnchoredOffTheFirstRelationMatchPerTupleProbes) {
  UserProfile profile;
  AddGenreJoinPreferences(&profile);
  auto personalizer = Personalizer::Make(&db_, &profile);
  ASSERT_TRUE(personalizer.ok());
  auto query = sql::ParseQuery(kGenreJoinQuery);
  ASSERT_TRUE(query.ok());
  PersonalizeOptions options;
  options.k = 10;
  options.l = 1;
  // Sum mixing with only zero failure degrees: the doi is the positive
  // combination SPA ranks by, so both algorithms must agree on it.
  options.ranking = RankingFunction::Make(CombinationStyle::kInflationary,
                                          MixedStyle::kSum);
  auto ppa = personalizer->Personalize((*query)->single(), options);
  ASSERT_TRUE(ppa.ok()) << ppa.status();

  size_t off_anchor = 0;
  for (const auto& p : ppa->preferences) {
    if (p.pref.AnchorRelation() == "genre") ++off_anchor;
  }
  ASSERT_GE(off_anchor, 2u) << "no genre-anchored preference was selected";

  auto reference =
      PerTupleReference(db_, (*query)->single(), ppa->preferences);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(reference->size(), 2u);  // m1 and m3 are the comedies
  ASSERT_EQ(ppa->tuples.size(), reference->size());
  for (size_t i = 0; i < ppa->tuples.size(); ++i) {
    const PersonalizedTuple& t = ppa->tuples[i];
    if (i > 0) {
      EXPECT_GE(ppa->tuples[i - 1].doi, t.doi);
    }
    ASSERT_TRUE(reference->count(t.values[0])) << t.values[0];
    const ReferenceTuple& want = reference->at(t.values[0]);
    EXPECT_EQ(t.values, want.values);
    std::map<size_t, double> satisfied, failed;
    std::vector<double> pos, neg;
    for (const auto& o : t.satisfied) satisfied[o.pref_index] = o.degree;
    for (const auto& o : t.failed) failed[o.pref_index] = o.degree;
    EXPECT_EQ(satisfied, want.satisfied) << t.values[1];
    EXPECT_EQ(failed, want.failed) << t.values[1];
    for (const auto& [k, d] : want.satisfied) pos.push_back(d);
    for (const auto& [k, d] : want.failed) neg.push_back(d);
    EXPECT_NEAR(t.doi, options.ranking.Rank(pos, neg), 1e-12) << t.values[1];
  }
  // By hand: m1 satisfies comedy, horror-absent and year at 0.8/0.4/0.6,
  // m3 comedy, horror-absent and mid at 0.8/0.4/0.5.
  EXPECT_EQ(ppa->tuples[0].values[1], Value("m1"));
  EXPECT_NEAR(ppa->tuples[0].doi, 1.0 - 0.2 * 0.6 * 0.4, 1e-12);
  EXPECT_NEAR(ppa->tuples[1].doi, 1.0 - 0.2 * 0.6 * 0.5, 1e-12);

  options.algorithm = AnswerAlgorithm::kSpa;
  auto spa = personalizer->Personalize((*query)->single(), options);
  ASSERT_TRUE(spa.ok()) << spa.status();
  ASSERT_EQ(spa->tuples.size(), ppa->tuples.size());
  for (size_t i = 0; i < spa->tuples.size(); ++i) {
    EXPECT_EQ(spa->tuples[i].values, ppa->tuples[i].values) << i;
    EXPECT_NEAR(spa->tuples[i].doi, ppa->tuples[i].doi, 1e-12) << i;
  }

  // Rounds plus at most one hit-map query per genre-anchored preference,
  // however many tuples probe it.
  EXPECT_LE(ppa->stats.queries_executed,
            ppa->stats.rounds_run + off_anchor);
}

// ---------------------------------------------------------------------------
// The trace tree of PPA's execution: one span per S and A round, in round
// order, each with its executor plan and the hit maps it builds as children,
// then the complement scan and first_response. Names and attrs are pinned
// against a golden and must not move with the thread count.

/// Renders `span`'s subtree as names and attrs, one line per span, children
/// indented two spaces. Wall times are left out.
void RenderShape(const obs::TraceSpan& span, size_t indent, std::string* out) {
  out->append(indent, ' ');
  out->append(span.name());
  for (const auto& [key, value] : span.attrs()) {
    out->append(" " + key + "=" + value);
  }
  out->push_back('\n');
  for (size_t i = 0; i < span.num_children(); ++i) {
    RenderShape(span.child(i), indent + 2, out);
  }
}

/// Runs `query` traced at 1, 2 and 8 threads; checks each call's
/// `execute: ppa` subtree against `golden` and against the serial one.
void ExpectPpaTrace(const storage::Database& db, const UserProfile& profile,
                    const std::string& query, PersonalizeOptions options,
                    const std::string& golden) {
  auto personalizer = Personalizer::Make(&db, &profile);
  ASSERT_TRUE(personalizer.ok());
  std::vector<std::unique_ptr<obs::TraceSpan>> spans;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    obs::TraceSpan root("personalize");
    options.exec.num_threads = threads;
    options.trace = &root;
    auto answer = personalizer->Personalize(query, options);
    ASSERT_TRUE(answer.ok()) << answer.status();
    for (auto& child : root.TakeChildren()) {
      if (child->name() == "execute: ppa") spans.push_back(std::move(child));
    }
    ASSERT_EQ(spans.size(), 1 + (threads > 1) + (threads > 2)) << threads;
    std::string shape;
    RenderShape(*spans.back(), 0, &shape);
    EXPECT_EQ(shape, golden) << "threads=" << threads;
    EXPECT_TRUE(spans.front()->SameShape(*spans.back()))
        << "threads=" << threads;
  }
}

/// The four-movie fixture at K = 3, L = 1: two S rounds (comedy presence,
/// 1-1 year absence), one 1-n absence round (musical) whose tuples cannot
/// reach L, and the complement scan.
constexpr char kFourMovieTrace[] =
    "execute: ppa tuples=3\n"
    "  S query 1/2 pref=1 est_selectivity=0.5 rows=2 fresh=2\n"
    "    source 'movie': full scan, ~4 rows, 0 filter(s) access=scan est_rows=4 filters=0\n"
    "    source 'genre': index lookup on genre = comedy, ~2 rows, 1 filter(s) access=index est_rows=2 filters=1 backed=scan\n"
    "    start from 'genre' (2 rows after filters) rows=2\n"
    "    join 'movie' via persistent index [movie.mid = genre.mid] -> 2 rows method=persistent_index rows=2\n"
    "  S query 2/2 pref=2 est_selectivity=0.75 rows=3 fresh=1\n"
    "    source 'movie': range scan on year in [1980, +inf), ~3 rows, 1 filter(s) access=range est_rows=3 filters=1 backed=scan\n"
    "    start from 'movie' (3 rows after filters) rows=3\n"
    "  A query 1/1 pref=0 est_selectivity=0.5 rows=2 fresh=0\n"
    "    source 'movie': full scan, ~4 rows, 0 filter(s) access=scan est_rows=4 filters=0\n"
    "    source 'genre': index lookup on genre = musical, ~2 rows, 1 filter(s) access=index est_rows=2 filters=1 backed=scan\n"
    "    start from 'genre' (2 rows after filters) rows=2\n"
    "    join 'movie' via persistent index [movie.mid = genre.mid] -> 2 rows method=persistent_index rows=2\n"
    "  complement scan (step 3) rows=4 fresh=0\n"
    "    source 'movie': full scan, ~4 rows, 0 filter(s) access=scan est_rows=4 filters=0\n"
    "    start from 'movie' (4 rows after filters) rows=4\n"
    "  first_response\n";

/// The genre-join fixture: the first S round builds the hit maps of the
/// genre-anchored plans it probes.
constexpr char kGenreJoinTrace[] =
    "execute: ppa tuples=2\n"
    "  S query 1/4 pref=1 est_selectivity=0.5 rows=2 fresh=2\n"
    "    source 'movie': full scan, ~4 rows, 0 filter(s) access=scan est_rows=4 filters=0\n"
    "    source 'genre': index lookup on genre = comedy, ~2 rows, 2 filter(s) access=index est_rows=2 filters=2 backed=scan\n"
    "    start from 'genre' (2 rows after filters) rows=2\n"
    "    join 'movie' via persistent index [movie.mid = genre.mid] -> 2 rows method=persistent_index rows=2\n"
    "    hit map pref 3 rows=1\n"
    "      source 'movie': full scan, ~4 rows, 0 filter(s) access=scan est_rows=4 filters=0\n"
    "      source 'genre': index lookup on genre = comedy, ~2 rows, 2 filter(s) access=index est_rows=2 filters=2 backed=scan\n"
    "      start from 'genre' (1 rows after filters) rows=1\n"
    "      join 'movie' via persistent index [movie.mid = genre.mid] -> 1 rows method=persistent_index rows=1\n"
    "    hit map pref 0 rows=2\n"
    "      source 'movie': full scan, ~4 rows, 0 filter(s) access=scan est_rows=4 filters=0\n"
    "      source 'genre': index lookup on genre = comedy, ~2 rows, 2 filter(s) access=index est_rows=2 filters=2 backed=scan\n"
    "      start from 'genre' (2 rows after filters) rows=2\n"
    "      join 'movie' via persistent index [movie.mid = genre.mid] -> 2 rows method=persistent_index rows=2\n"
    "  S query 2/4 pref=2 est_selectivity=0.583333 rows=1 fresh=0\n"
    "    source 'movie': range scan on year in (-inf, 1990], ~3 rows, 1 filter(s) access=range est_rows=3 filters=1 backed=scan\n"
    "    source 'genre': index lookup on genre = comedy, ~2 rows, 1 filter(s) access=index est_rows=2 filters=1 backed=scan\n"
    "    start from 'genre' (2 rows after filters) rows=2\n"
    "    join 'movie' via persistent index [movie.mid = genre.mid] -> 1 rows method=persistent_index rows=1\n"
    "  S query 3/4 pref=3 est_selectivity=0.666667 rows=1 fresh=0\n"
    "    source 'movie': full scan, ~4 rows, 0 filter(s) access=scan est_rows=4 filters=0\n"
    "    source 'genre': index lookup on genre = comedy, ~2 rows, 2 filter(s) access=index est_rows=2 filters=2 backed=scan\n"
    "    start from 'genre' (1 rows after filters) rows=1\n"
    "    join 'movie' via persistent index [movie.mid = genre.mid] -> 1 rows method=persistent_index rows=1\n"
    "  S query 4/4 pref=0 est_selectivity=1 rows=2 fresh=0\n"
    "    source 'movie': full scan, ~4 rows, 0 filter(s) access=scan est_rows=4 filters=0\n"
    "    source 'genre': index lookup on genre = comedy, ~2 rows, 2 filter(s) access=index est_rows=2 filters=2 backed=scan\n"
    "    start from 'genre' (2 rows after filters) rows=2\n"
    "    join 'movie' via persistent index [movie.mid = genre.mid] -> 2 rows method=persistent_index rows=2\n"
    "  first_response\n";

TEST_F(PpaSemanticsTest, TraceTreeIsPinnedAtEveryThreadCount) {
  PersonalizeOptions options;
  options.k = 3;
  options.l = 1;
  ExpectPpaTrace(db_, profile_, "select mid, title from movie", options,
                 kFourMovieTrace);

  UserProfile profile;
  AddGenreJoinPreferences(&profile);
  options.k = 10;
  ExpectPpaTrace(db_, profile, kGenreJoinQuery, options, kGenreJoinTrace);
}

}  // namespace
}  // namespace qp::core
