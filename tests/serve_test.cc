// qp::serve property tests: across database/profile seeds and both answer
// algorithms, a warm Session answer must equal (SameAnswerPayload — all but
// wall-clock timing) a cold core::Personalizer run over the same inputs;
// every profile mutation (add/remove preference, doi change, ranking
// philosophy swap) and every data mutation (table append) must bump the
// relevant epoch so the next call equals a FRESH cold run, never a stale
// cached one. The concurrency test drives >= 4 sessions over one shared
// ServingContext/ThreadPool; the whole file runs under the `sanitizer`
// CTest label for QP_SANITIZE=thread builds.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/moviegen.h"
#include "datagen/profilegen.h"
#include "qp.h"
#include "test_support.h"

namespace qp::serve {
namespace {

using core::AnswerAlgorithm;
using core::CombinationStyle;
using core::DoiPair;
using core::PersonalizeOptions;
using core::PersonalizedAnswer;
using core::Personalizer;
using core::RankingFunction;
using core::SameAnswerPayload;
using core::UserProfile;
using sql::BinaryOp;
using storage::Value;
using test::SmallConfig;

/// A cold run: fresh Personalizer, full pipeline, no caches anywhere.
Result<PersonalizedAnswer> ColdAnswer(const storage::Database& db,
                                      const UserProfile& profile,
                                      const std::string& sql,
                                      const PersonalizeOptions& options) {
  QP_ASSIGN_OR_RETURN(Personalizer personalizer,
                      Personalizer::Make(&db, &profile));
  return personalizer.Personalize(sql, options);
}

TEST(ServeTest, WarmMatchesColdAcrossSeedsAndAlgorithms) {
  const std::string sql = "select mid, title from movie";
  for (uint64_t seed : {3u, 21u, 77u}) {
    const auto config = SmallConfig(seed);
    auto db = datagen::GenerateMovieDatabase(config.db_config);
    ASSERT_TRUE(db.ok());
    auto profile = datagen::GenerateProfile(config);
    ASSERT_TRUE(profile.ok()) << profile.status();
    for (AnswerAlgorithm algorithm :
         {AnswerAlgorithm::kPpa, AnswerAlgorithm::kSpa}) {
      PersonalizeOptions options;
      options.k = 6;
      options.l = 1;
      options.algorithm = algorithm;
      auto cold = ColdAnswer(*db, *profile, sql, options);
      ASSERT_TRUE(cold.ok()) << cold.status();

      ServingContext ctx(&*db);
      auto session = ctx.OpenSession("u" + std::to_string(seed), *profile);
      ASSERT_TRUE(session.ok()) << session.status();
      auto first = (*session)->Personalize(sql, options);
      ASSERT_TRUE(first.ok()) << first.status();
      auto warm = (*session)->Personalize(sql, options);
      ASSERT_TRUE(warm.ok()) << warm.status();
      EXPECT_TRUE(SameAnswerPayload(*cold, *first))
          << "seed=" << seed << " cold vs first serve call";
      EXPECT_TRUE(SameAnswerPayload(*cold, *warm))
          << "seed=" << seed << " cold vs warm serve call";
    }
  }
}

TEST(ServeTest, CountersProveWarmPathSkipsWork) {
  const auto config = SmallConfig(11);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok());

  ServingContext ctx(&*db);
  auto session = ctx.OpenSession("al", *profile);
  ASSERT_TRUE(session.ok());
  PersonalizeOptions options;
  options.k = 5;
  options.l = 1;
  const std::string sql = "select mid, title from movie";
  for (int i = 0; i < 3; ++i) {
    auto answer = (*session)->Personalize(sql, options);
    ASSERT_TRUE(answer.ok()) << answer.status();
  }
  const ServeCounters c = ctx.counters();
  EXPECT_EQ(c.personalize_calls, 3u);
  EXPECT_EQ(c.graph_builds, 1u);
  EXPECT_EQ(c.selection_cache_misses, 1u);
  EXPECT_EQ(c.selection_cache_hits, 2u);
  EXPECT_EQ(c.plan_cache_misses, 1u);
  EXPECT_EQ(c.plan_cache_hits, 2u);
  EXPECT_EQ(c.epoch_invalidations, 0u);

  // A different L is a different selection key: one more miss, no hit lost.
  options.l = 2;
  auto other = (*session)->Personalize(sql, options);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(ctx.counters().selection_cache_misses, 2u);
}

TEST(ServeTest, MetricsTextExposesCountersAndPerUserLatency) {
  const auto config = SmallConfig(13);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok());

  ServingContext ctx(&*db);
  auto al = ctx.OpenSession("al", *profile);
  ASSERT_TRUE(al.ok());
  auto bea = ctx.OpenSession("bea", *profile);
  ASSERT_TRUE(bea.ok());
  PersonalizeOptions options;
  options.k = 5;
  options.l = 1;
  const std::string sql = "select mid, title from movie";
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE((*al)->Personalize(sql, options).ok());
  }
  ASSERT_TRUE((*bea)->Personalize(sql, options).ok());

  // counters() is a view over the registry: the exposition must agree.
  const std::string text = ctx.MetricsText();
  EXPECT_NE(text.find("# TYPE qp_serve_personalize_calls_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("qp_serve_personalize_calls_total 3\n"),
            std::string::npos)
      << text;
  // Per-user latency series, one histogram per session.
  EXPECT_NE(
      text.find("qp_serve_personalize_seconds_count{user=\"al\"} 2\n"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("qp_serve_personalize_seconds_count{user=\"bea\"} 1\n"),
      std::string::npos)
      << text;
  // Executors report into the same registry.
  EXPECT_NE(text.find("qp_exec_queries_total"), std::string::npos) << text;
  // A serial context's calls still burn thread-seconds: the inline morsels
  // are timed like pooled ones.
  const std::string sum_prefix = "\nqp_query_thread_seconds_sum ";
  const size_t sum_at = text.find(sum_prefix);
  ASSERT_NE(sum_at, std::string::npos) << text;
  EXPECT_GT(std::stod(text.substr(sum_at + sum_prefix.size())), 0.0) << text;
  // The JSON snapshot carries the same counter.
  EXPECT_NE(ctx.MetricsJson().find("\"qp_serve_personalize_calls_total\":3"),
            std::string::npos);

  // Attaching a trace to a serve call records the pipeline stages without
  // changing the answer.
  obs::TraceSpan root("personalize");
  options.trace = &root;
  auto traced = (*al)->Personalize(sql, options);
  ASSERT_TRUE(traced.ok());
  options.trace = nullptr;
  auto untraced = (*al)->Personalize(sql, options);
  ASSERT_TRUE(untraced.ok());
  EXPECT_TRUE(core::SameAnswerPayload(*traced, *untraced));
  const std::string trace_text = root.ToString(false);
  EXPECT_NE(trace_text.find("session state"), std::string::npos) << trace_text;
  EXPECT_NE(trace_text.find("selection"), std::string::npos) << trace_text;
  EXPECT_NE(trace_text.find("plan"), std::string::npos) << trace_text;
  EXPECT_NE(trace_text.find("execute: ppa"), std::string::npos) << trace_text;
  EXPECT_NE(trace_text.find("first_response"), std::string::npos)
      << trace_text;

  // One series per fact, with the query log on and off: the executor's
  // qp_exec_* counters carry the answers' work counters and
  // qp_query_rows_returned_total their tuples; no qp_query_* family repeats
  // a qp_exec_* fact.
  for (const bool log_enabled : {true, false}) {
    SCOPED_TRACE(log_enabled ? "query log on" : "query log off");
    ServingContext::Options ctx_options;
    ctx_options.query_log_enabled = log_enabled;
    ServingContext stream_ctx(&*db, ctx_options);
    auto session = stream_ctx.OpenSession("al", *profile);
    ASSERT_TRUE(session.ok());
    core::AnswerStats sum;
    for (const char* stream_sql :
         {"select mid, title from movie",
          "select movie.mid, movie.title from movie, genre "
          "where movie.mid = genre.mid and genre.genre = 'comedy'"}) {
      for (const AnswerAlgorithm algorithm :
           {AnswerAlgorithm::kPpa, AnswerAlgorithm::kSpa}) {
        PersonalizeOptions stream_options;
        stream_options.k = 5;
        stream_options.l = 1;
        stream_options.algorithm = algorithm;
        for (int call = 0; call < 2; ++call) {
          auto answer = (*session)->Personalize(stream_sql, stream_options);
          ASSERT_TRUE(answer.ok()) << answer.status();
          sum.queries_executed += answer->stats.queries_executed;
          sum.rows_scanned += answer->stats.rows_scanned;
          sum.rows_joined += answer->stats.rows_joined;
          sum.rows_materialized += answer->stats.rows_materialized;
          sum.tuples_returned += answer->tuples.size();
        }
      }
    }
    ASSERT_GT(sum.tuples_returned, 0u);
    const std::string stream_text = stream_ctx.MetricsText();
    const std::pair<std::string, size_t> facts[] = {
        {"qp_exec_queries_total", sum.queries_executed},
        {"qp_exec_rows_scanned_total", sum.rows_scanned},
        {"qp_exec_rows_joined_total", sum.rows_joined},
        {"qp_exec_rows_output_total", sum.rows_materialized},
        {"qp_query_rows_returned_total", sum.tuples_returned},
    };
    for (const auto& [series, value] : facts) {
      EXPECT_NE(stream_text.find("\n" + series + " " + std::to_string(value) +
                                 "\n"),
                std::string::npos)
          << series << " != " << value << "\n"
          << stream_text;
    }
    for (const char* deleted :
         {"qp_query_rows_scanned_total", "qp_query_rows_joined_total",
          "qp_query_rows_materialized_total", "qp_query_subqueries_total"}) {
      EXPECT_EQ(stream_text.find(deleted), std::string::npos) << deleted;
    }
  }
}

TEST(ServeTest, TracezKeepsTheLastSampledTreesOldestFirst) {
  const auto config = SmallConfig(17);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok());
  PersonalizeOptions options;
  options.k = 3;
  options.l = 1;
  ServingContext::Options ctx_options;
  ctx_options.trace_sample_every = 1;
  ServingContext ctx(&*db, ctx_options);
  EXPECT_EQ(ctx.TracezJson(), "[]");
  // Two more calls than the ring holds: u0 and u1 fall out.
  const size_t calls = ServingContext::kTracezCapacity + 2;
  for (size_t u = 0; u < calls; ++u) {
    auto session = ctx.OpenSession("u" + std::to_string(u), *profile);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(
        (*session)->Personalize("select mid, title from movie", options).ok());
  }
  const std::string json = ctx.TracezJson();
  for (size_t u = 0; u < 2; ++u) {
    EXPECT_EQ(json.find("user=u" + std::to_string(u) + "\""),
              std::string::npos)
        << json;
  }
  size_t previous = 0;
  for (size_t u = 2; u < calls; ++u) {
    const size_t at = json.find("user=u" + std::to_string(u) + "\"");
    ASSERT_NE(at, std::string::npos) << "u" << u << ": " << json;
    EXPECT_LT(previous, at) << "u" << u;  // oldest first
    previous = at;
  }
  size_t trees = 0;
  for (size_t at = json.find("\"traceEvents\""); at != std::string::npos;
       at = json.find("\"traceEvents\"", at + 1)) {
    ++trees;
  }
  EXPECT_EQ(trees, ServingContext::kTracezCapacity) << json;
}

TEST(ServeTest, ProfileMutationsInvalidateAndMatchFreshCold) {
  const auto config = SmallConfig(29);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok());

  ServingContext ctx(&*db);
  auto session = ctx.OpenSession("al", *profile);
  ASSERT_TRUE(session.ok());
  PersonalizeOptions options;
  options.k = 0;  // all related preferences, so mutations show up
  options.l = 1;
  const std::string sql = "select mid, title, year from movie";

  // Warm the caches.
  ASSERT_TRUE((*session)->Personalize(sql, options).ok());
  ASSERT_TRUE((*session)->Personalize(sql, options).ok());
  const ServeCounters before = ctx.counters();

  // (1) Add a preference: next answer must equal a fresh cold run over the
  // mutated profile (which the session exposes as profile()).
  ASSERT_TRUE((*session)
                  ->Mutate([](UserProfile& live) {
                    return live.AddSelection("movie.year", BinaryOp::kGe,
                                             Value(int64_t{1995}),
                                             *DoiPair::Exact(0.85, 0));
                  })
                  .ok());
  auto after_add = (*session)->Personalize(sql, options);
  ASSERT_TRUE(after_add.ok()) << after_add.status();
  auto cold_add = ColdAnswer(*db, (*session)->profile(), sql, options);
  ASSERT_TRUE(cold_add.ok());
  EXPECT_TRUE(SameAnswerPayload(*cold_add, *after_add));
  const ServeCounters after_add_c = ctx.counters();
  // The journal covers the single add, so the session REPAIRS the graph
  // instead of rebuilding it wholesale.
  EXPECT_EQ(after_add_c.graph_builds, before.graph_builds);
  EXPECT_EQ(after_add_c.graph_repairs, before.graph_repairs + 1);
  EXPECT_EQ(after_add_c.epoch_invalidations, before.epoch_invalidations + 1);
  EXPECT_EQ(after_add_c.selection_cache_misses,
            before.selection_cache_misses + 1);

  // (2) Change that preference's doi (remove + re-add): same guarantee.
  ASSERT_TRUE((*session)
                  ->Mutate([](UserProfile& live) {
                    QP_RETURN_IF_ERROR(live.RemoveSelection(
                        live.selections().back().condition));
                    return live.AddSelection("movie.year", BinaryOp::kGe,
                                             Value(int64_t{1995}),
                                             *DoiPair::Exact(0.25, 0));
                  })
                  .ok());
  auto after_doi = (*session)->Personalize(sql, options);
  ASSERT_TRUE(after_doi.ok()) << after_doi.status();
  auto cold_doi = ColdAnswer(*db, (*session)->profile(), sql, options);
  ASSERT_TRUE(cold_doi.ok());
  EXPECT_TRUE(SameAnswerPayload(*cold_doi, *after_doi));
  EXPECT_FALSE(SameAnswerPayload(*after_add, *after_doi))
      << "doi change should alter the answer's degrees";

  // (3) Swap the ranking philosophy stored in the profile: with
  // use_profile_ranking the resolved ranking changes, and the epoch bump
  // forces the swap to be observed.
  options.use_profile_ranking = true;
  ASSERT_TRUE((*session)
                  ->Mutate([](UserProfile& live) {
                    live.set_preferred_ranking(
                        RankingFunction::Make(CombinationStyle::kDominant));
                    return Status::OK();
                  })
                  .ok());
  auto after_rank = (*session)->Personalize(sql, options);
  ASSERT_TRUE(after_rank.ok()) << after_rank.status();
  auto cold_rank = ColdAnswer(*db, (*session)->profile(), sql, options);
  ASSERT_TRUE(cold_rank.ok());
  EXPECT_TRUE(SameAnswerPayload(*cold_rank, *after_rank));
}

TEST(ServeTest, DataMutationDropsPlansButKeepsSelections) {
  const auto config = SmallConfig(47);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok());

  ServingContext ctx(&*db);
  auto session = ctx.OpenSession("al", *profile);
  ASSERT_TRUE(session.ok());
  PersonalizeOptions options;
  options.k = 6;
  options.l = 1;
  const std::string sql = "select mid, title from movie";
  ASSERT_TRUE((*session)->Personalize(sql, options).ok());
  ASSERT_TRUE((*session)->Personalize(sql, options).ok());
  const ServeCounters before = ctx.counters();

  // Append a movie: the stats epoch moves, cached plans (selectivity
  // ordering + index walks) are stale, but the selected preferences are
  // profile-derived and survive.
  auto movie = db->GetTable("movie");
  ASSERT_TRUE(movie.ok());
  ASSERT_TRUE((*movie)
                  ->Append({Value(int64_t{1000001}), Value("fresh row"),
                            Value(int64_t{2004}), Value(int64_t{101})})
                  .ok());

  auto after = (*session)->Personalize(sql, options);
  ASSERT_TRUE(after.ok()) << after.status();
  auto cold = ColdAnswer(*db, (*session)->profile(), sql, options);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(SameAnswerPayload(*cold, *after));

  const ServeCounters c = ctx.counters();
  EXPECT_EQ(c.graph_builds, before.graph_builds) << "graph survives data churn";
  EXPECT_EQ(c.epoch_invalidations, before.epoch_invalidations + 1);
  EXPECT_EQ(c.selection_cache_hits, before.selection_cache_hits + 1)
      << "selection stays cached across a data-only epoch bump";
  EXPECT_EQ(c.plan_cache_misses, before.plan_cache_misses + 1)
      << "plans must be rebuilt against the new data";
}

/// The value of the unlabeled series `name` in `ctx`'s text exposition.
double SeriesValue(ServingContext& ctx, const std::string& name) {
  const std::string text = ctx.MetricsText();
  const size_t at = text.find("\n" + name + " ");
  if (at == std::string::npos) return -1.0;
  return std::stod(text.substr(at + name.size() + 2));
}

TEST(ServeTest, IndexCounterSeriesOutliveAnotherContextOverTheDatabase) {
  const auto config = SmallConfig(53);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto first = std::make_unique<ServingContext>(&*db);
  ServingContext survivor(&*db);
  const double builds = SeriesValue(survivor, "qp_index_builds_total");
  const double hits = SeriesValue(survivor, "qp_index_staleness_hits_total");
  first.reset();

  // A new movie leaves the movie.mid snapshot stale; the point query
  // rebuilds it once.
  auto movie = db->GetTable("movie");
  ASSERT_TRUE(movie.ok());
  ASSERT_TRUE((*movie)
                  ->Append({Value(int64_t{1000001}), Value("fresh row"),
                            Value(int64_t{2004}), Value(int64_t{101})})
                  .ok());
  auto query = sql::ParseQuery("select title from movie where mid = 1");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(exec::Executor(&*db).Execute(**query).ok());

  EXPECT_EQ(SeriesValue(survivor, "qp_index_builds_total"), builds + 1);
  EXPECT_EQ(SeriesValue(survivor, "qp_index_staleness_hits_total"), hits + 1);
}

TEST(ServeTest, ConcurrentSessionsShareOneContextAndPool) {
  const auto base = SmallConfig(61);
  auto db = datagen::GenerateMovieDatabase(base.db_config);
  ASSERT_TRUE(db.ok());

  constexpr size_t kUsers = 4;
  constexpr int kRounds = 5;
  const std::string queries[] = {"select mid, title from movie",
                                 "select mid, title, year from movie"};
  PersonalizeOptions options;
  options.k = 5;
  options.l = 1;

  // Per-user profile and the expected (cold, serial) answers.
  std::vector<UserProfile> profiles;
  std::vector<std::vector<PersonalizedAnswer>> expected(kUsers);
  for (size_t u = 0; u < kUsers; ++u) {
    auto config = SmallConfig(100 + 7 * u);
    auto profile = datagen::GenerateProfile(config);
    ASSERT_TRUE(profile.ok());
    profiles.push_back(std::move(*profile));
    for (const auto& sql : queries) {
      auto cold = ColdAnswer(*db, profiles.back(), sql, options);
      ASSERT_TRUE(cold.ok()) << "user " << u << ": " << cold.status();
      expected[u].push_back(std::move(*cold));
    }
  }

  ServingContext::Options ctx_options;
  ctx_options.num_threads = 4;  // one shared pool under all sessions
  ServingContext ctx(&*db, ctx_options);
  std::vector<Session*> sessions;
  for (size_t u = 0; u < kUsers; ++u) {
    auto session = ctx.OpenSession("user" + std::to_string(u), profiles[u]);
    ASSERT_TRUE(session.ok());
    sessions.push_back(*session);
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t u = 0; u < kUsers; ++u) {
    threads.emplace_back([&, u]() {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < 2; ++q) {
          auto answer = sessions[u]->Personalize(queries[q], options);
          if (!answer.ok()) {
            failures.fetch_add(1);
          } else if (!SameAnswerPayload(*answer, expected[u][q])) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  const ServeCounters c = ctx.counters();
  EXPECT_EQ(c.personalize_calls, kUsers * kRounds * 2);
  EXPECT_EQ(c.graph_builds, kUsers);
  // Each (user, query) pair misses at most once; everything else hits.
  EXPECT_EQ(c.selection_cache_misses + c.selection_cache_hits,
            kUsers * kRounds * 2);
  EXPECT_LE(c.selection_cache_misses, kUsers * 2);
  EXPECT_LE(c.plan_cache_misses, kUsers * 2);
}

TEST(ServeTest, StatusCodesClassifyFailures) {
  const auto config = SmallConfig(5);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok());

  ServingContext ctx(&*db);

  // Profile that doesn't validate against the schema -> kProfileValidation.
  UserProfile bad;
  ASSERT_TRUE(bad.AddSelection("movie.no_such_column", BinaryOp::kEq,
                               Value(int64_t{1}), *DoiPair::Exact(0.5, 0))
                  .ok());
  auto rejected = ctx.OpenSession("bad", bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kProfileValidation);

  auto session = ctx.OpenSession("al", *profile);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(ctx.OpenSession("al", *profile).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(ctx.FindSession("al"), *session);
  EXPECT_EQ(ctx.FindSession("nobody"), nullptr);

  PersonalizeOptions options;
  options.k = 4;
  options.l = 1;
  // Not a single SELECT -> kInvalidQuery (caller bug).
  auto union_q = (*session)->Personalize(
      "select mid from movie union all select mid from movie", options);
  ASSERT_FALSE(union_q.ok());
  EXPECT_EQ(union_q.status().code(), StatusCode::kInvalidQuery);

  // L larger than any selectable preference count -> kInvalidQuery.
  options.l = 50;
  auto too_deep =
      (*session)->Personalize("select mid, title from movie", options);
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), StatusCode::kInvalidQuery);

  // PPA on an anchor without a single-column primary key -> kUnsupported.
  UserProfile genre_profile;
  ASSERT_TRUE(genre_profile
                  .AddSelection("genre.genre", BinaryOp::kEq, Value("comedy"),
                                *DoiPair::Exact(0.9, 0))
                  .ok());
  auto genre_session = ctx.OpenSession("genre-fan", genre_profile);
  ASSERT_TRUE(genre_session.ok());
  options.l = 1;
  options.algorithm = AnswerAlgorithm::kPpa;
  auto no_pk = (*genre_session)->Personalize("select genre from genre",
                                             options);
  ASSERT_FALSE(no_pk.ok());
  EXPECT_EQ(no_pk.status().code(), StatusCode::kUnsupported);

  EXPECT_TRUE(ctx.CloseSession("al").ok());
  EXPECT_EQ(ctx.CloseSession("al").code(), StatusCode::kNotFound);
  EXPECT_EQ(ctx.FindSession("al"), nullptr);
}

TEST(ServeTest, ConcurrentChurnServersRaceMutators) {
  // Sanitizer-facing churn stress (seed 29): per session, one server thread
  // issues queries while one mutator thread churns the profile through
  // Session::Mutate. Every call must succeed (a repair racing a mutation is
  // allowed to serve either epoch, never to fail or crash), and once the
  // mutators quiesce, the warm answer must equal a cold rebuild over the
  // final profile.
  const auto base = SmallConfig(29);
  auto db = datagen::GenerateMovieDatabase(base.db_config);
  ASSERT_TRUE(db.ok());

  constexpr size_t kUsers = 4;
  constexpr int kServerRounds = 40;
  constexpr int kMutations = 24;
  PersonalizeOptions options;
  options.k = 5;
  options.l = 1;
  const std::string sql = "select mid, title from movie";

  ServingContext::Options ctx_options;
  ctx_options.num_threads = 2;
  ServingContext ctx(&*db, ctx_options);
  std::vector<std::shared_ptr<Session>> sessions;
  for (size_t u = 0; u < kUsers; ++u) {
    auto config = SmallConfig(300 + 11 * u);
    auto profile = datagen::GenerateProfile(config);
    ASSERT_TRUE(profile.ok());
    const std::string user = "churn" + std::to_string(u);
    ASSERT_TRUE(ctx.OpenSession(user, *profile).ok());
    sessions.push_back(ctx.AcquireSession(user));
    ASSERT_NE(sessions.back(), nullptr);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t u = 0; u < kUsers; ++u) {
    threads.emplace_back([&, u]() {
      for (int r = 0; r < kServerRounds; ++r) {
        auto answer = sessions[u]->Personalize(sql, options);
        if (!answer.ok()) failures.fetch_add(1);
      }
    });
    threads.emplace_back([&, u]() {
      for (int m = 0; m < kMutations; ++m) {
        // Toggle a per-user year preference: add it, then remove it again
        // next round — every iteration is a journaled epoch bump.
        const int64_t year = 1950 + static_cast<int64_t>(u);
        const Status status = sessions[u]->Mutate([&](UserProfile& live) {
          const Status added =
              live.AddSelection("movie.year", BinaryOp::kEq, Value(year),
                                *DoiPair::Exact(0.4, 0));
          if (added.code() != StatusCode::kAlreadyExists) return added;
          const core::SelectionCondition cond{
              *storage::AttributeRef::Parse("movie.year"), BinaryOp::kEq,
              Value(year)};
          return live.RemoveSelection(cond);
        });
        if (!status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  for (size_t u = 0; u < kUsers; ++u) {
    auto warm = sessions[u]->Personalize(sql, options);
    ASSERT_TRUE(warm.ok()) << warm.status();
    auto cold = ColdAnswer(*db, sessions[u]->profile(), sql, options);
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_TRUE(SameAnswerPayload(*warm, *cold)) << "user " << u;
  }
}

TEST(ServeTest, SessionCapEvictsLeastRecentlyUsed) {
  const auto config = SmallConfig(31);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok());

  ServingContext::Options ctx_options;
  ctx_options.max_sessions = 3;
  ServingContext ctx(&*db, ctx_options);
  for (int u = 0; u < 3; ++u) {
    ASSERT_TRUE(ctx.OpenSession("u" + std::to_string(u), *profile).ok());
  }
  EXPECT_EQ(ctx.NumSessions(), 3u);
  EXPECT_EQ(ctx.counters().sessions_evicted, 0u);

  // Touch u0 so u1 becomes least-recently used, then overflow the cap.
  ASSERT_NE(ctx.FindSession("u0"), nullptr);
  ASSERT_TRUE(ctx.OpenSession("u3", *profile).ok());
  EXPECT_EQ(ctx.NumSessions(), 3u);
  EXPECT_EQ(ctx.counters().sessions_evicted, 1u);
  EXPECT_EQ(ctx.FindSession("u1"), nullptr);
  EXPECT_NE(ctx.FindSession("u0"), nullptr);

  // A churning user population stays pinned at the cap.
  for (int u = 0; u < 20; ++u) {
    ASSERT_TRUE(ctx.OpenSession("x" + std::to_string(u), *profile).ok());
    EXPECT_LE(ctx.NumSessions(), 3u);
  }
  EXPECT_EQ(ctx.counters().sessions_evicted, 21u);

  // A shared handle keeps an evicted session usable: requests in flight
  // when the LRU closes a session must not race its destruction.
  std::shared_ptr<Session> held = ctx.AcquireSession("x19");
  ASSERT_NE(held, nullptr);
  for (int u = 0; u < 4; ++u) {
    ASSERT_TRUE(ctx.OpenSession("y" + std::to_string(u), *profile).ok());
  }
  EXPECT_EQ(ctx.FindSession("x19"), nullptr);  // evicted from the map...
  PersonalizeOptions options;
  options.k = 4;
  options.l = 1;
  auto answer = held->Personalize("select mid, title from movie", options);
  EXPECT_TRUE(answer.ok()) << answer.status();  // ...but still serving
}

}  // namespace
}  // namespace qp::serve
