// qp::serve::Scheduler tests.
//
// Determinism: the deadline-cut tests never race a wall clock against the
// generator — they replay the cut through CancelToken::ForceCutAtRound at
// EVERY round boundary of a real PPA plan and assert the partial answer is
// byte-identical across 1/2/8 execution threads and equals a prefix of the
// full answer (the partial-answer contract of core/ppa.h).
//
// Scheduling behavior (shedding, lane fairness, single execution,
// queue-expired deadlines) is driven through Request::intercept, which replaces
// execution with scripted outcomes: a latch-blocking intercept wedges the
// single worker so the queue fills deterministically. The whole file runs
// under the `sanitizer` CTest label for QP_SANITIZE builds.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <optional>
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
using core::PersonalizeOptions;
using core::PersonalizedAnswer;
using core::Personalizer;
using core::SameAnswerPayload;
using core::UserProfile;
using test::Latch;
using test::SmallConfig;

/// The study's genre-join query. PPA anchors tuples at movie, its first
/// FROM relation.
constexpr char kGenreJoinSql[] =
    "select movie.mid, movie.title from movie, genre "
    "where movie.mid = genre.mid and genre.genre = 'comedy'";

/// `profile` plus a strongly disliked genre. On the genre-join query that
/// preference anchors at genre, off PPA's first FROM relation, so its
/// rounds build hit maps serially before the probe fan-out.
Result<UserProfile> WithGenreDislike(UserProfile profile) {
  QP_RETURN_IF_ERROR(profile.AddSelection("genre.genre", sql::BinaryOp::kEq,
                                          storage::Value("horror"),
                                          *core::DoiPair::Exact(-0.9, 0.6)));
  return profile;
}

bool SelectsGenreAnchored(const PersonalizedAnswer& answer) {
  for (const auto& p : answer.preferences) {
    if (p.pref.AnchorRelation() == "genre") return true;
  }
  return false;
}

Result<PersonalizedAnswer> ColdAnswer(const storage::Database& db,
                                      const UserProfile& profile,
                                      const std::string& sql,
                                      const PersonalizeOptions& options) {
  QP_ASSIGN_OR_RETURN(Personalizer personalizer,
                      Personalizer::Make(&db, &profile));
  return personalizer.Personalize(sql, options);
}

/// `partial`'s tuples are exactly the first tuples of `full`.
bool IsPrefixOf(const PersonalizedAnswer& partial,
                const PersonalizedAnswer& full) {
  if (partial.tuples.size() > full.tuples.size()) return false;
  for (size_t i = 0; i < partial.tuples.size(); ++i) {
    if (!(partial.tuples[i] == full.tuples[i])) return false;
  }
  return true;
}

/// Scheduler over a throwaway context; the intercept-driven tests never
/// touch sessions, so the db only satisfies the constructor.
struct Rig {
  explicit Rig(Scheduler::Options options) {
    datagen::MovieGenConfig db_config;
    db_config.num_movies = 10;
    db_config.num_directors = 3;
    db_config.num_actors = 6;
    db_config.num_theatres = 2;
    db_config.plays_per_theatre = 2;
    auto built = datagen::GenerateMovieDatabase(db_config);
    EXPECT_TRUE(built.ok()) << built.status();
    db = std::make_unique<storage::Database>(std::move(built).value());
    ctx = std::make_unique<ServingContext>(db.get());
    scheduler = std::make_unique<Scheduler>(ctx.get(), options);
  }
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<ServingContext> ctx;
  std::unique_ptr<Scheduler> scheduler;
};

Request InterceptRequest(const std::string& user, Lane lane,
                         std::function<std::optional<Status>()> fn) {
  Request request;
  request.user_id = user;
  request.sql = "select mid from movie";
  request.lane = lane;
  request.intercept = std::move(fn);
  return request;
}

// ---------------------------------------------------------------------------
// Deadline cuts: partial answers are deterministic prefixes.
// ---------------------------------------------------------------------------

/// Forces a cut at every round boundary of `sql`'s PPA plan at 1/2/8
/// threads: each answer is a prefix of the full one and identical across
/// thread counts.
void ExpectForcedCutsArePrefixes(const storage::Database& db,
                                 const UserProfile& profile,
                                 const std::string& sql,
                                 const PersonalizeOptions& base) {
  SCOPED_TRACE(sql);
  auto full = ColdAnswer(db, profile, sql, base);
  ASSERT_TRUE(full.ok()) << full.status();
  const size_t total_rounds = full->stats.rounds_run;
  ASSERT_GE(total_rounds, 2u) << "plan too small to exercise cuts";
  EXPECT_FALSE(full->stats.partial);

  for (size_t round = 0; round <= total_rounds; ++round) {
    std::optional<PersonalizedAnswer> reference;
    for (size_t threads : {1u, 2u, 8u}) {
      common::CancelToken token;
      token.ForceCutAtRound(round);
      PersonalizeOptions options = base;
      options.exec.num_threads = threads;
      options.cancel = &token;
      auto answer = ColdAnswer(db, profile, sql, options);
      ASSERT_TRUE(answer.ok())
          << "round=" << round << " threads=" << threads << ": "
          << answer.status();
      EXPECT_TRUE(IsPrefixOf(*answer, *full))
          << "round=" << round << " threads=" << threads;
      if (round < total_rounds) {
        EXPECT_TRUE(answer->stats.partial) << "round=" << round;
        EXPECT_EQ(answer->stats.rounds_run, round);
        EXPECT_LE(answer->tuples.size(), full->tuples.size());
      } else {
        // Cutting at/after the final boundary never fires: full answer.
        EXPECT_FALSE(answer->stats.partial);
        EXPECT_TRUE(SameAnswerPayload(*answer, *full));
      }
      if (!reference.has_value()) {
        reference = std::move(*answer);
      } else {
        EXPECT_TRUE(SameAnswerPayload(*reference, *answer))
            << "round=" << round << ": threads=" << threads
            << " diverged from threads=1";
      }
    }
  }
}

TEST(SchedulerDeadlineTest, ForcedCutIsAPrefixAtEveryRoundAndThreadCount) {
  const auto config = SmallConfig(5);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok()) << profile.status();

  PersonalizeOptions base;
  base.k = 6;
  base.l = 1;
  base.algorithm = AnswerAlgorithm::kPpa;
  ExpectForcedCutsArePrefixes(*db, *profile, "select mid, title from movie",
                              base);

  auto join_profile = WithGenreDislike(*profile);
  ASSERT_TRUE(join_profile.ok()) << join_profile.status();
  auto join = ColdAnswer(*db, *join_profile, kGenreJoinSql, base);
  ASSERT_TRUE(join.ok()) << join.status();
  ASSERT_TRUE(SelectsGenreAnchored(*join));
  ExpectForcedCutsArePrefixes(*db, *join_profile, kGenreJoinSql, base);
}

TEST(SchedulerDeadlineTest, CancelInsideARoundEqualsACutBeforeIt) {
  // A cancel landing anywhere inside round r (its S/A query, a hit-map
  // build or a probe batch) must discard the round: the answer is exactly
  // the one a cut before round r gives. A base-query predicate that
  // requests cancellation on its n-th evaluation sweeps n over every row
  // any query of the call filters, hit-map builds included.
  const auto config = SmallConfig(5);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto generated = datagen::GenerateProfile(config);
  ASSERT_TRUE(generated.ok()) << generated.status();
  auto profile = WithGenreDislike(*generated);
  ASSERT_TRUE(profile.ok()) << profile.status();
  auto personalizer = Personalizer::Make(&*db, &*profile);
  ASSERT_TRUE(personalizer.ok());
  auto parsed = sql::ParseQuery(kGenreJoinSql);
  ASSERT_TRUE(parsed.ok());

  std::atomic<size_t> evaluations{0};
  std::atomic<size_t> trip_at{0};  // 0 = never
  common::CancelToken* token = nullptr;
  sql::SelectQuery query = (*parsed)->single();
  query.where = sql::Expr::And(
      query.where,
      sql::Expr::Compare(
          sql::BinaryOp::kEq,
          sql::Expr::ScalarFn(
              "trip",
              [&](const storage::Value&) {
                if (evaluations.fetch_add(1) + 1 == trip_at.load()) {
                  token->RequestCancel();
                }
                return storage::Value(int64_t{1});
              },
              sql::Expr::Column("movie", "mid")),
          sql::Expr::Literal(storage::Value(int64_t{1}))));

  PersonalizeOptions base;
  base.k = 6;
  base.l = 1;
  base.algorithm = AnswerAlgorithm::kPpa;
  base.exec.morsel_rows = 1;  // an executor checkpoint before every row
  auto full = personalizer->Personalize(query, base);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(SelectsGenreAnchored(*full));
  ASSERT_GT(full->stats.queries_executed, full->stats.rounds_run)
      << "no hit map was built";
  const size_t total = evaluations.load();

  std::vector<PersonalizedAnswer> cut_before;
  for (size_t round = 0; round <= full->stats.rounds_run; ++round) {
    common::CancelToken cut;
    cut.ForceCutAtRound(round);
    PersonalizeOptions options = base;
    options.cancel = &cut;
    auto answer = personalizer->Personalize(query, options);
    ASSERT_TRUE(answer.ok()) << answer.status();
    cut_before.push_back(std::move(answer).value());
  }

  for (size_t threads : {1u, 4u}) {
    for (size_t n = 1; n <= total; ++n) {
      common::CancelToken cancel;
      token = &cancel;
      evaluations = 0;
      trip_at = n;
      PersonalizeOptions options = base;
      options.exec.num_threads = threads;
      options.cancel = &cancel;
      auto answer = personalizer->Personalize(query, options);
      ASSERT_TRUE(answer.ok())
          << "n=" << n << " threads=" << threads << ": " << answer.status();
      const size_t r = answer->stats.rounds_run;
      ASSERT_LT(r, cut_before.size());
      EXPECT_EQ(answer->tuples, cut_before[r].tuples)
          << "n=" << n << " threads=" << threads;
      EXPECT_EQ(answer->stats.partial, cut_before[r].stats.partial)
          << "n=" << n << " threads=" << threads;
    }
  }
  trip_at = 0;
}

TEST(SchedulerDeadlineTest, WallClockDeadlineYieldsPrefixOrError) {
  // Timing-dependent by nature, so assert only the invariant: whatever
  // round the deadline lands on, a successful PPA answer is a prefix of
  // the full one and is flagged partial iff it was cut short.
  const std::string sql = "select mid, title from movie";
  const auto config = SmallConfig(9);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok());

  PersonalizeOptions base;
  base.k = 6;
  base.l = 1;
  base.algorithm = AnswerAlgorithm::kPpa;
  auto full = ColdAnswer(*db, *profile, sql, base);
  ASSERT_TRUE(full.ok());

  common::CancelToken token;
  token.SetDeadlineAfter(-1.0);  // already expired: cuts before round 0
  PersonalizeOptions options = base;
  options.cancel = &token;
  auto answer = ColdAnswer(*db, *profile, sql, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->stats.partial);
  EXPECT_EQ(answer->stats.rounds_run, 0u);
  EXPECT_TRUE(answer->tuples.empty());
  EXPECT_TRUE(IsPrefixOf(*answer, *full));
}

TEST(SchedulerDeadlineTest, SpaUnderExpiredDeadlineFailsInsteadOfPartial) {
  // SPA has no progressive prefix: the cooperative cancel surfaces as an
  // error from the single integrated query.
  const auto config = SmallConfig(5);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok());

  common::CancelToken token;
  token.SetDeadlineAfter(-1.0);
  PersonalizeOptions options;
  options.k = 6;
  options.l = 1;
  options.algorithm = AnswerAlgorithm::kSpa;
  options.cancel = &token;
  auto answer =
      ColdAnswer(*db, *profile, "select mid, title from movie", options);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Scheduler + serving integration.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, ScheduledPartialAnswerMatchesDirectCutAndIsLogged) {
  const std::string sql = "select mid, title from movie";
  const auto config = SmallConfig(5);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok());

  PersonalizeOptions base;
  base.k = 6;
  base.l = 1;
  base.algorithm = AnswerAlgorithm::kPpa;
  auto full = ColdAnswer(*db, *profile, sql, base);
  ASSERT_TRUE(full.ok());
  ASSERT_GE(full->stats.rounds_run, 2u);
  const size_t cut_round = 1;

  std::optional<PersonalizedAnswer> reference;
  for (size_t ctx_threads : {1u, 2u, 8u}) {
    ServingContext::Options ctx_options;
    ctx_options.num_threads = ctx_threads;
    ServingContext ctx(&*db, ctx_options);
    auto session = ctx.OpenSession("carol", *profile);
    ASSERT_TRUE(session.ok()) << session.status();

    Scheduler::Options sched_options;
    sched_options.num_shards = 1;
    Scheduler scheduler(&ctx, sched_options);

    Request request;
    request.user_id = "carol";
    request.sql = sql;
    request.options = base;
    request.options.exec.num_threads = ctx_threads;
    request.lane = Lane::kInteractive;
    request.force_cut_round = cut_round;
    Response response = scheduler.SubmitAndWait(std::move(request));
    ASSERT_TRUE(response.status.ok()) << response.status;
    ASSERT_TRUE(response.answer.has_value());
    EXPECT_TRUE(response.partial);
    EXPECT_EQ(response.answer->stats.rounds_run, cut_round);
    EXPECT_TRUE(IsPrefixOf(*response.answer, *full));
    EXPECT_EQ(response.lane, Lane::kInteractive);
    EXPECT_TRUE(response.executed);
    if (!reference.has_value()) {
      reference = *response.answer;
    } else {
      EXPECT_TRUE(SameAnswerPayload(*reference, *response.answer))
          << "ctx_threads=" << ctx_threads;
    }

    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.deadline_cut, 1u);
    EXPECT_EQ(stats.shed, 0u);

    // The query log carries the admission block and the partial marker.
    ASSERT_NE(ctx.query_log(), nullptr);
    const auto records = ctx.query_log()->Snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(records[0].scheduled);
    EXPECT_EQ(records[0].lane, "interactive");
    EXPECT_EQ(records[0].shard, 0u);
    EXPECT_TRUE(records[0].partial);
    EXPECT_EQ(records[0].rounds_run, cut_round);
  }
}

// ---------------------------------------------------------------------------
// Admission control and backpressure.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, FullShardShedsWithOverloadedAndRecovers) {
  Scheduler::Options options;
  options.num_shards = 1;
  options.shard_queue_capacity = 2;
  Rig rig(options);
  Scheduler& scheduler = *rig.scheduler;

  Latch latch;
  auto blocker = scheduler.Submit(InterceptRequest(
      "blocker", Lane::kNormal, [&] { return latch.Block(); }));
  ASSERT_TRUE(blocker.ok()) << blocker.status();
  latch.AwaitEntered();  // worker is wedged; the queue is now empty

  auto q1 = scheduler.Submit(InterceptRequest(
      "u1", Lane::kNormal, [] { return Status::OK(); }));
  auto q2 = scheduler.Submit(InterceptRequest(
      "u2", Lane::kNormal, [] { return Status::OK(); }));
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());

  auto shed = scheduler.Submit(InterceptRequest(
      "u3", Lane::kNormal, [] { return Status::OK(); }));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kOverloaded);
  // The overload contract: callers may back off and resubmit, the
  // scheduler itself never does.
  EXPECT_NE(shed.status().message().find("back off and resubmit"),
            std::string::npos)
      << shed.status();

  latch.Release();
  EXPECT_TRUE((*blocker)->Wait().status.ok());
  EXPECT_TRUE((*q1)->Wait().status.ok());
  EXPECT_TRUE((*q2)->Wait().status.ok());

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_LE(stats.max_queue_depth, options.shard_queue_capacity);

  // Backpressure released: the same shard admits again.
  Response again = scheduler.SubmitAndWait(InterceptRequest(
      "u3", Lane::kNormal, [] { return Status::OK(); }));
  EXPECT_TRUE(again.status.ok());
}

TEST(SchedulerTest, WeightedRoundRobinStarvesNoLane) {
  Scheduler::Options options;
  options.num_shards = 1;
  options.shard_queue_capacity = 64;
  Rig rig(options);
  Scheduler& scheduler = *rig.scheduler;

  Latch latch;
  auto blocker = scheduler.Submit(InterceptRequest(
      "blocker", Lane::kNormal, [&] { return latch.Block(); }));
  ASSERT_TRUE(blocker.ok());
  latch.AwaitEntered();

  std::mutex order_mu;
  std::vector<Lane> dispatch_order;
  std::vector<std::shared_ptr<RequestHandle>> handles;
  const auto record = [&](Lane lane) {
    return [&, lane]() -> std::optional<Status> {
      std::lock_guard<std::mutex> lock(order_mu);
      dispatch_order.push_back(lane);
      return Status::OK();
    };
  };
  // A full backlog in every lane, submitted batch-first so priority (not
  // submission order) must explain the dispatch order.
  for (int i = 0; i < 8; ++i) {
    for (Lane lane : {Lane::kBatch, Lane::kNormal, Lane::kInteractive}) {
      auto handle = scheduler.Submit(
          InterceptRequest("u" + std::to_string(i), lane, record(lane)));
      ASSERT_TRUE(handle.ok()) << handle.status();
      handles.push_back(*handle);
    }
  }
  latch.Release();
  for (auto& handle : handles) {
    EXPECT_TRUE(handle->Wait().status.ok());
  }

  ASSERT_EQ(dispatch_order.size(), 24u);
  // With weights {4, 2, 1}, any window of 7 dispatches from a backlogged
  // shard serves every lane at least once — check the first window, and
  // that interactive still dominates it.
  size_t interactive = 0, normal = 0, batch = 0;
  for (size_t i = 0; i < 7; ++i) {
    switch (dispatch_order[i]) {
      case Lane::kInteractive: ++interactive; break;
      case Lane::kNormal: ++normal; break;
      case Lane::kBatch: ++batch; break;
    }
  }
  EXPECT_GE(interactive, 1u);
  EXPECT_GE(normal, 1u);
  EXPECT_GE(batch, 1u) << "batch lane starved in the first WRR cycle";
  EXPECT_GE(interactive, normal);
  EXPECT_GE(normal, batch);
}

TEST(SchedulerTest, ExecutionFailureEndsAfterOneExecution) {
  // An execution failure is the request's outcome: under default options
  // the scheduler executes each admitted request once.
  Scheduler::Options options;
  options.num_shards = 1;
  Rig rig(options);

  size_t executions = 0;
  Response response = rig.scheduler->SubmitAndWait(InterceptRequest(
      "flaky", Lane::kNormal, [&]() -> std::optional<Status> {
        ++executions;
        return Status::ExecutionError("transient");
      }));
  EXPECT_EQ(response.status.code(), StatusCode::kExecution);
  EXPECT_TRUE(response.executed);
  EXPECT_EQ(executions, 1u);
  EXPECT_EQ(rig.scheduler->stats().completed, 0u);
  EXPECT_EQ(rig.scheduler->stats().failed, 1u);
}

TEST(SchedulerTest, DeadlineExpiredInQueueNeverExecutes) {
  Scheduler::Options options;
  options.num_shards = 1;
  Rig rig(options);
  Scheduler& scheduler = *rig.scheduler;

  Latch latch;
  auto blocker = scheduler.Submit(InterceptRequest(
      "blocker", Lane::kNormal, [&] { return latch.Block(); }));
  ASSERT_TRUE(blocker.ok());
  latch.AwaitEntered();

  bool executed = false;
  Request doomed = InterceptRequest(
      "doomed", Lane::kInteractive, [&]() -> std::optional<Status> {
        executed = true;
        return Status::OK();
      });
  doomed.deadline_seconds = 0.02;
  auto handle = scheduler.Submit(std::move(doomed));
  ASSERT_TRUE(handle.ok());

  // Let the deadline lapse while the request is still queued behind the
  // wedged worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  latch.Release();
  const Response& response = (*handle)->Wait();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(response.executed);
  EXPECT_FALSE(executed);
  EXPECT_EQ(scheduler.stats().expired_in_queue, 1u);
  EXPECT_TRUE((*blocker)->Wait().status.ok());
}

TEST(SchedulerTest, CancelWhileQueuedFailsWithCancelled) {
  Scheduler::Options options;
  options.num_shards = 1;
  Rig rig(options);
  Scheduler& scheduler = *rig.scheduler;

  Latch latch;
  auto blocker = scheduler.Submit(InterceptRequest(
      "blocker", Lane::kNormal, [&] { return latch.Block(); }));
  ASSERT_TRUE(blocker.ok());
  latch.AwaitEntered();

  auto handle = scheduler.Submit(InterceptRequest(
      "victim", Lane::kNormal, [] { return Status::OK(); }));
  ASSERT_TRUE(handle.ok());
  (*handle)->Cancel();
  latch.Release();
  EXPECT_EQ((*handle)->Wait().status.code(), StatusCode::kCancelled);
  EXPECT_TRUE((*blocker)->Wait().status.ok());
}

TEST(SchedulerTest, StatsCountOnlyTheirOwnSchedulersRequests) {
  // Two schedulers on one context: each one's stats() reports its own
  // requests, while the context's qp_sched_* series sum both.
  Scheduler::Options options;
  options.num_shards = 1;
  Rig rig(options);
  const auto ok = []() -> std::optional<Status> { return Status::OK(); };
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(rig.scheduler->SubmitAndWait(InterceptRequest(
                    "a", Lane::kNormal, ok)).status.ok());
  }
  Scheduler b(rig.ctx.get(), options);
  const SchedulerStats fresh = b.stats();
  for (const uint64_t value :
       {fresh.submitted, fresh.shed, fresh.dispatched, fresh.expired_in_queue,
        fresh.deadline_cut, fresh.completed, fresh.failed}) {
    EXPECT_EQ(value, 0u);
  }
  EXPECT_EQ(fresh.max_queue_depth, 0u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(
        b.SubmitAndWait(InterceptRequest("b", Lane::kNormal, ok)).status.ok());
  }
  EXPECT_EQ(rig.scheduler->stats().submitted, 3u);
  EXPECT_EQ(rig.scheduler->stats().completed, 3u);
  EXPECT_EQ(b.stats().submitted, 2u);
  EXPECT_EQ(b.stats().completed, 2u);
  const std::string text = rig.ctx->MetricsText();
  EXPECT_NE(text.find("\nqp_sched_submitted_total 5\n"), std::string::npos)
      << text;
}

TEST(SchedulerTest, UsersHashToStableShardsAndSubmitAfterShutdownFails) {
  Scheduler::Options options;
  options.num_shards = 4;
  Rig rig(options);
  Scheduler& scheduler = *rig.scheduler;

  const size_t shard = scheduler.ShardOf("alice");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(scheduler.ShardOf("alice"), shard);
  }
  EXPECT_LT(shard, options.num_shards);

  scheduler.Shutdown(/*drain=*/true);
  auto rejected = scheduler.Submit(InterceptRequest(
      "alice", Lane::kNormal, [] { return Status::OK(); }));
  EXPECT_FALSE(rejected.ok());
}

TEST(SchedulerTest, ShutdownWithoutDrainCancelsQueuedRequests) {
  Scheduler::Options options;
  options.num_shards = 1;
  Rig rig(options);
  Scheduler& scheduler = *rig.scheduler;

  Latch latch;
  auto blocker = scheduler.Submit(InterceptRequest(
      "blocker", Lane::kNormal, [&] { return latch.Block(); }));
  ASSERT_TRUE(blocker.ok());
  latch.AwaitEntered();
  auto queued = scheduler.Submit(InterceptRequest(
      "victim", Lane::kNormal, [] { return Status::OK(); }));
  ASSERT_TRUE(queued.ok());

  // Shutdown joins the workers, so the wedge must lift concurrently.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    latch.Release();
  });
  scheduler.Shutdown(/*drain=*/false);
  releaser.join();
  EXPECT_TRUE((*blocker)->Wait().status.ok());
  EXPECT_EQ((*queued)->Wait().status.code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace qp::serve
