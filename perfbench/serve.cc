// The serve_* workloads: warm sessions behind serve::Scheduler, offered a
// seeded open-loop request stream at three fixed rates.
//
// One generator (this thread) submits each request at its due time, whether
// or not earlier ones have finished, so a slow server builds a queue rather
// than slowing the offered load. Every request is timed from its due time:
// completion is admission + Response::queue_seconds +
// Response::execute_seconds, and the first tuple is stamped by on_emit on
// the worker. serve_churn precedes 10% of requests with a profile mutation
// of the issuing user through Session::Mutate.
//
// A traced run offers the rungs for three quarters of its seconds and
// builds their spans from the flights after the clocks stop, so the open
// loop runs the same code traced or not. It then replays a fresh stream
// serially for the last quarter, timing the warm Session::Personalize of
// each request and the pipeline's stage functions on the same inputs; those
// spans are recorded live, and the recorder's own time is the tracing
// overhead.

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>

#include "bench_common.h"
#include "common/random.h"
#include "core/personalizer.h"
#include "datagen/profilegen.h"
#include "serve/scheduler.h"
#include "sim/trials.h"

namespace perfbench {
namespace {

using qp::core::AnswerAlgorithm;
using qp::core::PersonalizedAnswer;
using qp::core::PersonalizeOptions;

/// Set-ups per run; setup_s reports their median.
constexpr size_t kSetups = 5;
constexpr size_t kShards = 2;
/// Latency limit, and each request's deadline.
constexpr double kLimitSeconds = 0.25;
/// Of every kAlgorithmSlots requests of a query, kSpaSlots run SPA and
/// the rest PPA (80/20).
constexpr size_t kAlgorithmSlots = 5;
constexpr size_t kSpaSlots = 1;
/// One request in 10 is preceded by a mutation (serve_churn).
constexpr size_t kChurnCycle = 10;
/// Users whose warm-up calls run to completion.
constexpr size_t kFullWarmupUsers = 4;
/// Requests per run whose answers are checked against a cold Personalizer.
constexpr size_t kSampledRequests = 24;
constexpr const char* kRungNames[] = {"low", "mid", "high"};
/// Share of the measured seconds each rung is offered for. The high rung
/// only decides goodput; the low and mid rungs carry the latency metrics
/// and get the samples.
constexpr double kRungShare[] = {0.5, 0.4, 0.1};
/// Slices each rung's stream is offered in.
constexpr size_t kBlocks = 5;
/// The generator keeps pace with a rung while at most kLateShare of its
/// requests are submitted more than kMaxLagSeconds after their due time
/// (metrics.py checks the same rule on the record).
constexpr double kMaxLagSeconds = 0.01;
constexpr double kLateShare = 0.01;
/// Slices a run may discard and offer again before it fails.
constexpr size_t kMaxReoffers = 4;

/// One user: session id, the K and L its client asks for, and (traced
/// replay) a private copy of its profile with the graph built over it.
struct User {
  std::string id;
  size_t k = 4;
  size_t l = 1;
  std::unique_ptr<qp::core::UserProfile> shadow;
  std::optional<qp::core::PersonalizationGraph> graph;
  /// Selection preferences the churn stream added (and may remove again).
  std::vector<qp::core::SelectionCondition> added;
  /// Times of this user's mutations, for the answer check's version test.
  std::vector<double> mutated_at;
};

/// One scheduled request of the stream.
struct Event {
  size_t user = 0;
  size_t query = 0;
  AnswerAlgorithm algorithm = AnswerAlgorithm::kPpa;
  double offset = 0.0;  ///< due time, seconds after the rung starts
  bool mutate = false;
  bool sampled = false;
};

/// Stamped by on_emit on the worker; read after the handle completes.
struct EmitStamp {
  double first = -1.0;
};

/// What the generator knows about one submitted request; the handle (and
/// with it the answer) is dropped once the request's slice has finished.
struct Flight {
  Event event;
  double due = 0.0;
  double submit = 0.0;
  double submit_end = 0.0;
  std::shared_ptr<qp::serve::RequestHandle> handle;  ///< null when shed
  std::shared_ptr<EmitStamp> emit;
  std::unique_ptr<qp::core::UserProfile> profile;  ///< sampled requests
  /// Filled when the slice has finished.
  const char* status = "shed";
  double dispatched = 0.0;
  double completed = 0.0;
  double queue_s = 0.0;
  double service_s = 0.0;
};

/// What one rung accumulates over its slices.
struct RungLog {
  std::vector<Flight> flights;
  /// Everything but the flights, kept apart so that a discarded slice can
  /// be taken back.
  struct Totals {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double max_lag_s = 0.0;
    /// Serving-cache and scheduler counter deltas.
    std::map<std::string, uint64_t> counts;
  } totals;
};

struct Setup {
  std::unique_ptr<qp::storage::Database> db;
  std::unique_ptr<qp::serve::ServingContext> ctx;
  std::vector<User> users;
  double db_s = 0.0;
  double sessions_s = 0.0;
  double warmup_s = 0.0;
};

PersonalizeOptions OptionsFor(const User& user, AnswerAlgorithm algorithm) {
  PersonalizeOptions options;
  options.k = user.k;
  options.l = user.l;
  options.algorithm = algorithm;
  return options;
}

bool IsPresenceExact(const qp::core::SelectionPreference& pref) {
  const auto& dt = pref.doi.d_true();
  return !dt.is_elastic() && dt.degree() > 0.0 && pref.doi.d_false().is_zero();
}

class Serve {
 public:
  Serve(const Args& args, bool churn)
      : args_(args),
        churn_(churn),
        num_users_(args.tiny() ? 8 : 512),
        tracer_(args.trace),
        mutation_rng_(SubSeed(args.seed, 7)) {}

  int Run();

 private:
  qp::Status MakeSetup(Setup& setup);
  /// The seeded request stream `stream`: arrivals at `rate` req/s for
  /// `seconds`.
  std::vector<Event> Stream(uint64_t stream, double rate,
                            double seconds) const;
  /// Applies one seeded profile mutation to `user` through Session::Mutate.
  qp::Status Mutate(User& user);
  /// Offers every rung for `seconds` in all; writes the rung records.
  bool MeasureOpenLoop(double seconds, Json& json);
  /// Offers one slice of a rung's stream on a fresh scheduler and waits
  /// until every request has finished.
  bool OfferBlock(const std::vector<Event>& events, RungLog& log);
  /// Writes a rung's record and, in a traced run, its request spans.
  void WriteRung(size_t rung, const RungLog& log, Json& json);
  /// Compares a sampled answer with a cold Personalizer's answer over the
  /// profile version the request saw.
  void CheckSample(const Flight& flight);
  /// Serial replay of a fresh stream: warm session call plus the stage
  /// calls of the same request, each timed.
  bool Replay(double seconds, Json& json);
  /// The stage calls of one replayed request, each timed and recorded
  /// under span `parent` of `request` (request 0 records nothing).
  qp::Status ReplayStages(User& user, const std::string& sql,
                          const PersonalizeOptions& options, uint64_t request,
                          uint64_t parent, Json& json,
                          PersonalizedAnswer* answer);

  const Args& args_;
  const bool churn_;
  const size_t num_users_;
  Tracer tracer_;
  Checks checks_;
  std::unique_ptr<Setup> setup_;
  qp::Rng mutation_rng_;
  std::unique_ptr<qp::stats::StatsManager> replay_stats_;
  /// Runs each replayed query unchanged (Personalizer::ExecuteUnchanged),
  /// over a profile copy of its own.
  std::unique_ptr<qp::core::UserProfile> base_profile_;
  std::optional<qp::core::Personalizer> base_;
  size_t injected_stalls_ = 0;
};

qp::Status Serve::MakeSetup(Setup& setup) {
  const auto db_config = ServeDbConfig(args_.seed, args_.tiny());
  double t = Now();
  QP_ASSIGN_OR_RETURN(qp::storage::Database db,
                      qp::datagen::GenerateMovieDatabase(db_config));
  setup.db = std::make_unique<qp::storage::Database>(std::move(db));
  setup.db_s = Now() - t;

  t = Now();
  qp::serve::ServingContext::Options ctx_options;
  ctx_options.num_threads = 1;
  setup.ctx = std::make_unique<qp::serve::ServingContext>(setup.db.get(),
                                                          ctx_options);
  setup.users.clear();
  for (size_t u = 0; u < num_users_; ++u) {
    qp::datagen::ProfileGenConfig pg;
    pg.seed = SubSeed(args_.seed, 100 + u);
    pg.num_presence = 4;
    pg.num_negative = 2;
    pg.num_absence_11 = 1;
    pg.num_elastic = 1;
    pg.db_config = db_config;
    QP_ASSIGN_OR_RETURN(qp::core::UserProfile profile,
                        qp::datagen::GenerateProfile(pg));
    User user;
    user.id = "user" + std::to_string(u);
    // K and L cycle over their values, so every run has the same mix.
    user.k = 4 + 2 * (u % 3);
    user.l = 1 + (u / 3) % 2;
    QP_RETURN_IF_ERROR(setup.ctx->OpenSession(user.id, profile).status());
    setup.users.push_back(std::move(user));
  }
  setup.sessions_s = Now() - t;

  // Untimed warm-up. A call per (user, query, algorithm) with its token
  // already cancelled runs selection and planning and fills the session's
  // caches, then stops before execution; full calls by a few users build
  // the lazy index snapshots the executor and probes read.
  t = Now();
  const auto& queries = qp::sim::StudyQueries();
  qp::common::CancelToken cancelled;
  cancelled.RequestCancel();
  for (size_t u = 0; u < setup.users.size(); ++u) {
    const User& user = setup.users[u];
    qp::serve::Session* session = setup.ctx->FindSession(user.id);
    for (const std::string& sql : queries) {
      for (AnswerAlgorithm algorithm :
           {AnswerAlgorithm::kPpa, AnswerAlgorithm::kSpa}) {
        PersonalizeOptions options = OptionsFor(user, algorithm);
        options.cancel = &cancelled;
        auto planned = session->Personalize(sql, options);
        if (!planned.ok() &&
            planned.status().code() != qp::StatusCode::kCancelled) {
          return qp::Status::Internal("warm-up " + user.id + " '" + sql +
                                      "': " + planned.status().ToString());
        }
        if (u >= kFullWarmupUsers) continue;
        auto answer = session->Personalize(sql, OptionsFor(user, algorithm));
        if (!answer.ok()) {
          return qp::Status::Internal("warm-up " + user.id + " '" + sql +
                                      "': " + answer.status().ToString());
        }
      }
    }
  }
  setup.warmup_s = Now() - t;
  return qp::Status::OK();
}

std::vector<Event> Serve::Stream(uint64_t stream, double rate,
                                 double seconds) const {
  qp::Rng rng(SubSeed(args_.seed, stream));
  const size_t queries = qp::sim::StudyQueries().size();
  // The mix is stratified: every queries x kAlgorithmSlots requests hold
  // each (query, algorithm slot) exactly once and every kChurnCycle
  // requests hold one mutation, in seeded order. The seed then picks the
  // order and the users but not the proportions, which would otherwise
  // move the median and the tail between heavy and light query classes
  // from run to run.
  std::vector<size_t> mix, churn;
  std::vector<Event> events;
  // Evenly spaced arrivals: the queue a rung builds then comes from the
  // service-time mix, not from arrival bursts.
  for (double at = 0.5 / rate; at < seconds; at += 1.0 / rate) {
    if (mix.empty()) mix = rng.Permutation(queries * kAlgorithmSlots);
    if (churn.empty()) churn = rng.Permutation(kChurnCycle);
    const size_t slot = mix.back();
    mix.pop_back();
    Event e;
    e.offset = at;
    e.user = rng.Index(num_users_);
    e.query = slot % queries;
    e.algorithm = slot / queries < kSpaSlots ? AnswerAlgorithm::kSpa
                                             : AnswerAlgorithm::kPpa;
    e.mutate = churn_ && churn.back() == 0;
    churn.pop_back();
    events.push_back(e);
  }
  return events;
}

qp::Status Serve::Mutate(User& user) {
  qp::serve::Session* session = setup_->ctx->FindSession(user.id);
  // Only this thread mutates, so reading the live profile here cannot race
  // a writer; workers only read it.
  const qp::core::UserProfile& live = session->profile();
  const size_t kind = mutation_rng_.Index(3);
  std::function<qp::Status(qp::core::UserProfile&)> fn;
  if (kind == 1 && !user.added.empty()) {
    const size_t i = mutation_rng_.Index(user.added.size());
    const qp::core::SelectionCondition cond = user.added[i];
    user.added.erase(user.added.begin() + static_cast<std::ptrdiff_t>(i));
    fn = [cond](qp::core::UserProfile& p) { return p.RemoveSelection(cond); };
  } else if (kind == 2) {
    std::vector<qp::core::SelectionCondition> targets;
    for (const auto& pref : live.selections()) {
      if (IsPresenceExact(pref)) targets.push_back(pref.condition);
    }
    if (targets.empty()) return qp::Status::Internal("no doi to change");
    const qp::core::SelectionCondition cond =
        targets[mutation_rng_.Index(targets.size())];
    QP_ASSIGN_OR_RETURN(
        qp::core::DoiPair doi,
        qp::core::DoiPair::Exact(mutation_rng_.UniformDouble(0.3, 1.0), 0.0));
    fn = [cond, doi](qp::core::UserProfile& p) {
      return p.UpdateSelectionDoi(cond, doi);
    };
  } else {
    const auto config = ServeDbConfig(args_.seed, args_.tiny());
    qp::core::SelectionCondition cond{
        *qp::storage::AttributeRef::Parse("movie.year"), qp::sql::BinaryOp::kEq,
        qp::storage::Value(int64_t{0})};
    for (size_t attempt = 0;; ++attempt) {
      cond.value = qp::storage::Value(static_cast<int64_t>(
          mutation_rng_.UniformInt(config.min_year, config.max_year)));
      const bool present = std::any_of(
          live.selections().begin(), live.selections().end(),
          [&](const auto& pref) { return pref.condition == cond; });
      if (!present) break;
      if (attempt > 100) return qp::Status::Internal("no year left to add");
    }
    QP_ASSIGN_OR_RETURN(
        qp::core::DoiPair doi,
        qp::core::DoiPair::Exact(mutation_rng_.UniformDouble(0.3, 1.0), 0.0));
    user.added.push_back(cond);
    fn = [cond, doi](qp::core::UserProfile& p) {
      return p.AddSelection(qp::core::SelectionPreference{cond, doi});
    };
  }
  user.mutated_at.push_back(Now());
  return session->Mutate(fn);
}

void Serve::CheckSample(const Flight& flight) {
  const User& user = setup_->users[flight.event.user];
  // The answer's profile version is known only when no mutation of the
  // user fell between submission and completion.
  for (double at : user.mutated_at) {
    if (at >= flight.submit && at <= flight.completed) return;
  }
  const auto& response = flight.handle->Wait();
  if (!response.status.ok() || response.partial) return;
  const std::string& sql = qp::sim::StudyQueries()[flight.event.query];
  auto cold = qp::core::Personalizer::Make(setup_->db.get(),
                                           flight.profile.get());
  if (!cold.ok()) {
    checks_.Expect("serve_matches_cold", false, cold.status().ToString());
    return;
  }
  auto expected =
      cold->Personalize(sql, OptionsFor(user, flight.event.algorithm));
  if (!expected.ok()) {
    checks_.Expect("serve_matches_cold", false, expected.status().ToString());
    return;
  }
  PersonalizedAnswer served = *response.answer;
  if (args_.inject == "serve_matches_cold") served.tuples.emplace_back();
  checks_.Expect("serve_matches_cold",
                 qp::core::SameAnswerPayload(served, *expected),
                 user.id + " '" + sql + "' differs from a cold answer");
}

bool Serve::OfferBlock(const std::vector<Event>& events, RungLog& log) {
  const auto& queries = qp::sim::StudyQueries();
  qp::serve::Scheduler::Options options;
  options.num_shards = kShards;
  qp::serve::Scheduler scheduler(setup_->ctx.get(), options);
  const auto counters_before = setup_->ctx->counters();
  const size_t first_flight = log.flights.size();
  const double cpu_start = CpuSeconds();
  const double start = Now() + 0.005;
  for (const Event& e : events) {
    Flight flight;
    flight.event = e;
    flight.due = start + e.offset;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(flight.due - Now()));
    // Test hooks: the generator falls behind on the run's first two
    // submits, or on every one.
    if ((args_.inject == "late_submits" && injected_stalls_ < 2) ||
        args_.inject == "generator_behind") {
      ++injected_stalls_;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    User& user = setup_->users[e.user];
    if (e.mutate) {
      if (qp::Status s = Mutate(user); !s.ok()) {
        Log("error: mutation of %s: %s", user.id.c_str(),
            s.ToString().c_str());
        return false;
      }
    }
    if (e.sampled) {
      flight.profile = std::make_unique<qp::core::UserProfile>(
          setup_->ctx->FindSession(user.id)->profile());
    }
    qp::serve::Request request;
    request.user_id = user.id;
    request.sql = queries[e.query];
    request.options = OptionsFor(user, e.algorithm);
    request.deadline_seconds = kLimitSeconds;
    flight.emit = std::make_shared<EmitStamp>();
    request.options.on_emit = [stamp = flight.emit](
                                  const qp::core::PersonalizedTuple&) {
      if (stamp->first < 0.0) stamp->first = Now();
    };
    flight.submit = Now();
    log.totals.max_lag_s =
        std::max(log.totals.max_lag_s, flight.submit - flight.due);
    auto handle = scheduler.Submit(std::move(request));
    flight.submit_end = Now();
    if (handle.ok()) {
      flight.handle = std::move(handle).value();
    } else if (handle.status().code() != qp::StatusCode::kOverloaded) {
      Log("note: submit failed: %s", handle.status().ToString().c_str());
    }
    log.flights.push_back(std::move(flight));
  }
  for (size_t i = first_flight; i < log.flights.size(); ++i) {
    if (log.flights[i].handle != nullptr) log.flights[i].handle->Wait();
  }
  log.totals.wall_s += Now() - start;
  log.totals.cpu_s += CpuSeconds() - cpu_start;
  // Answer checks run after the clocks stop.
  for (size_t i = first_flight; i < log.flights.size(); ++i) {
    Flight& flight = log.flights[i];
    if (flight.handle == nullptr) continue;
    const qp::serve::Response& r = flight.handle->Wait();
    flight.status = !r.status.ok() ? "failed" : r.partial ? "partial" : "ok";
    flight.queue_s = r.queue_seconds;
    flight.service_s = r.execute_seconds;
    flight.dispatched = flight.submit + r.queue_seconds;
    flight.completed = flight.dispatched + r.execute_seconds;
    if (flight.event.sampled) CheckSample(flight);
    flight.handle.reset();
    flight.profile.reset();
  }
  const auto counters = setup_->ctx->counters();
  const auto sched = scheduler.stats();
  auto& counts = log.totals.counts;
  const auto add = [&](const char* key, uint64_t delta) {
    counts[key] += delta;
  };
  add("selection_hits",
      counters.selection_cache_hits - counters_before.selection_cache_hits);
  add("selection_misses", counters.selection_cache_misses -
                              counters_before.selection_cache_misses);
  add("plan_hits", counters.plan_cache_hits - counters_before.plan_cache_hits);
  add("plan_misses",
      counters.plan_cache_misses - counters_before.plan_cache_misses);
  add("repairs", counters.graph_repairs - counters_before.graph_repairs);
  add("rebuilds",
      counters.wholesale_rebuilds - counters_before.wholesale_rebuilds);
  add("shed", sched.shed);
  add("expired", sched.expired_in_queue);
  add("deadline_cut", sched.deadline_cut);
  counts["max_queue_depth"] =
      std::max<uint64_t>(counts["max_queue_depth"], sched.max_queue_depth);
  return true;
}

void Serve::WriteRung(size_t rung, const RungLog& log, Json& json) {
  json.Open()
      .Str("rung", kRungNames[rung])
      .Num("rate", args_.rates[rung])
      .Num("wall_s", log.totals.wall_s)
      .Num("cpu_s", log.totals.cpu_s)
      .Num("max_lag_s", log.totals.max_lag_s);
  json.OpenArray("requests");
  for (const Flight& flight : log.flights) {
    json.Open()
        .Str("algo",
             flight.event.algorithm == AnswerAlgorithm::kPpa ? "ppa" : "spa")
        .Int("user", flight.event.user)
        .Int("query", flight.event.query)
        .Str("status", flight.status)
        .Num("lag_s", flight.submit - flight.due);
    if (std::string_view(flight.status) == "shed") {
      json.Close();
      continue;
    }
    const double dispatched = flight.dispatched;
    const double completed = flight.completed;
    const double first =
        flight.emit->first >= 0.0 ? flight.emit->first : completed;
    json.Num("latency_s", completed - flight.due)
        .Num("first_s", first - flight.due)
        .Num("queue_s", flight.queue_s)
        .Num("service_s", flight.service_s)
        .Close();
    if (args_.trace) {
      const uint64_t request = tracer_.NewId();
      const uint64_t root = tracer_.NewId();
      const char* point = kRungNames[rung];
      tracer_.Add({tracer_.NewId(), root, request, "scheduler.submit",
                   flight.submit, flight.submit_end, point});
      tracer_.Add({tracer_.NewId(), root, request, "scheduler.queue",
                   flight.submit, dispatched, point});
      tracer_.Add({tracer_.NewId(), root, request, "scheduler.execute",
                   dispatched, completed, point});
      if (flight.emit->first >= 0.0) {
        tracer_.Add({tracer_.NewId(), root, request, "serve.first_emit",
                     dispatched, flight.emit->first, point});
      }
      tracer_.Add(
          {root, 0, request, "serve.request", flight.due, completed, point});
    }
  }
  json.CloseArray();
  json.Open("serve");
  for (const auto& [key, value] : log.totals.counts) {
    json.Int(key.c_str(), value);
  }
  json.Close();
  json.Close();
}

bool Serve::MeasureOpenLoop(double seconds, Json& json) {
  // Each rung's stream is offered in kBlocks slices, the rungs taking
  // turns, so every rung samples the machine across the whole run; each
  // slice drains before the next starts.
  const size_t rungs = args_.rates.size();
  std::vector<std::vector<Event>> streams(rungs);
  size_t total = 0;
  for (size_t rung = 0; rung < rungs; ++rung) {
    streams[rung] = Stream(1000 + rung, args_.rates[rung],
                           seconds * kRungShare[rung]);
    total += streams[rung].size();
  }
  qp::Rng sample_rng(SubSeed(args_.seed, 2000));
  const double p = static_cast<double>(kSampledRequests) /
                   static_cast<double>(std::max<size_t>(total, 1));
  for (auto& stream : streams) {
    for (Event& e : stream) e.sampled = sample_rng.Bernoulli(p);
  }
  // A stall of the host can hold up the generator. A slice that would put
  // its rung over the late-submit budget is discarded and offered again, so
  // no rung is reported that the generator did not keep pace with; the
  // stream is the same on every attempt (serve_churn draws its mutations
  // afresh). A run that needs more than kMaxReoffers fails.
  std::vector<RungLog> logs(rungs);
  std::vector<size_t> late(rungs, 0);
  size_t reoffers = 0;
  for (size_t block = 0; block < kBlocks; ++block) {
    for (size_t rung = 0; rung < rungs; ++rung) {
      const double length = seconds * kRungShare[rung] / kBlocks;
      std::vector<Event> slice;
      for (const Event& e : streams[rung]) {
        if (e.offset >= block * length && e.offset < (block + 1) * length) {
          slice.push_back(e);
          slice.back().offset -= block * length;
        }
      }
      const auto budget = static_cast<size_t>(
          kLateShare * static_cast<double>(streams[rung].size()));
      RungLog& log = logs[rung];
      for (;;) {
        const size_t first = log.flights.size();
        const RungLog::Totals before = log.totals;
        if (!OfferBlock(slice, log)) return false;
        const auto slice_late = static_cast<size_t>(std::count_if(
            log.flights.begin() + static_cast<std::ptrdiff_t>(first),
            log.flights.end(), [](const Flight& f) {
              return f.submit - f.due > kMaxLagSeconds;
            }));
        if (late[rung] + slice_late <= budget) {
          late[rung] += slice_late;
          break;
        }
        if (++reoffers > kMaxReoffers) {
          Log("error: the generator fell behind at %s in %zu slices",
              kRungNames[rung], reoffers);
          return false;
        }
        Log("note: %zu late submits in a slice of %s; offering it again",
            slice_late, kRungNames[rung]);
        log.flights.erase(
            log.flights.begin() + static_cast<std::ptrdiff_t>(first),
            log.flights.end());
        log.totals = before;
      }
    }
  }
  json.OpenArray("rungs");
  for (size_t rung = 0; rung < rungs; ++rung) WriteRung(rung, logs[rung], json);
  json.CloseArray().Int("reoffered_slices", reoffers);
  return true;
}

qp::Status Serve::ReplayStages(User& user, const std::string& sql,
                               const PersonalizeOptions& options,
                               uint64_t request, uint64_t parent, Json& json,
                               PersonalizedAnswer* answer) {
  const auto span = [&](const char* name, double start, double end) {
    if (request != 0) {
      tracer_.Add({tracer_.NewId(), parent, request, name, start, end, ""});
    }
  };
  const bool ppa = options.algorithm == AnswerAlgorithm::kPpa;
  const double parse_start = Now();
  QP_ASSIGN_OR_RETURN(qp::sql::SelectQuery query,
                      qp::core::ParseSingleSelect(sql));
  const double parse_end = Now();
  span("sql.parse", parse_start, parse_end);
  QP_ASSIGN_OR_RETURN(auto resolved, qp::core::ResolvePersonalization(
                                         options, *user.shadow));
  const double select_start = Now();
  QP_ASSIGN_OR_RETURN(auto prefs, qp::core::RunSelection(*user.graph, query,
                                                         options, resolved));
  const double select_end = Now();
  span("core.selection.run", select_start, select_end);
  QP_RETURN_IF_ERROR(qp::core::ValidateSelection(prefs, options));
  const double plan_start = Now();
  QP_ASSIGN_OR_RETURN(qp::core::IntegrationPlan plan,
                      qp::core::BuildIntegrationPlan(setup_->db.get(),
                                                     replay_stats_.get(),
                                                     query, prefs, options));
  const double plan_end = Now();
  span(ppa ? "core.plan.ppa" : "core.plan.spa", plan_start, plan_end);
  EmitStamp stamp;
  PersonalizeOptions exec_options = options;
  exec_options.on_emit = [&stamp](const qp::core::PersonalizedTuple&) {
    if (stamp.first < 0.0) stamp.first = Now();
  };
  const double cpu_start = CpuSeconds();
  const double exec_start = Now();
  QP_ASSIGN_OR_RETURN(*answer, qp::core::ExecuteIntegrationPlan(
                                   setup_->db.get(), plan, exec_options,
                                   resolved));
  const double exec_end = Now();
  const double exec_cpu = CpuSeconds() - cpu_start;
  span(ppa ? "core.ppa.execute" : "core.spa.execute", exec_start, exec_end);
  if (stamp.first >= 0.0) span("core.ppa.first_emit", exec_start, stamp.first);
  qp::core::FinalizeAnswer(resolved, select_end - select_start, *answer);

  if (!ppa) {
    const double t = Now();
    QP_RETURN_IF_ERROR(ExecuteSpaQuery(setup_->db.get(), plan, options));
    const double end = Now();
    span("exec.spa_query", t, end);
    json.Num("spa_query_s", end - t);
  }
  const double base_start = Now();
  QP_RETURN_IF_ERROR(base_->ExecuteUnchanged(query).status());
  const double base_end = Now();
  span("exec.base_query", base_start, base_end);

  qp::core::SelectionStats selection_stats;
  qp::core::PreferenceSelector selector(&*user.graph);
  (void)selector.SelectFakeCrit(qp::core::QueryContext::FromQuery(query),
                                qp::core::SelectionCriterion::TopK(options.k),
                                &selection_stats);
  json.Num("parse_s", parse_end - parse_start)
      .Num("select_s", select_end - select_start)
      .Int("paths_examined", selection_stats.paths_examined)
      .Num("plan_s", plan_end - plan_start)
      .Num("execute_s", exec_end - exec_start)
      .Num("execute_cpu_s", exec_cpu)
      .Num("base_query_s", base_end - base_start)
      .Num("first_emit_s",
           (stamp.first >= 0.0 ? stamp.first : exec_end) - exec_start);
  return qp::Status::OK();
}

bool Serve::Replay(double seconds, Json& json) {
  replay_stats_ = std::make_unique<qp::stats::StatsManager>(setup_->db.get());
  base_profile_ = std::make_unique<qp::core::UserProfile>(
      setup_->ctx->FindSession(setup_->users.front().id)->profile());
  auto base = qp::core::Personalizer::Make(setup_->db.get(),
                                           base_profile_.get());
  if (!base.ok()) {
    Log("error: replay base: %s", base.status().ToString().c_str());
    return false;
  }
  base_.emplace(std::move(base).value());
  for (User& user : setup_->users) {
    user.shadow = std::make_unique<qp::core::UserProfile>(
        setup_->ctx->FindSession(user.id)->profile());
    auto graph = qp::core::PersonalizationGraph::Build(setup_->db.get(),
                                                       user.shadow.get());
    if (!graph.ok()) {
      Log("error: replay graph: %s", graph.status().ToString().c_str());
      return false;
    }
    user.graph.emplace(std::move(graph).value());
  }
  const auto& queries = qp::sim::StudyQueries();
  // Build the replay's own histograms before timing anything.
  for (const std::string& sql : queries) {
    User& user = setup_->users.front();
    PersonalizedAnswer unused;
    Json scratch;
    scratch.Open();
    (void)ReplayStages(user, sql, OptionsFor(user, AnswerAlgorithm::kPpa), 0,
                       0, scratch, &unused);
  }

  // One request per second of stream time: only the order matters here.
  const std::vector<Event> events = Stream(9, 1.0, 100000.0);
  json.Open("replay").OpenArray("requests");
  const double start = Now();
  const double traced_before = tracer_.seconds_spent();
  for (size_t i = 0; i < events.size() && Now() - start < seconds; ++i) {
    const Event& e = events[i];
    User& user = setup_->users[e.user];
    const uint64_t request = tracer_.NewId();
    const uint64_t root = tracer_.NewId();
    const double request_start = Now();
    json.Open()
        .Str("algo", e.algorithm == AnswerAlgorithm::kPpa ? "ppa" : "spa")
        .Int("query", e.query);
    if (e.mutate) {
      if (qp::Status s = Mutate(user); !s.ok()) {
        Log("error: replay mutation: %s", s.ToString().c_str());
        return false;
      }
      auto next = std::make_unique<qp::core::UserProfile>(
          setup_->ctx->FindSession(user.id)->profile());
      const auto delta = next->MutationsSince(user.shadow->epoch());
      if (!delta.has_value()) {
        Log("error: replay mutation journal gap for %s", user.id.c_str());
        return false;
      }
      const double t = Now();
      auto repaired = qp::core::PersonalizationGraph::RepairFrom(
          *user.graph, setup_->db.get(), next.get(), *delta);
      const double repair_end = Now();
      if (!repaired.ok()) {
        Log("error: repair: %s", repaired.status().ToString().c_str());
        return false;
      }
      tracer_.Add({tracer_.NewId(), root, request, "core.graph.repair", t,
                   repair_end, ""});
      json.Num("repair_s", repair_end - t);
      user.graph.emplace(std::move(repaired).value());
      user.shadow = std::move(next);
    }
    const std::string& sql = queries[e.query];
    const PersonalizeOptions options = OptionsFor(user, e.algorithm);
    qp::serve::Session* session = setup_->ctx->FindSession(user.id);
    PersonalizedAnswer staged;
    qp::Status stages_status = qp::Status::OK();
    const auto run_stages = [&] {
      stages_status =
          ReplayStages(user, sql, options, request, root, json, &staged);
    };
    // Alternate which side runs first so neither always finds the caches
    // warmed by the other.
    if (i % 2 == 1) run_stages();
    const double t = Now();
    auto served = session->Personalize(sql, options);
    const double served_end = Now();
    if (i % 2 == 0) run_stages();
    if (!served.ok() || !stages_status.ok()) {
      Log("error: replay: %s / %s", served.status().ToString().c_str(),
          stages_status.ToString().c_str());
      return false;
    }
    tracer_.Add({tracer_.NewId(), root, request, "serve.session.personalize",
                 t, served_end, ""});
    tracer_.Add({root, 0, request, "serve.replay", request_start, Now(), ""});
    checks_.Expect("replay_matches_session",
                   qp::core::SameAnswerPayload(*served, staged),
                   user.id + " '" + sql + "' stage calls differ from session");
    json.Num("session_s", served_end - t);
    WriteAnswerStats(json, staged.stats);
    json.Close();
  }
  json.CloseArray()
      .Num("wall_s", Now() - start)
      .Num("trace_s", tracer_.seconds_spent() - traced_before)
      .Close();
  return true;
}

int Serve::Run() {
  if (args_.rates.size() != 3) {
    Log("error: --rates needs three rates (low,mid,high), got %zu",
        args_.rates.size());
    return 1;
  }
  Json json;
  json.Open();
  json.OpenArray("setups");
  for (size_t i = 0; i < kSetups; ++i) {
    // The previous set-up dies before the next is built, so the peak RSS
    // holds one database.
    setup_ = std::make_unique<Setup>();
    const double t = Now();
    if (qp::Status s = MakeSetup(*setup_); !s.ok()) {
      Log("error: setup: %s", s.ToString().c_str());
      return 1;
    }
    json.Open()
        .Num("total_s", Now() - t)
        .Num("db_s", setup_->db_s)
        .Num("sessions_s", setup_->sessions_s)
        .Num("warmup_s", setup_->warmup_s)
        .Close();
  }
  json.CloseArray();

  const double replay_seconds = args_.trace ? args_.seconds / 4 : 0.0;
  if (!MeasureOpenLoop(args_.seconds - replay_seconds, json)) return 1;
  if (args_.trace && !Replay(replay_seconds, json)) return 1;

  if (checks_.failed()) {
    Log("error: answer check failed: %s", checks_.failure().c_str());
    return 2;
  }
  json.Int("movies", ServeDbConfig(args_.seed, args_.tiny()).num_movies)
      .Int("users", num_users_)
      .Int("shards", kShards)
      .Num("limit_s", kLimitSeconds)
      .Num("peak_rss_mb", PeakRssMb());
  checks_.Write(json);
  if (args_.trace) {
    if (!tracer_.Write(args_.spans_path)) {
      Log("error: cannot write %s", args_.spans_path.c_str());
      return 1;
    }
    json.Int("spans", tracer_.size());
  }
  json.Close();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace

int RunServe(const Args& args, bool churn) { return Serve(args, churn).Run(); }

}  // namespace perfbench
