// Micro-benchmarks (google-benchmark) for the hot paths underneath the
// figure reproductions: ranking functions, elastic doi evaluation,
// personalization-graph selection, executor scans / joins / point probes /
// SPA's grouped union, and histogram estimation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <limits>

#include "bench_util.h"
#include "core/path_probe.h"
#include "core/pipeline.h"
#include "core/spa.h"
#include "core/select_top_k.h"
#include "datagen/moviegen.h"
#include "datagen/profilegen.h"
#include "exec/executor.h"
#include "serve/serving_context.h"
#include "sql/parser.h"
#include "stats/table_stats.h"

using namespace qp;

namespace {

const storage::Database& SharedDb() {
  static storage::Database* db = [] {
    auto generated =
        datagen::GenerateMovieDatabase(datagen::MovieGenConfig::TestScale());
    return new storage::Database(std::move(generated).value());
  }();
  return *db;
}

const core::UserProfile& SharedProfile() {
  static core::UserProfile* profile = [] {
    datagen::ProfileGenConfig config;
    config.num_presence = 20;
    config.num_negative = 4;
    config.num_elastic = 3;
    config.db_config = datagen::MovieGenConfig::TestScale();
    return new core::UserProfile(
        std::move(datagen::GenerateProfile(config)).value());
  }();
  return *profile;
}

void BM_RankingFunction(benchmark::State& state) {
  const auto style = static_cast<core::CombinationStyle>(state.range(0));
  core::RankingFunction ranking = core::RankingFunction::Make(style);
  std::vector<double> pos = {0.9, 0.7, 0.55, 0.31, 0.62, 0.18};
  std::vector<double> neg = {-0.4, -0.8, -0.05};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ranking.Rank(pos, neg));
  }
}
BENCHMARK(BM_RankingFunction)->Arg(0)->Arg(1)->Arg(2);

void BM_ElasticDoiEval(benchmark::State& state) {
  auto fn = core::DoiFunction::Triangular(0.8, 120.0, 30.0);
  double u = 91.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn->Eval(u));
    u += 0.01;
    if (u > 150) u = 91.0;
  }
}
BENCHMARK(BM_ElasticDoiEval);

void BM_PreferenceSelection(benchmark::State& state) {
  const auto& db = SharedDb();
  const auto& profile = SharedProfile();
  auto graph = core::PersonalizationGraph::Build(&db, &profile);
  core::PreferenceSelector selector(&*graph);
  auto query = sql::ParseQuery("select title from movie");
  const auto ctx = core::QueryContext::FromQuery((*query)->single());
  const bool fake = state.range(0) != 0;
  const auto criterion = core::SelectionCriterion::TopK(10);
  for (auto _ : state) {
    auto selected = fake ? selector.SelectFakeCrit(ctx, criterion)
                         : selector.SelectSPS(ctx, criterion);
    benchmark::DoNotOptimize(selected);
  }
}
BENCHMARK(BM_PreferenceSelection)->Arg(0)->Arg(1);

void BM_ExecutorScanFilter(benchmark::State& state) {
  const auto& db = SharedDb();
  exec::Executor executor(&db);
  auto query = sql::ParseQuery(
      "select title from movie where movie.year >= 1990 and "
      "movie.duration <= 120");
  for (auto _ : state) {
    auto rows = executor.Execute(**query);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_ExecutorScanFilter);

void BM_ExecutorHashJoin(benchmark::State& state) {
  const auto& db = SharedDb();
  exec::Executor executor(&db);
  auto query = sql::ParseQuery(
      "select movie.title from movie, genre "
      "where movie.mid = genre.mid and genre.genre = 'comedy'");
  for (auto _ : state) {
    auto rows = executor.Execute(**query);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_ExecutorHashJoin);

// Metrics-off vs metrics-on on the same scan+join: the pair bounds the cost
// of mirroring executor counters into a registry (ISSUE budget: < 5%). The
// query is the BM_ExecutorHashJoin one, so the first of the pair also
// cross-checks that adding a registry does not change the baseline.
void BM_ExecutorMetricsOff(benchmark::State& state) {
  const auto& db = SharedDb();
  exec::Executor executor(&db);
  auto query = sql::ParseQuery(
      "select movie.title from movie, genre "
      "where movie.mid = genre.mid and genre.genre = 'comedy'");
  for (auto _ : state) {
    auto rows = executor.Execute(**query);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_ExecutorMetricsOff);

void BM_ExecutorMetricsOn(benchmark::State& state) {
  const auto& db = SharedDb();
  static obs::MetricsRegistry* registry = new obs::MetricsRegistry();
  exec::ExecOptions options;
  options.metrics = registry;
  exec::Executor executor(&db, nullptr, options);
  auto query = sql::ParseQuery(
      "select movie.title from movie, genre "
      "where movie.mid = genre.mid and genre.genre = 'comedy'");
  for (auto _ : state) {
    auto rows = executor.Execute(**query);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_ExecutorMetricsOn);

void BM_ExecutorTracedExplainAnalyze(benchmark::State& state) {
  // Full span-tree construction per call — the EXPLAIN ANALYZE price, paid
  // only when a trace sink is attached.
  const auto& db = SharedDb();
  exec::Executor executor(&db);
  auto query = sql::ParseQuery(
      "select movie.title from movie, genre "
      "where movie.mid = genre.mid and genre.genre = 'comedy'");
  for (auto _ : state) {
    obs::TraceSpan root("query");
    auto rows = executor.Execute(**query, &root);
    benchmark::DoNotOptimize(rows);
    benchmark::DoNotOptimize(root);
  }
}
BENCHMARK(BM_ExecutorTracedExplainAnalyze);

void BM_MetricsCounterIncrement(benchmark::State& state) {
  static obs::MetricsRegistry* registry = new obs::MetricsRegistry();
  obs::Counter* counter = registry->GetCounter("bench_counter_total");
  for (auto _ : state) {
    counter->Increment();
  }
}
BENCHMARK(BM_MetricsCounterIncrement);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  static obs::MetricsRegistry* registry = new obs::MetricsRegistry();
  obs::Histogram* histogram = registry->GetHistogram(
      "bench_latency_seconds", obs::DefaultLatencyBuckets());
  double v = 1e-6;
  for (auto _ : state) {
    histogram->Observe(v);
    v = v < 1.0 ? v * 1.7 : 1e-6;
  }
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_ExecutorPointProbe(benchmark::State& state) {
  const auto& db = SharedDb();
  exec::Executor executor(&db);
  auto query = sql::ParseQuery(
      "select movie.title, genre.genre from movie, genre "
      "where movie.mid = genre.mid and movie.mid = 123");
  for (auto _ : state) {
    auto rows = executor.Execute(**query);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_ExecutorPointProbe);

void BM_ExecutorNotInSubquery(benchmark::State& state) {
  const auto& db = SharedDb();
  exec::Executor executor(&db);
  auto query = sql::ParseQuery(
      "select title from movie where movie.mid not in "
      "(select mid from genre where genre.genre = 'musical')");
  for (auto _ : state) {
    auto rows = executor.Execute(**query);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_ExecutorNotInSubquery);

// SPA's personalized query for a fixed generated profile over
// `select mid, title from movie`: a union of grouped branches under an
// outer GROUP BY / HAVING count(*) >= L, ordered by the rank(degree)
// aggregate — the executor's aggregate operator end to end, run the way
// SPA runs a cached plan.
void BM_ExecutorSpaQuery(benchmark::State& state) {
  const auto& db = SharedDb();
  auto graph = core::PersonalizationGraph::Build(&db, &SharedProfile());
  auto base = sql::ParseQuery("select mid, title from movie");
  core::PersonalizeOptions options;
  options.k = 10;
  options.l = 2;
  auto resolved = core::ResolvePersonalization(options, SharedProfile());
  auto prefs =
      core::RunSelection(*graph, (*base)->single(), options, *resolved);
  const core::SpaGenerator spa(
      &db, core::RankingFunction::Make(core::CombinationStyle::kInflationary));
  auto plan = spa.BuildPlan((*base)->single(), *prefs, options.l);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto answer = spa.GenerateWithPlan(*plan);
    benchmark::DoNotOptimize(answer);
  }
}
BENCHMARK(BM_ExecutorSpaQuery);

void BM_PreparedPathProbe(benchmark::State& state) {
  const auto& db = SharedDb();
  // A two-hop probe (movie -> directed -> director), PPA's hottest path.
  core::SelectionPreference sel;
  sel.condition = {*storage::AttributeRef::Parse("director.name"),
                   sql::BinaryOp::kEq, storage::Value("Director 1")};
  sel.doi = *core::DoiPair::Exact(0.8, 0.0);
  core::JoinPreference j1{*storage::AttributeRef::Parse("movie.mid"),
                          *storage::AttributeRef::Parse("directed.mid"), 1.0};
  core::JoinPreference j2{*storage::AttributeRef::Parse("directed.did"),
                          *storage::AttributeRef::Parse("director.did"), 0.9};
  auto pref = *(*core::ImplicitPreference::Join(j1).ExtendWith(j2))
                   .ExtendWith(sel);
  auto probe = core::PathProbe::Prepare(&db, pref);
  int64_t mid = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(probe->TruthDegree(storage::Value(mid)));
    mid = mid % 400 + 1;
  }
}
BENCHMARK(BM_PreparedPathProbe);

void BM_SqlPointProbe(benchmark::State& state) {
  // The same semantic check through the SQL executor, for comparison.
  const auto& db = SharedDb();
  exec::Executor executor(&db);
  auto query = sql::ParseQuery(
      "select m.mid, 0.72 degree from movie m, directed d, director di "
      "where m.mid = d.mid and d.did = di.did and di.name = 'Director 1' "
      "and m.mid = 1");
  for (auto _ : state) {
    auto rows = executor.Execute(**query);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_SqlPointProbe);

void BM_HistogramBuild(benchmark::State& state) {
  const auto& db = SharedDb();
  for (auto _ : state) {
    stats::StatsManager stats(&db);
    auto hist = stats.GetHistogram(storage::AttributeRef("movie", "year"));
    benchmark::DoNotOptimize(hist);
  }
}
BENCHMARK(BM_HistogramBuild);

void BM_SelectivityEstimate(benchmark::State& state) {
  const auto& db = SharedDb();
  stats::StatsManager stats(&db);
  const storage::AttributeRef attr("movie", "year");
  // Warm the cache so the loop measures estimation only.
  stats.EstimateSelectivity(attr, stats::CompareOp::kLt,
                            storage::Value(int64_t{1990}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats.EstimateSelectivity(
        attr, stats::CompareOp::kLt, storage::Value(int64_t{1990})));
  }
}
BENCHMARK(BM_SelectivityEstimate);

void BM_ProfileParse(benchmark::State& state) {
  const std::string text = SharedProfile().Serialize();
  for (auto _ : state) {
    auto profile = core::UserProfile::Parse(text);
    benchmark::DoNotOptimize(profile);
  }
}
BENCHMARK(BM_ProfileParse);

// Serve warm path with the query log and flight recorder off vs on. The
// budget is < 5% overhead; the pair below feeds both the google-benchmark
// console table and the BENCH_micro.json report written from main().
double WarmServeSecondsPerCall(bool observability_on, size_t iters) {
  const auto& db = SharedDb();
  obs::FlightRecorder flight;
  serve::ServingContext::Options options;
  options.query_log_enabled = observability_on;
  if (observability_on) {
    options.flight = &flight;
    flight.CaptureStatusErrors(true);
  }
  serve::ServingContext ctx(&db, options);
  auto session = ctx.OpenSession("bench", SharedProfile());
  if (!session.ok()) return -1;
  auto query = sql::ParseQuery("select mid, title from movie");
  if (!query.ok()) return -1;
  core::PersonalizeOptions popts;
  popts.k = 10;
  popts.l = 2;
  // First calls populate the graph, selection and plan caches; measure only
  // fully warm iterations.
  for (size_t i = 0; i < 20; ++i) {
    auto answer = (*session)->Personalize((*query)->single(), popts);
    if (!answer.ok()) return -1;
  }
  const double seconds = bench::TimeSeconds([&] {
    for (size_t i = 0; i < iters; ++i) {
      auto answer = (*session)->Personalize((*query)->single(), popts);
      benchmark::DoNotOptimize(answer);
    }
  });
  return seconds / static_cast<double>(iters);
}

void BM_ServeWarmPersonalize(benchmark::State& state) {
  const bool observability_on = state.range(0) != 0;
  const auto& db = SharedDb();
  obs::FlightRecorder flight;
  serve::ServingContext::Options options;
  options.query_log_enabled = observability_on;
  if (observability_on) options.flight = &flight;
  serve::ServingContext ctx(&db, options);
  auto session = ctx.OpenSession("bench", SharedProfile());
  auto query = sql::ParseQuery("select mid, title from movie");
  core::PersonalizeOptions popts;
  popts.k = 10;
  popts.l = 2;
  auto warm = (*session)->Personalize((*query)->single(), popts);
  benchmark::DoNotOptimize(warm);
  for (auto _ : state) {
    auto answer = (*session)->Personalize((*query)->single(), popts);
    benchmark::DoNotOptimize(answer);
  }
}
BENCHMARK(BM_ServeWarmPersonalize)->Arg(0)->Arg(1);

void BM_SqlParse(benchmark::State& state) {
  const std::string sql =
      "select m.title, 0.72 degree from movie m, directed d, director di "
      "where m.mid = d.mid and d.did = di.did and di.name = 'W. Allen' "
      "order by m.title limit 10";
  for (auto _ : state) {
    auto query = sql::ParseQuery(sql);
    benchmark::DoNotOptimize(query);
  }
}
BENCHMARK(BM_SqlParse);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Observability overhead check, measured outside google-benchmark so the
  // numbers land in BENCH_micro.json like every figure reproduction.
  // Alternating rounds + min-per-config keeps slow machine drift from
  // polluting either side of the comparison.
  const size_t iters = 400;
  double off = std::numeric_limits<double>::infinity();
  double on = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 3; ++round) {
    const double o = WarmServeSecondsPerCall(/*observability_on=*/false,
                                             iters);
    const double w = WarmServeSecondsPerCall(/*observability_on=*/true, iters);
    if (o <= 0 || w <= 0) {
      std::fprintf(stderr, "serve warm-path measurement failed\n");
      return 1;
    }
    off = std::min(off, o);
    on = std::min(on, w);
  }
  const double overhead_pct = 100.0 * (on - off) / off;
  std::printf(
      "\nserve warm path: observability off %.1f us/call, on %.1f us/call "
      "(overhead %.2f%%)\n",
      off * 1e6, on * 1e6, overhead_pct);

  bench::BenchReport report("micro");
  report.Config("movies", static_cast<double>(
                              datagen::MovieGenConfig::TestScale().num_movies));
  report.Config("iters", static_cast<double>(iters));
  report.BeginPoint();
  report.Metric("serve_warm_off_seconds_per_call", off);
  report.Metric("serve_warm_on_seconds_per_call", on);
  report.Metric("serve_warm_overhead_pct", overhead_pct);
  report.Write();
  return 0;
}
