// obs::IntrospectionServer tests plus the ServingContext endpoint wiring
// (/metrics, /metrics.json, /healthz, /statusz, /flightz, /tracez) and the
// Scheduler's windowed shed-rate health source.
//
// Environment caveat: sandboxes may forbid even loopback listeners. Every
// server-dependent test calls Start and SKIPS (not fails) when the bind is
// refused — the degradation contract ServingContext itself follows. The
// whole file runs under the `sanitizer` CTest label.

#include "obs/introspect.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datagen/moviegen.h"
#include "datagen/profilegen.h"
#include "obs/prof.h"
#include "qp.h"
#include "test_support.h"

namespace qp {
namespace {

using obs::HttpGet;
using obs::HttpRawRequest;
using obs::HttpResult;
using test::Latch;
using test::SmallConfig;

/// Starts `server` on an ephemeral port; null-skips the test when the
/// sandbox refuses the bind.
#define START_OR_SKIP(server, options)                                  \
  do {                                                                  \
    std::string error;                                                  \
    if (!(server).Start((options), &error)) {                           \
      GTEST_SKIP() << "loopback bind unavailable here: " << error;      \
    }                                                                   \
  } while (0)

TEST(IntrospectionServerTest, ServesRegisteredExactPaths) {
  obs::IntrospectionServer server;
  server.Handle("/hello", [](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.body = "hi\n";
    return response;
  });
  obs::IntrospectionServer::Options options;
  START_OR_SKIP(server, options);
  ASSERT_GT(server.port(), 0);

  const HttpResult hello = HttpGet(server.port(), "/hello");
  ASSERT_TRUE(hello.ok);
  EXPECT_EQ(hello.status, 200);
  EXPECT_EQ(hello.body, "hi\n");
  EXPECT_NE(hello.headers.find("Content-Length: 3"), std::string::npos);

  // Query strings are stripped before matching.
  const HttpResult query = HttpGet(server.port(), "/hello?verbose=1");
  ASSERT_TRUE(query.ok);
  EXPECT_EQ(query.status, 200);

  const HttpResult missing = HttpGet(server.port(), "/nope");
  ASSERT_TRUE(missing.ok);
  EXPECT_EQ(missing.status, 404);

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(QueryParamsTest, ParsesDecodesAndOrders) {
  const auto params = obs::ParseQueryParams("a=1&b=x%20y&flag&c=%3D%26&d=p+q");
  ASSERT_EQ(params.size(), 5u);
  EXPECT_EQ(params[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(params[1], (std::pair<std::string, std::string>{"b", "x y"}));
  EXPECT_EQ(params[2], (std::pair<std::string, std::string>{"flag", ""}));
  EXPECT_EQ(params[3], (std::pair<std::string, std::string>{"c", "=&"}));
  EXPECT_EQ(params[4], (std::pair<std::string, std::string>{"d", "p q"}));
}

TEST(QueryParamsTest, MalformedEscapesPassThroughLiterally) {
  const auto params = obs::ParseQueryParams("k=%zz&m=%2&empty=&&tail");
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].second, "%zz");
  EXPECT_EQ(params[1].second, "%2");
  EXPECT_EQ(params[2].second, "");
  EXPECT_EQ(params[3].first, "tail");
}

TEST(QueryParamsTest, ParamAndIntParamLookup) {
  obs::HttpRequest request;
  request.params = obs::ParseQueryParams("seconds=5&bad=abc&neg=-3&dup=1&dup=2");
  ASSERT_NE(request.Param("seconds"), nullptr);
  EXPECT_EQ(*request.Param("seconds"), "5");
  EXPECT_EQ(request.Param("missing"), nullptr);
  EXPECT_EQ(request.IntParam("seconds", 9), 5);
  EXPECT_EQ(request.IntParam("bad", 9), 9);
  EXPECT_EQ(request.IntParam("neg", 9), -3);
  EXPECT_EQ(request.IntParam("missing", 9), 9);
  EXPECT_EQ(request.IntParam("dup", 9), 1);  // first value wins
}

TEST(IntrospectionServerTest, HandlersReceiveDecodedQueryParams) {
  obs::IntrospectionServer server;
  std::mutex mu;
  std::string seen_path;
  std::vector<std::pair<std::string, std::string>> seen_params;
  server.Handle("/echo", [&](const obs::HttpRequest& request) {
    std::lock_guard<std::mutex> lock(mu);
    seen_path = request.path;
    seen_params = request.params;
    obs::HttpResponse response;
    response.body = std::to_string(request.IntParam("seconds", -1));
    return response;
  });
  obs::IntrospectionServer::Options options;
  START_OR_SKIP(server, options);

  const HttpResult r = HttpGet(server.port(), "/echo?seconds=7&who=a%20b");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "7");
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(seen_path, "/echo");
    ASSERT_EQ(seen_params.size(), 2u);
    EXPECT_EQ(seen_params[1],
              (std::pair<std::string, std::string>{"who", "a b"}));
  }
  server.Stop();
}

TEST(IntrospectionServerTest, RejectsNonGetMethods) {
  obs::IntrospectionServer server;
  server.Handle("/x",
                [](const obs::HttpRequest&) { return obs::HttpResponse{}; });
  obs::IntrospectionServer::Options options;
  START_OR_SKIP(server, options);
  const HttpResult post = HttpRawRequest(
      server.port(),
      "POST /x HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(post.ok);
  EXPECT_EQ(post.status, 405);
  server.Stop();
}

TEST(IntrospectionServerTest, HandlerStatusAndContentTypePassThrough) {
  obs::IntrospectionServer server;
  server.Handle("/unhealthy", [](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.status = 503;
    response.content_type = "application/json";
    response.body = "{}";
    return response;
  });
  obs::IntrospectionServer::Options options;
  START_OR_SKIP(server, options);
  const HttpResult r = HttpGet(server.port(), "/unhealthy");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.headers.find("Content-Type: application/json"),
            std::string::npos);
  server.Stop();
}

TEST(IntrospectionServerTest, ConcurrentScrapesAllAnswer) {
  obs::IntrospectionServer server;
  std::atomic<size_t> calls{0};
  server.Handle("/busy", [&](const obs::HttpRequest&) {
    calls.fetch_add(1, std::memory_order_relaxed);
    obs::HttpResponse response;
    response.body = std::string(1 << 16, 'x');  // force multi-write bodies
    return response;
  });
  obs::IntrospectionServer::Options options;
  START_OR_SKIP(server, options);

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 10;
  std::atomic<size_t> ok{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const HttpResult r = HttpGet(server.port(), "/busy");
        if (r.ok && r.status == 200 && r.body.size() == (1u << 16)) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(calls.load(), kThreads * kPerThread);
  server.Stop();
}

// ---------------------------------------------------------------------------
// ServingContext endpoint integration

class ServingEndpointsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const datagen::ProfileGenConfig config = SmallConfig(7);
    auto db = datagen::GenerateMovieDatabase(config.db_config);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::make_unique<storage::Database>(std::move(db).value());
    auto profile = datagen::GenerateProfile(config);
    ASSERT_TRUE(profile.ok()) << profile.status();
    profile_ = std::move(profile).value();
  }

  std::unique_ptr<storage::Database> db_;
  core::UserProfile profile_;
};

TEST_F(ServingEndpointsTest, AllSixEndpointsServe) {
  serve::ServingContext::Options options;
  options.introspect_port = 0;
  options.trace_sample_every = 1;
  serve::ServingContext ctx(db_.get(), options);
  if (ctx.introspect_port() < 0) {
    GTEST_SKIP() << "loopback bind unavailable here";
  }
  auto session = ctx.OpenSession("al", profile_);
  ASSERT_TRUE(session.ok()) << session.status();
  core::PersonalizeOptions popts;
  popts.k = 4;
  popts.l = 1;
  auto answer =
      session.value()->Personalize("select mid, title from movie", popts);
  ASSERT_TRUE(answer.ok()) << answer.status();

  const int port = ctx.introspect_port();

  const HttpResult metrics = HttpGet(port, "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("qp_serve_personalize_calls_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("qp_slo_attainment_ratio"), std::string::npos);
  EXPECT_NE(metrics.headers.find("text/plain"), std::string::npos);

  const HttpResult json = HttpGet(port, "/metrics.json");
  ASSERT_TRUE(json.ok);
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.body.rfind("{\"counters\":", 0), 0u);
  EXPECT_NE(json.body.find("qp_slo_attainment_ratio"), std::string::npos);

  const HttpResult healthz = HttpGet(port, "/healthz");
  ASSERT_TRUE(healthz.ok);
  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, "ok\n");

  const HttpResult statusz = HttpGet(port, "/statusz");
  ASSERT_TRUE(statusz.ok);
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("uptime"), std::string::npos);
  EXPECT_NE(statusz.body.find("sessions"), std::string::npos);
  EXPECT_NE(statusz.body.find("slo"), std::string::npos);

  const HttpResult flightz = HttpGet(port, "/flightz");
  ASSERT_TRUE(flightz.ok);
  EXPECT_EQ(flightz.status, 200);

  // trace_sample_every=1: the personalize call above must be in the ring.
  const HttpResult tracez = HttpGet(port, "/tracez");
  ASSERT_TRUE(tracez.ok);
  EXPECT_EQ(tracez.status, 200);
  EXPECT_EQ(tracez.body.front(), '[');
  EXPECT_NE(tracez.body.find("personalize"), std::string::npos);
}

TEST_F(ServingEndpointsTest, ProfilingEndpointsServe) {
  serve::ServingContext::Options options;
  options.introspect_port = 0;
  serve::ServingContext ctx(db_.get(), options);
  if (ctx.introspect_port() < 0) {
    GTEST_SKIP() << "loopback bind unavailable here";
  }
  auto session = ctx.OpenSession("al", profile_);
  ASSERT_TRUE(session.ok()) << session.status();
  core::PersonalizeOptions popts;
  popts.k = 4;
  popts.l = 1;
  auto answer =
      session.value()->Personalize("select mid, title from movie", popts);
  ASSERT_TRUE(answer.ok()) << answer.status();
  const int port = ctx.introspect_port();

  // /contentionz names the profiled sites that exist in every context.
  const HttpResult contention = HttpGet(port, "/contentionz");
  ASSERT_TRUE(contention.ok);
  EXPECT_EQ(contention.status, 200);
  EXPECT_NE(contention.body.find("serve_sessions"), std::string::npos);
  EXPECT_NE(contention.body.find("introspect_pool"), std::string::npos);

  // /allocz answers 200 in every build; with the interposed heap profiler
  // available the sampler is enabled and (given enough allocation volume)
  // attributes stacks, but an empty capture is legal — only the transport
  // and format are pinned here.
  const HttpResult alloc = HttpGet(port, "/allocz");
  ASSERT_TRUE(alloc.ok);
  EXPECT_EQ(alloc.status, 200);
  const HttpResult alloc_cumulative = HttpGet(port, "/allocz?which=alloc");
  ASSERT_TRUE(alloc_cumulative.ok);
  EXPECT_EQ(alloc_cumulative.status, 200);
  if (obs::HeapProfiler::Available()) {
    EXPECT_TRUE(ctx.metrics());  // sampler enabled with introspection
    EXPECT_TRUE(obs::HeapProfiler::Global().enabled());
  }

  // /pprofz with a 1-second on-demand window while a worker burns CPU.
  std::atomic<bool> stop{false};
  std::thread burner([&] {
    volatile uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 4096; ++i) sink = sink + static_cast<uint64_t>(i) * 2654435761u;
    }
  });
  const HttpResult pprof = HttpGet(port, "/pprofz?seconds=1");
  stop.store(true, std::memory_order_relaxed);
  burner.join();
  ASSERT_TRUE(pprof.ok);
  EXPECT_EQ(pprof.status, 200);
  EXPECT_FALSE(pprof.body.empty());

  // The qp_prof_* and qp_process_cpu_seconds_total families are exposed,
  // and the CPU-seconds counter reads nonzero (/proc/self/stat).
  const HttpResult metrics = HttpGet(port, "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_NE(metrics.body.find("# TYPE qp_process_cpu_seconds_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("qp_prof_cpu_samples_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("qp_prof_lock_acquisitions_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("qp_prof_heap_sampled_allocs_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("qp_prof_heap_live_sampled_bytes"),
            std::string::npos);
}

TEST_F(ServingEndpointsTest, HealthSourcesDriveHealthz) {
  serve::ServingContext ctx(db_.get());
  EXPECT_EQ(ctx.Healthz().status, 200);

  const size_t id = ctx.AddHealthSource(
      "storage", [] { return std::string("disk full"); });
  const obs::HttpResponse sick = ctx.Healthz();
  EXPECT_EQ(sick.status, 503);
  EXPECT_NE(sick.body.find("storage: disk full"), std::string::npos);

  ctx.RemoveHealthSource(id);
  EXPECT_EQ(ctx.Healthz().status, 200);
}

TEST_F(ServingEndpointsTest, DisabledIntrospectionReportsNoPort) {
  serve::ServingContext ctx(db_.get());  // default: introspect_port = -1
  EXPECT_EQ(ctx.introspect_port(), -1);
}

// ---------------------------------------------------------------------------
// Scheduler shed-rate health source

TEST_F(ServingEndpointsTest, SchedulerShedRateTripsHealthz) {
  serve::ServingContext::Options ctx_options;
  // Pin the windowed structures' clock so shed counts cannot age out
  // mid-test.
  ctx_options.clock = [] { return 0.0; };
  serve::ServingContext ctx(db_.get(), ctx_options);

  serve::Scheduler::Options options;
  options.num_shards = 1;
  options.shard_queue_capacity = 1;
  serve::Scheduler scheduler(&ctx, options);
  EXPECT_EQ(ctx.Healthz().status, 200);  // registered but quiet

  Latch latch;
  serve::Request wedge;
  wedge.user_id = "u";
  wedge.intercept = [&latch] { return latch.Block(); };
  auto wedged = scheduler.Submit(std::move(wedge));
  ASSERT_TRUE(wedged.ok()) << wedged.status();
  latch.AwaitEntered();  // worker busy; the queue is empty again

  serve::Request fill;
  fill.user_id = "u";
  fill.intercept = [] { return Status::OK(); };
  auto queued = scheduler.Submit(std::move(fill));
  ASSERT_TRUE(queued.ok()) << queued.status();

  // Queue full: these all shed. 3 shed / 5 arrivals = 60% > the 50% bar.
  for (int i = 0; i < 3; ++i) {
    serve::Request excess;
    excess.user_id = "u";
    excess.intercept = [] { return Status::OK(); };
    auto shed = scheduler.Submit(std::move(excess));
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), StatusCode::kOverloaded);
  }

  const obs::HttpResponse sick = ctx.Healthz();
  EXPECT_EQ(sick.status, 503);
  EXPECT_NE(sick.body.find("scheduler"), std::string::npos);
  EXPECT_NE(sick.body.find("shedding"), std::string::npos);

  // Shed requests are SLO violations recorded by the scheduler (they never
  // reach a session).
  EXPECT_EQ(ctx.slo()->total(), 3u);
  EXPECT_EQ(ctx.slo()->good(), 0u);

  latch.Release();
  wedged.value()->Wait();
  queued.value()->Wait();
  scheduler.Shutdown();
  // Shutdown removes the health source: /healthz recovers immediately.
  EXPECT_EQ(ctx.Healthz().status, 200);
}

TEST_F(ServingEndpointsTest, QueueDepthGaugesTrackEnqueueDequeue) {
  serve::ServingContext ctx(db_.get());
  serve::Scheduler::Options options;
  options.num_shards = 1;
  options.shard_queue_capacity = 8;
  serve::Scheduler scheduler(&ctx, options);

  obs::Gauge* depth = ctx.metrics()->GetGauge(
      "qp_sched_queue_depth", {{"shard", "0"}, {"lane", "normal"}});

  Latch latch;
  serve::Request wedge;
  wedge.user_id = "u";
  wedge.intercept = [&latch] { return latch.Block(); };
  auto wedged = scheduler.Submit(std::move(wedge));
  ASSERT_TRUE(wedged.ok());
  latch.AwaitEntered();

  for (int i = 0; i < 3; ++i) {
    serve::Request r;
    r.user_id = "u";
    r.lane = serve::Lane::kNormal;
    r.intercept = [] { return Status::OK(); };
    ASSERT_TRUE(scheduler.Submit(std::move(r)).ok());
  }
  EXPECT_DOUBLE_EQ(depth->Value(), 3.0);

  latch.Release();
  scheduler.Shutdown(/*drain=*/true);
  EXPECT_DOUBLE_EQ(depth->Value(), 0.0);
  const serve::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.dispatched, 4u);
}

}  // namespace
}  // namespace qp
