// qp::obs unit tests: histogram bucket math, concurrent registry updates
// under a real ThreadPool (exact totals — the counters are lock-free but
// must not lose increments), and the Prometheus/JSON exposition formats.
// Runs under TSan/ASan via the `sanitizer` CTest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/ring.h"
#include "obs/trace.h"

namespace qp::obs {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(HistogramTest, BucketForFollowsPrometheusLeConvention) {
  Histogram h({1.0, 2.0, 5.0});
  ASSERT_EQ(h.num_buckets(), 4u);  // three bounds + the +Inf bucket
  EXPECT_EQ(h.BucketFor(0.5), 0u);
  EXPECT_EQ(h.BucketFor(1.0), 0u);  // le="1" is inclusive
  EXPECT_EQ(h.BucketFor(1.1), 1u);
  EXPECT_EQ(h.BucketFor(2.0), 1u);
  EXPECT_EQ(h.BucketFor(5.0), 2u);
  EXPECT_EQ(h.BucketFor(5.1), 3u);
  EXPECT_EQ(h.BucketFor(std::numeric_limits<double>::infinity()), 3u);
}

TEST(HistogramTest, EmptyBoundsLeaveOnlyInfBucket) {
  Histogram h({});
  ASSERT_EQ(h.num_buckets(), 1u);
  h.Observe(0.0);
  h.Observe(1e9);
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.buckets[0], 2u);
}

TEST(HistogramTest, SnapshotTracksCountAndSum) {
  Histogram h({1.0, 10.0});
  h.Observe(0.5);
  h.Observe(0.5);
  h.Observe(7.0);
  h.Observe(100.0);
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 108.0);
  ASSERT_EQ(snap.buckets.size(), 3u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
}

TEST(HistogramTest, DefaultLatencyBucketsAreStrictlyIncreasing) {
  const std::vector<double> bounds = DefaultLatencyBuckets();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << "at index " << i;
  }
  EXPECT_LE(bounds.front(), 1e-4);  // covers sub-100us executor queries
  EXPECT_GE(bounds.back(), 1.0);    // covers paper-scale Personalize calls
}

TEST(RegistryTest, GetReturnsStablePointersAndReusesNames) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("qp_test_total", "help");
  Counter* b = registry.GetCounter("qp_test_total");
  EXPECT_EQ(a, b);
  Histogram* h1 = registry.GetHistogram("qp_test_seconds", {1.0, 2.0});
  Histogram* h2 = registry.GetHistogram("qp_test_seconds", {9.0});
  EXPECT_EQ(h1, h2);
  // First registration wins: the bounds are not replaced.
  EXPECT_EQ(h2->bounds(), (std::vector<double>{1.0, 2.0}));
}

struct TableSnapshot {
  size_t a = 0;
  size_t b = 0;
};

constexpr CounterRow<TableSnapshot> kTestTable[] = {
    {"table_a_total", "first", &TableSnapshot::a},
    {"table_b_total", "second", &TableSnapshot::b},
};

TEST(RegistryTest, CounterTablesResolveOncePerRegistry) {
  // The first registration resolves the rows under the registry lock; later
  // ones (an Executor per call) read the cached pointers without it.
  MetricsRegistry registry;
  EXPECT_EQ(registry.FindTable(kTestTable), nullptr);
  const auto first = RegisterCounters(registry, kTestTable);
  const std::vector<Counter*>* cached = registry.FindTable(kTestTable);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(*cached, (std::vector<Counter*>{first[0], first[1]}));
  EXPECT_EQ(first[0], registry.GetCounter("table_a_total"));
  EXPECT_EQ(RegisterCounters(registry, kTestTable), first);
  // Another registry resolves its own series.
  MetricsRegistry other;
  EXPECT_NE(RegisterCounters(other, kTestTable)[0], first[0]);
  // Racing first registrations all get the one cached table.
  MetricsRegistry raced;
  std::vector<std::array<Counter*, 2>> seen(8);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back(
        [&, t] { seen[t] = RegisterCounters(raced, kTestTable); });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& counters : seen) EXPECT_EQ(counters, seen[0]);
  EXPECT_EQ(*raced.FindTable(kTestTable),
            (std::vector<Counter*>{seen[0][0], seen[0][1]}));
}

TEST(RegistryTest, ConcurrentUpdatesAreExact) {
  // Hammer one shared counter, per-thread counters and one shared histogram
  // from a real pool; every increment must land (lock-free != lossy). Under
  // -L sanitizer this also proves the hot paths are race-free.
  MetricsRegistry registry;
  constexpr size_t kThreads = 8;
  constexpr size_t kPerTask = 10000;
  common::ThreadPool pool(kThreads - 1);
  std::vector<std::function<void()>> tasks;
  for (size_t t = 0; t < kThreads; ++t) {
    tasks.push_back([&registry, t] {
      // Mixing registration into the loop exercises the registry mutex
      // against concurrent lock-free updates.
      Counter* shared = registry.GetCounter("qp_shared_total");
      Counter* mine =
          registry.GetCounter("qp_task_total{task=\"" + std::to_string(t) +
                              "\"}");
      Histogram* lat =
          registry.GetHistogram("qp_lat_seconds", DefaultLatencyBuckets());
      for (size_t i = 0; i < kPerTask; ++i) {
        shared->Increment();
        mine->Increment();
        lat->Observe(1e-4 * static_cast<double>(i % 7));
      }
    });
  }
  pool.RunAll(std::move(tasks));
  EXPECT_EQ(registry.GetCounter("qp_shared_total")->Value(),
            kThreads * kPerTask);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry
                  .GetCounter("qp_task_total{task=\"" + std::to_string(t) +
                              "\"}")
                  ->Value(),
              kPerTask);
  }
  const Histogram::Snapshot snap =
      registry.GetHistogram("qp_lat_seconds", {})->snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerTask);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(RegistryTest, RenderTextFollowsPrometheusExposition) {
  MetricsRegistry registry;
  registry.GetCounter("qp_calls_total", "Calls served")->Increment(3);
  registry.GetCounter("qp_hits_total{kind=\"plan\"}")->Increment(2);
  registry.GetCounter("qp_hits_total{kind=\"selection\"}")->Increment(5);
  Histogram* h = registry.GetHistogram("qp_lat_seconds", {0.1, 1.0}, "Latency");
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(2.0);

  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("# HELP qp_calls_total Calls served\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE qp_calls_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("qp_calls_total 3\n"), std::string::npos);
  // Labeled series share one TYPE header under the base name.
  EXPECT_EQ(text.find("# TYPE qp_hits_total counter"),
            text.rfind("# TYPE qp_hits_total counter"));
  EXPECT_NE(text.find("qp_hits_total{kind=\"plan\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("qp_hits_total{kind=\"selection\"} 5\n"),
            std::string::npos);
  // Histogram: cumulative buckets, +Inf == count, then _sum and _count.
  EXPECT_NE(text.find("# TYPE qp_lat_seconds histogram\n"), std::string::npos);
  EXPECT_NE(text.find("qp_lat_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("qp_lat_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("qp_lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("qp_lat_seconds_count 3\n"), std::string::npos);
}

TEST(RegistryTest, RenderJsonRoundTripsValues) {
  MetricsRegistry registry;
  registry.GetCounter("qp_a_total")->Increment(7);
  Histogram* h = registry.GetHistogram("qp_b_seconds", {1.0});
  h->Observe(0.5);
  h->Observe(3.0);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"qp_a_total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":3.5"), std::string::npos);
  EXPECT_NE(json.find("\"bounds\":[1]"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[1,1]"), std::string::npos);
  // Free-function spellings match the members.
  EXPECT_EQ(RenderText(registry), registry.RenderText());
  EXPECT_EQ(RenderJson(registry), registry.RenderJson());
}

TEST(TraceSpanTest, BuildRenderAndShape) {
  TraceSpan root("query");
  TraceSpan* scan = root.AddChild("scan movie");
  scan->AddAttr("rows", size_t{60});
  scan->set_seconds(0.25);
  root.AddChild("join genre");

  const std::string plain = root.ToString(false);
  EXPECT_EQ(plain, "query\n  scan movie\n  join genre\n");
  const std::string analyzed = root.ToString(true);
  EXPECT_NE(analyzed.find("scan movie (rows=60) [250.000 ms]"),
            std::string::npos);
  // RenderChildren drops the synthetic root line; children start at
  // indent 0 (the legacy Explain top-level lines).
  EXPECT_EQ(root.RenderChildren(false), "scan movie\njoin genre\n");

  TraceSpan other("query");
  TraceSpan* s2 = other.AddChild("scan movie");
  s2->AddAttr("rows", size_t{60});
  s2->set_seconds(99.0);  // timings must not affect shape
  other.AddChild("join genre");
  EXPECT_TRUE(root.SameShape(other));
  other.AddChild("extra");
  EXPECT_FALSE(root.SameShape(other));
}

TEST(TraceSpanTest, SlotsAdoptInIndexOrder) {
  // The parallel fan-out discipline: record into preallocated slots, adopt
  // in index order — the tree is identical to a serial loop's.
  TraceSpan parallel_root("root");
  std::vector<TraceSpan> slots = TraceSpan::MakeSlots(3);
  for (size_t i = 2; i + 1 > 0; --i) {  // "finish" in reverse wall order
    slots[i].set_name("task " + std::to_string(i));
    slots[i].AddAttr("rows", i);
  }
  for (auto& slot : slots) parallel_root.Adopt(std::move(slot));

  TraceSpan serial_root("root");
  for (size_t i = 0; i < 3; ++i) {
    TraceSpan* c = serial_root.AddChild("task " + std::to_string(i));
    c->AddAttr("rows", i);
  }
  EXPECT_TRUE(parallel_root.SameShape(serial_root));
}

TEST(HistogramTest, QuantileInterpolatesKnownDistribution) {
  Histogram h({1.0, 2.0, 5.0});
  // 10 observations, all in the first bucket (lower edge 0, upper 1).
  for (int i = 0; i < 10; ++i) h.Observe(0.5);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.5);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);

  // A spread population: 4 in (1,2], 4 in (2,5], 2 in the +Inf bucket.
  Histogram spread({1.0, 2.0, 5.0});
  for (int i = 0; i < 4; ++i) spread.Observe(1.5);
  for (int i = 0; i < 4; ++i) spread.Observe(3.0);
  for (int i = 0; i < 2; ++i) spread.Observe(100.0);
  EXPECT_DOUBLE_EQ(spread.Quantile(0.2), 1.5);   // rank 2 of 4 in (1,2]
  EXPECT_DOUBLE_EQ(spread.Quantile(0.5), 2.75);  // rank 5 -> 1 into (2,5]
  // A rank landing in the +Inf bucket reports the highest finite bound.
  EXPECT_DOUBLE_EQ(spread.Quantile(0.95), 5.0);
  // p is clamped to [0, 1].
  EXPECT_DOUBLE_EQ(spread.Quantile(7.0), 5.0);
  EXPECT_DOUBLE_EQ(spread.Quantile(-1.0), spread.Quantile(0.0));

  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.Quantile(0.99), 0.0);
}

TEST(RegistryTest, EscapeLabelValueFollowsPrometheusSpec) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapeLabelValue("line1\nline2"), "line1\\nline2");
}

TEST(RegistryTest, LabeledNameBuildsEscapedSeries) {
  EXPECT_EQ(LabeledName("qp_x_total", {{"user", "alice"}}),
            "qp_x_total{user=\"alice\"}");
  EXPECT_EQ(LabeledName("qp_x_total", {{"a", "1"}, {"b", "2"}}),
            "qp_x_total{a=\"1\",b=\"2\"}");
  EXPECT_EQ(LabeledName("qp_x_total", {{"user", "a\"b"}}),
            "qp_x_total{user=\"a\\\"b\"}");
}

TEST(RegistryTest, LabelCardinalityCapReroutesToOverflow) {
  constexpr size_t kLimit = MetricsRegistry::kLabelCardinalityLimit;
  EXPECT_EQ(kLimit, 1024u);
  const auto user = [](size_t i) {
    return std::vector<MetricLabel>{{"user", "u" + std::to_string(i)}};
  };
  MetricsRegistry registry;
  // The first kLimit distinct users each get their own series.
  std::vector<Counter*> users;
  for (size_t i = 0; i < kLimit; ++i) {
    users.push_back(registry.GetCounter("qp_u_total", user(i)));
  }
  std::vector<Counter*> distinct = users;
  std::sort(distinct.begin(), distinct.end());
  EXPECT_EQ(std::unique(distinct.begin(), distinct.end()), distinct.end());
  // The next two distinct users hit the cap and share the __other__
  // overflow series.
  Counter* a = users.front();
  Counter* c = registry.GetCounter("qp_u_total", {{"user", "c"}});
  Counter* d = registry.GetCounter("qp_u_total", {{"user", "d"}});
  EXPECT_EQ(c, d);
  EXPECT_EQ(std::find(users.begin(), users.end(), c), users.end());
  // Pre-existing series keep resolving to their own pointer forever.
  EXPECT_EQ(registry.GetCounter("qp_u_total", user(0)), a);

  a->Increment();
  c->Increment();
  d->Increment();
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("qp_u_total{user=\"u0\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("qp_u_total{user=\"__other__\"} 2\n"),
            std::string::npos);
  EXPECT_EQ(text.find("user=\"c\""), std::string::npos);

  // Histograms cap the same way, per base name.
  std::vector<Histogram*> histograms;
  for (size_t i = 0; i < kLimit; ++i) {
    histograms.push_back(
        registry.GetHistogram("qp_lat_seconds", user(i), {1.0}));
  }
  Histogram* hc = registry.GetHistogram("qp_lat_seconds", {{"user", "c"}},
                                        {1.0});
  Histogram* hd = registry.GetHistogram("qp_lat_seconds", {{"user", "d"}},
                                        {1.0});
  EXPECT_NE(histograms.front(), histograms.back());
  EXPECT_EQ(hc, hd);
  EXPECT_EQ(std::find(histograms.begin(), histograms.end(), hc),
            histograms.end());

  // Unlabeled names are never capped.
  EXPECT_NE(registry.GetCounter("qp_plain_one_total"),
            registry.GetCounter("qp_plain_two_total"));
}

TEST(RingTest, WrapKeepsNewestByTicket) {
  OverwriteRing<int> ring(4);
  for (int i = 0; i < 10; ++i) ring.Append(i);
  EXPECT_EQ(ring.seen(), 10u);
  const std::vector<int> snapshot = ring.Snapshot();
  EXPECT_EQ(snapshot, (std::vector<int>{6, 7, 8, 9}));
}

TEST(RingTest, ZeroCapacityDropsEverything) {
  OverwriteRing<int> ring(0);
  ring.Append(1);
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST(RingTest, ConcurrentAppendsNeverTear) {
  OverwriteRing<uint64_t> ring(8);
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 1000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        ring.Append(t * kPerThread + i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ring.seen(), kThreads * kPerThread);
  const auto snapshot = ring.Snapshot();
  EXPECT_LE(snapshot.size(), 8u);
  for (uint64_t v : snapshot) EXPECT_LT(v, kThreads * kPerThread);
}

TEST(FlightRecorderTest, RecordsAndDumpsEvents) {
  FlightRecorder recorder;
  recorder.Record(FlightEventKind::kNote, "test", "hello");
  recorder.Record(FlightEventKind::kSpan, "serve", "personalize", 0.002);
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ToString(), "note test: hello");
  EXPECT_EQ(events[1].ToString(), "span serve: personalize [2.000 ms]");
  const std::string dump = recorder.Dump();
  EXPECT_NE(dump.find("seen=2"), std::string::npos);
  EXPECT_NE(dump.find("note test: hello"), std::string::npos);
  // Bounded: recording past the capacity drops the oldest events and
  // keeps the newest, in order.
  const size_t extra = FlightRecorder::kCapacity + 10;
  for (size_t i = 0; i < extra; ++i) {
    recorder.Record(FlightEventKind::kNote, "test", std::to_string(i));
  }
  const auto bounded = recorder.Snapshot();
  ASSERT_EQ(bounded.size(), FlightRecorder::kCapacity);
  EXPECT_EQ(recorder.seen(), extra + 2);
  EXPECT_EQ(bounded.front().detail,
            std::to_string(extra - FlightRecorder::kCapacity));
  EXPECT_EQ(bounded.back().detail, std::to_string(extra - 1));
}

TEST(FlightRecorderTest, CaptureStatusErrorsHooksOrigination) {
  FlightRecorder recorder;
  recorder.CaptureStatusErrors(true);
  {
    Status error = Status::NotFound("no such table 'nowhere'");
    EXPECT_FALSE(error.ok());
  }
  auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kError);
  EXPECT_EQ(events[0].source, "status");
  EXPECT_NE(events[0].detail.find("no such table 'nowhere'"),
            std::string::npos);

  // OK statuses never fire the hook.
  { Status ok; }
  EXPECT_EQ(recorder.Snapshot().size(), 1u);

  recorder.CaptureStatusErrors(false);
  { Status error = Status::NotFound("after disable"); }
  EXPECT_EQ(recorder.Snapshot().size(), 1u);
}

TEST(FlightRecorderTest, SecondRecorderStealsTheHook) {
  FlightRecorder first;
  first.CaptureStatusErrors(true);
  {
    FlightRecorder second;
    second.CaptureStatusErrors(true);
    { Status error = Status::NotFound("goes to second"); }
    EXPECT_EQ(first.Snapshot().size(), 0u);
    EXPECT_EQ(second.Snapshot().size(), 1u);
    // second's destructor releases the hook it owns.
  }
  { Status error = Status::NotFound("nobody listens"); }
  EXPECT_EQ(first.Snapshot().size(), 0u);
  first.CaptureStatusErrors(false);
}

}  // namespace
}  // namespace qp::obs
