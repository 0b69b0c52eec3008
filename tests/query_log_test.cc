// obs::QueryLog tests. The headline property inherits the repo's trace
// determinism contract: for the same request stream through a
// serve::ServingContext, the records' DeterministicString renders are
// byte-identical at 1, 2 and 8 threads — only the *_seconds timings may
// vary. Also covers the every-record ring, its wrap and concurrent Record.
// Runs under TSan/ASan via the `sanitizer` label.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "datagen/moviegen.h"
#include "datagen/profilegen.h"
#include "obs/query_log.h"
#include "qp.h"
#include "test_support.h"

namespace qp::obs {
namespace {

using test::SmallConfig;

QueryLogRecord MakeRecord(const std::string& fingerprint,
                          double total_seconds) {
  QueryLogRecord r;
  r.user_id = "u";
  r.fingerprint = fingerprint;
  r.algorithm = "ppa";
  r.k = 5;
  r.l = 1;
  r.total_seconds = total_seconds;
  return r;
}

TEST(QueryLogRecordTest, DeterministicStringExcludesTimings) {
  QueryLogRecord a = MakeRecord("abc", 0.001);
  QueryLogRecord b = a;
  b.total_seconds = 9.0;
  b.state_seconds = 1.0;
  b.selection_seconds = 2.0;
  b.plan_seconds = 3.0;
  b.execute_seconds = 4.0;
  b.thread_seconds = 5.0;
  EXPECT_EQ(a.DeterministicString(), b.DeterministicString());
  EXPECT_NE(a.ToString(), b.ToString());

  // Every deterministic field must show up in the render.
  b.rows_returned = 7;
  EXPECT_NE(a.DeterministicString(), b.DeterministicString());
}

TEST(QueryLogTest, RecordKeepsEverything) {
  QueryLog log;
  for (int i = 0; i < 10; ++i) log.Record(MakeRecord("f", 0.001));
  EXPECT_EQ(log.seen(), 10u);
  const auto records = log.Snapshot();
  ASSERT_EQ(records.size(), 10u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
  }
}

TEST(QueryLogTest, RingWrapKeepsNewestRecords) {
  QueryLog log;
  const size_t total = QueryLog::kCapacity + 6;
  for (size_t i = 0; i < total; ++i) log.Record(MakeRecord("f", 0.001));
  EXPECT_EQ(log.seen(), total);
  const auto records = log.Snapshot();
  ASSERT_EQ(records.size(), QueryLog::kCapacity);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, 6 + i);  // oldest first, newest kCapacity kept
  }
}

TEST(QueryLogTest, ConcurrentRecordCountsAreExact) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 200;
  static_assert(kThreads * kPerThread > QueryLog::kCapacity,
                "the writers must wrap the ring");
  QueryLog log;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        log.Record(MakeRecord("t" + std::to_string(t), 0.001));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(log.seen(), kThreads * kPerThread);
  const auto records = log.Snapshot();
  EXPECT_LE(records.size(), QueryLog::kCapacity);
  EXPECT_GE(records.size(), 1u);
  // Every surviving record is intact (no torn slots): seqs are unique and
  // within the issued range. Ring order is by append ticket, which may
  // interleave with seq assignment under concurrency, so no order check.
  std::vector<uint64_t> seqs;
  for (const auto& record : records) seqs.push_back(record.seq);
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(std::unique(seqs.begin(), seqs.end()), seqs.end());
  EXPECT_LT(seqs.back(), kThreads * kPerThread);
}

TEST(QueryLogTest, DumpListsRecords) {
  QueryLog log;
  log.Record(MakeRecord("deadbeef", 0.001));
  const std::string dump = log.Dump();
  EXPECT_NE(dump.find("seen=1 showing=1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("deadbeef"), std::string::npos);
}

// --- the serve-level determinism contract ---

TEST(QueryLogServeTest, RecordsByteIdenticalAcrossThreadCounts) {
  const auto config = SmallConfig(5);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok()) << profile.status();

  const std::vector<std::string> sqls = {
      "select mid, title from movie",
      "select mid, title from movie where movie.year >= 1990",
      "select title from movie",
  };

  std::vector<std::vector<std::string>> renders;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    serve::ServingContext::Options ctx_options;
    ctx_options.num_threads = threads;
    serve::ServingContext ctx(&*db, ctx_options);
    auto session = ctx.OpenSession("alice", *profile);
    ASSERT_TRUE(session.ok()) << session.status();
    // Two rounds so the stream contains both cold records (every cache
    // misses) and warm ones (state reused, selection + plan hits).
    for (int round = 0; round < 2; ++round) {
      for (const auto& sql : sqls) {
        for (core::AnswerAlgorithm algorithm :
             {core::AnswerAlgorithm::kPpa, core::AnswerAlgorithm::kSpa}) {
          core::PersonalizeOptions popts;
          popts.k = 5;
          popts.l = 1;
          popts.algorithm = algorithm;
          auto answer = (*session)->Personalize(sql, popts);
          ASSERT_TRUE(answer.ok()) << answer.status();
        }
      }
    }
    ASSERT_NE(ctx.query_log(), nullptr);
    const auto records = ctx.query_log()->Snapshot();
    ASSERT_EQ(records.size(), sqls.size() * 2 * 2);
    std::vector<std::string> r;
    for (const auto& record : records) {
      r.push_back(record.DeterministicString());
    }
    renders.push_back(std::move(r));
  }
  ASSERT_EQ(renders.size(), 3u);
  EXPECT_EQ(renders[0], renders[1]);
  EXPECT_EQ(renders[0], renders[2]);

  // Spot-check the stream shape via the single-thread run: the first
  // record is fully cold, the same request one round later is fully warm
  // with the same fingerprint.
  const auto& first = renders[0].front();
  EXPECT_NE(first.find("state_reused=false"), std::string::npos);
  EXPECT_NE(first.find("selection_cache_hit=false"), std::string::npos);
  EXPECT_NE(first.find("plan_cache_hit=false"), std::string::npos);
  const auto& warm = renders[0][sqls.size() * 2];
  EXPECT_NE(warm.find("state_reused=true"), std::string::npos);
  EXPECT_NE(warm.find("selection_cache_hit=true"), std::string::npos);
  EXPECT_NE(warm.find("plan_cache_hit=true"), std::string::npos);
}

TEST(QueryLogServeTest, DisablingTheLogRemovesIt) {
  const auto config = SmallConfig(7);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok());

  serve::ServingContext::Options ctx_options;
  ctx_options.query_log_enabled = false;
  serve::ServingContext ctx(&*db, ctx_options);
  EXPECT_EQ(ctx.query_log(), nullptr);
  auto session = ctx.OpenSession("bob", *profile);
  ASSERT_TRUE(session.ok());
  core::PersonalizeOptions popts;
  popts.k = 4;
  popts.l = 1;
  auto answer = (*session)->Personalize("select mid, title from movie", popts);
  EXPECT_TRUE(answer.ok()) << answer.status();
}

}  // namespace
}  // namespace qp::obs
