// The profiling determinism contract, pinned differentially: running the
// EXACT same request stream with every profiling collector active (SIGPROF
// CPU sampling, heap sampling, contention-profiled mutexes — the latter are
// always on) must leave the deterministic surface byte-identical to a run
// with profiling off — answers (SameAnswerPayload), the deterministic
// AnswerStats counters, and the query log's DeterministicString projection —
// at morsel-pool widths 1, 2 and 8.
//
// Runs under the `sanitizer` CTest label: TSan/ASan/UBSan builds exercise
// the SIGPROF handler + ring and the contention sites under concurrency
// (heap interposition is compiled out there; HeapProfiler::Available()
// gates it here exactly as in production).

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "datagen/moviegen.h"
#include "datagen/profilegen.h"
#include "obs/prof.h"
#include "qp.h"
#include "test_support.h"

namespace qp::serve {
namespace {

using core::PersonalizeOptions;
using core::PersonalizedAnswer;
using core::SameAnswerPayload;
using core::UserProfile;
using test::SmallConfig;

/// Everything deterministic one run produces: the answers in stream order
/// plus the query log's deterministic projection, one line per record.
struct RunOutput {
  std::vector<PersonalizedAnswer> answers;
  std::vector<std::string> log_projection;
};

/// Runs the fixed request stream on a fresh context with `num_threads`
/// morsel workers. One caller thread drives the stream, so the query-log
/// sequence numbers are reproducible; the parallelism under test is the
/// executor's, not the callers'.
RunOutput RunWorkload(const storage::Database& db,
                      const std::vector<UserProfile>& profiles,
                      size_t num_threads) {
  ServingContext::Options options;
  options.num_threads = num_threads;
  ServingContext ctx(&db, options);

  const std::string queries[] = {
      "select mid, title from movie",
      "select mid, title, year from movie",
  };
  std::vector<Session*> sessions;
  for (size_t u = 0; u < profiles.size(); ++u) {
    auto session = ctx.OpenSession("user" + std::to_string(u), profiles[u]);
    EXPECT_TRUE(session.ok()) << session.status();
    sessions.push_back(session.value());
  }

  RunOutput out;
  for (int round = 0; round < 3; ++round) {
    for (size_t u = 0; u < sessions.size(); ++u) {
      for (const std::string& sql : queries) {
        PersonalizeOptions popts;
        popts.k = 5;
        popts.l = 1;
        popts.algorithm = (u % 2 == 0) ? core::AnswerAlgorithm::kPpa
                                       : core::AnswerAlgorithm::kSpa;
        auto answer = sessions[u]->Personalize(sql, popts);
        EXPECT_TRUE(answer.ok()) << answer.status();
        if (answer.ok()) out.answers.push_back(std::move(answer).value());
      }
    }
  }
  for (const obs::QueryLogRecord& record : ctx.query_log()->Snapshot()) {
    out.log_projection.push_back(record.DeterministicString());
  }
  return out;
}

TEST(ProfStressTest, ProfilingLeavesDeterministicSurfaceByteIdentical) {
  const auto base = SmallConfig(29);
  auto db = datagen::GenerateMovieDatabase(base.db_config);
  ASSERT_TRUE(db.ok());
  std::vector<UserProfile> profiles;
  for (size_t u = 0; u < 3; ++u) {
    auto profile = datagen::GenerateProfile(SmallConfig(200 + 13 * u));
    ASSERT_TRUE(profile.ok());
    profiles.push_back(std::move(profile).value());
  }

  for (size_t num_threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("num_threads=" + std::to_string(num_threads));

    // Control: profiling off (contention sites are always live, but the
    // CPU sampler and heap sampler are not).
    ASSERT_FALSE(obs::CpuProfiler::Global().running());
    const RunOutput control = RunWorkload(*db, profiles, num_threads);

    // Treatment: identical stream with every collector active.
    obs::CpuProfiler& cpu = obs::CpuProfiler::Global();
    cpu.Reset();
    obs::CpuProfiler::Options cpu_options;
    cpu_options.hz = 197;  // denser than default: more handler activity
    ASSERT_TRUE(cpu.Start(cpu_options).ok());
    if (obs::HeapProfiler::Available()) {
      obs::HeapProfiler::Global().Enable(/*mean_sample_bytes=*/64 * 1024);
    }
    const RunOutput profiled = RunWorkload(*db, profiles, num_threads);
    // The workload is deliberately small (milliseconds of CPU); burn a
    // little more so the sample-count assertion below can never flake.
    {
      volatile uint64_t sink = 0;
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(60);
      while (std::chrono::steady_clock::now() < until) {
        for (int i = 0; i < 4096; ++i) sink = sink + static_cast<uint64_t>(i);
      }
    }
    cpu.Stop();
    if (obs::HeapProfiler::Available()) {
      obs::HeapProfiler::Global().Disable();
    }

    // Answers byte-identical (SameAnswerPayload: everything but wall-clock
    // timings), including the deterministic AnswerStats counters.
    ASSERT_EQ(control.answers.size(), profiled.answers.size());
    for (size_t i = 0; i < control.answers.size(); ++i) {
      EXPECT_TRUE(SameAnswerPayload(control.answers[i], profiled.answers[i]))
          << "answer " << i << " diverged under profiling";
      const core::AnswerStats& a = control.answers[i].stats;
      const core::AnswerStats& b = profiled.answers[i].stats;
      EXPECT_EQ(a.rows_scanned, b.rows_scanned);
      EXPECT_EQ(a.rows_joined, b.rows_joined);
      EXPECT_EQ(a.rows_materialized, b.rows_materialized);
      EXPECT_EQ(a.rows_examined, b.rows_examined);
      EXPECT_EQ(a.queries_executed, b.queries_executed);
      EXPECT_EQ(a.tuples_returned, b.tuples_returned);
      EXPECT_EQ(a.rounds_run, b.rounds_run);
    }

    // Query-log deterministic projection byte-identical.
    ASSERT_EQ(control.log_projection.size(), profiled.log_projection.size());
    for (size_t i = 0; i < control.log_projection.size(); ++i) {
      EXPECT_EQ(control.log_projection[i], profiled.log_projection[i])
          << "log record " << i << " diverged under profiling";
    }

    // The treatment run actually profiled: CPU samples were taken (the
    // workload burns real CPU; at 197 Hz some samples are guaranteed on
    // every platform this runs on).
    EXPECT_GT(cpu.totals().samples, 0u);
  }
}

}  // namespace
}  // namespace qp::serve
