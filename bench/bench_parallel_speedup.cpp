// Morsel-parallel speedup: the Figure-7-style workload (SPA and PPA over a
// presence-preference profile) plus raw executor queries, each run at
// num_threads in {1, 2, 4, 8}. Prints wall-clock per thread count and the
// speedup over serial, and verifies on the fly that every parallel run
// returns byte-identical results to the serial one (the determinism
// contract — speedup must never change answers): rows with ExecStats for
// the executor queries, tuples and dois with the AnswerStats work counters
// for SPA and PPA. Any difference marks its cell !!DIFF and makes the
// program exit 1.
//
// Speedup naturally tops out at the machine's core count: on a single-core
// container every configuration measures pool overhead only (expect ~1.0x
// or slightly below); ≥2x at 4+ threads needs ≥4 physical cores.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/personalizer.h"
#include "exec/executor.h"
#include "sql/parser.h"

using namespace qp;

namespace {

std::string Fingerprint(const exec::RowSet& rows) {
  std::string out;
  for (const auto& row : rows.rows()) {
    for (const auto& v : row) {
      out += v.ToString();
      out += '\x1f';
    }
    out += '\n';
  }
  return out;
}

std::string Fingerprint(const exec::ExecStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "queries=%zu scanned=%zu joined=%zu output=%zu subqueries=%zu "
                "paths=%zu/%zu/%zu\n",
                s.queries_executed, s.rows_scanned, s.rows_joined,
                s.rows_output, s.subqueries_materialized, s.paths_scan,
                s.paths_probe, s.paths_range);
  return buf;
}

std::string Fingerprint(const core::PersonalizedAnswer& answer) {
  std::string out;
  char buf[256];
  for (const auto& t : answer.tuples) {
    for (const auto& v : t.values) {
      out += v.ToString();
      out += '\x1f';
    }
    std::snprintf(buf, sizeof(buf), "%.12f\n", t.doi);
    out += buf;
  }
  const core::AnswerStats& s = answer.stats;
  std::snprintf(buf, sizeof(buf),
                "queries=%zu tuples=%zu scanned=%zu joined=%zu "
                "materialized=%zu paths=%zu/%zu/%zu examined=%zu partial=%d "
                "rounds=%zu\n",
                s.queries_executed, s.tuples_returned, s.rows_scanned,
                s.rows_joined, s.rows_materialized, s.paths_scan,
                s.paths_probe, s.paths_range, s.rows_examined,
                s.partial ? 1 : 0, s.rounds_run);
  return out + buf;
}

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

/// Prints one workload row; returns false when any run differed from the
/// serial one.
bool PrintRow(const char* label, const double (&seconds)[4],
              const bool (&identical)[4]) {
  std::printf("%-34s", label);
  bool all_identical = true;
  for (size_t i = 0; i < 4; ++i) {
    std::printf("  %8.3fs %5.2fx%s", seconds[i],
                seconds[i] > 0 ? seconds[0] / seconds[i] : 0.0,
                identical[i] ? "" : " !!DIFF");
    all_identical = all_identical && identical[i];
  }
  std::printf("\n");
  return all_identical;
}

}  // namespace

int main() {
  bench::PrintHeader("Morsel-driven parallel speedup (executor, SPA, PPA)",
                     "scalability extension; workload of Figure 7");
  std::printf("hardware threads available: %u\n",
              std::thread::hardware_concurrency());
  std::printf("(speedup is bounded by physical cores; on a 1-core machine "
              "all rows measure pool overhead)\n\n");

  auto db_config = bench::BenchDbConfig();
  std::printf("database: %zu movies (QP_BENCH_MOVIES overrides)\n\n",
              db_config.num_movies);
  auto db = datagen::GenerateMovieDatabase(db_config);
  if (!db.ok()) {
    std::fprintf(stderr, "db generation failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }

  std::printf("%-34s  %16s  %16s  %16s  %16s\n", "workload", "1 thread",
              "2 threads", "4 threads", "8 threads");
  bool all_identical = true;

  // ---- Raw executor queries. ----
  const struct {
    const char* label;
    const char* sql;
  } queries[] = {
      {"scan+filter (movie)",
       "select title from movie where year >= 1990 and duration < 150"},
      {"hash join movie-genre",
       "select m.title, g.genre from movie m, genre g where m.mid = g.mid "
       "and m.year >= 1985"},
      {"3-way join + order by",
       "select m.title, di.name from movie m, directed d, director di "
       "where m.mid = d.mid and d.did = di.did and m.year >= 1990 "
       "order by m.title asc"},
      {"group by genre",
       "select g.genre, count(*) n, avg(m.duration) a from movie m, genre g "
       "where m.mid = g.mid group by g.genre order by g.genre asc"},
      {"not-in subquery",
       "select title from movie where movie.mid not in "
       "(select g.mid from genre g where g.genre = 'comedy') "
       "and year >= 1980"},
  };
  for (const auto& q : queries) {
    auto parsed = sql::ParseQuery(q.sql);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse failed: %s\n", q.sql);
      return 1;
    }
    double seconds[4];
    bool identical[4] = {true, true, true, true};
    std::string serial_fp;
    for (size_t i = 0; i < 4; ++i) {
      exec::ExecOptions options;
      options.num_threads = kThreadCounts[i];
      exec::Executor executor(&*db, nullptr, options);
      std::string fp;
      seconds[i] = bench::TimeSeconds([&] {
        for (int rep = 0; rep < 3; ++rep) {
          auto rows = executor.Execute(**parsed);
          if (!rows.ok()) {
            std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
            std::exit(1);
          }
          if (rep == 0) fp = Fingerprint(*rows);
        }
      });
      fp += Fingerprint(executor.stats());
      if (i == 0) {
        serial_fp = std::move(fp);
      } else {
        identical[i] = fp == serial_fp;
      }
    }
    all_identical = PrintRow(q.label, seconds, identical) && all_identical;
  }

  // ---- SPA / PPA on the Figure 7 profile. ----
  datagen::ProfileGenConfig pg;
  pg.seed = 2005;
  pg.num_presence = 40;
  pg.db_config = db_config;
  auto profile = datagen::GenerateProfile(pg);
  if (!profile.ok()) {
    std::fprintf(stderr, "profile generation failed\n");
    return 1;
  }
  auto personalizer = core::Personalizer::Make(&*db, &*profile);
  if (!personalizer.ok()) {
    std::fprintf(stderr, "%s\n", personalizer.status().ToString().c_str());
    return 1;
  }
  auto query = sql::ParseQuery("select mid, title from movie");
  if (!query.ok()) return 1;
  const sql::SelectQuery& base = (*query)->single();

  for (auto algorithm :
       {core::AnswerAlgorithm::kSpa, core::AnswerAlgorithm::kPpa}) {
    const bool spa = algorithm == core::AnswerAlgorithm::kSpa;
    double seconds[4];
    bool identical[4] = {true, true, true, true};
    std::string serial_fp;
    for (size_t i = 0; i < 4; ++i) {
      core::PersonalizeOptions options;
      options.k = 10;
      options.l = 1;
      options.algorithm = algorithm;
      options.exec.num_threads = kThreadCounts[i];
      std::string fp;
      seconds[i] = bench::TimeSeconds([&] {
        auto answer = personalizer->Personalize(base, options);
        if (!answer.ok()) {
          std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
          std::exit(1);
        }
        fp = Fingerprint(*answer);
      });
      if (i == 0) {
        serial_fp = std::move(fp);
      } else {
        identical[i] = fp == serial_fp;
      }
    }
    all_identical = PrintRow(spa ? "SPA (K=10, L=1)" : "PPA (K=10, L=1)",
                             seconds, identical) &&
                    all_identical;
  }

  std::printf(
      "\nAll rows must show no !!DIFF marks: parallel runs return results\n"
      "byte-identical to serial by construction (morsel-order merges).\n");
  if (!all_identical) {
    std::fprintf(stderr, "!!DIFF: a parallel run differed from serial\n");
    return 1;
  }
  return 0;
}
