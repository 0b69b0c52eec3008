// Interactive shell over the synthetic movie database.
//
//   ./sql_shell                 # interactive (reads stdin)
//   echo "select ..." | ./sql_shell
//
// Plain SQL executes through the engine. Meta commands:
//   \tables                      list tables with row counts
//   \indexes                     list secondary indexes (kind, entries,
//                                freshness vs the table's data version)
//   \profile                     show the active profile
//   \load <file>                 load a profile from its text format
//   \personalize [K] [L] <sql>   personalized answer (PPA) for the query
//   \spa [K] [L] <sql>           SPA answer
//   \explain <n>                 explanation for tuple n of the last answer
//   \plan <sql>                  physical plan the executor takes
//   \analyze <sql>               EXPLAIN ANALYZE: plan + row counts + times
//   \log                         structured query log of this session
//   \flight                      flight recorder: recent spans and errors
//   \trace <file> <sql>          personalize (PPA) and write a Chrome
//                                trace-event JSON for ui.perfetto.dev
//   \prof [seconds] <sql>        run the query (PPA) in a loop under the
//                                sampling CPU profiler for ~seconds
//                                (default 2) and print the folded stacks,
//                                hottest first — paste into
//                                scripts/fold_to_svg.py or flamegraph.pl
//   \metrics                     Prometheus text exposition of all metrics
//   \slo                         windowed SLO attainment + burn rate
//   \statusz                     build info, uptime, sessions, SLO, indexes
//   \savedb <dir>                persist the database (manifest + CSVs)
//   \quit
//
// Set QP_INTROSPECT_PORT=<port> (0 = ephemeral) to also serve the live
// introspection endpoints on 127.0.0.1 — /metrics, /metrics.json,
// /healthz, /statusz, /flightz, /tracez — while the shell runs; the bound
// port is printed at startup. A failed bind (sandboxes) prints a notice
// and the shell continues without the server.
//
// Personalized answers run through a qp::serve::ServingContext session, so
// repeated queries hit the selection/plan caches and every request lands in
// the query log (\log) and the flight recorder (\flight).
//
// The shell starts with Al's profile (paper Figure 2) loaded and the
// default secondary indexes (hash on join/PK columns, sorted runs on the
// range columns) registered by the generator, so \indexes has entries to
// show and \plan takes index and range access paths.
//
// Exit status: 0 only when every statement and meta-command succeeded;
// any failed SQL, failed meta-command, or unknown command makes the
// shell exit 1 (after processing all input), so scripted/CI use can
// detect broken input instead of silently passing.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "datagen/moviegen.h"
#include "datagen/profilegen.h"
#include "qp.h"
#include "storage/catalog_io.h"

using namespace qp;

namespace {

constexpr char kUser[] = "al";

struct Shell {
  storage::Database* db;
  serve::ServingContext* ctx;
  serve::Session* session;
  std::optional<core::PersonalizedAnswer> last_answer;

  bool ListTables() {
    for (const auto& name : db->TableNames()) {
      auto table = db->GetTable(name);
      std::cout << "  " << name << " (" << (*table)->num_rows() << " rows): "
                << (*table)->schema().ToString() << "\n";
    }
    return true;
  }

  bool ListIndexes() {
    const auto infos = db->indexes().List();
    if (infos.empty()) {
      std::cout << "  (no indexes)\n";
      return true;
    }
    for (const auto& info : infos) {
      std::cout << "  " << info.table << "." << info.column << " ["
                << index::IndexKindName(info.kind) << "] " << info.entries
                << " entries" << (info.fresh ? "" : " (stale)") << "\n";
    }
    return true;
  }

  bool RunSql(const std::string& sql) {
    exec::Executor executor(db);
    auto rows = executor.ExecuteSql(sql);
    if (!rows.ok()) {
      std::cout << rows.status() << "\n";
      return false;
    }
    std::cout << rows->ToString(15) << "(" << rows->num_rows() << " rows)\n";
    return true;
  }

  /// Parses "[K] [L] <sql>" into options + the query text; returns false
  /// (after printing usage) when the prefix is malformed.
  bool ParsePersonalizeArgs(const std::string& args, const char* usage,
                            core::PersonalizeOptions* options,
                            std::string* sql) {
    std::istringstream in(args);
    if (!(in >> options->k >> options->l)) {
      std::cout << "usage: " << usage << "\n";
      return false;
    }
    std::getline(in, *sql);
    *sql = std::string(Trim(*sql));
    return true;
  }

  bool Personalize(const std::string& args, core::AnswerAlgorithm algorithm) {
    core::PersonalizeOptions options;
    options.algorithm = algorithm;
    std::string sql;
    if (!ParsePersonalizeArgs(args, "\\personalize <K> <L> <sql>", &options,
                              &sql)) {
      return false;
    }
    auto answer = session->Personalize(sql, options);
    if (!answer.ok()) {
      std::cout << answer.status() << "\n";
      return false;
    }
    std::cout << answer->ToString(15) << "(" << answer->tuples.size()
              << " tuples; K=" << answer->preferences.size()
              << " preferences; " << answer->stats.generation_seconds * 1e3
              << " ms";
    if (algorithm == core::AnswerAlgorithm::kPpa) {
      std::cout << ", first after "
                << answer->stats.first_response_seconds * 1e3 << " ms";
    }
    std::cout << ")\n";
    last_answer = std::move(answer).value();
    return true;
  }

  bool Plan(const std::string& sql) {
    exec::Executor executor(db);
    auto plan = executor.ExplainSql(sql);
    if (!plan.ok()) {
      std::cout << plan.status() << "\n";
      return false;
    }
    std::cout << *plan;
    return true;
  }

  bool Analyze(const std::string& sql) {
    exec::Executor executor(db);
    auto plan = executor.ExplainAnalyzeSql(sql);
    if (!plan.ok()) {
      std::cout << plan.status() << "\n";
      return false;
    }
    std::cout << *plan;
    return true;
  }

  /// \trace <file> <sql>: personalize (PPA) with tracing on and export the
  /// span tree as Chrome trace-event JSON loadable in ui.perfetto.dev.
  bool Trace(const std::string& args) {
    std::istringstream in(args);
    std::string path;
    if (!(in >> path)) {
      std::cout << "usage: \\trace <file> <sql>\n";
      return false;
    }
    std::string sql;
    std::getline(in, sql);
    sql = std::string(Trim(sql));
    core::PersonalizeOptions options;
    options.algorithm = core::AnswerAlgorithm::kPpa;
    obs::TraceSpan root("personalize");
    options.trace = &root;
    auto answer = session->Personalize(sql, options);
    if (!answer.ok()) {
      std::cout << answer.status() << "\n";
      return false;
    }
    root.set_seconds(answer->stats.generation_seconds +
                     answer->stats.selection_seconds);
    std::ofstream out(path);
    if (!out) {
      std::cout << "cannot write " << path << "\n";
      return false;
    }
    out << TraceToChromeJson(root);
    std::cout << "wrote " << path
              << " (open in ui.perfetto.dev or chrome://tracing)\n";
    last_answer = std::move(answer).value();
    return true;
  }

  /// \prof [seconds] <sql>: repeats a PPA personalize of the query under
  /// the sampling CPU profiler for roughly `seconds` (default 2, clamped
  /// to [0.1, 30]; at least one call always runs) and prints the folded
  /// stacks hottest-first — the same collapsed format /pprofz serves.
  bool Prof(const std::string& args) {
    double seconds = 2.0;
    std::string sql(Trim(args));
    {
      // Optional leading number; "select ..." fails the parse and leaves
      // the whole argument string as the query.
      std::istringstream in(sql);
      double maybe = 0.0;
      if (in >> maybe) {
        std::string rest;
        std::getline(in, rest);
        seconds = std::min(30.0, std::max(0.1, maybe));
        sql = std::string(Trim(rest));
      }
    }
    if (sql.empty()) {
      std::cout << "usage: \\prof [seconds] <sql>\n";
      return false;
    }
    obs::CpuProfiler& cpu = obs::CpuProfiler::Global();
    if (cpu.running()) {
      std::cout << "cpu profiler already running (continuous capture?)\n";
      return false;
    }
    cpu.Reset();
    const Status started = cpu.Start();
    if (!started.ok()) {
      std::cout << started << "\n";
      return false;
    }
    core::PersonalizeOptions options;
    options.algorithm = core::AnswerAlgorithm::kPpa;
    size_t calls = 0;
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(seconds);
    do {
      auto answer = session->Personalize(sql, options);
      if (!answer.ok()) {
        cpu.Stop();
        std::cout << answer.status() << "\n";
        return false;
      }
      ++calls;
      last_answer = std::move(answer).value();
    } while (std::chrono::steady_clock::now() < until);
    cpu.Stop();
    const obs::CpuProfileTotals totals = cpu.totals();
    const std::string folded = cpu.FoldedText();

    // Hottest stacks first: sort the folded lines by trailing count.
    std::vector<std::pair<uint64_t, std::string>> lines;
    std::istringstream in(folded);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const size_t space = line.rfind(' ');
      const uint64_t count =
          space == std::string::npos
              ? 0
              : std::strtoull(line.c_str() + space + 1, nullptr, 10);
      lines.emplace_back(count, line);
    }
    std::stable_sort(lines.begin(), lines.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    std::cout << calls << " calls, " << totals.samples << " samples ("
              << totals.dropped << " dropped), " << lines.size()
              << " unique stacks\n";
    constexpr size_t kTop = 20;
    for (size_t i = 0; i < lines.size() && i < kTop; ++i) {
      std::cout << lines[i].second << "\n";
    }
    if (lines.size() > kTop) {
      std::cout << "... (" << lines.size() - kTop << " more stacks; use "
                << "/pprofz or bench_load --profile for the full capture)\n";
    }
    return true;
  }

  bool SaveDb(const std::string& dir) {
    auto status = storage::SaveDatabase(*db, dir);
    if (status.ok()) {
      std::cout << "saved to " << dir << "\n";
    } else {
      std::cout << status << "\n";
    }
    return status.ok();
  }

  bool Explain(const std::string& args) {
    if (!last_answer.has_value()) {
      std::cout << "no personalized answer yet\n";
      return false;
    }
    const size_t n = std::strtoull(args.c_str(), nullptr, 10);
    if (n >= last_answer->tuples.size()) {
      std::cout << "tuple index out of range (have "
                << last_answer->tuples.size() << ")\n";
      return false;
    }
    std::cout << last_answer->ExplainTuple(n) << "\n";
    return true;
  }

  /// Replaces the session's profile by reopening the session (the caches
  /// keyed by the old profile must not survive the swap).
  bool LoadProfile(const std::string& path) {
    auto loaded = core::UserProfile::Load(path);
    if (!loaded.ok()) {
      std::cout << loaded.status() << "\n";
      return false;
    }
    auto status = ctx->CloseSession(kUser);
    if (!status.ok()) {
      std::cout << status << "\n";
      return false;
    }
    auto reopened = ctx->OpenSession(kUser, loaded.value());
    if (!reopened.ok()) {
      std::cout << reopened.status() << "\n";
      return false;
    }
    session = reopened.value();
    std::cout << "loaded " << session->profile().NumPreferences()
              << " preferences\n";
    return true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  datagen::MovieGenConfig config;
  config.num_movies = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000;
  auto db = datagen::GenerateMovieDatabase(config);
  if (!db.ok()) {
    std::cerr << "error: " << db.status() << "\n";
    return 1;
  }
  auto al = datagen::AlsProfile();
  if (!al.ok()) {
    std::cerr << "error: " << al.status() << "\n";
    return 1;
  }

  serve::ServingContext::Options ctx_options;
  ctx_options.flight = &obs::FlightRecorder::Global();
  if (const char* port_env = std::getenv("QP_INTROSPECT_PORT")) {
    ctx_options.introspect_port =
        static_cast<int>(std::strtol(port_env, nullptr, 10));
    // Keep /tracez populated while introspection is on: sample every
    // personalize call into the ring.
    ctx_options.trace_sample_every = 1;
  }
  serve::ServingContext ctx(&*db, ctx_options);
  obs::FlightRecorder::Global().CaptureStatusErrors(true);
  // With introspection on, stand up the full serving stack: an (idle)
  // Scheduler registers the qp_sched_* series and its shed-rate /healthz
  // source, so a scrape of this process sees everything a server exposes.
  std::unique_ptr<serve::Scheduler> scheduler;
  if (ctx_options.introspect_port >= 0) {
    if (ctx.introspect_port() >= 0) {
      scheduler = std::make_unique<serve::Scheduler>(&ctx,
                                                     serve::Scheduler::Options{});
      std::cout << "introspection on http://127.0.0.1:"
                << ctx.introspect_port()
                << " (/metrics /metrics.json /healthz /statusz /flightz "
                   "/tracez)\n";
    } else {
      std::cout << "introspection bind failed; continuing without it\n";
    }
  }
  auto session = ctx.OpenSession(kUser, *al);
  if (!session.ok()) {
    std::cerr << "error: " << session.status() << "\n";
    return 1;
  }

  Shell shell{&*db, &ctx, session.value(), std::nullopt};
  std::cout << "Movie database ready (" << config.num_movies
            << " movies). Type \\tables, \\indexes, \\personalize 5 2 select "
               "mid, title from movie, or plain SQL. \\quit exits.\n";

  // Any failed statement or meta-command flips this; the shell keeps
  // processing input but exits nonzero so scripted use (CI) sees the break.
  bool all_ok = true;
  std::string line;
  while (true) {
    std::cout << "qp> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    const std::string trimmed(Trim(line));
    if (trimmed.empty()) continue;
    bool ok = true;
    if (trimmed[0] == '\\') {
      const size_t space = trimmed.find(' ');
      const std::string cmd = trimmed.substr(0, space);
      const std::string args =
          space == std::string::npos ? "" : trimmed.substr(space + 1);
      if (cmd == "\\quit" || cmd == "\\q") break;
      if (cmd == "\\tables") {
        ok = shell.ListTables();
      } else if (cmd == "\\indexes") {
        ok = shell.ListIndexes();
      } else if (cmd == "\\profile") {
        std::cout << shell.session->profile().Serialize();
      } else if (cmd == "\\load") {
        ok = shell.LoadProfile(std::string(Trim(args)));
      } else if (cmd == "\\personalize") {
        ok = shell.Personalize(args, core::AnswerAlgorithm::kPpa);
      } else if (cmd == "\\spa") {
        ok = shell.Personalize(args, core::AnswerAlgorithm::kSpa);
      } else if (cmd == "\\explain") {
        ok = shell.Explain(args);
      } else if (cmd == "\\plan") {
        ok = shell.Plan(std::string(Trim(args)));
      } else if (cmd == "\\analyze") {
        ok = shell.Analyze(std::string(Trim(args)));
      } else if (cmd == "\\trace") {
        ok = shell.Trace(args);
      } else if (cmd == "\\prof") {
        ok = shell.Prof(args);
      } else if (cmd == "\\log") {
        std::cout << shell.ctx->query_log()->Dump();
      } else if (cmd == "\\flight") {
        std::cout << obs::FlightRecorder::Global().Dump();
      } else if (cmd == "\\metrics") {
        std::cout << shell.ctx->MetricsText();
      } else if (cmd == "\\slo") {
        std::cout << shell.ctx->slo()->Describe() << "\n";
      } else if (cmd == "\\statusz") {
        std::cout << shell.ctx->StatuszText();
      } else if (cmd == "\\savedb") {
        ok = shell.SaveDb(std::string(Trim(args)));
      } else {
        std::cout << "unknown command " << cmd << "\n";
        ok = false;
      }
    } else {
      ok = shell.RunSql(trimmed);
    }
    if (!ok) all_ok = false;
  }
  std::cout << "\n";
  return all_ok ? 0 : 1;
}
