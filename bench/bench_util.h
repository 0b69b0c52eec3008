// Shared setup for the figure-reproduction benches: a common database
// scale (override with QP_BENCH_MOVIES), deterministic profiles, and small
// printing helpers. Each bench binary prints the rows/series of one paper
// table or figure.

#pragma once

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "datagen/moviegen.h"
#include "datagen/profilegen.h"

namespace qp::bench {

/// Database scale for the timing benches. The paper ran on an IMDb snapshot
/// with ~340k films on Oracle 9i; the default here is scaled down so the
/// full bench suite finishes in minutes. Set QP_BENCH_MOVIES=340000 to run
/// at paper scale.
inline datagen::MovieGenConfig BenchDbConfig() {
  datagen::MovieGenConfig config;
  config.num_movies = 60000;
  config.num_directors = 6000;
  config.num_actors = 25000;
  config.num_theatres = 300;
  config.plays_per_theatre = 50;
  if (const char* env = std::getenv("QP_BENCH_MOVIES")) {
    config.num_movies = std::strtoull(env, nullptr, 10);
    config.num_directors = std::max<size_t>(config.num_movies / 12, 100);
    config.num_actors = std::max<size_t>(config.num_movies / 3, 500);
  }
  return config;
}

/// Smaller database for the simulated-user benches (they run 14 users x 5
/// queries x 2 algorithms, each building a latent model).
inline datagen::MovieGenConfig StudyDbConfig() {
  datagen::MovieGenConfig config;
  config.num_movies = 4000;
  config.num_directors = 400;
  config.num_actors = 1500;
  config.num_theatres = 60;
  config.plays_per_theatre = 30;
  if (const char* env = std::getenv("QP_STUDY_MOVIES")) {
    config.num_movies = std::strtoull(env, nullptr, 10);
  }
  return config;
}

/// Wall-clock seconds of `fn()`.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("(reproduces %s)\n", paper_ref);
  std::printf("==============================================================\n");
}

/// Machine-readable bench output. A bench collects its configuration and a
/// series of data points (one per x-axis value), then Write() emits
/// BENCH_<name>.json into the working directory so plots and regression
/// dashboards consume the numbers without scraping stdout:
///
///   {"bench": "...", "config": {...}, "points": [{...}, ...]}
///
/// Set QP_BENCH_JSON_DIR to redirect the file, QP_BENCH_JSON=0 to disable.
/// Values keep insertion order; keys may repeat across points but should be
/// unique within one.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {
    StampProvenance();
  }

  void Config(const std::string& key, double value) {
    config_.emplace_back(key, JsonNumber(value));
  }
  void Config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, JsonQuote(value));
  }

  /// Starts a new data point; subsequent Metric() calls attach to it.
  void BeginPoint() { points_.emplace_back(); }
  void Metric(const std::string& key, double value) {
    points_.back().emplace_back(key, JsonNumber(value));
  }
  void Metric(const std::string& key, const std::string& value) {
    points_.back().emplace_back(key, JsonQuote(value));
  }

  /// Writes BENCH_<name>.json and prints its path. Returns false (with a
  /// stderr note) when the file cannot be written; benches treat that as
  /// non-fatal so a read-only CWD never fails a timing run.
  bool Write() const {
    if (const char* env = std::getenv("QP_BENCH_JSON");
        env != nullptr && env[0] == '0') {
      return true;
    }
    std::string dir = ".";
    if (const char* env = std::getenv("QP_BENCH_JSON_DIR")) dir = env;
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "note: cannot write %s\n", path.c_str());
      return false;
    }
    std::string out = "{\"bench\":";
    out += JsonQuote(name_);
    out += ",\"config\":";
    AppendObject(config_, out);
    out += ",\"points\":[";
    for (size_t i = 0; i < points_.size(); ++i) {
      if (i > 0) out += ',';
      AppendObject(points_[i], out);
    }
    out += "]}\n";
    std::fputs(out.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
    return true;
  }

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  /// Stamps run provenance into the config so every BENCH_*.json records
  /// which code on which machine produced it: git SHA (GITHUB_SHA in CI,
  /// else `git rev-parse HEAD`), UTC timestamp, hostname. These are config
  /// keys, never point metrics, so the regression gate ignores them.
  void StampProvenance() {
    std::string sha = "unknown";
    if (const char* env = std::getenv("GITHUB_SHA"); env != nullptr &&
                                                     env[0] != '\0') {
      sha = env;
    } else if (std::FILE* pipe =
                   ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
      char buf[80] = {};
      if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
        std::string line(buf);
        while (!line.empty() &&
               (line.back() == '\n' || line.back() == '\r')) {
          line.pop_back();
        }
        if (!line.empty()) sha = line;
      }
      ::pclose(pipe);
    }
    config_.emplace_back("git_sha", JsonQuote(sha));

    char stamp[sizeof("1970-01-01T00:00:00Z")] = "unknown";
    const std::time_t now = std::time(nullptr);
    std::tm utc{};
    if (gmtime_r(&now, &utc) != nullptr) {
      std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
    }
    config_.emplace_back("generated_utc", JsonQuote(stamp));

    char host[256] = {};
    if (::gethostname(host, sizeof(host) - 1) != 0) {
      std::snprintf(host, sizeof(host), "unknown");
    }
    config_.emplace_back("hostname", JsonQuote(host));
  }

  static std::string JsonNumber(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }

  static void AppendObject(const Fields& fields, std::string& out) {
    out += '{';
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += ',';
      out += JsonQuote(fields[i].first);
      out += ':';
      out += fields[i].second;
    }
    out += '}';
  }

  std::string name_;
  Fields config_;
  std::vector<Fields> points_;
};

}  // namespace qp::bench
