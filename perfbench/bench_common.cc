#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <memory>

#include "exec/executor.h"

namespace perfbench {

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Log(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

// ---- Json -------------------------------------------------------------

void Json::Key(const char* key) {
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  if (key != nullptr) {
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
}

Json& Json::Begin(const char* key, char bracket) {
  Key(key);
  out_ += bracket;
  first_.push_back(true);
  return *this;
}

Json& Json::End(char bracket) {
  out_ += bracket;
  first_.pop_back();
  return *this;
}

Json& Json::Num(const char* key, double value) {
  Key(key);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
  return *this;
}

Json& Json::Int(const char* key, uint64_t value) {
  Key(key);
  out_ += std::to_string(value);
  return *this;
}

Json& Json::Str(const char* key, const std::string& value) {
  Key(key);
  out_ += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

// ---- Tracer -----------------------------------------------------------

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& span : spans_) {
    Json json;
    json.Open()
        .Int("id", span.id)
        .Int("parent", span.parent)
        .Int("request", span.request)
        .Str("name", span.name)
        .Num("start", span.start)
        .Num("end", span.end)
        .Str("point", span.point)
        .Close();
    std::fputs(json.str().c_str(), f);
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

// ---- Checks -----------------------------------------------------------

void Checks::Expect(const std::string& name, bool ok,
                    const std::string& detail) {
  auto it = std::find_if(counts_.begin(), counts_.end(),
                         [&](const auto& entry) { return entry.first == name; });
  if (it == counts_.end()) {
    counts_.emplace_back(name, 0);
    it = counts_.end() - 1;
  }
  ++it->second;
  if (!ok && failure_.empty()) failure_ = name + ": " + detail;
}

void Checks::Write(Json& json) const {
  json.Open("checks");
  for (const auto& [name, count] : counts_) json.Int(name.c_str(), count);
  json.Close();
}

// ---- Answers ----------------------------------------------------------

namespace {

/// SPA's ranking aggregate rank(degree), as SpaGenerator registers it.
class RankAggregator : public qp::exec::Aggregator {
 public:
  explicit RankAggregator(const qp::core::RankingFunction* ranking)
      : ranking_(ranking) {}
  void Add(const qp::storage::Value& v) override {
    if (v.is_numeric()) degrees_.push_back(v.ToNumeric());
  }
  qp::storage::Value Finalize() const override {
    return qp::storage::Value(ranking_->RankPositive(degrees_));
  }

 private:
  const qp::core::RankingFunction* ranking_;
  std::vector<double> degrees_;
};

}  // namespace

qp::Status ExecuteSpaQuery(const qp::storage::Database* db,
                           const qp::core::IntegrationPlan& plan,
                           const qp::core::PersonalizeOptions& options) {
  qp::exec::AggregateRegistry registry;
  const qp::core::RankingFunction* ranking = &options.ranking;
  QP_RETURN_IF_ERROR(registry.Register("rank", [ranking]() {
    return std::unique_ptr<qp::exec::Aggregator>(new RankAggregator(ranking));
  }));
  qp::exec::Executor executor(db, &registry, options.exec);
  return executor.Execute(*plan.spa.query).status();
}

void WriteAnswerStats(Json& json, const qp::core::AnswerStats& stats) {
  json.Int("tuples", stats.tuples_returned)
      .Int("queries", stats.queries_executed)
      .Int("rounds", stats.rounds_run)
      .Int("rows_scanned", stats.rows_scanned)
      .Int("rows_joined", stats.rows_joined)
      .Int("rows_materialized", stats.rows_materialized)
      .Int("rows_examined", stats.rows_examined);
}

// ---- Configs ----------------------------------------------------------

qp::datagen::MovieGenConfig ServeDbConfig(uint64_t seed, bool tiny) {
  qp::datagen::MovieGenConfig config;
  config.seed = SubSeed(seed, 1);
  config.num_movies = tiny ? 300 : 2000;
  config.num_directors = std::max<size_t>(config.num_movies / 12, 50);
  config.num_actors = std::max<size_t>(config.num_movies / 3, 200);
  config.num_theatres = 40;
  config.plays_per_theatre = 20;
  return config;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 of (seed, stream): distinct streams of one run stay
  // independent, and the same pair always gives the same value.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
