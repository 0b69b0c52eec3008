// Shared pieces of the benchmark program: command-line arguments, process
// clocks and resource readings, a minimal JSON writer, the span recorder of
// traced runs, and the answer checks every run applies.
//
// qpbench prints one raw JSON record on stdout; run.py turns it into the
// benchmark's metrics. Everything here sits outside the library: spans are
// recorded around calls into its public API, never inside it.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "datagen/moviegen.h"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double Now();

/// User + system CPU seconds of the whole process (getrusage).
double CpuSeconds();

/// High-water resident set size of the process, in MB (getrusage).
double PeakRssMb();

/// Writes a line to stderr (progress and diagnostics; stdout carries only
/// the raw record).
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// \brief Parsed command line of qpbench.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (JSON lines).
  std::string spans_path;
  /// Offered rates of the serving workloads, req/s, lowest first.
  std::vector<double> rates;
  /// "full" (the benchmark) or "tiny" (the benchmark's own smoke tests).
  std::string scale = "full";
  /// Names one answer check whose input is corrupted on purpose, or a
  /// generator stall ("late_submits", "generator_behind"), so the
  /// benchmark's tests can see the check fire. Empty in real runs.
  std::string inject;

  bool tiny() const { return scale == "tiny"; }
};

/// \brief Minimal streaming JSON writer (objects, arrays, numbers, strings).
class Json {
 public:
  Json& Open(const char* key = nullptr) { return Begin(key, '{'); }
  Json& Close() { return End('}'); }
  Json& OpenArray(const char* key = nullptr) { return Begin(key, '['); }
  Json& CloseArray() { return End(']'); }
  Json& Num(const char* key, double value);
  Json& Int(const char* key, uint64_t value);
  Json& Str(const char* key, const std::string& value);

  const std::string& str() const { return out_; }

 private:
  Json& Begin(const char* key, char bracket);
  Json& End(char bracket);
  void Key(const char* key);

  std::string out_;
  std::vector<bool> first_;
};

/// One recorded span: a timed call into a layer's public function. Names
/// and points are string literals, so recording a span allocates nothing
/// but its slot.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a request's root span
  uint64_t request = 0;
  const char* name = "";
  double start = 0.0;  ///< seconds on Now()'s clock
  double end = 0.0;
  const char* point = "";  ///< rate rung of the request; empty in the replay
};

/// \brief In-memory span store of a traced run, written out at the end.
/// Single-threaded: only the benchmark's main thread records spans.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  uint64_t NewId() { return ++next_id_; }
  /// Stores `span` when tracing is on, and adds the time taken to
  /// seconds_spent(): the overhead of recording.
  void Add(const Span& span) {
    if (!on_) return;
    const double start = Now();
    spans_.push_back(span);
    seconds_spent_ += Now() - start;
  }
  size_t size() const { return spans_.size(); }
  double seconds_spent() const { return seconds_spent_; }

  /// Writes one JSON object per line; false when the file cannot be
  /// written.
  bool Write(const std::string& path) const;

 private:
  bool on_;
  uint64_t next_id_ = 0;
  double seconds_spent_ = 0.0;
  std::vector<Span> spans_;
};

/// \brief Counts answer checks and remembers the first failure. A run with
/// any failure prints no record and exits non-zero.
class Checks {
 public:
  /// Records one evaluation of check `name`; `ok` false is a failure.
  void Expect(const std::string& name, bool ok, const std::string& detail);
  bool failed() const { return !failure_.empty(); }
  const std::string& failure() const { return failure_; }
  void Write(Json& json) const;

 private:
  std::vector<std::pair<std::string, uint64_t>> counts_;
  std::string failure_;
};

/// Runs SPA's integrated query through the executor alone, registering the
/// ranking aggregate the query calls; the bench times this against the
/// whole SPA execution, whose remainder is SPA's ranking and packaging.
qp::Status ExecuteSpaQuery(const qp::storage::Database* db,
                           const qp::core::IntegrationPlan& plan,
                           const qp::core::PersonalizeOptions& options);

/// The AnswerStats counters a run reports per call.
void WriteAnswerStats(Json& json, const qp::core::AnswerStats& stats);

/// Database of the serving workloads: 2k movies (bench_load's scale);
/// tiny scale shrinks it for the smoke tests.
qp::datagen::MovieGenConfig ServeDbConfig(uint64_t seed, bool tiny);

/// Derives an independent 64-bit seed for stream `stream` of run `seed`.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Runs serve_mixed (churn false) or serve_churn; prints the raw record on
/// stdout and returns the process exit code.
int RunServe(const Args& args, bool churn);

}  // namespace perfbench
