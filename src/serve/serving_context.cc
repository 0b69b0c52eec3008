#include "serve/serving_context.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "core/conflict.h"
#include "index/catalog.h"
#include "obs/prof.h"
#include "obs/trace_export.h"
#include "storage/database.h"

namespace qp::serve {

using core::PersonalizeOptions;
using core::PersonalizedAnswer;
using core::ResolvedPersonalization;
using core::SelectedPreference;

namespace {

/// Cache key for a selected-preference set: the canonical query text plus
/// every option that feeds selection. The ranking styles enter because
/// doi-target selection combines degrees with the *resolved* ranking, so
/// two calls resolving to different rankings must not share an entry.
std::string SelectionKey(const sql::SelectQuery& query,
                         const PersonalizeOptions& options,
                         const ResolvedPersonalization& resolved) {
  std::string key = query.ToString();
  key += "|k=" + std::to_string(options.k);
  key += "|l=" + std::to_string(options.l);
  key += "|c0=" + std::to_string(options.min_criticality);
  key += "|target=";
  key += options.target_doi.has_value() ? std::to_string(*options.target_doi)
                                        : std::string("-");
  key += "|desc=" + options.descriptor.value_or("-");
  key += "|sel=" + std::to_string(static_cast<int>(options.selection));
  key += "|rank=" +
         std::to_string(static_cast<int>(resolved.ranking.positive_style())) +
         "," +
         std::to_string(static_cast<int>(resolved.ranking.negative_style())) +
         "," +
         std::to_string(static_cast<int>(resolved.ranking.mixed_style()));
  return key;
}

/// Plan cache key: the selection key (which already pins L) plus the answer
/// algorithm. Stats validity is carried by State::stats_epoch, not the key.
std::string PlanKey(const std::string& selection_key,
                    const PersonalizeOptions& options) {
  return selection_key +
         "|alg=" + std::to_string(static_cast<int>(options.algorithm));
}

/// Query fingerprint for the query log: FNV-1a of the plan key (canonical
/// query text + every option that shapes the answer), rendered as 16 hex
/// digits. Deterministic across runs and thread counts by construction.
std::string FingerprintOf(const std::string& key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(key)));
  return buf;
}

double SecondsSince(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Process self-stats from /proc (Linux). Anything unreadable stays 0 —
/// the gauges then report 0 rather than stale or invented values.
void ReadProcessStats(double* rss_bytes, double* vsize_bytes,
                      double* threads) {
  *rss_bytes = 0.0;
  *vsize_bytes = 0.0;
  *threads = 0.0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    long vsize_pages = 0;
    long rss_pages = 0;
    if (std::fscanf(f, "%ld %ld", &vsize_pages, &rss_pages) == 2) {
      const double page = static_cast<double>(sysconf(_SC_PAGESIZE));
      *vsize_bytes = static_cast<double>(vsize_pages) * page;
      *rss_bytes = static_cast<double>(rss_pages) * page;
    }
    std::fclose(f);
  }
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      long n = 0;
      if (std::sscanf(line, "Threads: %ld", &n) == 1) {
        *threads = static_cast<double>(n);
        break;
      }
    }
    std::fclose(f);
  }
}

/// Cumulative process CPU time (user + system) in seconds from
/// /proc/self/stat, or 0 when unreadable. The comm field (2) may contain
/// spaces and parentheses, so parsing anchors on the LAST ')' — everything
/// after it is fixed-position: state, then 10 fault/ppid-group fields, then
/// utime (14) and stime (15) in clock ticks.
double ReadProcessCpuSeconds() {
  FILE* f = std::fopen("/proc/self/stat", "r");
  if (f == nullptr) return 0.0;
  char buf[1024];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  const char* rparen = std::strrchr(buf, ')');
  if (rparen == nullptr) return 0.0;
  char state = 0;
  long ppid, pgrp, session, tty, tpgid;
  unsigned long flags, minflt, cminflt, majflt, cmajflt, utime, stime;
  if (std::sscanf(rparen + 1,
                  " %c %ld %ld %ld %ld %ld %lu %lu %lu %lu %lu %lu %lu",
                  &state, &ppid, &pgrp, &session, &tty, &tpgid, &flags,
                  &minflt, &cminflt, &majflt, &cmajflt, &utime,
                  &stime) != 13) {
    return 0.0;
  }
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  if (ticks <= 0.0) return 0.0;
  return static_cast<double>(utime + stime) / ticks;
}

/// True when the join-closure of `anchors` over `graph` meets `affected` —
/// i.e. preference selection for a query anchored there could observe the
/// delta.
bool ClosureTouches(const core::PersonalizationGraph& graph,
                    const std::vector<std::string>& anchors,
                    const std::set<std::string>& affected) {
  for (const std::string& rel : graph.ReachableRelations(anchors)) {
    if (affected.count(rel) > 0) return true;
  }
  return false;
}

/// The context's counters, one row each, in ServingContext::ServeCounter
/// order. The qp_query_* row has no ServeCounters field.
constexpr obs::CounterRow<ServeCounters> kCounterTable[] = {
    {"qp_serve_personalize_calls_total", "Personalize calls served",
     &ServeCounters::personalize_calls},
    {"qp_serve_graph_builds_total",
     "Wholesale personalization-graph constructions (cold sessions + "
     "journal-gap fallbacks)",
     &ServeCounters::graph_builds},
    {"qp_serve_graph_repairs_total",
     "Delta-sized personalization-graph repairs (mutation journal hits)",
     &ServeCounters::graph_repairs},
    {"qp_serve_wholesale_rebuilds_total",
     "Profile invalidations that outran the mutation journal and paid a "
     "full rebuild",
     &ServeCounters::wholesale_rebuilds},
    {"qp_serve_selection_cache_hits_total", "Selection cache hits",
     &ServeCounters::selection_cache_hits},
    {"qp_serve_selection_cache_misses_total", "Selection cache misses",
     &ServeCounters::selection_cache_misses},
    {"qp_serve_plan_cache_hits_total", "Plan cache hits",
     &ServeCounters::plan_cache_hits},
    {"qp_serve_plan_cache_misses_total", "Plan cache misses",
     &ServeCounters::plan_cache_misses},
    {"qp_serve_epoch_invalidations_total",
     "Snapshot rebuilds forced by a profile- or stats-epoch change",
     &ServeCounters::epoch_invalidations},
    {"qp_serve_selection_entries_retained_total",
     "Cached selections carried across an epoch transition",
     &ServeCounters::selection_entries_retained},
    {"qp_serve_selection_entries_dropped_total",
     "Cached selections dropped by an epoch transition",
     &ServeCounters::selection_entries_dropped},
    {"qp_serve_plan_entries_retained_total",
     "Cached plans carried across an epoch transition",
     &ServeCounters::plan_entries_retained},
    {"qp_serve_plan_entries_dropped_total",
     "Cached plans dropped by an epoch transition",
     &ServeCounters::plan_entries_dropped},
    {"qp_serve_sessions_evicted_total",
     "Sessions evicted by the LRU capacity cap",
     &ServeCounters::sessions_evicted},
    {"qp_query_rows_returned_total", "Answer tuples returned to callers"},
};

}  // namespace

const char* StateOutcomeName(StateOutcome outcome) {
  switch (outcome) {
    case StateOutcome::kReused:
      return "reused";
    case StateOutcome::kBuilt:
      return "built";
    case StateOutcome::kStatsRefresh:
      return "stats_refresh";
    case StateOutcome::kRepaired:
      return "repaired";
    case StateOutcome::kRebuilt:
      return "rebuilt";
  }
  return "unknown";
}

ServingContext::ServingContext(const storage::Database* db)
    : ServingContext(db, Options()) {}

ServingContext::ServingContext(const storage::Database* db, Options options)
    : db_(db), options_(options), stats_(db) {
  if (options.num_threads > 1) {
    pool_ = std::make_unique<common::ThreadPool>(options.num_threads - 1);
  }
  if (options.query_log_enabled) {
    query_log_ = std::make_unique<obs::QueryLog>();
  }
  static_assert(std::size(kCounterTable) == kNumCounters);
  counters_ = obs::RegisterCounters(metrics_, kCounterTable);
  q_thread_seconds_ = metrics_.GetHistogram(
      "qp_query_thread_seconds", obs::DefaultLatencyBuckets(),
      "Per-request thread-seconds (task wall time summed across workers)");

  // --- Windowed SLO engine, scrape-time gauges, endpoints ---
  if (!options_.clock) options_.clock = obs::MonotonicClock;
  const std::function<double()>& clock = options_.clock;
  obs::SloTracker::Options slo_opts;
  slo_opts.clock = clock;
  slo_ = std::make_unique<obs::SloTracker>(slo_opts);
  // 60 x 5s slices: the 5m window with 1m as the last 12 slices.
  latency_window_ = std::make_unique<obs::SlidingHistogram>(
      obs::DefaultLatencyBuckets(), /*slice_seconds=*/5.0, /*num_slices=*/60,
      clock);

  const std::string sessions_help =
      "Open sessions by state (idle / inflight), refreshed on scrape";
  g_sessions_idle_ =
      metrics_.GetGauge("qp_serve_sessions", {{"state", "idle"}},
                        sessions_help);
  g_sessions_inflight_ =
      metrics_.GetGauge("qp_serve_sessions", {{"state", "inflight"}},
                        sessions_help);
  g_uptime_ = metrics_.GetGauge("qp_process_uptime_seconds",
                                "Seconds since this context was constructed");
  g_rss_bytes_ = metrics_.GetGauge(
      "qp_process_resident_bytes",
      "Resident set size from /proc/self/statm, refreshed on scrape");
  g_vsize_bytes_ = metrics_.GetGauge(
      "qp_process_virtual_bytes",
      "Virtual memory size from /proc/self/statm, refreshed on scrape");
  g_threads_ = metrics_.GetGauge(
      "qp_process_threads",
      "Thread count from /proc/self/status, refreshed on scrape");
  const auto make_slo_gauges = [this](const char* window) {
    SloGauges g;
    g.attainment = metrics_.GetGauge(
        "qp_slo_attainment_ratio", {{"window", window}},
        "Windowed fraction of personalize calls meeting the SLO threshold");
    g.burn_rate = metrics_.GetGauge(
        "qp_slo_burn_rate", {{"window", window}},
        "Windowed error-budget burn rate ((1-attainment)/(1-objective))");
    g.p50 =
        metrics_.GetGauge("qp_slo_latency_p50_seconds", {{"window", window}},
                          "Windowed personalize latency p50");
    g.p99 =
        metrics_.GetGauge("qp_slo_latency_p99_seconds", {{"window", window}},
                          "Windowed personalize latency p99");
    return g;
  };
  slo_1m_ = make_slo_gauges("1m");
  slo_5m_ = make_slo_gauges("5m");

  // --- Profiling totals, refreshed on scrape. Monotonic
  // absolute reads from the collectors, so they render as counters.
  g_cpu_seconds_ = metrics_.GetCounterGauge(
      "qp_process_cpu_seconds_total",
      "Process CPU time (user + system) from /proc/self/stat");
  g_prof_cpu_samples_ = metrics_.GetCounterGauge(
      "qp_prof_cpu_samples_total",
      "CPU-profiler backtraces captured since the last profiler reset");
  g_prof_cpu_dropped_ = metrics_.GetCounterGauge(
      "qp_prof_cpu_samples_dropped_total",
      "CPU-profiler samples lost to a full ring");
  g_prof_lock_acquisitions_ = metrics_.GetCounterGauge(
      "qp_prof_lock_acquisitions_total",
      "ProfiledMutex acquisitions across all sites");
  g_prof_lock_contentions_ = metrics_.GetCounterGauge(
      "qp_prof_lock_contentions_total",
      "ProfiledMutex acquisitions that had to wait");
  g_prof_lock_wait_seconds_ = metrics_.GetCounterGauge(
      "qp_prof_lock_wait_seconds_total",
      "Total seconds threads spent blocked on ProfiledMutex sites");
  g_prof_heap_allocs_ = metrics_.GetCounterGauge(
      "qp_prof_heap_sampled_allocs_total",
      "Allocations caught by the sampling heap profiler");
  g_prof_heap_bytes_ = metrics_.GetCounterGauge(
      "qp_prof_heap_sampled_bytes_total",
      "Raw bytes of sampled allocations (cumulative)");
  g_prof_heap_live_bytes_ = metrics_.GetGauge(
      "qp_prof_heap_live_sampled_bytes",
      "Raw bytes of sampled allocations still live");
  // The Database's index catalog counts its own builds and staleness hits
  // over its lifetime; every context over it publishes the same totals.
  g_index_builds_ = metrics_.GetCounterGauge(
      "qp_index_builds_total",
      "Index snapshot builds (initial build at Create plus every rebuild)");
  g_index_staleness_hits_ = metrics_.GetCounterGauge(
      "qp_index_staleness_hits_total",
      "Accesses that found an index snapshot stale and rebuilt it inline");

  gauge_hook_id_ = metrics_.AddCollectionHook([this] { RefreshGauges(); });
  gauge_hook_registered_ = true;

  start_time_ = std::chrono::steady_clock::now();
  StartIntrospection();
}

ServingContext::~ServingContext() {
  // Handlers and the collection hook capture `this`; tear them down before
  // any member dies.
  introspect_.Stop();
  if (gauge_hook_registered_) metrics_.RemoveCollectionHook(gauge_hook_id_);
}

ServeCounters ServingContext::counters() const {
  return obs::SnapshotOf(kCounterTable,
                         [this](size_t i) { return counters_[i]->Value(); });
}

void ServingContext::RefreshGauges() {
  size_t idle = 0;
  size_t inflight = 0;
  {
    std::lock_guard<common::ProfiledMutex> lock(sessions_mu_);
    for (const auto& [id, session] : sessions_) {
      if (session->InFlight() > 0) {
        ++inflight;
      } else {
        ++idle;
      }
    }
  }
  g_sessions_idle_->Set(static_cast<double>(idle));
  g_sessions_inflight_->Set(static_cast<double>(inflight));
  g_uptime_->Set(SecondsSince(start_time_));

  double rss = 0.0;
  double vsize = 0.0;
  double threads = 0.0;
  ReadProcessStats(&rss, &vsize, &threads);
  g_rss_bytes_->Set(rss);
  g_vsize_bytes_->Set(vsize);
  g_threads_->Set(threads);

  g_cpu_seconds_->Set(ReadProcessCpuSeconds());
  const obs::CpuProfileTotals cpu = obs::CpuProfiler::Global().totals();
  g_prof_cpu_samples_->Set(static_cast<double>(cpu.samples));
  g_prof_cpu_dropped_->Set(static_cast<double>(cpu.dropped));
  const obs::ContentionTotals locks = obs::ContentionTotalsNow();
  g_prof_lock_acquisitions_->Set(static_cast<double>(locks.acquisitions));
  g_prof_lock_contentions_->Set(static_cast<double>(locks.contentions));
  g_prof_lock_wait_seconds_->Set(locks.wait_seconds);
  const obs::HeapProfileTotals heap = obs::HeapProfiler::Global().totals();
  g_prof_heap_allocs_->Set(static_cast<double>(heap.sampled_allocs));
  g_prof_heap_bytes_->Set(static_cast<double>(heap.sampled_bytes));
  g_prof_heap_live_bytes_->Set(static_cast<double>(heap.live_sampled_bytes));
  g_index_builds_->Set(static_cast<double>(db_->indexes().builds()));
  g_index_staleness_hits_->Set(
      static_cast<double>(db_->indexes().staleness_hits()));

  const auto fill = [this](const SloGauges& g, double window_seconds) {
    const obs::SloTracker::Window w = slo_->Snapshot(window_seconds);
    g.attainment->Set(w.attainment);
    g.burn_rate->Set(w.burn_rate);
    g.p50->Set(latency_window_->WindowQuantile(window_seconds, 0.5));
    g.p99->Set(latency_window_->WindowQuantile(window_seconds, 0.99));
  };
  fill(slo_1m_, 60.0);
  fill(slo_5m_, 300.0);
}

size_t ServingContext::AddHealthSource(std::string name,
                                       std::function<std::string()> check) {
  std::lock_guard<std::mutex> lock(health_mu_);
  const size_t id = next_health_id_++;
  health_sources_.emplace_back(id, std::move(name), std::move(check));
  return id;
}

void ServingContext::RemoveHealthSource(size_t id) {
  std::lock_guard<std::mutex> lock(health_mu_);
  for (auto it = health_sources_.begin(); it != health_sources_.end(); ++it) {
    if (std::get<0>(*it) == id) {
      health_sources_.erase(it);
      return;
    }
  }
}

obs::HttpResponse ServingContext::Healthz() const {
  // Checks run UNDER health_mu_, which makes RemoveHealthSource a barrier:
  // once it returns, the removed check cannot be running — the guarantee a
  // dying Scheduler needs. The flip side: checks must not call back into
  // Add/RemoveHealthSource.
  std::string reasons;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    for (const auto& [id, name, check] : health_sources_) {
      const std::string reason = check();
      if (!reason.empty()) reasons += name + ": " + reason + "\n";
    }
  }
  if (reasons.empty()) {
    return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  }
  return obs::HttpResponse{503, "text/plain; charset=utf-8", reasons};
}

std::string ServingContext::StatuszText() const {
  char buf[256];
  std::string out = "qp serving context\n";
  out += "build: " __VERSION__ "\n";
  std::snprintf(buf, sizeof(buf), "c++ standard: %ld\n",
                static_cast<long>(__cplusplus));
  out += buf;
  std::snprintf(buf, sizeof(buf), "uptime_seconds: %.1f\n",
                SecondsSince(start_time_));
  out += buf;
  std::snprintf(buf, sizeof(buf), "sessions_open: %zu\n", NumSessions());
  out += buf;
  std::snprintf(buf, sizeof(buf), "pool_workers: %zu\n",
                pool_ != nullptr ? pool_->workers() : 0);
  out += buf;
  out += slo_->Describe() + "\n";
  if (query_log_ != nullptr) {
    std::snprintf(buf, sizeof(buf), "query_log: seen=%llu\n",
                  static_cast<unsigned long long>(query_log_->seen()));
    out += buf;
  }
  const std::vector<index::IndexCatalog::Info> indexes =
      db_->indexes().List();
  std::snprintf(buf, sizeof(buf), "indexes: %zu\n", indexes.size());
  out += buf;
  for (const auto& info : indexes) {
    std::snprintf(buf, sizeof(buf),
                  "  %s.%s kind=%s entries=%zu built_version=%llu fresh=%s\n",
                  info.table.c_str(), info.column.c_str(),
                  index::IndexKindName(info.kind), info.entries,
                  static_cast<unsigned long long>(info.built_version),
                  info.fresh ? "true" : "false");
    out += buf;
  }
  return out;
}

std::string ServingContext::TracezJson() const {
  std::string out = "[";
  for (const std::string& tree : tracez_.Snapshot()) {
    if (out.size() > 1) out += ",";
    out += tree;
  }
  out += "]";
  return out;
}

void ServingContext::RecordSampledTrace(const obs::TraceSpan& root) {
  obs::ChromeTraceOptions copts;
  copts.process_name = "qp-serve";
  tracez_.Append(obs::TraceToChromeJson(root, copts));
}

void ServingContext::StartIntrospection() {
  if (options_.introspect_port < 0) return;
  introspect_.Handle("/metrics", [this](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                             metrics_.RenderText()};
  });
  introspect_.Handle("/metrics.json", [this](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "application/json", metrics_.RenderJson()};
  });
  introspect_.Handle("/healthz",
                     [this](const obs::HttpRequest&) { return Healthz(); });
  introspect_.Handle("/statusz", [this](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain; charset=utf-8", StatuszText()};
  });
  introspect_.Handle("/flightz", [this](const obs::HttpRequest&) {
    return obs::HttpResponse{
        200, "text/plain; charset=utf-8",
        options_.flight != nullptr ? options_.flight->Dump()
                                   : "no flight recorder attached\n"};
  });
  introspect_.Handle("/tracez", [this](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "application/json", TracezJson()};
  });

  // --- Profiling endpoints. All three render collapsed-stack
  // or per-site text; none of them touches the deterministic surface.
  introspect_.Handle("/pprofz", [this](const obs::HttpRequest& request) {
    obs::CpuProfiler& prof = obs::CpuProfiler::Global();
    // A profiler someone else runs continuously (bench_load --profile, the
    // shell's \prof) just renders its cumulative window; otherwise this is
    // an on-demand capture: profile for ?seconds=N (clamped to [1, 30]),
    // one request at a time.
    if (!prof.running()) {
      std::lock_guard<std::mutex> window(pprof_mu_);
      if (!prof.running()) {
        const int seconds =
            std::min(30, std::max(1, request.IntParam("seconds", 2)));
        prof.Reset();
        const Status started = prof.Start();
        if (!started.ok()) {
          return obs::HttpResponse{503, "text/plain; charset=utf-8",
                                   "cpu profiler unavailable: " +
                                       started.ToString() + "\n"};
        }
        std::this_thread::sleep_for(std::chrono::seconds(seconds));
        prof.Stop();
      }
    }
    std::string folded = prof.FoldedText();
    if (folded.empty()) {
      folded =
          "# no samples (process idle during the capture window?)\n";
    }
    return obs::HttpResponse{200, "text/plain; charset=utf-8",
                             std::move(folded)};
  });
  introspect_.Handle("/contentionz", [](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain; charset=utf-8",
                             obs::ContentionText()};
  });
  introspect_.Handle("/allocz", [](const obs::HttpRequest& request) {
    if (!obs::HeapProfiler::Available()) {
      return obs::HttpResponse{
          200, "text/plain; charset=utf-8",
          "# heap profiling compiled out (sanitizer build)\n"};
    }
    const std::string* which = request.Param("which");
    const bool live = which == nullptr || *which != "alloc";
    std::string folded = obs::HeapProfiler::Global().FoldedText(live);
    if (folded.empty()) {
      folded = live ? "# no live sampled allocations\n"
                    : "# no sampled allocations yet\n";
    }
    return obs::HttpResponse{200, "text/plain; charset=utf-8",
                             std::move(folded)};
  });

  obs::IntrospectionServer::Options server_opts;
  server_opts.port = options_.introspect_port;
  std::string error;
  if (introspect_.Start(server_opts, &error)) {
    // Continuous heap sampling rides along with introspection: /allocz is
    // only useful with samples behind it, and the cost (~one captured stack
    // per 512 KiB allocated per thread) is covered by the bench --profile
    // overhead gate. No-op under sanitizers (Available() is false).
    obs::HeapProfiler::Global().Enable();
  } else if (options_.flight != nullptr) {
    // Sandboxes may forbid even localhost sockets; serve without the
    // endpoint rather than failing construction.
    options_.flight->Record(obs::FlightEventKind::kNote, "serve",
                            "introspection server disabled: " + error);
  }
}

Session::Session(ServingContext* ctx, std::string user_id,
                 core::UserProfile profile)
    : ctx_(ctx), user_id_(std::move(user_id)), profile_(std::move(profile)) {
  // Labeled registration: the user id is runtime data, so it goes through
  // the escaping + cardinality-capped API — a flood of distinct users lands
  // in the user="__other__" overflow series instead of growing the registry
  // without bound.
  latency_ = ctx_->metrics_.GetHistogram(
      "qp_serve_personalize_seconds", {{"user", user_id_}},
      obs::DefaultLatencyBuckets(), "Per-user personalize latency");
}

Status Session::Mutate(const std::function<Status(core::UserProfile&)>& fn) {
  std::lock_guard<std::mutex> lock(profile_mu_);
  return fn(profile_);
}

Result<std::shared_ptr<const Session::State>> Session::CurrentState(
    uint64_t stats_epoch, StateOutcome* outcome, size_t* repaired_mutations) {
  *repaired_mutations = 0;
  // Profile epochs are only comparable within one lineage: a wholesale
  // replacement (Mutate assigning another profile) swaps the lineage and
  // makes every cached artifact stale even if the epoch numbers align.
  const auto matches = [this, stats_epoch](const State& s) {
    return s.profile_epoch == profile_.epoch() &&
           s.snapshot->profile.lineage() == profile_.lineage() &&
           s.stats_epoch == stats_epoch;
  };
  std::shared_ptr<const State> state = state_.load(std::memory_order_acquire);
  if (state != nullptr && matches(*state)) {
    *outcome = StateOutcome::kReused;
    return state;
  }
  std::lock_guard<std::mutex> lock(mu_);
  state = state_.load(std::memory_order_acquire);
  if (state != nullptr && matches(*state)) {
    *outcome = StateOutcome::kReused;
    return state;
  }

  // Pin the profile: one copy under the mutation lock. Everything below
  // reads the copy, so a racing Mutate after this point simply bumps the
  // epoch again and the NEXT call transitions once more.
  core::UserProfile profile_copy;
  {
    std::lock_guard<std::mutex> plock(profile_mu_);
    profile_copy = profile_;
  }

  auto next = std::make_shared<State>();
  next->profile_epoch = profile_copy.epoch();
  next->stats_epoch = stats_epoch;

  const bool same_lineage =
      state != nullptr &&
      state->snapshot->profile.lineage() == profile_copy.lineage();
  if (same_lineage && state->profile_epoch == next->profile_epoch) {
    // Data changed but the profile did not: the graph and the selected
    // preference sets stay valid (they never look at table contents); only
    // the integration plans — selectivity ordering, prepared index walks —
    // must go.
    next->snapshot = state->snapshot;
    next->selections = state->selections;
    ctx_->Count(ServingContext::kEpochInvalidations);
    ctx_->Count(ServingContext::kSelectionEntriesRetained,
                 state->selections.size());
    ctx_->Count(ServingContext::kPlanEntriesDropped, state->plans.size());
    *outcome = StateOutcome::kStatsRefresh;
  } else if (state == nullptr) {
    auto snapshot = std::make_shared<ProfileSnapshot>(std::move(profile_copy));
    QP_ASSIGN_OR_RETURN(
        core::PersonalizationGraph graph,
        core::PersonalizationGraph::Build(ctx_->db_, &snapshot->profile));
    snapshot->graph.emplace(std::move(graph));
    ctx_->Count(ServingContext::kGraphBuilds);
    next->snapshot = std::move(snapshot);
    *outcome = StateOutcome::kBuilt;
  } else {
    ctx_->Count(ServingContext::kEpochInvalidations);
    // A lineage change means the caller wholesale-replaced the profile:
    // the new journal describes a different history, so the delta — even
    // if the epochs look comparable — must not be trusted.
    const std::optional<std::vector<core::ProfileMutation>> delta =
        same_lineage ? profile_copy.MutationsSince(state->profile_epoch)
                     : std::nullopt;
    if (delta.has_value()) {
      // Delta repair: patch the graph, then keep every cached artifact the
      // delta provably cannot have changed.
      auto snapshot =
          std::make_shared<ProfileSnapshot>(std::move(profile_copy));
      QP_ASSIGN_OR_RETURN(core::PersonalizationGraph graph,
                          core::PersonalizationGraph::RepairFrom(
                              *state->snapshot->graph, ctx_->db_,
                              &snapshot->profile, *delta));
      snapshot->graph.emplace(std::move(graph));
      ctx_->Count(ServingContext::kGraphRepairs);
      *repaired_mutations = delta->size();
      next->snapshot = std::move(snapshot);

      std::set<std::string> affected;
      bool count_changed = false;
      for (const core::ProfileMutation& m : *delta) {
        for (const std::string& rel : m.AffectedRelations()) {
          affected.insert(rel);
        }
        count_changed = count_changed || m.ChangesPreferenceCount();
      }
      for (const auto& [key, entry] : state->selections) {
        // A doi-target selection's N estimate reads the global preference
        // count, so any add/remove invalidates it regardless of locality.
        bool survives = !(entry.doi_target && count_changed);
        if (survives && !affected.empty()) {
          // The selection only walked join edges out of the query's anchor
          // relations; if neither the old nor the new closure meets the
          // delta, it saw — and would see — nothing different. Both graphs
          // matter: a removed join shrinks the new closure but widened the
          // old selection, an added join the other way around.
          survives = !ClosureTouches(*state->snapshot->graph,
                                     entry.query_relations, affected) &&
                     !ClosureTouches(*next->snapshot->graph,
                                     entry.query_relations, affected);
        }
        if (survives) {
          next->selections.emplace(key, entry);
          ctx_->Count(ServingContext::kSelectionEntriesRetained);
        } else {
          ctx_->Count(ServingContext::kSelectionEntriesDropped);
        }
      }
      const bool stats_unchanged = state->stats_epoch == stats_epoch;
      for (const auto& [key, entry] : state->plans) {
        if (stats_unchanged &&
            next->selections.count(entry.selection_key) > 0) {
          next->plans.emplace(key, entry);
          ctx_->Count(ServingContext::kPlanEntriesRetained);
        } else {
          ctx_->Count(ServingContext::kPlanEntriesDropped);
        }
      }
      *outcome = StateOutcome::kRepaired;
    } else {
      // The journal no longer reaches back to the session's epoch (or the
      // profile was wholesale-replaced): rebuild from scratch.
      auto snapshot =
          std::make_shared<ProfileSnapshot>(std::move(profile_copy));
      QP_ASSIGN_OR_RETURN(
          core::PersonalizationGraph graph,
          core::PersonalizationGraph::Build(ctx_->db_, &snapshot->profile));
      snapshot->graph.emplace(std::move(graph));
      ctx_->Count(ServingContext::kGraphBuilds);
      ctx_->Count(ServingContext::kWholesaleRebuilds);
      ctx_->Count(ServingContext::kSelectionEntriesDropped,
                 state->selections.size());
      ctx_->Count(ServingContext::kPlanEntriesDropped, state->plans.size());
      next->snapshot = std::move(snapshot);
      *outcome = StateOutcome::kRebuilt;
    }
  }
  state_.store(next, std::memory_order_release);
  return std::shared_ptr<const State>(std::move(next));
}

void Session::StoreSelection(const std::shared_ptr<const State>& based_on,
                             const std::string& key, CachedSelection value) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const State> cur = state_.load(std::memory_order_acquire);
  if (cur == nullptr || cur->profile_epoch != based_on->profile_epoch ||
      cur->stats_epoch != based_on->stats_epoch) {
    return;  // epochs moved underneath us: the artifact is stale, drop it
  }
  if (cur->selections.count(key) > 0) return;
  auto next = std::make_shared<State>(*cur);
  next->selections[key] = std::move(value);
  state_.store(next, std::memory_order_release);
}

void Session::StorePlan(const std::shared_ptr<const State>& based_on,
                        const std::string& key, CachedPlan value) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const State> cur = state_.load(std::memory_order_acquire);
  if (cur == nullptr || cur->profile_epoch != based_on->profile_epoch ||
      cur->stats_epoch != based_on->stats_epoch) {
    return;
  }
  if (cur->plans.count(key) > 0) return;
  auto next = std::make_shared<State>(*cur);
  next->plans[key] = std::move(value);
  state_.store(next, std::memory_order_release);
}

Result<PersonalizedAnswer> Session::Personalize(
    const sql::SelectQuery& query, const PersonalizeOptions& options) {
  return PersonalizeAdmitted(query, options, nullptr);
}

Result<PersonalizedAnswer> Session::PersonalizeAdmitted(
    const sql::SelectQuery& query, const PersonalizeOptions& options,
    const AdmissionInfo* admission) {
  // Pin the session against LRU eviction for the duration of the call.
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  struct InFlightGuard {
    std::atomic<size_t>* n;
    ~InFlightGuard() { n->fetch_sub(1, std::memory_order_acq_rel); }
  } guard{&inflight_};

  ctx_->Count(ServingContext::kPersonalizeCalls);
  const auto call_start = std::chrono::steady_clock::now();

  // Inject the context's shared pool and registry: every session's queries
  // and probes fan out over the same workers, and every executor reports
  // into the same qp_exec_* series.
  PersonalizeOptions opts = options;
  if (ctx_->pool_ != nullptr) opts.exec.pool = ctx_->pool_.get();
  if (opts.exec.metrics == nullptr) opts.exec.metrics = &ctx_->metrics_;

  // /tracez sampling: every Nth call that did NOT bring its own trace gets
  // a private root span; the finished tree is rendered into the tracez
  // ring. Caller-attached traces are never touched.
  obs::TraceSpan sample_root;
  bool sampling = false;
  if (ctx_->options_.trace_sample_every > 0 && opts.trace == nullptr) {
    const uint64_t n =
        ctx_->trace_sample_counter_.fetch_add(1, std::memory_order_relaxed);
    if (n % ctx_->options_.trace_sample_every == 0) {
      sampling = true;
      sample_root.set_name("personalize user=" + user_id_);
      opts.trace = &sample_root;
    }
  }

  // Stage latencies are measured with plain timers inside PersonalizeImpl
  // (not lifted from a trace tree), so logging never forces the executor to
  // build its per-operator span tree — that price is paid only when the
  // caller attaches opts.trace.
  obs::QueryLog* log = ctx_->query_log_.get();
  obs::QueryLogRecord record;
  auto result =
      PersonalizeImpl(query, opts, log != nullptr ? &record : nullptr);
  const double total_seconds = SecondsSince(call_start);
  // SLO accounting for every EXECUTED call: a success is good iff it beat
  // the threshold, an error is a violation. Requests that never reached a
  // session (shed, expired in queue) are recorded by the Scheduler instead
  // — between the two, each request counts exactly once.
  if (result.ok()) {
    latency_->Observe(total_seconds);
    ctx_->slo_->Record(total_seconds);
    ctx_->latency_window_->Observe(total_seconds);
    ctx_->Count(ServingContext::kRowsReturned, result->tuples.size());
    ctx_->q_thread_seconds_->Observe(result->stats.thread_seconds);
  } else {
    ctx_->slo_->RecordBad();
  }
  if (sampling) {
    sample_root.set_seconds(total_seconds);
    ctx_->RecordSampledTrace(sample_root);
  }

  if (ctx_->options_.flight != nullptr) {
    ctx_->options_.flight->Record(
        obs::FlightEventKind::kSpan, "serve",
        "personalize user=" + user_id_ +
            (result.ok() ? "" : " -> " + result.status().ToString()),
        total_seconds);
  }

  if (log != nullptr && result.ok()) {
    const core::AnswerStats& stats = result.value().stats;
    record.user_id = user_id_;
    record.rows_returned = result.value().tuples.size();
    record.subqueries_executed = stats.queries_executed;
    record.rows_scanned = stats.rows_scanned;
    record.rows_joined = stats.rows_joined;
    record.rows_materialized = stats.rows_materialized;
    record.partial = stats.partial;
    record.rounds_run = stats.rounds_run;
    record.paths_scan = stats.paths_scan;
    record.paths_probe = stats.paths_probe;
    record.paths_range = stats.paths_range;
    if (admission != nullptr) {
      record.scheduled = true;
      record.lane = admission->lane;
      record.shard = admission->shard;
      record.queue_seconds = admission->queue_seconds;
    }
    record.thread_seconds = stats.thread_seconds;
    record.total_seconds = total_seconds;
    log->Record(std::move(record));
  }
  return result;
}

Result<PersonalizedAnswer> Session::PersonalizeImpl(
    const sql::SelectQuery& query, const PersonalizeOptions& options,
    obs::QueryLogRecord* record) {
  const PersonalizeOptions& opts = options;
  const uint64_t stats_epoch = ctx_->stats_.Epoch();
  obs::TraceSpan* state_span =
      opts.trace != nullptr ? opts.trace->AddChild("session state") : nullptr;
  const auto state_start = std::chrono::steady_clock::now();
  StateOutcome outcome = StateOutcome::kReused;
  size_t repaired_mutations = 0;
  QP_ASSIGN_OR_RETURN(std::shared_ptr<const State> state,
                      CurrentState(stats_epoch, &outcome,
                                   &repaired_mutations));
  const double state_seconds = SecondsSince(state_start);
  if (record != nullptr) {
    record->state_reused = (outcome == StateOutcome::kReused);
    record->state_outcome = StateOutcomeName(outcome);
    record->repaired_mutations = repaired_mutations;
    record->state_seconds = state_seconds;
  }
  if (state_span != nullptr) {
    state_span->set_seconds(state_seconds);
    state_span->AddAttr("outcome", StateOutcomeName(outcome));
    state_span->AddAttr("profile_epoch",
                        static_cast<size_t>(state->profile_epoch));
    state_span->AddAttr("stats_epoch", static_cast<size_t>(stats_epoch));
  }

  // Resolve against the snapshot's profile (== live profile at this epoch),
  // so the ranking override and the caches observe the same profile state.
  QP_ASSIGN_OR_RETURN(
      ResolvedPersonalization resolved,
      core::ResolvePersonalization(opts, state->snapshot->profile));

  const std::string selection_key = SelectionKey(query, opts, resolved);
  std::shared_ptr<const std::vector<SelectedPreference>> preferences;
  double selection_seconds = 0.0;
  bool selection_cached = true;
  if (auto it = state->selections.find(selection_key);
      it != state->selections.end()) {
    preferences = it->second.prefs;
    ctx_->Count(ServingContext::kSelectionCacheHits);
  } else {
    selection_cached = false;
    ctx_->Count(ServingContext::kSelectionCacheMisses);
    const auto select_start = std::chrono::steady_clock::now();
    QP_ASSIGN_OR_RETURN(std::vector<SelectedPreference> selected,
                        core::RunSelection(*state->snapshot->graph, query,
                                           opts, resolved));
    selection_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      select_start)
            .count();
    preferences = std::make_shared<const std::vector<SelectedPreference>>(
        std::move(selected));
    CachedSelection entry;
    entry.prefs = preferences;
    entry.query_relations = core::QueryContext::FromQuery(query).relations;
    entry.doi_target =
        opts.target_doi.has_value() || resolved.interval.has_value();
    StoreSelection(state, selection_key, std::move(entry));
  }
  if (opts.trace != nullptr) {
    obs::TraceSpan* select_span = opts.trace->AddChild("selection");
    select_span->AddAttr("cached", selection_cached ? "true" : "false");
    select_span->AddAttr("preferences", preferences->size());
    select_span->set_seconds(selection_seconds);
  }
  QP_RETURN_IF_ERROR(core::ValidateSelection(*preferences, opts));

  const std::string plan_key = PlanKey(selection_key, opts);
  if (record != nullptr) {
    record->fingerprint = FingerprintOf(plan_key);
    record->k = opts.k;
    record->l = opts.l;
    record->selected_preferences = preferences->size();
    record->selection_cache_hit = selection_cached;
    record->selection_seconds = selection_seconds;
  }
  std::shared_ptr<const core::IntegrationPlan> plan;
  bool plan_cached = true;
  obs::TraceSpan* plan_span =
      opts.trace != nullptr ? opts.trace->AddChild("plan") : nullptr;
  const auto plan_start = std::chrono::steady_clock::now();
  if (auto it = state->plans.find(plan_key); it != state->plans.end()) {
    plan = it->second.plan;
    ctx_->Count(ServingContext::kPlanCacheHits);
  } else {
    plan_cached = false;
    ctx_->Count(ServingContext::kPlanCacheMisses);
    QP_ASSIGN_OR_RETURN(core::IntegrationPlan built,
                        core::BuildIntegrationPlan(ctx_->db_, &ctx_->stats_,
                                                   query, *preferences, opts));
    plan = std::make_shared<const core::IntegrationPlan>(std::move(built));
    StorePlan(state, plan_key, CachedPlan{plan, selection_key});
  }
  const double plan_seconds = SecondsSince(plan_start);
  if (plan_span != nullptr) {
    plan_span->set_seconds(plan_seconds);
    plan_span->AddAttr("cached", plan_cached ? "true" : "false");
    plan_span->AddAttr(
        "algorithm",
        plan->algorithm == core::AnswerAlgorithm::kSpa ? "spa" : "ppa");
  }
  if (record != nullptr) {
    record->plan_cache_hit = plan_cached;
    record->plan_seconds = plan_seconds;
    record->algorithm =
        plan->algorithm == core::AnswerAlgorithm::kSpa ? "spa" : "ppa";
  }

  const auto execute_start = std::chrono::steady_clock::now();
  QP_ASSIGN_OR_RETURN(PersonalizedAnswer answer,
                      core::ExecuteIntegrationPlan(ctx_->db_, *plan, opts,
                                                   resolved));
  if (record != nullptr) record->execute_seconds = SecondsSince(execute_start);
  core::FinalizeAnswer(resolved, selection_seconds, answer);
  return answer;
}

Result<PersonalizedAnswer> Session::Personalize(
    const std::string& sql, const PersonalizeOptions& options) {
  QP_ASSIGN_OR_RETURN(sql::SelectQuery query, core::ParseSingleSelect(sql));
  return Personalize(query, options);
}

Result<Session*> ServingContext::OpenSession(const std::string& user_id,
                                             const core::UserProfile& profile) {
  Status valid = profile.Validate(*db_);
  if (!valid.ok()) {
    return Status::ProfileValidation(valid.message());
  }
  std::lock_guard<common::ProfiledMutex> lock(sessions_mu_);
  auto it = sessions_.find(user_id);
  if (it != sessions_.end()) {
    return Status::AlreadyExists("session already open for user '" + user_id +
                                 "'");
  }
  auto session =
      std::shared_ptr<Session>(new Session(this, user_id, profile));
  lru_.push_front(user_id);
  session->lru_it_ = lru_.begin();
  Session* out = session.get();
  sessions_.emplace(user_id, std::move(session));
  EvictOverCapLocked();
  return out;
}

void ServingContext::EvictOverCapLocked() {
  if (options_.max_sessions == 0) return;
  // Walk coldest-first; skip sessions with calls in flight (the cap is
  // soft). The evicted shared_ptr may outlive the map if a caller holds an
  // AcquireSession handle — destruction then happens on handle release.
  auto it = lru_.end();
  while (sessions_.size() > options_.max_sessions && it != lru_.begin()) {
    --it;
    auto found = sessions_.find(*it);
    if (found == sessions_.end() || found->second->InFlight() > 0) continue;
    it = lru_.erase(it);
    sessions_.erase(found);
    Count(kSessionsEvicted);
  }
}

Session* ServingContext::FindSession(const std::string& user_id) {
  std::lock_guard<common::ProfiledMutex> lock(sessions_mu_);
  auto it = sessions_.find(user_id);
  if (it == sessions_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second->lru_it_);
  return it->second.get();
}

std::shared_ptr<Session> ServingContext::AcquireSession(
    const std::string& user_id) {
  std::lock_guard<common::ProfiledMutex> lock(sessions_mu_);
  auto it = sessions_.find(user_id);
  if (it == sessions_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second->lru_it_);
  return it->second;
}

Status ServingContext::CloseSession(const std::string& user_id) {
  std::lock_guard<common::ProfiledMutex> lock(sessions_mu_);
  auto it = sessions_.find(user_id);
  if (it == sessions_.end()) {
    return Status::NotFound("no session for user '" + user_id + "'");
  }
  lru_.erase(it->second->lru_it_);
  sessions_.erase(it);
  return Status::OK();
}

size_t ServingContext::NumSessions() const {
  std::lock_guard<common::ProfiledMutex> lock(sessions_mu_);
  return sessions_.size();
}

}  // namespace qp::serve
