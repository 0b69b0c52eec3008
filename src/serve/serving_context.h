// qp::serve — a cached multi-user serving layer over the personalization
// pipeline.
//
// A ServingContext owns the shared machinery of a serving process: the
// database handle, a StatsManager (histograms with an epoch that advances
// when table data changes), one morsel ThreadPool every session's queries
// and probes fan out over, and the pool of per-user Sessions.
//
// A Session caches, per user, the three artifacts the cold pipeline
// recomputes on every call:
//   (a) the personalization graph, built over a private copy of the profile
//       (the graph borrows pointers into the profile's vectors, so the copy
//       pins them while the live profile keeps mutating);
//   (b) selected-preference sets, keyed by the canonicalized query signature
//       (SelectQuery::ToString) plus the (k, l, c0, target_doi, descriptor,
//       selection algorithm, effective ranking) tuple;
//   (c) PPA/SPA integration plans — the rewritten query sets with their
//       selectivity ordering — keyed by the selection key plus the answer
//       algorithm.
// All three are versioned: (a) and (b) by the profile epoch
// (UserProfile::epoch(), bumped by every successful mutation including
// learn_ranking doi updates applied through AddSelection/RemoveSelection and
// set_preferred_ranking), (c) additionally by the stats epoch
// (StatsManager::Epoch(), bumped when any table's data version moves) —
// PPA plans embed histogram-derived ordering and prepared index walks, so
// they must be dropped when data changes.
//
// Incremental invalidation: a profile-epoch bump no longer throws the
// session state away wholesale. When the profile's mutation journal
// (UserProfile::MutationsSince) still covers the session's epoch, the next
// call REPAIRS: the graph is patched via PersonalizationGraph::RepairFrom,
// a cached selection survives when the join-closure of its query's anchor
// relations (over the old AND the new graph) is disjoint from the delta's
// affected relations — doi-target selections additionally require the
// preference COUNT to be unchanged, because their N estimate is global —
// and a plan survives when its selection survived and the stats epoch did
// not move. A repaired state is bit-identical to what a wholesale rebuild
// would produce (the differential churn tests pin this); the journal
// falling behind (> UserProfile::kJournalCapacity mutations) falls back to
// the wholesale rebuild. Stats-only and data-version bumps keep their
// pre-existing behavior: graph + selections survive, plans drop.
//
// Warm calls re-enter the exact pipeline stages a cold core::Personalizer
// runs (core/pipeline.h), just skipping the stages whose cached inputs are
// still valid — which is why a warm answer is byte-identical to a cold one
// (SameAnswerPayload): only the wall-clock timing fields differ.
//
// Concurrency model: Sessions for different users are fully independent.
// Within one session, concurrent Personalize calls are safe and lock-free
// on the read path — the session state (graph + caches) is an immutable
// snapshot behind std::atomic<std::shared_ptr>, and cache inserts
// copy-on-write the snapshot under a small per-session mutex. Mutating the
// profile concurrently with in-flight Personalize calls is safe through
// Session::Mutate (it serializes against the state-rebuild path); touching
// mutable_profile() directly keeps the historical contract — don't mutate
// WHILE a call on the same session is in flight.
//
// Session lifetime: ServingContext::Options::max_sessions turns on LRU
// eviction — a soft cap, because sessions with calls in flight are never
// evicted. Under a cap, hold sessions via AcquireSession (shared ownership)
// rather than the raw OpenSession/FindSession pointers.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "common/profiled_mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "obs/flight_recorder.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/ring.h"
#include "obs/sliding_histogram.h"
#include "stats/table_stats.h"

namespace qp::serve {

/// Snapshot of a ServingContext's cumulative cache/work counters. The
/// warm-vs-cold bench asserts on these: a fully warm call increments only
/// personalize_calls and the two hit counters. Since the obs layer landed
/// this is a *view* over the context's MetricsRegistry (the qp_serve_*
/// series), not separate storage — counters() and MetricsText() can never
/// disagree.
struct ServeCounters {
  size_t personalize_calls = 0;
  /// Wholesale personalization-graph constructions (cold sessions + journal
  /// fallbacks). Delta repairs count under graph_repairs instead.
  size_t graph_builds = 0;
  /// Delta-sized graph repairs (PersonalizationGraph::RepairFrom).
  size_t graph_repairs = 0;
  /// Profile-epoch invalidations that could NOT use the journal (gap or
  /// lineage change) and paid a full rebuild.
  size_t wholesale_rebuilds = 0;
  size_t selection_cache_hits = 0;
  size_t selection_cache_misses = 0;
  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;
  /// Snapshot rebuilds forced by a profile- or stats-epoch change.
  size_t epoch_invalidations = 0;
  /// Cache entries carried across an epoch transition / dropped by one.
  size_t selection_entries_retained = 0;
  size_t selection_entries_dropped = 0;
  size_t plan_entries_retained = 0;
  size_t plan_entries_dropped = 0;
  /// Sessions closed by the LRU cap (Options::max_sessions).
  size_t sessions_evicted = 0;

  bool operator==(const ServeCounters&) const = default;
};

/// How a Personalize call obtained its session state — the query log's
/// state_outcome field. Reused/stats_refresh/repaired are the warm paths;
/// built is a session's first call; rebuilt is the journal-gap fallback.
enum class StateOutcome {
  kReused,        ///< epochs matched, state untouched
  kBuilt,         ///< first call: graph built, caches empty
  kStatsRefresh,  ///< stats epoch moved: graph + selections kept, plans drop
  kRepaired,      ///< profile delta: graph patched, caches filtered
  kRebuilt,       ///< profile moved past the journal: wholesale rebuild
};

/// Lower-case wire name ("reused", "built", ...).
const char* StateOutcomeName(StateOutcome outcome);

class ServingContext;

/// How a scheduler-dispatched request was admitted — copied into the query
/// log so overload behavior is diagnosable per request. Direct Session
/// calls pass none and log the pre-scheduler defaults.
struct AdmissionInfo {
  std::string lane;            ///< "interactive" | "normal" | "batch"
  size_t shard = 0;            ///< worker shard the user hashed to
  size_t attempt = 0;          ///< 0-based retry attempt
  double queue_seconds = 0.0;  ///< admission -> dispatch wait
};

/// \brief One user's cached personalization state inside a ServingContext.
class Session {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The live profile. Mutations bump its epoch; the next Personalize call
  /// repairs (or rebuilds) the session state. Direct access keeps the
  /// historical ordering contract (no concurrent Personalize in flight);
  /// use Mutate() when servers race mutators.
  core::UserProfile& mutable_profile() { return profile_; }
  const core::UserProfile& profile() const { return profile_; }
  const std::string& user_id() const { return user_id_; }

  /// Applies `fn` to the live profile under the session's profile mutex —
  /// safe to call while Personalize calls on this session are in flight.
  /// Returns whatever `fn` returns; a failed mutation attempt that left the
  /// profile untouched (the UserProfile mutators are all-or-nothing)
  /// invalidates nothing.
  Status Mutate(const std::function<Status(core::UserProfile&)>& fn);

  /// Personalizes `query` for this user, reusing every cached artifact
  /// whose epoch still matches. Byte-identical to a cold
  /// core::Personalizer::Personalize with the same inputs.
  Result<core::PersonalizedAnswer> Personalize(
      const sql::SelectQuery& query, const core::PersonalizeOptions& options);

  /// Convenience: parses `sql` first (kInvalidQuery unless a single SELECT).
  Result<core::PersonalizedAnswer> Personalize(
      const std::string& sql, const core::PersonalizeOptions& options);

  /// Scheduler entry point: identical to Personalize, plus the admission
  /// block (`admission` may be null) is stamped onto the query-log record.
  Result<core::PersonalizedAnswer> PersonalizeAdmitted(
      const sql::SelectQuery& query, const core::PersonalizeOptions& options,
      const AdmissionInfo* admission);

 private:
  friend class ServingContext;

  /// The profile copy the graph points into; address-stable via shared_ptr
  /// so the graph's borrowed pointers survive live-profile mutation. The
  /// graph is emplaced right after construction (optional only because
  /// PersonalizationGraph is constructible solely through Build) and is
  /// never empty in a published snapshot.
  struct ProfileSnapshot {
    core::UserProfile profile;
    std::optional<core::PersonalizationGraph> graph;

    explicit ProfileSnapshot(core::UserProfile p) : profile(std::move(p)) {}
  };

  /// A cached selected-preference set plus what epoch transitions need to
  /// decide its survival: the query's anchor relations (closure inputs) and
  /// whether the doi-target path produced it (whose N estimate reads the
  /// GLOBAL preference count, so any add/remove kills it).
  struct CachedSelection {
    std::shared_ptr<const std::vector<core::SelectedPreference>> prefs;
    std::vector<std::string> query_relations;
    bool doi_target = false;
  };

  /// A cached integration plan plus the selection entry it was derived
  /// from: a plan survives a profile delta only if that entry did.
  struct CachedPlan {
    std::shared_ptr<const core::IntegrationPlan> plan;
    std::string selection_key;
  };

  /// Immutable session state: swapped wholesale, never mutated in place.
  struct State {
    uint64_t profile_epoch = 0;
    uint64_t stats_epoch = 0;
    std::shared_ptr<const ProfileSnapshot> snapshot;
    /// Selection key -> cached selection (valid for profile_epoch).
    std::map<std::string, CachedSelection> selections;
    /// Plan key -> cached plan (valid for both epochs).
    std::map<std::string, CachedPlan> plans;
  };

  Session(ServingContext* ctx, std::string user_id, core::UserProfile profile);

  /// The whole pipeline body of Personalize. Fills the deterministic
  /// request-identity fields of `record` (fingerprint, algorithm, K/L,
  /// selected-preference count, cache hit flags) and the per-stage timings
  /// (measured with plain timers, not trace spans, so logging never forces
  /// executor span-tree construction) as it goes; the public wrapper adds
  /// the total/resource fields and hands the record to the context's
  /// QueryLog.
  Result<core::PersonalizedAnswer> PersonalizeImpl(
      const sql::SelectQuery& query, const core::PersonalizeOptions& opts,
      obs::QueryLogRecord* record);

  /// Returns a state current for the live profile epoch and `stats_epoch`,
  /// repairing or rebuilding as needed; `outcome` (required) reports which
  /// transition ran and `repaired_mutations` (required) the journal delta
  /// size a kRepaired transition replayed (0 for every other outcome).
  /// Reads the live profile only under profile_mu_, so it is safe against
  /// concurrent Mutate calls.
  Result<std::shared_ptr<const State>> CurrentState(
      uint64_t stats_epoch, StateOutcome* outcome,
      size_t* repaired_mutations);

  /// Copy-on-write cache inserts; no-ops when the state has moved on (a
  /// concurrent epoch bump) so stale artifacts never enter the cache.
  void StoreSelection(const std::shared_ptr<const State>& based_on,
                      const std::string& key, CachedSelection value);
  void StorePlan(const std::shared_ptr<const State>& based_on,
                 const std::string& key, CachedPlan value);

  /// In-flight Personalize calls (eviction guard).
  size_t InFlight() const {
    return inflight_.load(std::memory_order_acquire);
  }

  ServingContext* ctx_;
  const std::string user_id_;
  core::UserProfile profile_;
  /// This user's personalize-latency series in the context registry
  /// (qp_serve_personalize_seconds{user="<id>"}), resolved once at session
  /// open so the per-call cost is one Observe().
  obs::Histogram* latency_ = nullptr;

  /// Lock-free read path; writers swap under mu_.
  std::atomic<std::shared_ptr<const State>> state_{nullptr};
  std::mutex mu_;
  /// Serializes profile mutation (Mutate) against the state-rebuild path's
  /// profile copy. Ordered AFTER mu_ (CurrentState holds mu_ when it takes
  /// this); Mutate takes it alone.
  std::mutex profile_mu_;
  std::atomic<size_t> inflight_{0};
  /// Position in the context's LRU list (guarded by sessions_mu_).
  std::list<std::string>::iterator lru_it_;
};

/// \brief Shared serving state: database, stats, thread pool, sessions.
class ServingContext {
 public:
  struct Options {
    /// Parallelism of the shared pool all sessions' queries and probes run
    /// on. 1 = serial (no pool); N spawns N - 1 workers that callers join.
    size_t num_threads = 1;
    /// Soft cap on concurrently open sessions; 0 = unbounded (historical
    /// behavior). When OpenSession would exceed the cap, least-recently
    /// used idle sessions are evicted (qp_serve_sessions_evicted_total);
    /// sessions with calls in flight are skipped, so the map can
    /// transiently exceed the cap under load.
    size_t max_sessions = 0;
    /// Structured per-request query log (obs::QueryLog). Enabled by
    /// default; disabling removes every per-call logging cost (no record
    /// assembly, no fingerprint hash) for overhead benchmarking.
    bool query_log_enabled = true;
    /// Capacity / sampling / slow-threshold knobs of the query log; only
    /// consulted when query_log_enabled.
    obs::QueryLog::Options query_log;
    /// Optional flight recorder (not owned; must outlive the context).
    /// When set, every Personalize call records a span event into it —
    /// pair with FlightRecorder::CaptureStatusErrors for error capture.
    obs::FlightRecorder* flight = nullptr;

    /// Introspection server (obs::IntrospectionServer) port on 127.0.0.1:
    /// -1 (default) disables it, 0 binds an ephemeral port (read back via
    /// introspect_port()), >0 binds that port. A failed bind — sandboxes
    /// may forbid even localhost sockets — is recorded in the flight
    /// recorder and serving continues without the endpoint.
    int introspect_port = -1;
    /// Threads of the server's private pool (accept loop + concurrent
    /// handlers); see IntrospectionServer::Options::num_threads.
    size_t introspect_threads = 4;

    /// SLO target for Session::Personalize latency: "`slo_objective` of
    /// requests complete within `slo_threshold_seconds`". Drives the
    /// qp_slo_* gauges, /healthz-adjacent burn-rate reporting and the
    /// shell's \slo command.
    double slo_threshold_seconds = 0.5;
    double slo_objective = 0.99;
    /// Clock for every windowed structure (SLO windows, the rolling-p99
    /// latency window). Null uses obs::MonotonicClock; tests inject a
    /// manual clock to make windowed reads deterministic.
    std::function<double()> clock;

    /// Sample every Nth Personalize call into the /tracez ring (a private
    /// root span is attached when the caller provided none). 0 disables
    /// sampling; the ring keeps the last `tracez_capacity` trees rendered
    /// as Chrome trace JSON.
    size_t trace_sample_every = 0;
    size_t tracez_capacity = 8;
  };

  explicit ServingContext(const storage::Database* db);
  ServingContext(const storage::Database* db, Options options);
  /// Stops the introspection server (handlers reference the registry and
  /// session map, so it must die first) and detaches the collection hook
  /// and the index catalog's counters.
  ~ServingContext();

  /// Opens a session for `user_id` with a copy of `profile`; kAlreadyExists
  /// when the user already has one. Fails with kProfileValidation when the
  /// profile does not validate against the database. The returned pointer
  /// stays valid until CloseSession — or, under Options::max_sessions,
  /// until LRU eviction; capped contexts should hold sessions via
  /// AcquireSession instead.
  Result<Session*> OpenSession(const std::string& user_id,
                               const core::UserProfile& profile);

  /// The user's session, or null. Marks the session most-recently used.
  Session* FindSession(const std::string& user_id);

  /// Shared-ownership lookup: the returned handle keeps the session alive
  /// even if it is concurrently evicted or closed, so in-flight work never
  /// races session destruction. Null when the user has no session.
  std::shared_ptr<Session> AcquireSession(const std::string& user_id);

  /// Destroys the session; kNotFound if absent. No call on the session may
  /// be in flight.
  Status CloseSession(const std::string& user_id);

  /// Open sessions right now (eviction tests).
  size_t NumSessions() const;

  const storage::Database* db() const { return db_; }
  stats::StatsManager* stats() { return &stats_; }
  /// Shared morsel pool (null when Options::num_threads == 1).
  common::ThreadPool* pool() { return pool_.get(); }

  /// The context's metrics registry: the qp_serve_* counters, the per-user
  /// qp_serve_personalize_seconds histograms (cardinality-capped; overflow
  /// users share the user="__other__" series), the qp_query_* per-request
  /// series (rows returned, thread-seconds, log retention), and the
  /// qp_exec_* counters of every executor sessions run. Callers may
  /// register their own series.
  obs::MetricsRegistry* metrics() { return &metrics_; }

  /// The context's query log; null when Options::query_log_enabled is
  /// false.
  obs::QueryLog* query_log() { return query_log_.get(); }
  const obs::QueryLog* query_log() const { return query_log_.get(); }

  /// The flight recorder injected via Options (null when none).
  obs::FlightRecorder* flight() { return options_.flight; }

  /// The Personalize-latency SLO tracker (always constructed; windowed
  /// attainment and burn rate against Options::slo_threshold_seconds /
  /// slo_objective).
  obs::SloTracker* slo() { return slo_.get(); }
  const obs::SloTracker* slo() const { return slo_.get(); }

  /// The resolved windowed-structure clock (Options::clock, or
  /// obs::MonotonicClock when none was injected). Components layered on the
  /// context (the Scheduler's shed-rate window) share it so one injected
  /// test clock drives every window in the process.
  const std::function<double()>& clock() const { return options_.clock; }

  /// The introspection server's bound port, or -1 when disabled or the
  /// bind failed. With Options::introspect_port = 0 this is the kernel's
  /// ephemeral pick.
  int introspect_port() const { return introspect_.port(); }

  /// Registers a named health source consulted by /healthz: `check`
  /// returns "" when healthy, else a short reason. Any unhealthy source
  /// turns /healthz into a 503 listing every reason. Returns an id for
  /// RemoveHealthSource; sources shorter-lived than the context (the
  /// Scheduler's shed-rate source) must remove themselves before dying.
  /// Checks run concurrently on introspection threads — they must be
  /// thread-safe.
  size_t AddHealthSource(std::string name,
                         std::function<std::string()> check);
  void RemoveHealthSource(size_t id);

  /// The /healthz response: 200 "ok" when every health source is quiet,
  /// 503 with one "name: reason" line per unhealthy source otherwise.
  obs::HttpResponse Healthz() const;

  /// The /statusz body: build info, uptime, session count, SLO summary and
  /// the index catalog listing — also the shell's \statusz output.
  std::string StatuszText() const;

  /// The /tracez body: a JSON array of the last-N sampled span trees in
  /// Chrome trace-event form (empty array when sampling is off or nothing
  /// was sampled yet).
  std::string TracezJson() const;

  /// Prometheus text exposition of every metric in the registry — what a
  /// /metrics endpoint would serve.
  std::string MetricsText() const { return metrics_.RenderText(); }
  /// JSON snapshot of the same registry.
  std::string MetricsJson() const { return metrics_.RenderJson(); }

  /// Snapshot view over the registry's qp_serve_* counters.
  ServeCounters counters() const;

 private:
  friend class Session;

  /// Evicts LRU idle sessions until the cap holds (caller holds
  /// sessions_mu_). Sessions with in-flight calls are skipped.
  void EvictOverCapLocked();

  /// The scrape-time refresh (metrics_ collection hook): session-state
  /// gauges, process self-stats from /proc, uptime and the windowed SLO /
  /// latency gauges.
  void RefreshGauges();

  /// Launches the introspection server and registers the endpoint
  /// handlers; no-op when Options::introspect_port < 0.
  void StartIntrospection();

  /// Records one sampled Personalize trace into the tracez ring (already
  /// rendered to Chrome JSON — storing strings sidesteps span lifetimes).
  void RecordSampledTrace(const obs::TraceSpan& root);

  const storage::Database* db_;
  Options options_;
  stats::StatsManager stats_;
  std::unique_ptr<common::ThreadPool> pool_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::QueryLog> query_log_;

  /// Contention-profiled (site "serve_sessions"): session-map convoys under
  /// many-user load show up in /contentionz.
  mutable common::ProfiledMutex sessions_mu_{"serve_sessions"};
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  /// Most-recently used session ids, front = hottest; each Session keeps
  /// its own iterator (lru_it_).
  std::list<std::string> lru_;

  /// The context's counters, indexing the counter table in
  /// serving_context.cc (one row each: series, help, ServeCounters field).
  /// The order is the registration order, hence the exposition order.
  enum ServeCounter : size_t {
    kPersonalizeCalls,
    kGraphBuilds,
    kGraphRepairs,
    kWholesaleRebuilds,
    kSelectionCacheHits,
    kSelectionCacheMisses,
    kPlanCacheHits,
    kPlanCacheMisses,
    kEpochInvalidations,
    kSelectionEntriesRetained,
    kSelectionEntriesDropped,
    kPlanEntriesRetained,
    kPlanEntriesDropped,
    kSessionsEvicted,
    kRowsReturned,
    kLogRetained,
    kNumCounters,
  };
  void Count(ServeCounter counter, uint64_t n = 1) {
    counters_[counter]->Increment(n);
  }

  /// The counters' series in metrics_ (stable pointers), resolved once at
  /// construction.
  std::array<obs::Counter*, kNumCounters> counters_{};
  /// qp_query_thread_seconds: thread-seconds of each successful call.
  obs::Histogram* q_thread_seconds_ = nullptr;

  // --- Windowed SLO, scrape-time gauges, introspection ---

  /// Personalize-latency SLO tracker and the rolling-percentile window
  /// behind the qp_slo_* gauges (both on Options::clock).
  std::unique_ptr<obs::SloTracker> slo_;
  std::unique_ptr<obs::SlidingHistogram> latency_window_;

  /// Scrape-refreshed gauges (filled by RefreshGauges).
  obs::Gauge* g_sessions_idle_ = nullptr;
  obs::Gauge* g_sessions_inflight_ = nullptr;
  obs::Gauge* g_uptime_ = nullptr;
  obs::Gauge* g_rss_bytes_ = nullptr;
  obs::Gauge* g_vsize_bytes_ = nullptr;
  obs::Gauge* g_threads_ = nullptr;
  struct SloGauges {
    obs::Gauge* attainment = nullptr;
    obs::Gauge* burn_rate = nullptr;
    obs::Gauge* p50 = nullptr;
    obs::Gauge* p99 = nullptr;
  };
  SloGauges slo_1m_;
  SloGauges slo_5m_;

  // --- Continuous profiling (src/obs/prof.h) ---

  /// Counter-rendered gauges (GetCounterGauge) mirroring the profiling
  /// collectors' cumulative totals at scrape time, plus process CPU seconds
  /// from /proc/self/stat. g_prof_heap_live_bytes_ is a plain gauge (live
  /// bytes move both ways).
  obs::Gauge* g_cpu_seconds_ = nullptr;
  obs::Gauge* g_prof_cpu_samples_ = nullptr;
  obs::Gauge* g_prof_cpu_dropped_ = nullptr;
  obs::Gauge* g_prof_lock_acquisitions_ = nullptr;
  obs::Gauge* g_prof_lock_contentions_ = nullptr;
  obs::Gauge* g_prof_lock_wait_seconds_ = nullptr;
  obs::Gauge* g_prof_heap_allocs_ = nullptr;
  obs::Gauge* g_prof_heap_bytes_ = nullptr;
  obs::Gauge* g_prof_heap_live_bytes_ = nullptr;
  /// Serializes on-demand /pprofz capture windows (one SIGPROF timer per
  /// process; concurrent requests take turns instead of trampling it).
  std::mutex pprof_mu_;

  size_t gauge_hook_id_ = 0;
  bool gauge_hook_registered_ = false;

  /// Health sources consulted by Healthz(), id-keyed for removal.
  mutable std::mutex health_mu_;
  size_t next_health_id_ = 0;
  std::vector<std::tuple<size_t, std::string, std::function<std::string()>>>
      health_sources_;

  /// Tracez ring: last-N sampled traces as rendered Chrome JSON strings.
  obs::OverwriteRing<std::string> tracez_{options_.tracez_capacity};
  std::atomic<uint64_t> trace_sample_counter_{0};

  std::chrono::steady_clock::time_point start_time_;
  obs::IntrospectionServer introspect_;
};

}  // namespace qp::serve
