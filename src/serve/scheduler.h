// qp::serve — asynchronous admission-controlled request scheduling.
//
// A Scheduler front-ends a ServingContext with a bounded, sharded request
// queue. Users hash to a fixed worker shard (FNV-1a of the user id), so all
// of one user's requests execute serially on one worker — no session ever
// sees concurrent scheduler calls, while distinct users spread across
// shards. Each shard runs one worker thread over three priority lanes
// (interactive / normal / batch) served by weighted round-robin: with the
// default weights {4, 2, 1}, any window of 7 dispatches from a backlogged
// shard serves every lane at least once, so no lane starves.
//
// Admission control is where overload becomes an error instead of a
// latency spiral: Submit rejects with kOverloaded the moment the target
// shard's queue is full, and the caller is told to back off and resubmit
// (IsRetryable(kOverloaded) is true). The scheduler itself NEVER retries
// admission — internally retrying overload would amplify it.
//
// Deadlines are measured from admission and include queue wait. A request
// whose deadline passes while still queued completes with
// kDeadlineExceeded without executing. One that is already running when
// the deadline fires is cut cooperatively: the CancelToken reaches the
// executor's morsel checkpoints and PPA's round checkpoints, and PPA
// answers come back SUCCESSFULLY as the progressive prefix with
// stats.partial = true (see core/ppa.h for the determinism contract: the
// prefix for a given cut round is byte-identical at every thread count).
//
// Transient execution failures (IsRetryable, minus kOverloaded which
// execution never produces) are retried up to Options::max_attempts with
// jittered exponential backoff; the jitter RNG is seeded per shard from
// Options::seed, so backoff sequences are reproducible.
//
// Shutdown(drain=true) (the destructor's spelling) stops admission and
// finishes everything already queued; Shutdown(drain=false) fails pending
// requests with kCancelled.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/profiled_mutex.h"
#include "obs/metrics.h"
#include "obs/sliding_histogram.h"
#include "serve/serving_context.h"

namespace qp::serve {

/// Priority lane of a request. Lower value = higher priority.
enum class Lane {
  kInteractive = 0,
  kNormal = 1,
  kBatch = 2,
};
inline constexpr size_t kNumLanes = 3;

/// "interactive" | "normal" | "batch" — the query log's spelling.
const char* LaneName(Lane lane);

/// \brief One unit of schedulable work.
struct Request {
  std::string user_id;
  /// The query, parsed at dispatch time (kInvalidQuery surfaces in the
  /// response, not at Submit).
  std::string sql;
  core::PersonalizeOptions options;
  Lane lane = Lane::kNormal;
  /// Deadline in seconds measured from ADMISSION (queue wait counts).
  /// 0 = none.
  double deadline_seconds = 0.0;
  /// Deterministic deadline replay: cut PPA before this round regardless
  /// of wall time (forwarded to CancelToken::ForceCutAtRound). The default
  /// never cuts.
  size_t force_cut_round = std::numeric_limits<size_t>::max();
  /// Test seam: when set, called INSTEAD of the session lookup + execution
  /// for each attempt. Return a Status to simulate that attempt's outcome,
  /// or nullopt to fall through to real execution. Lets the scheduler
  /// tests script failures, block workers on latches, and run without
  /// open sessions.
  std::function<std::optional<Status>(size_t attempt)> intercept;
};

/// \brief The terminal outcome of a scheduled request.
struct Response {
  Status status;                                  ///< OK iff `answer` is set
  std::optional<core::PersonalizedAnswer> answer;
  /// Mirror of answer->stats.partial (false on error): the deadline cut
  /// the answer to its progressive prefix.
  bool partial = false;
  size_t attempts = 0;       ///< execution attempts made (0 = never ran)
  double queue_seconds = 0.0;
  double execute_seconds = 0.0;
  Lane lane = Lane::kNormal;
  size_t shard = 0;
};

/// \brief Caller-side future for one admitted request.
///
/// Returned by Scheduler::Submit; safe to share across threads. The handle
/// owns the request's CancelToken, so it must outlive execution — which it
/// does, because the scheduler keeps its own shared_ptr until the request
/// finishes.
class RequestHandle {
 public:
  RequestHandle() = default;
  RequestHandle(const RequestHandle&) = delete;
  RequestHandle& operator=(const RequestHandle&) = delete;

  /// Requests cooperative cancellation: a queued request finishes with
  /// kCancelled when dequeued; a running one unwinds at its next
  /// checkpoint (PPA returns the partial prefix instead).
  void Cancel() { token_.RequestCancel(); }

  bool done() const;
  /// Blocks until the request finishes and returns its response (stable
  /// reference; valid for the handle's lifetime).
  const Response& Wait() const;
  /// Waits up to `seconds`; true when done.
  bool WaitFor(double seconds) const;
  /// The request's cancellation token (for wiring into external watchdogs).
  common::CancelToken* token() { return &token_; }

 private:
  friend class Scheduler;

  void Finish(Response&& response);

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool done_ = false;
  Response response_;
  common::CancelToken token_;
  std::chrono::steady_clock::time_point admitted_at_;
};

/// Monotonic counter snapshot of one scheduler's lifetime: its own
/// requests only, while the qp_sched_* series it mirrors into sum every
/// scheduler on the context. Plus the queue-depth high-water mark, which
/// has no metric spelling.
struct SchedulerStats {
  uint64_t submitted = 0;        ///< admitted requests
  uint64_t shed = 0;             ///< rejected with kOverloaded at Submit
  uint64_t dispatched = 0;       ///< dequeued onto a worker (incl. expired)
  uint64_t expired_in_queue = 0; ///< deadline passed before dispatch
  uint64_t deadline_cut = 0;     ///< completed with a partial (cut) answer
  uint64_t retries = 0;          ///< re-execution attempts after retryables
  uint64_t completed = 0;        ///< finished OK (including partial)
  uint64_t failed = 0;           ///< finished non-OK (any reason)
  size_t max_queue_depth = 0;    ///< per-shard queued-request high water
};

/// \brief Sharded, admission-controlled, deadline-aware request scheduler.
class Scheduler {
 public:
  struct Options {
    /// Worker shards (one thread each). Users hash to shards, so this is
    /// also the cross-user execution parallelism of the scheduler itself;
    /// per-query morsel parallelism comes from the context's pool and is
    /// independent.
    size_t num_shards = 2;
    /// Max requests queued per shard, summed across lanes. A full shard
    /// sheds new arrivals with kOverloaded.
    size_t shard_queue_capacity = 64;
    /// Total execution attempts per request (1 = no retries). Only
    /// IsRetryable failures from execution re-attempt; kOverloaded never
    /// enters here (admission is not retried internally).
    size_t max_attempts = 1;
    /// Backoff before retry r (1-based) sleeps
    /// base * 2^(r-1) * (0.5 + jitter), capped at max_backoff_seconds.
    double retry_backoff_seconds = 0.001;
    double max_backoff_seconds = 0.050;
    /// Fraction of a request's deadline handed to execution; the rest is
    /// slack for the cooperative cut to reach a checkpoint and finish, so
    /// admitted requests COMPLETE (possibly partial) inside the caller's
    /// deadline instead of overshooting it by one PPA round. 1.0 disables
    /// the margin.
    double deadline_margin = 0.85;
    /// Seed of the per-shard jitter RNG (shard s uses seed ^ s).
    uint64_t seed = 0x9e3779b97f4a7c15ull;
    /// Weighted round-robin dispatch credits per lane, indexed by Lane.
    /// Every weight must be >= 1 so no lane can starve.
    std::array<size_t, kNumLanes> lane_weights = {4, 2, 1};
    /// /healthz threshold: the scheduler registers a "scheduler" health
    /// source on the context that reports unhealthy while the fraction of
    /// arrivals shed with kOverloaded over the trailing
    /// `healthz_window_seconds` exceeds this. >= 1.0 never trips (the
    /// source stays registered but always healthy).
    double healthz_max_shed_rate = 0.5;
    double healthz_window_seconds = 60.0;
  };

  /// `ctx` is borrowed and must outlive the scheduler.
  Scheduler(ServingContext* ctx, Options options);
  ~Scheduler();  ///< Shutdown(/*drain=*/true)

  /// Admits `request` onto its user's shard. Fails fast with kOverloaded
  /// when the shard queue is full (caller should back off and resubmit)
  /// and kInvalidArgument after shutdown or for an empty user id.
  Result<std::shared_ptr<RequestHandle>> Submit(Request request);

  /// Submit + Wait. On shed, the Response carries the kOverloaded status
  /// with attempts == 0.
  Response SubmitAndWait(Request request);

  /// Stops admission. drain=true finishes all queued work first;
  /// drain=false fails queued requests with kCancelled. Idempotent.
  void Shutdown(bool drain = true);

  /// Which shard `user_id` hashes to (exposed for tests and load tools).
  size_t ShardOf(const std::string& user_id) const;

  SchedulerStats stats() const;
  const Options& options() const { return options_; }

 private:
  struct QueuedRequest {
    Request request;
    std::shared_ptr<RequestHandle> handle;
  };

  struct Shard {
    /// Contention-profiled (site "sched_shard", shared by all shards):
    /// cross-user convoys on a hot shard surface in /contentionz.
    /// condition_variable_any because ProfiledMutex is not std::mutex.
    common::ProfiledMutex mu{"sched_shard"};
    std::condition_variable_any cv;
    std::array<std::deque<QueuedRequest>, kNumLanes> lanes;
    size_t queued = 0;
    /// Remaining WRR credits per lane; refilled from lane_weights when no
    /// backlogged lane has any left.
    std::array<size_t, kNumLanes> credits;
    std::thread worker;
    uint64_t rng_state = 0;
  };

  void WorkerLoop(size_t shard_index);
  /// Picks the next lane to serve (call with the shard mutex held;
  /// requires queued > 0).
  size_t PickLane(Shard& shard);
  void Execute(size_t shard_index, QueuedRequest&& item);
  void FinishRequest(QueuedRequest&& item, Response&& response);
  double NextJitter(Shard& shard);  ///< uniform in [0, 1)

  ServingContext* ctx_;
  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> drain_{true};
  std::atomic<size_t> max_queue_depth_{0};
  std::mutex lifecycle_mu_;  ///< serializes Shutdown
  bool joined_ = false;

  /// The scheduler's counters, indexing the counter table in scheduler.cc
  /// (one row each: series, help, SchedulerStats field), in registration
  /// order.
  enum SchedCounter : size_t {
    kSubmitted,
    kShed,
    kDispatched,
    kExpired,
    kCut,
    kRetries,
    kCompleted,
    kFailed,
    kNumCounters,
  };
  void Count(SchedCounter counter) { counters_.Add(counter); }

  /// This scheduler's counts, mirrored into the context's qp_sched_* series
  /// (resolved once).
  obs::MirroredCounters<kNumCounters> counters_;
  obs::Histogram* queue_seconds_ = nullptr;
  obs::Histogram* depth_at_enqueue_ = nullptr;
  /// Live qp_sched_queue_depth{shard,lane} gauges, push-model: +1 on
  /// enqueue, -1 whenever an item leaves its lane deque (dispatch,
  /// cancel-shutdown sweep, post-join stray sweep). Pre-resolved per
  /// shard x lane so the hot paths touch no registry map.
  std::vector<std::array<obs::Gauge*, kNumLanes>> depth_gauges_;
  /// Trailing-window arrival counters behind the "scheduler" /healthz
  /// source: admitted + shed partition every Submit outcome.
  std::unique_ptr<obs::SlidingCounter> window_admitted_;
  std::unique_ptr<obs::SlidingCounter> window_shed_;
  size_t health_id_ = 0;
  bool health_registered_ = false;
};

}  // namespace qp::serve
