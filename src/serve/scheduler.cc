#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace qp::serve {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(const Clock::time_point& t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// FNV-1a — same family the query-log sampler and fingerprints use, so a
/// user's shard is stable across processes and runs.
uint64_t HashUser(const std::string& user_id) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : user_id) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The scheduler's counters, one row each, in Scheduler::SchedCounter
/// order. SchedulerStats::max_queue_depth is a high-water mark, not a
/// counter, so no row fills it.
constexpr obs::CounterRow<SchedulerStats, uint64_t> kCounterTable[] = {
    {"qp_sched_submitted_total", "Requests admitted by the scheduler",
     &SchedulerStats::submitted},
    {"qp_sched_shed_total",
     "Requests rejected with kOverloaded at admission (full shard queue)",
     &SchedulerStats::shed},
    {"qp_sched_dispatched_total",
     "Requests dequeued onto a worker (includes ones that then expire)",
     &SchedulerStats::dispatched},
    {"qp_sched_deadline_expired_total",
     "Requests whose deadline passed while still queued (never executed)",
     &SchedulerStats::expired_in_queue},
    {"qp_sched_deadline_cut_total",
     "Requests that completed with a partial (deadline-cut) answer",
     &SchedulerStats::deadline_cut},
    {"qp_sched_retries_total",
     "Re-execution attempts after retryable failures",
     &SchedulerStats::retries},
    {"qp_sched_completed_total", "Requests finished OK (incl. partial)",
     &SchedulerStats::completed},
    {"qp_sched_failed_total", "Requests finished with a non-OK status",
     &SchedulerStats::failed},
};

}  // namespace

const char* LaneName(Lane lane) {
  switch (lane) {
    case Lane::kInteractive:
      return "interactive";
    case Lane::kNormal:
      return "normal";
    case Lane::kBatch:
      return "batch";
  }
  return "unknown";
}

bool RequestHandle::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

const Response& RequestHandle::Wait() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_; });
  return response_;
}

bool RequestHandle::WaitFor(double seconds) const {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                      [&] { return done_; });
}

void RequestHandle::Finish(Response&& response) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    response_ = std::move(response);
    done_ = true;
  }
  cv_.notify_all();
}

Scheduler::Scheduler(ServingContext* ctx, Options options)
    : ctx_(ctx), options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.shard_queue_capacity == 0) options_.shard_queue_capacity = 1;
  if (options_.max_attempts == 0) options_.max_attempts = 1;
  if (options_.deadline_margin <= 0.0 || options_.deadline_margin > 1.0) {
    options_.deadline_margin = 1.0;
  }
  for (size_t& w : options_.lane_weights) w = std::max<size_t>(w, 1);

  obs::MetricsRegistry* metrics = ctx_->metrics();
  static_assert(std::size(kCounterTable) == kNumCounters);
  counters_.Mirror(*metrics, kCounterTable);
  queue_seconds_ =
      metrics->GetHistogram("qp_sched_queue_seconds",
                            obs::DefaultLatencyBuckets(),
                            "Admission-to-dispatch wait per request");
  // Histogram of the depth *distribution* seen at admission; the live
  // depth itself is the qp_sched_queue_depth{shard,lane} gauge family
  // below (distinct base names — one exposition family cannot carry two
  // metric types).
  depth_at_enqueue_ = metrics->GetHistogram(
      "qp_sched_queue_depth_at_enqueue",
      {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
      "Target-shard queue depth observed at each admission");
  depth_gauges_.resize(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    for (size_t lane = 0; lane < kNumLanes; ++lane) {
      depth_gauges_[s][lane] = metrics->GetGauge(
          "qp_sched_queue_depth",
          {{"shard", std::to_string(s)},
           {"lane", LaneName(static_cast<Lane>(lane))}},
          "Requests queued right now, by shard and lane");
    }
  }

  // Trailing shed-rate window for /healthz: 12 slices covering the
  // configured window, on the context's clock so an injected test clock
  // drives it too.
  const double window =
      options_.healthz_window_seconds > 0.0 ? options_.healthz_window_seconds
                                            : 60.0;
  options_.healthz_window_seconds = window;
  window_admitted_ = std::make_unique<obs::SlidingCounter>(
      window / 12.0, 12, ctx_->clock());
  window_shed_ = std::make_unique<obs::SlidingCounter>(
      window / 12.0, 12, ctx_->clock());
  health_id_ = ctx_->AddHealthSource("scheduler", [this] {
    const uint64_t shed = window_shed_->WindowTotal(
        options_.healthz_window_seconds);
    const uint64_t admitted = window_admitted_->WindowTotal(
        options_.healthz_window_seconds);
    const uint64_t total = shed + admitted;
    if (total == 0) return std::string();
    const double rate =
        static_cast<double>(shed) / static_cast<double>(total);
    if (rate <= options_.healthz_max_shed_rate) return std::string();
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "shedding %.0f%% of arrivals over the last %.0fs "
                  "(threshold %.0f%%)",
                  rate * 100.0, options_.healthz_window_seconds,
                  options_.healthz_max_shed_rate * 100.0);
    return std::string(buf);
  });
  health_registered_ = true;

  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->credits = options_.lane_weights;
    shard->rng_state = options_.seed ^ (0xd1b54a32d192ed03ull * (s + 1));
    shards_.push_back(std::move(shard));
  }
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_[s]->worker = std::thread([this, s] { WorkerLoop(s); });
  }
}

Scheduler::~Scheduler() { Shutdown(/*drain=*/true); }

size_t Scheduler::ShardOf(const std::string& user_id) const {
  return HashUser(user_id) % options_.num_shards;
}

Result<std::shared_ptr<RequestHandle>> Scheduler::Submit(Request request) {
  if (request.user_id.empty()) {
    return Status::InvalidArgument("request has no user id");
  }
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("scheduler is shut down");
  }
  const size_t shard_index = ShardOf(request.user_id);
  const size_t lane = static_cast<size_t>(request.lane);

  auto handle = std::make_shared<RequestHandle>();
  handle->admitted_at_ = Clock::now();
  if (request.deadline_seconds > 0.0) {
    handle->token_.SetDeadlineAfter(request.deadline_seconds *
                                    options_.deadline_margin);
  }
  if (request.force_cut_round != std::numeric_limits<size_t>::max()) {
    handle->token_.ForceCutAtRound(request.force_cut_round);
  }

  Shard& shard = *shards_[shard_index];
  size_t depth_after = 0;
  {
    std::lock_guard<common::ProfiledMutex> lock(shard.mu);
    if (shard.queued >= options_.shard_queue_capacity) {
      Count(kShed);
      window_shed_->Add();
      // A shed request never executes, so the Session will never classify
      // it — the scheduler owns its SLO verdict (always bad).
      ctx_->slo()->RecordBad();
      if (ctx_->flight() != nullptr) {
        ctx_->flight()->Record(
            obs::FlightEventKind::kNote, "scheduler",
            "shed user=" + request.user_id + " shard=" +
                std::to_string(shard_index) + " depth=" +
                std::to_string(shard.queued));
      }
      return Status::Overloaded(
          "shard " + std::to_string(shard_index) + " queue is full (" +
          std::to_string(shard.queued) + "/" +
          std::to_string(options_.shard_queue_capacity) +
          "); back off and resubmit");
    }
    shard.lanes[lane].push_back(QueuedRequest{std::move(request), handle});
    depth_after = ++shard.queued;
    // Gauge moves under the shard mutex, paired with the dequeue-side
    // decrement (also under it), so the live depth never dips negative.
    depth_gauges_[shard_index][lane]->Add(1.0);
  }
  shard.cv.notify_one();

  Count(kSubmitted);
  window_admitted_->Add();
  depth_at_enqueue_->Observe(static_cast<double>(depth_after));
  size_t prev = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth_after > prev &&
         !max_queue_depth_.compare_exchange_weak(prev, depth_after,
                                                 std::memory_order_relaxed)) {
  }
  return handle;
}

Response Scheduler::SubmitAndWait(Request request) {
  const Lane lane = request.lane;
  const size_t shard = ShardOf(request.user_id);
  auto submitted = Submit(std::move(request));
  if (!submitted.ok()) {
    Response r;
    r.status = submitted.status();
    r.lane = lane;
    r.shard = shard;
    return r;
  }
  return submitted.value()->Wait();
}

size_t Scheduler::PickLane(Shard& shard) {
  // Serve the highest-priority backlogged lane that still has credits;
  // when every backlogged lane is out, refill all credits. A lane never
  // burns credit while empty, so a freshly backlogged batch lane is served
  // within one weight cycle — the no-starvation guarantee.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t lane = 0; lane < kNumLanes; ++lane) {
      if (!shard.lanes[lane].empty() && shard.credits[lane] > 0) {
        --shard.credits[lane];
        return lane;
      }
    }
    shard.credits = options_.lane_weights;
  }
  // Unreachable while queued > 0, but keep a safe answer.
  for (size_t lane = 0; lane < kNumLanes; ++lane) {
    if (!shard.lanes[lane].empty()) return lane;
  }
  return 0;
}

void Scheduler::WorkerLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  while (true) {
    QueuedRequest item;
    {
      std::unique_lock<common::ProfiledMutex> lock(shard.mu);
      shard.cv.wait(lock, [&] {
        return shard.queued > 0 || stopping_.load(std::memory_order_acquire);
      });
      if (shard.queued == 0) {
        if (stopping_.load(std::memory_order_acquire)) return;
        continue;
      }
      if (stopping_.load(std::memory_order_acquire) &&
          !drain_.load(std::memory_order_acquire)) {
        // Cancel-shutdown: fail everything still queued, newest included.
        std::array<std::deque<QueuedRequest>, kNumLanes> lanes;
        lanes.swap(shard.lanes);
        shard.queued = 0;
        for (size_t lane = 0; lane < kNumLanes; ++lane) {
          depth_gauges_[shard_index][lane]->Add(
              -static_cast<double>(lanes[lane].size()));
        }
        lock.unlock();
        for (auto& lane : lanes) {
          for (auto& queued : lane) {
            Response r;
            r.status = Status::Cancelled("scheduler shut down");
            r.lane = queued.request.lane;
            r.shard = shard_index;
            r.queue_seconds = SecondsSince(queued.handle->admitted_at_);
            FinishRequest(std::move(queued), std::move(r));
          }
        }
        continue;
      }
      const size_t lane = PickLane(shard);
      item = std::move(shard.lanes[lane].front());
      shard.lanes[lane].pop_front();
      --shard.queued;
      depth_gauges_[shard_index][lane]->Add(-1.0);
    }
    Count(kDispatched);
    Execute(shard_index, std::move(item));
  }
}

void Scheduler::Execute(size_t shard_index, QueuedRequest&& item) {
  Shard& shard = *shards_[shard_index];
  RequestHandle& handle = *item.handle;
  Response response;
  response.lane = item.request.lane;
  response.shard = shard_index;
  response.queue_seconds = SecondsSince(handle.admitted_at_);
  queue_seconds_->Observe(response.queue_seconds);

  // A deadline or cancel that fired during the queue wait fails the
  // request without executing: the answer could only be empty, and the
  // worker's time belongs to requests that can still meet their deadline.
  if (handle.token_.deadline_passed() && !handle.token_.cancel_requested()) {
    Count(kExpired);
    // Never executed -> the Session records no SLO verdict; classify here.
    ctx_->slo()->RecordBad();
    response.status = Status::DeadlineExceeded(
        "deadline expired after " +
        std::to_string(response.queue_seconds) + "s in queue");
    FinishRequest(std::move(item), std::move(response));
    return;
  }
  if (handle.token_.cancel_requested()) {
    ctx_->slo()->RecordBad();
    response.status = Status::Cancelled("cancelled while queued");
    FinishRequest(std::move(item), std::move(response));
    return;
  }

  obs::TraceSpan* queue_span =
      item.request.options.trace != nullptr
          ? item.request.options.trace->AddChild("scheduler queue")
          : nullptr;
  if (queue_span != nullptr) {
    queue_span->set_seconds(response.queue_seconds);
    queue_span->AddAttr("lane", LaneName(item.request.lane));
    queue_span->AddAttr("shard", shard_index);
  }

  const auto execute_start = Clock::now();
  Status status = Status::OK();
  for (size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    response.attempts = attempt + 1;
    if (attempt > 0) Count(kRetries);

    std::optional<Status> scripted;
    if (item.request.intercept) scripted = item.request.intercept(attempt);
    if (scripted.has_value()) {
      status = std::move(*scripted);
    } else {
      // Shared ownership: the handle keeps the session alive even if the
      // context's LRU cap evicts it mid-request.
      std::shared_ptr<Session> session =
          ctx_->AcquireSession(item.request.user_id);
      if (session == nullptr) {
        status = Status::NotFound("no session for user '" +
                                  item.request.user_id + "'");
      } else {
        auto parsed = core::ParseSingleSelect(item.request.sql);
        if (!parsed.ok()) {
          status = parsed.status();
        } else {
          core::PersonalizeOptions opts = item.request.options;
          opts.cancel = &handle.token_;
          AdmissionInfo admission;
          admission.lane = LaneName(item.request.lane);
          admission.shard = shard_index;
          admission.attempt = attempt;
          admission.queue_seconds = response.queue_seconds;
          auto result =
              session->PersonalizeAdmitted(parsed.value(), opts, &admission);
          if (result.ok()) {
            response.partial = result.value().stats.partial;
            response.answer = std::move(result).value();
            status = Status::OK();
          } else {
            status = result.status();
          }
        }
      }
    }

    if (status.ok() || !IsRetryable(status.code()) ||
        attempt + 1 >= options_.max_attempts) {
      break;
    }
    // Jittered exponential backoff. The jitter stream is per shard and
    // seeded, so a single-shard test replays the same waits; the sleep
    // aborts early only via the deadline check below.
    double backoff = options_.retry_backoff_seconds *
                     static_cast<double>(uint64_t{1} << std::min<size_t>(
                                             attempt, 32)) *
                     (0.5 + NextJitter(shard));
    backoff = std::min(backoff, options_.max_backoff_seconds);
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    Status due = handle.token_.Check();
    if (!due.ok()) {
      status = std::move(due);
      break;
    }
  }
  response.execute_seconds = SecondsSince(execute_start);
  response.status = std::move(status);
  FinishRequest(std::move(item), std::move(response));
}

void Scheduler::FinishRequest(QueuedRequest&& item, Response&& response) {
  if (response.status.ok()) {
    Count(kCompleted);
    if (response.partial) Count(kCut);
  } else {
    Count(kFailed);
  }
  if (ctx_->flight() != nullptr && !response.status.ok()) {
    ctx_->flight()->Record(
        obs::FlightEventKind::kNote, "scheduler",
        "request user=" + item.request.user_id + " lane=" +
            LaneName(response.lane) + " -> " + response.status.ToString(),
        response.queue_seconds + response.execute_seconds);
  }
  item.handle->Finish(std::move(response));
}

double Scheduler::NextJitter(Shard& shard) {
  return static_cast<double>(SplitMix64(shard.rng_state) >> 11) * 0x1.0p-53;
}

void Scheduler::Shutdown(bool drain) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  // Detach the /healthz source first: RemoveHealthSource is a barrier
  // (no check can still be running once it returns), so after this line
  // nothing outside this object reaches into the shed-rate windows.
  if (health_registered_) {
    ctx_->RemoveHealthSource(health_id_);
    health_registered_ = false;
  }
  drain_.store(drain, std::memory_order_release);
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    shard->cv.notify_all();
  }
  if (joined_) return;
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  joined_ = true;
  // A Submit racing Shutdown can slip a request in after its worker's
  // final empty-queue check; with the workers joined, fail any strays so
  // no handle waits forever.
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::array<std::deque<QueuedRequest>, kNumLanes> lanes;
    {
      std::lock_guard<common::ProfiledMutex> lock(shards_[s]->mu);
      lanes.swap(shards_[s]->lanes);
      shards_[s]->queued = 0;
      for (size_t lane = 0; lane < kNumLanes; ++lane) {
        depth_gauges_[s][lane]->Add(
            -static_cast<double>(lanes[lane].size()));
      }
    }
    for (auto& lane : lanes) {
      for (auto& queued : lane) {
        Response r;
        r.status = Status::Cancelled("scheduler shut down");
        r.lane = queued.request.lane;
        r.shard = s;
        r.queue_seconds = SecondsSince(queued.handle->admitted_at_);
        FinishRequest(std::move(queued), std::move(r));
      }
    }
  }
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s = counters_.Read(kCounterTable);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace qp::serve
