#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/timer.h"
#include "core/spj.h"
#include "query/query.h"
#include "wcoj/leapfrog.h"

namespace adj::serve {

using SteadyClock = std::chrono::steady_clock;

namespace {

std::vector<LaneConfig> LanesOrDefault(const ServerOptions& options) {
  if (!options.lanes.empty()) return options.lanes;
  return {{"default", 1, 0}};
}

/// Seconds until `req.deadline`, +inf when the request has none.
double RemainingSeconds(const bool has_deadline,
                        const SteadyClock::time_point deadline) {
  if (!has_deadline) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(deadline - SteadyClock::now()).count();
}

}  // namespace

Server::Server(api::Database db, ServerOptions options)
    : db_(std::move(db)),
      options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_memory_budget_bytes),
      queue_(options_.queue_capacity, LanesOrDefault(options_)),
      pool_(options_.worker_threads) {
  stats_.lanes.resize(size_t(queue_.num_lanes()));
  for (int i = 0; i < queue_.num_lanes(); ++i) {
    stats_.lanes[size_t(i)].name = queue_.lane_config(i).name;
  }
  if (options_.index_cache_budget_bytes > 0) {
    db_.catalog().index_cache().set_budget_bytes(
        options_.index_cache_budget_bytes);
  }
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  // Wake workers parked on a pause so the pool destructor (run next,
  // as pool_ is the last member) can drain every admitted request —
  // no future is ever left unfulfilled.
  resume_cv_.notify_all();
}

StatusOr<Server::Request> Server::MakeRequest(
    const std::string& text, const RequestOptions& request) const {
  // Parse up front: malformed text is rejected at admission (costing
  // the client no queue slot), and the canonical rendering of the
  // parsed query becomes the cache key, so lexical variants of one
  // query ("G(a,b)G(b,c)", "G(a, b)  G(b , c)") share a cached plan.
  StatusOr<core::SpjQuery> spj = core::ParseSpj(text);
  if (!spj.ok()) return spj.status();
  Request req;
  req.key = spj->ToString();
  req.text = text;
  req.proper_projection = spj->HasProperProjection();
  const double deadline_seconds = request.deadline_seconds > 0
                                      ? request.deadline_seconds
                                      : options_.default_deadline_seconds;
  // Deadlines beyond ~a year mean "no deadline" — and stay far from
  // overflowing the int64-nanosecond duration_cast below.
  constexpr double kMaxDeadlineSeconds = 3.15e7;
  if (std::isfinite(deadline_seconds) &&
      deadline_seconds < kMaxDeadlineSeconds) {
    req.has_deadline = true;
    req.deadline = SteadyClock::now() +
                   std::chrono::duration_cast<SteadyClock::duration>(
                       std::chrono::duration<double>(deadline_seconds));
  }
  return req;
}

StatusOr<std::future<api::Result>> Server::Enqueue(
    int lane, const std::string& text, const RequestOptions& request) {
  if (!queue_.ValidLane(lane)) {
    return Status::InvalidArgument(
        "lane " + std::to_string(lane) + " out of range (server has " +
        std::to_string(queue_.num_lanes()) + " lanes)");
  }
  StatusOr<Request> req = MakeRequest(text, request);
  if (!req.ok()) return req.status();
  req->lane = lane;
  std::future<api::Result> future = req->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return Status::Internal("server is shutting down");
    if (!queue_.TryPush(lane, std::move(req.value()))) {
      ++stats_.rejected;
      ++stats_.lanes[size_t(lane)].rejected;
      return Status::ResourceExhausted(
          "admission queue full (capacity " +
          std::to_string(options_.queue_capacity) + ", lane \"" +
          queue_.lane_config(lane).name +
          "\"): backpressure — retry later");
    }
    ++stats_.accepted;
    ++stats_.lanes[size_t(lane)].accepted;
  }
  pool_.Submit([this] { ServeOne(); });
  return future;
}

StatusOr<std::future<api::Result>> Server::Submit(
    const std::string& query_text, const RequestOptions& request) {
  const int lane = request.lane >= 0 ? request.lane : Lane::kSingle;
  return Enqueue(lane, query_text, request);
}

StatusOr<std::vector<std::future<api::Result>>> Server::SubmitBatch(
    const std::vector<std::string>& texts, const RequestOptions& request) {
  const int lane = request.lane >= 0
                       ? request.lane
                       : std::min(int(Lane::kBatch), queue_.num_lanes() - 1);
  if (!queue_.ValidLane(lane)) {
    return Status::InvalidArgument(
        "lane " + std::to_string(lane) + " out of range (server has " +
        std::to_string(queue_.num_lanes()) + " lanes)");
  }
  std::vector<Request> requests;
  std::vector<std::future<api::Result>> futures;
  requests.reserve(texts.size());
  futures.reserve(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    StatusOr<Request> req = MakeRequest(texts[i], request);
    if (!req.ok()) {
      return Status(req.status().code(), "batch query #" + std::to_string(i) +
                                             ": " + req.status().message());
    }
    req->lane = lane;
    futures.push_back(req->promise.get_future());
    requests.push_back(std::move(req.value()));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return Status::Internal("server is shutting down");
    // All-or-nothing: a half-admitted batch helps nobody.
    if (!queue_.CanAccept(lane, requests.size())) {
      stats_.rejected += requests.size();
      stats_.lanes[size_t(lane)].rejected += requests.size();
      return Status::ResourceExhausted(
          "admission queue cannot take a batch of " +
          std::to_string(requests.size()) + " (capacity " +
          std::to_string(options_.queue_capacity) + ", lane \"" +
          queue_.lane_config(lane).name +
          "\"): backpressure — retry later");
    }
    for (Request& req : requests) {
      queue_.TryPush(lane, std::move(req));  // CanAccept guaranteed
      ++stats_.accepted;
      ++stats_.lanes[size_t(lane)].accepted;
    }
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    pool_.Submit([this] { ServeOne(); });
  }
  return futures;
}

api::Result Server::Execute(const std::string& query_text,
                            const RequestOptions& request) {
  StatusOr<std::future<api::Result>> future = Submit(query_text, request);
  if (!future.ok()) return api::Result(future.status());
  return future->get();
}

void Server::ServeOne() {
  Request req;
  {
    std::unique_lock<std::mutex> lock(mu_);
    resume_cv_.wait(lock, [this] { return !paused_ || stopping_; });
    std::optional<std::pair<int, Request>> popped = queue_.Pop();
    if (!popped) return;  // defensive: one task is submitted per push
    req = std::move(popped->second);
  }
  api::Result result = ExecuteRequest(req);
  {
    std::lock_guard<std::mutex> lock(mu_);
    LaneStats& lane = stats_.lanes[size_t(req.lane)];
    if (result.ok()) {
      ++stats_.served;
      ++lane.served;
    } else {
      ++stats_.failed;
      ++lane.failed;
    }
  }
  req.promise.set_value(std::move(result));
}

api::Result Server::ExecuteRequest(Request& req) {
  const double remaining = RemainingSeconds(req.has_deadline, req.deadline);
  if (remaining <= 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.expired_in_queue;
    }
    return api::Result(Status::DeadlineExceeded(
        "deadline expired while queued — tighten admission or extend the "
        "request deadline"));
  }
  // The request's remaining budget only ever tightens the server-wide
  // time limit; mid-join expiry then surfaces as DeadlineExceeded from
  // the executor itself.
  wcoj::JoinLimits limits = options_.engine.limits;
  limits.max_seconds = std::min(limits.max_seconds, remaining);

  // Read side of the write lock: Apply waits for requests in flight
  // and no request starts while a batch is mid-application.
  std::shared_lock<std::shared_mutex> read_catalog(catalog_mu_);

  if (req.proper_projection) {
    // Prepare() rejects proper projections, so there is no plan to
    // cache — run directly, still deadline-bounded.
    api::Session session = db_.OpenSession();
    session.options() = options_.engine;
    session.options().limits = limits;
    return session.Run(req.text);
  }

  std::optional<api::PreparedQuery> stale;
  std::optional<api::PreparedQuery> prepared =
      cache_.Lookup(req.key, db_.catalog(), &stale);
  if (prepared) return prepared->Run(limits);
  return PlanAndRun(req, limits, std::move(stale));
}

api::Result Server::PlanAndRun(Request& req, wcoj::JoinLimits limits,
                               std::optional<api::PreparedQuery> stale) {
  // Single-flight: at most one Prepare/Reprepare per canonical key is
  // in flight at a time. The first miss registers as the builder;
  // every concurrent miss for the same key blocks on the builder's
  // InFlight and then re-reads the cache. A failed build releases the
  // waiters to retry — the next one through becomes the new builder —
  // so failures are re-attempted, never cached, exactly like the
  // IndexCache single-flight one layer down. Each wait is bounded by
  // the waiter's own deadline.
  for (;;) {
    std::shared_ptr<InFlight> flight;
    bool builder = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = building_.find(req.key);
      if (it == building_.end()) {
        flight = std::make_shared<InFlight>();
        building_.emplace(req.key, flight);
        builder = true;
      } else {
        flight = it->second;
        ++stats_.plan_waits;
      }
    }

    if (!builder) {
      std::unique_lock<std::mutex> fl(flight->mu);
      const bool finished =
          req.has_deadline
              ? flight->cv.wait_until(fl, req.deadline,
                                      [&] { return flight->done; })
              : (flight->cv.wait(fl, [&] { return flight->done; }), true);
      fl.unlock();
      if (!finished) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.expired_planning;
        return api::Result(Status::DeadlineExceeded(
            "deadline expired while another request was planning this "
            "query"));
      }
      // Builder done: on success the plan is cached — loop, hit, run.
      // On failure loop anyway: the re-lookup misses and this request
      // may become the retrying builder (its own deadline and the
      // planning budget bound the retries). A stale entry surfacing
      // here (the build landed, then a write staled it) is kept for
      // that retry's Reprepare.
      std::optional<api::PreparedQuery> waiter_stale;
      std::optional<api::PreparedQuery> prepared = cache_.Lookup(
          req.key, db_.catalog(), &waiter_stale, /*count_miss=*/false);
      if (prepared) {
        // The wait ate into the deadline; run with what is left.
        if (req.has_deadline) {
          const double left =
              RemainingSeconds(req.has_deadline, req.deadline);
          if (left <= 0) {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.expired_planning;
            return api::Result(Status::DeadlineExceeded(
                "deadline expired while waiting on the shared plan "
                "build"));
          }
          limits.max_seconds = std::min(limits.max_seconds, left);
        }
        return prepared->Run(limits);
      }
      if (waiter_stale) stale = std::move(waiter_stale);
      continue;
    }

    // Builder path. Re-check the cache now that the key is owned: a
    // previous builder may have inserted between this request's miss
    // and its registration — then this flight is a no-op to release.
    // A stale entry surfacing now supersedes one carried in from the
    // caller's earlier Lookup (it was prepared later).
    std::optional<api::PreparedQuery> fresh_stale;
    std::optional<api::PreparedQuery> prepared = cache_.Lookup(
        req.key, db_.catalog(), &fresh_stale, /*count_miss=*/false);
    if (fresh_stale) stale = std::move(fresh_stale);
    StatusOr<api::PreparedQuery> built = Status::OK();
    double build_seconds = 0.0;
    bool reprepared = false;
    if (!prepared) {
      const double remaining =
          RemainingSeconds(req.has_deadline, req.deadline);
      if (remaining <= 0) {
        built = Status::DeadlineExceeded(
            "deadline expired before planning could start");
      } else {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.plan_builds;
        }
        // The remaining deadline becomes the planning budget: a cold
        // miss that cannot plan in time dies inside Engine::Plan with
        // DeadlineExceeded — before any join work — and the time it
        // burned is attributed below.
        api::Session session = db_.OpenSession();
        session.options() = options_.engine;
        session.options().planning_budget_seconds = std::min(
            session.options().planning_budget_seconds, remaining);
        WallTimer build_timer;
        // Stale hit: a write moved one of the plan's relations —
        // refresh at delta cost (plan reused, unchanged bags aliased,
        // written relations' indexes delta-patched) instead of
        // re-planning. Falls back to a full Prepare if the refresh
        // fails (e.g. a relation the plan reads was replaced with an
        // incompatible one).
        built = stale ? session.Reprepare(*stale) : session.Prepare(req.text);
        reprepared = stale && built.ok();
        if (stale && !built.ok()) built = session.Prepare(req.text);
        build_seconds = build_timer.Seconds();
      }
      if (built.ok()) {
        // The master copy stays cached; this request runs its own
        // copy. Copies share the charge-planning-once flag, so
        // whichever copy runs first pays optimize_s/precompute_s and
        // every later request for this key reports both as zero.
        cache_.Insert(req.key, *built);
        prepared = std::move(built.value());
      }
    }

    // Release the flight on every builder exit: erase the registry
    // entry first (so a post-failure retrier can re-register), then
    // signal the waiters.
    {
      std::lock_guard<std::mutex> lock(mu_);
      building_.erase(req.key);
      if (reprepared) ++stats_.reprepared;
    }
    {
      std::lock_guard<std::mutex> fl(flight->mu);
      flight->done = true;
      flight->ok = prepared.has_value();
    }
    flight->cv.notify_all();

    if (!prepared) {
      if (built.status().code() == StatusCode::kDeadlineExceeded) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.expired_planning;
      }
      return api::Result::PlanningFailure(built.status(), build_seconds);
    }
    // Planning may have consumed most of the deadline; re-derive the
    // join budget so the run gets only what is actually left — and a
    // fully consumed deadline returns here without burning any of it.
    if (req.has_deadline) {
      const double left = RemainingSeconds(req.has_deadline, req.deadline);
      if (left <= 0) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.expired_planning;
        }
        return api::Result::PlanningFailure(
            Status::DeadlineExceeded(
                "deadline expired during planning — the plan is cached "
                "for the next request"),
            build_seconds);
      }
      limits.max_seconds = std::min(limits.max_seconds, left);
    }
    return prepared->Run(limits);
  }
}

Status Server::Apply(const storage::WriteBatch& batch) {
  // Write side: excludes request execution for exactly the catalog
  // mutation. Cache entries are not flushed — the per-relation
  // versions the batch advances invalidate precisely the plans that
  // read a written relation, on their next lookup.
  std::unique_lock<std::shared_mutex> write_catalog(catalog_mu_);
  Status status = db_.Apply(batch);
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.writes_applied;
  }
  return status;
}

void Server::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void Server::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  resume_cv_.notify_all();
}

void Server::Drain() {
  Resume();
  pool_.WaitIdle();
}

ServerStats Server::stats() const {
  ServerStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
  }
  out.cache = cache_.stats();
  return out;
}

}  // namespace adj::serve
