#ifndef ADJ_SERVE_SERVER_H_
#define ADJ_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/api.h"
#include "common/status.h"
#include "core/options.h"
#include "dist/thread_pool.h"
#include "serve/admission_queue.h"
#include "serve/prepared_query_cache.h"

namespace adj::serve {

/// Tuning knobs for one serve::Server, fixed at construction.
struct ServerOptions {
  /// Worker threads executing admitted requests (dist::ThreadPool
  /// size). Each in-flight request occupies one worker.
  int worker_threads = 4;
  /// Admission-queue bound across all lanes. Submissions beyond it
  /// are rejected with ResourceExhausted — the backpressure signal.
  size_t queue_capacity = 64;
  /// The admission lanes: each has a name (per-lane stats label), a
  /// weighted-round-robin service weight (a backlogged lane receives
  /// weight/sum(weights) of the pops; weight 0 = background, served
  /// only when every weighted lane is empty), and an optional per-lane
  /// queue bound on top of queue_capacity (0 = total bound only). The
  /// default is the historical pair — lane 0 "single" for Submit, lane
  /// 1 "batch" for SubmitBatch, equal weight — so existing servers
  /// behave identically; requests pick a lane via
  /// RequestOptions::lane. Must be non-empty.
  std::vector<LaneConfig> lanes = {{"single", 1, 0}, {"batch", 1, 0}};
  /// PreparedQueryCache entry bound (0 disables plan caching).
  size_t cache_capacity = 32;
  /// Byte budget for what the plan cache keeps resident: every cached
  /// PreparedQuery is charged its resident_bytes() — the index
  /// artifacts its ExecutionContext pins plus its materialized bags.
  /// Exceeding the budget evicts LRU entries; a single entry larger
  /// than the budget is never cached. 0 = no byte budget (entry cap
  /// only). See docs/SERVING.md, "Memory budget".
  uint64_t cache_memory_budget_bytes = 0;
  /// Byte budget applied to the database catalog's shared
  /// storage::IndexCache — the bound-atom indexes and HCube shard
  /// artifacts that outlive individual requests (shard artifacts are
  /// *not* covered by cache_memory_budget_bytes: they are charged
  /// here, where idle ones can be LRU-evicted). 0 = unbounded.
  uint64_t index_cache_budget_bytes = 0;
  /// Deadline applied to requests that don't carry their own;
  /// infinity = none.
  double default_deadline_seconds =
      std::numeric_limits<double>::infinity();
  /// Engine options every request executes under (cluster size,
  /// sampling budget, base JoinLimits). A request deadline only ever
  /// *tightens* limits.max_seconds, never loosens it.
  core::EngineOptions engine;
};

/// Per-request knobs.
struct RequestOptions {
  /// Wall-clock budget from admission to completion; <= 0 uses the
  /// server default. Expiry — while queued, while planning a cold
  /// miss (the remaining budget bounds Engine::Plan itself), or
  /// mid-join (via wcoj::JoinLimits::max_seconds) — yields a
  /// DeadlineExceeded Result, distinct from queue-full rejection
  /// (ResourceExhausted).
  double deadline_seconds = 0.0;
  /// Admission lane (index into ServerOptions::lanes); -1 picks the
  /// call's default — lane 0 for Submit, lane 1 (when configured) for
  /// SubmitBatch. An index past the configured lanes is
  /// InvalidArgument at admission.
  int lane = -1;
};

/// Per-lane slice of the serving counters.
struct LaneStats {
  std::string name;      // ServerOptions::lanes[i].name
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t served = 0;   // completed with an ok() Result
  uint64_t failed = 0;   // completed with an error Result
};

/// Aggregate serving counters (monotone since construction).
struct ServerStats {
  uint64_t accepted = 0;          // admitted into the queue
  uint64_t rejected = 0;          // queue-full backpressure rejections
  uint64_t served = 0;            // completed with an ok() Result
  uint64_t failed = 0;            // completed with an error Result
  uint64_t expired_in_queue = 0;  // deadline passed before execution
  uint64_t writes_applied = 0;    // successful Server::Apply calls
  uint64_t reprepared = 0;        // stale plans refreshed at delta cost
  // Single-flight planning: cold plan-cache misses that actually ran
  // Prepare/Reprepare vs. requests that joined a build already in
  // flight for their key. N concurrent cold misses for one key cost
  // plan_builds == 1, plan_waits == N-1 — the de-dup guarantee
  // bench_serve_load gates.
  uint64_t plan_builds = 0;
  uint64_t plan_waits = 0;
  // Deadlines blown inside the planning phase (the request's own
  // budget ran out while planning, or while waiting on another
  // request's in-flight build) — disjoint from expired_in_queue.
  uint64_t expired_planning = 0;
  std::vector<LaneStats> lanes;   // index-aligned with options().lanes
  PreparedQueryCache::Stats cache;
};

/// The async serving layer: one Server owns one api::Database and
/// amortizes the paper's plan-once / execute-many cost model across
/// requests from many clients.
///
/// Request lifecycle — Submit parses and normalizes the query text
/// (parse errors are returned immediately, costing no queue slot),
/// admits it into a bounded N-lane AdmissionQueue (weighted
/// round-robin between lanes per ServerOptions::lanes; full queue →
/// ResourceExhausted), and hands back a std::future<api::Result>. A
/// worker from the dist::ThreadPool then pops the request, checks its
/// deadline, looks up the PreparedQueryCache — fresh hit: runs a copy
/// of the cached plan; stale hit (a write moved one of the plan's
/// relations): refreshes it with Session::Reprepare at delta cost,
/// re-caches, runs; miss: plans and caches the master, runs.
///
/// QoS on the miss path (docs/SERVING.md, "QoS"):
///  - Single-flight planning: concurrent misses for one canonical key
///    share one Prepare/Reprepare — the first becomes the builder,
///    the rest block on its completion and then run from the cache
///    (ServerStats::plan_builds / plan_waits), mirroring the
///    storage::IndexCache pattern one layer down. A failed build
///    releases the waiters, and the next one retries as the builder.
///  - Deadline-bounded planning: a request's remaining budget becomes
///    EngineOptions::planning_budget_seconds for its own build, so a
///    cold miss that cannot plan in time returns DeadlineExceeded
///    *before* burning any join budget, with the partial planning
///    cost attributed on the Result (Result::PlanningFailure).
///
/// Per-request deadlines also map onto
/// wcoj::JoinLimits::max_seconds, so a request that exceeds its
/// budget mid-join completes with DeadlineExceeded. Queries with
/// a proper projection (not preparable today) fall through to direct
/// Session execution, uncached but still deadline-bounded.
///
/// Thread-safety: Submit / SubmitBatch / Execute / Apply / stats are
/// safe from any number of client threads — Apply self-synchronizes
/// against request execution with a reader/writer lock, so live
/// writes need no Pause/Drain choreography. database() is the one
/// unsynchronized mutable path — direct reloads still require
/// quiescing (Pause() + Drain(), or no requests in flight). Either
/// way the per-relation version counters take care of cached-plan
/// staleness, so a write needs no explicit cache flush. The
/// destructor drains: every admitted request's future is fulfilled
/// before destruction completes.
class Server {
 public:
  explicit Server(api::Database db, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits one query — onto lane 0 unless RequestOptions::lane picks
  /// another. Returns the future carrying its Result, or:
  /// InvalidArgument (unparseable text or bad lane index),
  /// ResourceExhausted (queue or lane full — retry later), Internal
  /// (server shutting down). Execution failures are folded into the
  /// Result, not the Status.
  StatusOr<std::future<api::Result>> Submit(
      const std::string& query_text, const RequestOptions& request = {});

  /// Admits `texts` onto the batch lane (lane 1 when configured, else
  /// lane 0; RequestOptions::lane overrides), all-or-nothing: if the
  /// queue cannot take the whole batch, nothing is admitted and the
  /// call returns ResourceExhausted. Futures align index-wise with
  /// `texts`.
  StatusOr<std::vector<std::future<api::Result>>> SubmitBatch(
      const std::vector<std::string>& texts,
      const RequestOptions& request = {});

  /// Submit + wait: the synchronous convenience used by tests and the
  /// demo. Admission failures are folded into the returned Result.
  api::Result Execute(const std::string& query_text,
                      const RequestOptions& request = {});

  /// Pauses dequeuing: already-running requests finish, queued ones
  /// wait (their deadlines keep ticking). Admission stays open.
  void Pause();
  void Resume();

  /// Resumes if paused, then blocks until every admitted request has
  /// been executed and its future fulfilled. The quiesce point for
  /// database() mutations.
  void Drain();

  /// Applies a write batch to the served database without any
  /// Pause/Drain choreography: a reader/writer lock serializes it
  /// against in-flight request execution (requests hold the read side;
  /// Apply takes the write side, so it waits for running requests and
  /// blocks new ones only for the duration of the batch: a tuple
  /// write is one galloping merge into the relation's next version).
  /// Admission stays open throughout. Cached plans whose relations the
  /// batch touched are refreshed on their next request via
  /// api::Session::Reprepare (plan reused, delta-patched indexes, see
  /// ServerStats::reprepared); plans over untouched relations stay
  /// cached and keep hitting.
  Status Apply(const storage::WriteBatch& batch);

  /// The served database. Mutating it directly (LoadBuiltin /
  /// AddRelation / LoadEdgeList) is only safe with no request in
  /// flight — call Drain() first and don't admit concurrently; prefer
  /// Apply, which synchronizes itself. Each mutation bumps the touched
  /// relations' versions, invalidating exactly the affected cache
  /// entries on their next lookup.
  api::Database& database() { return db_; }
  const api::Database& database() const { return db_; }

  const ServerOptions& options() const { return options_; }
  ServerStats stats() const;

 private:
  struct Request {
    std::string key;   // normalized cache key (canonical rendering)
    std::string text;  // original text, what Prepare/Run parse
    int lane = 0;      // admission lane (index into options().lanes)
    bool proper_projection = false;  // not preparable → direct path
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    std::promise<api::Result> promise;
  };

  /// One in-flight plan build, shared by the builder and every waiter
  /// for the same key. Lives in building_ while the build runs; the
  /// builder removes it and signals done before fulfilling anything.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;  // build finished (either way)     — guarded by mu
    bool ok = false;    // build succeeded and was cached  — guarded by mu
  };

  StatusOr<std::future<api::Result>> Enqueue(int lane,
                                             const std::string& text,
                                             const RequestOptions& request);
  /// Parse + normalize + resolve the deadline (request's, else the
  /// server default; values beyond ~a year count as none).
  StatusOr<Request> MakeRequest(const std::string& text,
                                const RequestOptions& request) const;
  /// One admitted request == one pool task running this: wait out a
  /// pause, pop under fairness, execute, fulfill the promise.
  void ServeOne();
  api::Result ExecuteRequest(Request& req);
  /// The single-flight miss path: build (or wait for) the plan for
  /// req.key, leave the master cached, and run it. `stale` is the
  /// invalidated entry the caller's Lookup handed over (if any) — the
  /// builder Reprepares it at delta cost instead of planning fresh.
  api::Result PlanAndRun(Request& req, wcoj::JoinLimits limits,
                         std::optional<api::PreparedQuery> stale);

  api::Database db_;
  const ServerOptions options_;
  PreparedQueryCache cache_;

  // Serializes Apply (write side) against request execution (read
  // side): everything a request reads through the catalog is immutable
  // once published, so concurrent readers are free, and the write side
  // only excludes them for the catalog mutation itself.
  std::shared_mutex catalog_mu_;

  mutable std::mutex mu_;
  std::condition_variable resume_cv_;
  AdmissionQueue<Request> queue_;  // guarded by mu_
  bool paused_ = false;            // guarded by mu_
  bool stopping_ = false;          // guarded by mu_
  ServerStats stats_;              // guarded by mu_ (cache part lives in cache_)
  // Single-flight registry: canonical key → the build in flight for
  // it. Guarded by mu_; the InFlight's own fields by its mu.
  std::unordered_map<std::string, std::shared_ptr<InFlight>> building_;

  // Last member: destroyed first, so its destructor drains all pending
  // ServeOne tasks while the queue/cache/db above are still alive.
  dist::ThreadPool pool_;
};

}  // namespace adj::serve

#endif  // ADJ_SERVE_SERVER_H_
