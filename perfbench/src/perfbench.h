// Shared declarations of the repository benchmark (see perfbench/README.md).
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "serve/server.h"
#include "storage/index_cache.h"
#include "storage/relation.h"
#include "storage/write_batch.h"
#include "trace.h"

namespace perfbench {

using namespace adj;

enum class Workload { kHotJoin, kColdPlan, kMixedRw };

struct Config {
  Workload workload = Workload::kHotJoin;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny graph, one set-up, short windows: checks that every metric is
  /// emitted, not how fast anything is.
  bool smoke = false;
  /// Scale of the LJ stand-in's edge budget (63 000 x scale edges).
  double scale = 0.15;
  int setup_repeats = 3;
  std::string out_dir = ".bench_build/records";
  std::string git_sha = "unknown";
};

/// Metric name -> value + unit, in emission order.
struct Metrics {
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items;
  void Add(std::string name, double value, std::string unit) {
    items.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Minimal ordered JSON object writer (numbers keep all their digits).
class Json {
 public:
  Json& Num(const std::string& key, double v);
  Json& Int(const std::string& key, uint64_t v);
  Json& Bool(const std::string& key, bool v);
  Json& Str(const std::string& key, const std::string& v);
  Json& Raw(const std::string& key, std::string json);
  std::string Dump() const;
  static std::string Quote(const std::string& s);

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

// ---------------------------------------------------------------------
// Seeded inputs. The seed drives the graph, the selection constants and
// the write batch; the program only ever receives what these produce.
// ---------------------------------------------------------------------

/// The fixed write batch: new edges among the graph's densest node ids.
/// `insert` adds them, `remove` tombstones them; `with_batch` is the
/// graph with them added (the second committed state).
struct WritePair {
  storage::WriteBatch insert;
  storage::WriteBatch remove;
  storage::Relation with_batch;
};

/// Plan structure without the (measured, hence unstable) estimates:
/// traversal, pre-computed bags and attribute order.
std::string PlanFingerprint(const std::string& plan_description);

// ---------------------------------------------------------------------
// Served runs through serve::Server.
// ---------------------------------------------------------------------

struct ReadSample {
  int client = 0;
  std::string text;
  double latency_s = 0.0;
  bool traced = false;
  api::Result result;
};

struct ServedRun {
  std::vector<ReadSample> reads;
  std::vector<double> write_latencies;  // Server::Apply, seconds
  /// Traced requests only: a "serve.request" span (Submit until the
  /// future is ready) with a "serve.submit" child (the call alone).
  Tracer spans;
  uint64_t writes = 0;
  uint64_t write_failures = 0;
  uint64_t compactions = 0;
  double elapsed_s = 0.0;
  serve::ServerStats before, after;
  storage::IndexCache::Stats index_before, index_after;
};

/// Everything a workload's set-up leaves behind for the measured run.
struct Served {
  std::unique_ptr<serve::Server> server;
  storage::Relation graph;              // the generated input
  std::vector<std::string> templates;   // cold-plan: warm-up shapes
  std::vector<std::string> cold_texts;  // cold-plan
  std::string hub_text;                 // cold-plan: Q10 on the top hub
  WritePair writes;                     // every workload
  /// Whether the served catalog currently holds the batch's edges.
  bool batch_present = false;
  /// mixed-rw: per template, the oracle count without / with the batch.
  std::map<std::string, std::pair<uint64_t, uint64_t>> state_counts;
  double setup_s = 0.0;
  double generate_s = 0.0;
  /// Set-up ends with a snapshot of the warmed database.
  double snapshot_mb = 0.0;
  double save_s = 0.0;
  double open_s = 0.0;            // mixed-rw serves the reopened snapshot
  uint64_t first_run_builds = 0;  // mixed-rw: first runs after Open
  uint64_t first_run_mmap = 0;
};

Served SetUp(const Config& cfg, Tracer* tracer);

/// Closed-loop clients against `served` for `seconds`; `next_cold`
/// carries the cold-plan cursor across phases so no text repeats.
ServedRun Serve(const Config& cfg, Served& served, double seconds,
                size_t* next_cold, bool traced);

/// Answer oracles. Appends one line per wrong answer to `mismatches`.
void CheckAnswers(const Config& cfg, Served& served,
                  const std::vector<const ServedRun*>& runs,
                  std::vector<std::string>* mismatches);

/// mixed-rw durability check: Drain, Save, Open into a fresh Database;
/// every template's count must match the live server's, which must
/// match the committed state its write count implies.
void CheckDurability(const Config& cfg, Served& served,
                     std::vector<std::string>* mismatches);

/// Write probe of the read-only workloads, on the set-up server before
/// the window: `n` (even) Server::Apply calls 2 ms apart, alternating
/// the seeded insert and tombstone batches, then one request per
/// template to refresh the plans they staled.
std::vector<double> WriteProbe(Served& served, int n);

// ---------------------------------------------------------------------
// Traced replay one layer down (api, core, and sibling probes of the
// planning and join layers).
// ---------------------------------------------------------------------

struct ReplayStats {
  uint64_t requests = 0;
  uint64_t plan_flips = 0;
  uint64_t bags_precomputed = 0;
  std::vector<double> qerror_comp;
  std::vector<double> wall_over_comp;
  std::vector<double> precompute_ms;
  uint64_t leapfrog_extensions = 0;
  double leapfrog_seconds = 0.0;
};

void Replay(const Config& cfg, Served& served, const ServedRun& served_run,
            double seconds, Tracer& tracer, ReplayStats* stats,
            std::vector<std::string>* mismatches);

// ---------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty input.
double Quantile(std::vector<double> v, double q);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
