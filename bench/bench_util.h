#ifndef ADJ_BENCH_BENCH_UTIL_H_
#define ADJ_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "api/api.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/engine.h"
#include "dataset/builtin.h"
#include "query/queries.h"
#include "storage/catalog.h"
#include "storage/write_batch.h"

namespace adj::bench {

/// All benches run the paper's workloads at a laptop scale factor.
/// Override with ADJ_BENCH_SCALE (multiplies every dataset's edge
/// budget) and ADJ_BENCH_SERVERS.
inline double ScaleFromEnv(double def = 0.2) {
  const char* s = std::getenv("ADJ_BENCH_SCALE");
  return s != nullptr ? std::atof(s) : def;
}

inline int ServersFromEnv(int def = 4) {
  const char* s = std::getenv("ADJ_BENCH_SERVERS");
  return s != nullptr ? std::atoi(s) : def;
}

/// Loads (and caches) a builtin dataset at the bench scale, as an
/// api::Database (relation "G").
class DatasetCache {
 public:
  explicit DatasetCache(double scale) : scale_(scale) {}

  const api::Database& GetDb(const std::string& name) {
    auto it = dbs_.find(name);
    if (it != dbs_.end()) return it->second;
    StatusOr<api::Database> db = api::Database::OpenBuiltin(name, scale_);
    ADJ_CHECK(db.ok()) << db.status();
    return dbs_.emplace(name, std::move(db.value())).first->second;
  }

  /// Raw catalog view, for benches that drive core::Engine directly.
  const storage::Catalog& Get(const std::string& name) {
    return GetDb(name).catalog();
  }

  double scale() const { return scale_; }

 private:
  double scale_;
  std::map<std::string, api::Database> dbs_;
};

/// Engine options used across benches: failure emulation thresholds
/// stand in for the paper's memory-overflow / 12-hour-timeout events,
/// scaled to this machine.
inline core::EngineOptions BenchOptions(int servers) {
  core::EngineOptions opts;
  opts.cluster.num_servers = servers;
  opts.cluster.memory_per_server_bytes = 512ull << 20;
  opts.num_samples = 400;
  // The paper's 12-hour timeout scales to ~40s at our ~1/1100 data
  // scale. Leapfrog streams results, so it is bounded by time; the
  // materializing baselines (SparkSQL, BigJoin) are bounded by rows —
  // the paper's memory-overflow failure mode.
  opts.limits.max_extensions = 4'000'000'000ull;
  opts.limits.max_seconds = 30.0;
  opts.limits.max_materialized_rows = 10'000'000;
  return opts;
}

inline const std::vector<std::string>& AllDatasets() {
  static const std::vector<std::string>* kNames =
      new std::vector<std::string>{"WB", "AS", "WT", "LJ", "EN", "OK"};
  return *kNames;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// "1.23e+04" style compact cell.
inline std::string Num(double v) {
  char buf[32];
  if (v >= 1e5 || (v > 0 && v < 1e-2)) {
    std::snprintf(buf, sizeof(buf), "%.2e", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

/// Min, median and max of one measured path.
struct Spread {
  double min = 0, median = 0, max = 0;
};
inline Spread SpreadOf(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return {xs.front(), xs[xs.size() / 2], xs.back()};
}

/// One multi-server write-to-result leg over relation G: a prepared
/// `query` on `servers` simulated servers, warmed once, then `rounds`
/// rounds that alternate the two ways of refreshing it — a point write
/// (one fresh probe edge from `probe_base` up: the delta path, which
/// patches rows, tries and every server's HCube shards) and a full
/// replacement of G by a detached copy of its own rows (same content,
/// new identity: every index and shard rebuilds). Each refresh is
/// Apply + Reprepare + the rerun, timed together: with several servers
/// the shard work happens in the rerun.
struct RefreshLeg {
  Spread delta, full;
  uint64_t first_run_builds = 0;  // the warming run's builds
  uint64_t delta_builds = 0;      // most builds any delta rerun reported
  uint64_t delta_patched = 0;     // fewest patches any delta rerun reported
  uint64_t full_builds = 0;       // fewest builds any full rerun reported
  uint64_t count = 0;
  bool counts_agree = true;       // every rerun of both paths agreed
};

inline RefreshLeg RunRefreshLeg(api::Database& db, const std::string& query,
                                int servers, int rounds, Value probe_base) {
  api::Session session = db.OpenSession();
  session.options().cluster.num_servers = servers;
  StatusOr<api::PreparedQuery> prepared = session.Prepare(query);
  ADJ_CHECK(prepared.ok()) << prepared.status();
  api::Result warm = prepared->Run();
  ADJ_CHECK(warm.ok()) << warm.status();

  RefreshLeg leg;
  leg.first_run_builds = warm.index_builds();
  leg.count = warm.count();
  leg.delta_patched = ~uint64_t{0};
  leg.full_builds = ~uint64_t{0};
  std::vector<double> delta_s, full_s;
  auto refresh = [&](const storage::WriteBatch& batch,
                     std::vector<double>* times) {
    WallTimer timer;
    Status applied = db.Apply(batch);
    ADJ_CHECK(applied.ok()) << applied;
    StatusOr<api::PreparedQuery> refreshed = session.Reprepare(*prepared);
    ADJ_CHECK(refreshed.ok()) << refreshed.status();
    api::Result r = refreshed->Run();
    times->push_back(timer.Seconds());
    ADJ_CHECK(r.ok()) << r.status();
    prepared = std::move(refreshed);
    return r;
  };
  for (int round = 0; round < rounds; ++round) {
    // The probe edges close no cycle, so the answer never changes.
    const Value v = probe_base + Value(2 * round);
    storage::WriteBatch point;
    point.Insert("G", {v, v + 1});
    api::Result delta = refresh(point, &delta_s);
    leg.delta_builds = std::max(leg.delta_builds, delta.index_builds());
    leg.delta_patched = std::min(leg.delta_patched, delta.index_patched());
    leg.counts_agree = leg.counts_agree && delta.count() == leg.count;

    StatusOr<const storage::Relation*> g = db.catalog().Get("G");
    ADJ_CHECK(g.ok()) << g.status();
    storage::Relation copy = **g;
    copy.mutable_raw();  // detach: own the rows, drop payload identity
    storage::WriteBatch replace;
    replace.Create("G", std::move(copy));
    api::Result full = refresh(replace, &full_s);
    leg.full_builds = std::min(leg.full_builds, full.index_builds());
    leg.counts_agree = leg.counts_agree && full.count() == leg.count;
  }
  leg.delta = SpreadOf(delta_s);
  leg.full = SpreadOf(full_s);
  return leg;
}

/// Prints one RefreshLeg and returns its gate failures: a delta rerun
/// that built anything, one that patched nothing, a full refresh that
/// rebuilt nothing (not measuring rebuild cost), or diverging answers.
inline int ReportRefreshLeg(const char* name, int servers,
                            const RefreshLeg& leg) {
  std::printf(
      "%s %d-server write-to-result: out=%llu first_run_builds=%llu "
      "delta=%.4fs/%.4fs/%.4fs (min/median/max; builds=%llu patched=%llu) "
      "full=%.4fs/%.4fs/%.4fs (builds=%llu) speedup=%.1fx\n",
      name, servers, static_cast<unsigned long long>(leg.count),
      static_cast<unsigned long long>(leg.first_run_builds), leg.delta.min,
      leg.delta.median, leg.delta.max,
      static_cast<unsigned long long>(leg.delta_builds),
      static_cast<unsigned long long>(leg.delta_patched), leg.full.min,
      leg.full.median, leg.full.max,
      static_cast<unsigned long long>(leg.full_builds),
      leg.delta.min > 0 ? leg.full.min / leg.delta.min : 0.0);
  int failures = 0;
  if (leg.delta_builds != 0) {
    std::fprintf(stderr, "FAIL: %d-server delta rerun built %llu (want 0)\n",
                 servers, static_cast<unsigned long long>(leg.delta_builds));
    ++failures;
  }
  if (leg.delta_patched == 0) {
    std::fprintf(stderr, "FAIL: %d-server delta rerun patched nothing\n",
                 servers);
    ++failures;
  }
  if (leg.full_builds == 0) {
    std::fprintf(stderr, "FAIL: %d-server full refresh rebuilt nothing\n",
                 servers);
    ++failures;
  }
  if (!leg.counts_agree) {
    std::fprintf(stderr, "FAIL: %d-server reruns disagree on the count\n",
                 servers);
    ++failures;
  }
  return failures;
}

/// The leg as JSON members (no braces), each line prefixed `prefix`.
inline void WriteRefreshLegJson(FILE* json, const char* prefix,
                                const RefreshLeg& leg) {
  std::fprintf(json,
               "  \"%s_first_run_builds\": %llu,\n"
               "  \"%s_delta_seconds\": %.6f,\n"
               "  \"%s_delta_seconds_median\": %.6f,\n"
               "  \"%s_delta_seconds_max\": %.6f,\n"
               "  \"%s_full_seconds\": %.6f,\n"
               "  \"%s_full_seconds_median\": %.6f,\n"
               "  \"%s_full_seconds_max\": %.6f,\n"
               "  \"%s_delta_run_index_builds\": %llu,\n"
               "  \"%s_delta_run_index_patched\": %llu,\n"
               "  \"%s_full_run_index_builds\": %llu,\n",
               prefix, static_cast<unsigned long long>(leg.first_run_builds),
               prefix, leg.delta.min, prefix, leg.delta.median, prefix,
               leg.delta.max, prefix, leg.full.min, prefix, leg.full.median,
               prefix, leg.full.max, prefix,
               static_cast<unsigned long long>(leg.delta_builds), prefix,
               static_cast<unsigned long long>(leg.delta_patched), prefix,
               static_cast<unsigned long long>(leg.full_builds));
}

}  // namespace adj::bench

#endif  // ADJ_BENCH_BENCH_UTIL_H_
