// Incremental-update smoke: the same stale-plan refresh done two ways
// on a warmed triangle query — the delta path (a one-tuple WriteBatch
// merges into the relation's next version; Reprepare patches the
// cached indexes)
// versus the full-invalidate path (Create replaces the relation with
// identical rows under a new identity, forcing every index rebuild).
// Timed: Apply + Reprepare — the write-to-ready latency, which is the
// cost the delta machinery exists to shrink. The rerun after each
// refresh executes the identical join in both paths, so it is asserted
// for correctness but kept out of the ratio. Gates, each a hard
// failure for CI's Release leg:
//
//   1. the point-write refresh is >= 5x faster than the
//      full-invalidate refresh (min over kRounds each, same rows; the
//      two paths alternate round by round, so both minima are taken
//      over the same stretch of machine noise),
//   2. the delta refresh + rerun builds zero indexes — every binding
//      is served by delta-patching the pre-write artifacts
//      (index_patched > 0), while the full refresh demonstrably pays
//      rebuilds (cache build counter advances),
//   3. a write to a relation the prepared query does not read touches
//      zero indexes: the plan stays fresh and the rerun does zero
//      builds and zero delta-row merges,
//   4. on 4 servers, every rerun right after a point write builds
//      zero indexes: rows, tries and each server's HCube shards are
//      patched (bench_util.h's RefreshLeg, which also times both
//      paths write-to-result, since shards are patched in the rerun).
//
// Emits BENCH_updates.json — min, median and max of both refresh
// paths of both legs — so the write-path latency trajectory is
// recorded per run.
// Scale knobs: ADJ_BENCH_SCALE (bench_util.h).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "storage/write_batch.h"

namespace adj::bench {
namespace {

constexpr char kQuery[] = "G(a,b) G(b,c) G(a,c)";
constexpr double kMinSpeedup = 5.0;
constexpr int kRounds = 15;
// Fresh vertex ids, far above any WB node: each probe edge is a
// guaranteed-new tuple that closes no triangle, so the output count is
// invariant across rounds and both refresh paths must agree on it.
constexpr Value kProbeBase = 2'000'000'000;

int Run() {
  // Default above bench_util's 0.2: the >=5x gate needs the full
  // rebuild well clear of timer noise.
  const double scale = ScaleFromEnv(16.0);
  StatusOr<api::Database> opened = api::Database::OpenBuiltin("WB", scale);
  ADJ_CHECK(opened.ok()) << opened.status();
  api::Database db = std::move(opened.value());
  // A bystander relation the query never reads, for gate 3.
  Status h = db.LoadBuiltin("AS", 0.1, "H");
  ADJ_CHECK(h.ok()) << h;

  api::Session session = db.OpenSession();
  session.options().cluster.num_servers = 1;
  StatusOr<api::PreparedQuery> prepared = session.Prepare(kQuery);
  ADJ_CHECK(prepared.ok()) << prepared.status();
  api::Result warm = prepared->Run();
  ADJ_CHECK(warm.ok()) << warm.status();

  // Delta path: one probe insert, then Apply + Reprepare (timed) and a
  // rerun (asserted). The rebind must resolve every bound-atom index
  // by patching the cached artifacts: the run report must show zero
  // index builds. (The cache-wide build counter is NOT the gate here —
  // at one server the run layer re-derives its shard wrapper as a
  // zero-cost alias of the pinned index under the new relation
  // identity, which registers as a cache entry but does no index work
  // and is deliberately kept out of the report counter.)
  std::vector<double> delta_s, full_s;
  uint64_t delta_count = 0, delta_patched = 0, delta_rows = 0;
  auto delta_round = [&](int round) {
    const Value v = kProbeBase + Value(2 * round);
    storage::WriteBatch point;
    point.Insert("G", {v, v + 1});

    WallTimer timer;
    Status applied = db.Apply(point);
    ADJ_CHECK(applied.ok()) << applied;
    StatusOr<api::PreparedQuery> refreshed = session.Reprepare(*prepared);
    ADJ_CHECK(refreshed.ok()) << refreshed.status();
    delta_s.push_back(timer.Seconds());

    api::Result r = refreshed->Run();
    ADJ_CHECK(r.ok()) << r.status();
    prepared = std::move(refreshed);
    if (r.index_builds() != 0) {
      std::fprintf(stderr, "FAIL: delta rerun built %llu indexes (want 0)\n",
                   static_cast<unsigned long long>(r.index_builds()));
      return false;
    }
    delta_count = r.count();
    delta_patched = r.index_patched();
    delta_rows = r.delta_rows_merged();
    return true;
  };

  // Full-invalidate path: replace G with a detached copy of its own
  // merged rows. Same content, new identity — every cached index and
  // the prepared plan go stale, and the refresh pays full rebuilds.
  uint64_t full_count = 0, full_builds = 0;
  auto full_round = [&]() {
    StatusOr<const storage::Relation*> g = db.catalog().Get("G");
    ADJ_CHECK(g.ok()) << g.status();
    storage::Relation copy = **g;
    copy.mutable_raw();  // detach: own the rows, drop payload identity
    storage::WriteBatch replace;
    replace.Create("G", std::move(copy));
    const uint64_t builds = db.catalog().index_cache().stats().builds;

    WallTimer timer;
    Status applied = db.Apply(replace);
    ADJ_CHECK(applied.ok()) << applied;
    StatusOr<api::PreparedQuery> refreshed = session.Reprepare(*prepared);
    ADJ_CHECK(refreshed.ok()) << refreshed.status();
    full_s.push_back(timer.Seconds());

    api::Result r = refreshed->Run();
    ADJ_CHECK(r.ok()) << r.status();
    prepared = std::move(refreshed);
    full_count = r.count();
    full_builds = db.catalog().index_cache().stats().builds - builds;
  };

  for (int round = 0; round < kRounds; ++round) {
    if (!delta_round(round)) return 1;
    full_round();
  }
  const Spread delta = SpreadOf(delta_s);
  const Spread full = SpreadOf(full_s);

  // Gate 3: a write to H must not disturb anything the G plan binds.
  const uint64_t builds_before = db.catalog().index_cache().stats().builds;
  const uint64_t merged_before =
      db.catalog().index_cache().stats().delta_rows_merged;
  storage::WriteBatch bystander;
  bystander.Insert("H", {kProbeBase, kProbeBase + 1});
  Status applied = db.Apply(bystander);
  ADJ_CHECK(applied.ok()) << applied;
  const bool still_fresh = session.IsFresh(*prepared);
  api::Result untouched = prepared->Run();
  ADJ_CHECK(untouched.ok()) << untouched.status();
  const uint64_t untouched_builds =
      db.catalog().index_cache().stats().builds - builds_before;
  const uint64_t untouched_merges =
      db.catalog().index_cache().stats().delta_rows_merged - merged_before;

  // Gate 4: the multi-server leg, on fresh probe ids.
  const RefreshLeg four = RunRefreshLeg(db, kQuery, /*servers=*/4, kRounds,
                                        kProbeBase + 4 * kRounds);

  const double speedup =
      delta.min > 0 ? full.min / delta.min : kMinSpeedup * 10;
  std::printf(
      "updates smoke: out=%llu delta=%.4fs/%.4fs/%.4fs (min/median/max; "
      "patched=%llu rows=%llu) full=%.4fs/%.4fs/%.4fs (builds=%llu) "
      "speedup=%.1fx over %d rounds "
      "bystander(fresh=%d builds=%llu merges=%llu)\n",
      static_cast<unsigned long long>(delta_count), delta.min, delta.median,
      delta.max, static_cast<unsigned long long>(delta_patched),
      static_cast<unsigned long long>(delta_rows), full.min, full.median,
      full.max,
      static_cast<unsigned long long>(full_builds), speedup, kRounds,
      int(still_fresh), static_cast<unsigned long long>(untouched_builds),
      static_cast<unsigned long long>(untouched_merges));

  FILE* json = std::fopen("BENCH_updates.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"updates\",\n"
                 "  \"query\": \"%s\",\n"
                 "  \"dataset\": \"WB\",\n"
                 "  \"scale\": %.4f,\n"
                 "  \"output_count\": %llu,\n"
                 "  \"rounds\": %d,\n"
                 "  \"delta_refresh_seconds\": %.6f,\n"
                 "  \"delta_refresh_seconds_median\": %.6f,\n"
                 "  \"delta_refresh_seconds_max\": %.6f,\n"
                 "  \"full_refresh_seconds\": %.6f,\n"
                 "  \"full_refresh_seconds_median\": %.6f,\n"
                 "  \"full_refresh_seconds_max\": %.6f,\n"
                 "  \"speedup\": %.2f,\n"
                 "  \"delta_run_index_patched\": %llu,\n"
                 "  \"delta_run_rows_merged\": %llu,\n"
                 "  \"full_run_index_builds\": %llu,\n"
                 "  \"bystander_write_index_builds\": %llu,\n"
                 "  \"bystander_write_rows_merged\": %llu,\n",
                 kQuery, scale, static_cast<unsigned long long>(delta_count),
                 kRounds, delta.min, delta.median, delta.max, full.min,
                 full.median, full.max, speedup,
                 static_cast<unsigned long long>(delta_patched),
                 static_cast<unsigned long long>(delta_rows),
                 static_cast<unsigned long long>(full_builds),
                 static_cast<unsigned long long>(untouched_builds),
                 static_cast<unsigned long long>(untouched_merges));
    WriteRefreshLegJson(json, "servers4", four);
    std::fprintf(json, "  \"servers4_count\": %llu\n}\n",
                 static_cast<unsigned long long>(four.count));
    std::fclose(json);
  }

  int failures = ReportRefreshLeg("updates smoke", 4, four);
  if (four.count != delta_count) {
    std::fprintf(stderr, "FAIL: 4-server count %llu != 1-server count %llu\n",
                 static_cast<unsigned long long>(four.count),
                 static_cast<unsigned long long>(delta_count));
    ++failures;
  }
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr, "FAIL: delta refresh speedup %.1fx < %.1fx\n",
                 speedup, kMinSpeedup);
    ++failures;
  }
  if (delta_patched == 0) {
    std::fprintf(stderr, "FAIL: delta rerun reported no patched bindings\n");
    ++failures;
  }
  if (full_builds == 0) {
    std::fprintf(stderr,
                 "FAIL: full-invalidate refresh rebuilt nothing — the "
                 "baseline is not measuring rebuild cost\n");
    ++failures;
  }
  if (full_count != delta_count) {
    std::fprintf(stderr, "FAIL: full count %llu != delta count %llu\n",
                 static_cast<unsigned long long>(full_count),
                 static_cast<unsigned long long>(delta_count));
    ++failures;
  }
  if (!still_fresh) {
    std::fprintf(stderr, "FAIL: write to H staled the plan over G\n");
    ++failures;
  }
  if (untouched_builds != 0 || untouched_merges != 0) {
    std::fprintf(stderr,
                 "FAIL: write to H cost the G rerun %llu builds, "
                 "%llu merged rows (want 0/0)\n",
                 static_cast<unsigned long long>(untouched_builds),
                 static_cast<unsigned long long>(untouched_merges));
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace adj::bench

int main() { return adj::bench::Run(); }
