#include "exec/bigjoin.h"

#include <algorithm>
#include <limits>

#include "common/timer.h"
#include "exec/hcubej.h"
#include "storage/trie.h"
#include "wcoj/intersect.h"

namespace adj::exec {
namespace {

using storage::Trie;

/// Intersects k sibling ranges (sorted value runs, raw or
/// block-compressed) through the shared kernel layer, appending common
/// values to `out`. `views` and `caches` (one block-decode cache per
/// participant) are caller state reused across bindings — consecutive
/// bindings probe adjacent ranges, so most block decodes hit. `stats`
/// is the run's single kernel-counter sink.
void IntersectRanges(const std::vector<const Trie*>& tries,
                     const std::vector<int>& levels,
                     const std::vector<Trie::Range>& ranges,
                     std::vector<wcoj::intersect::RunView>* views,
                     storage::blockcodec::DecodeCache* caches,
                     std::vector<Value>* out,
                     wcoj::intersect::KernelStats* stats) {
  namespace in = wcoj::intersect;
  const int k = static_cast<int>(tries.size());
  views->resize(static_cast<size_t>(k));
  size_t cap = std::numeric_limits<size_t>::max();
  for (int j = 0; j < k; ++j) {
    if (ranges[j].empty()) return;
    const Trie& trie = *tries[j];
    (*views)[j] =
        trie.level_compressed(levels[j])
            ? in::RunView::Compressed({trie.CompressedView(levels[j]),
                                       ranges[j].lo, ranges[j].hi})
            : in::RunView::Raw(trie.RangeSpan(levels[j], ranges[j]));
    cap = std::min(cap, (*views)[j].size());
  }
  const size_t base = out->size();
  out->resize(base + cap);
  const size_t n =
      in::IntersectKValues(views->data(), k, out->data() + base, caches, stats);
  out->resize(base + n);
}

}  // namespace

StatusOr<RunReport> RunBigJoin(const query::Query& q,
                               const storage::Catalog& db,
                               const query::AttributeOrder& order,
                               dist::Cluster* cluster,
                               const wcoj::JoinLimits& limits) {
  RunReport report;
  report.method = "BigJoin";
  report.rounds = 0;
  // Kernel counters accumulate over every round and are copied into
  // the report on each exit.
  wcoj::intersect::KernelStats kernel_stats;
  auto finish = [&](Status status) {
    report.status = std::move(status);
    report.simd_intersections = kernel_stats.simd_intersections;
    report.scalar_fallbacks = kernel_stats.scalar_fallbacks;
    report.blocks_decoded = kernel_stats.blocks_decoded;
    return report;
  };
  const dist::NetworkModel& net = cluster->config().net;
  const int n_servers = cluster->num_servers();
  WallTimer deadline;

  // Global per-relation tries, columns in attribute-order layout
  // (BigJoin keeps each relation sharded and indexed; we simulate the
  // index and charge communication for routing bindings to shards).
  // The bound atoms arrive trie-indexed from the shared index layer —
  // no local Trie::Build.
  storage::IndexBuildStats index_stats;
  StatusOr<std::vector<BoundAtom>> bound =
      BindAtomsForOrder(q, db, order, &index_stats);
  if (!bound.ok()) return bound.status();
  report.index_builds = index_stats.builds;
  report.index_reused = index_stats.hits;
  report.index_mmap = index_stats.mmap_hits;
  report.index_patched = index_stats.patched;
  report.delta_rows_merged = index_stats.delta_rows_merged;

  const int n = static_cast<int>(order.size());
  const std::vector<int> rank = query::RankOf(order, q.num_attrs());

  // Partial bindings over order prefix, stored flat.
  std::vector<Value> bindings;  // width = current prefix length
  uint64_t num_bindings = 1;    // B_0 = {()}
  int width = 0;

  for (int i = 0; i < n; ++i) {
    // Relations containing order[i].
    std::vector<int> parts;
    for (int a = 0; a < q.num_atoms(); ++a) {
      const auto& attrs = (*bound)[size_t(a)].attrs;
      if (std::find(attrs.begin(), attrs.end(), order[i]) != attrs.end()) {
        parts.push_back(a);
      }
    }
    if (parts.empty()) {
      return Status::InvalidArgument("attribute covered by no atom");
    }

    // Round accounting: every binding is routed to each participating
    // relation's index shard (proposal + intersection traffic).
    const uint64_t copies = num_bindings * parts.size();
    const uint64_t bytes = copies * uint64_t(std::max(width, 1)) *
                           sizeof(Value);
    report.comm.tuple_copies += copies;
    report.comm.bytes += bytes;
    report.comm_s += dist::PushSeconds(net, copies, bytes, n_servers);
    report.overhead_s += net.stage_overhead_s;
    ++report.rounds;

    WallTimer round_timer;
    std::vector<Value> next;
    std::vector<const Trie*> part_tries;
    std::vector<int> part_levels;
    for (int a : parts) {
      const auto& attrs = (*bound)[size_t(a)].attrs;
      part_tries.push_back(&(*bound)[size_t(a)].trie());
      part_levels.push_back(static_cast<int>(
          std::find(attrs.begin(), attrs.end(), order[i]) - attrs.begin()));
    }

    std::vector<Value> candidates;
    std::vector<Trie::Range> ranges(parts.size());
    std::vector<wcoj::intersect::RunView> run_views;
    // Block-decode caches, reused across this round's bindings: one
    // per participant for the intersection, one per (participant,
    // bound level) for the trie descent probes.
    namespace bc = storage::blockcodec;
    std::vector<bc::DecodeCache> isect_caches(parts.size());
    size_t descend_slots = 0;
    std::vector<size_t> descend_off(parts.size(), 0);
    for (size_t pi = 0; pi < parts.size(); ++pi) {
      descend_off[pi] = descend_slots;
      descend_slots += static_cast<size_t>(part_levels[pi]);
    }
    std::vector<bc::DecodeCache> descend_caches(descend_slots);
    uint64_t produced = 0;
    for (uint64_t bnd = 0; bnd < num_bindings; ++bnd) {
      const Value* prefix = width == 0 ? nullptr : &bindings[bnd * width];
      bool dead = false;
      for (size_t pi = 0; pi < parts.size() && !dead; ++pi) {
        const Trie& trie = *part_tries[pi];
        const auto& attrs = (*bound)[size_t(parts[pi])].attrs;
        // Descend the trie through the atom's already-bound levels.
        Trie::Range range = trie.RootRange();
        for (int l = 0; l < part_levels[pi]; ++l) {
          const Value v = prefix[rank[attrs[size_t(l)]]];
          uint32_t idx = trie.FindInRange(
              l, range, v, &descend_caches[descend_off[pi] + size_t(l)]);
          if (idx == range.hi) {
            dead = true;
            break;
          }
          range = trie.ChildRange(l, idx);
        }
        ranges[pi] = range;
      }
      if (dead) continue;
      candidates.clear();
      IntersectRanges(part_tries, part_levels, ranges, &run_views,
                      isect_caches.data(), &candidates, &kernel_stats);
      for (Value v : candidates) {
        for (int c = 0; c < width; ++c) next.push_back(prefix[c]);
        next.push_back(v);
        ++produced;
      }
      if (produced > limits.max_materialized_rows) {
        return finish(Status::ResourceExhausted(
            "BigJoin binding set exceeded row limit"));
      }
    }
    report.comp_s += round_timer.Seconds() / n_servers;
    report.tuples_at_level.push_back(produced);
    report.extensions += produced;

    // Memory: the materialized binding set must fit the cluster.
    const uint64_t cluster_mem =
        uint64_t(n_servers) * cluster->config().memory_per_server_bytes;
    if (next.size() * sizeof(Value) > cluster_mem) {
      return finish(Status::ResourceExhausted(
          "BigJoin binding set exceeds cluster memory"));
    }
    if (deadline.Seconds() > limits.max_seconds) {
      return finish(Status::DeadlineExceeded("BigJoin time budget"));
    }
    bindings = std::move(next);
    width = i + 1;
    num_bindings = produced;
    if (num_bindings == 0) break;
  }
  report.output_count = num_bindings;
  return finish(Status::OK());
}

}  // namespace adj::exec
