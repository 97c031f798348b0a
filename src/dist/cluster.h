#ifndef ADJ_DIST_CLUSTER_H_
#define ADJ_DIST_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dist/comm_stats.h"
#include "storage/relation.h"
#include "storage/trie.h"

namespace adj::dist {

/// Static description of the simulated shared-nothing cluster: server
/// count, per-server memory budget (the M of the paper's Eq. 3
/// constraint), and the interconnect cost model.
struct ClusterConfig {
  int num_servers = 4;
  uint64_t memory_per_server_bytes = 4ull << 30;
  NetworkModel net;
};

/// One server's local state after an HCube shuffle: per query atom the
/// received relation fragment (canonical sorted/deduplicated form),
/// the trie built over it, and the query attribute of each trie level.
/// `resident_bytes` is the memory the fragments + tries occupy, the
/// quantity CheckMemory() audits against the per-server budget.
///
/// Fragments and tries are shared handles, never deep copies: when the
/// shuffle runs against a storage::IndexCache, every shard of every
/// run of a query borrows the same resident blocks and tries, so a
/// repeat run re-populates a Cluster at pointer-copy cost.
struct LocalShard {
  std::vector<std::shared_ptr<const storage::Relation>> atoms;
  std::vector<std::shared_ptr<const storage::Trie>> tries;
  std::vector<std::vector<AttrId>> attrs;
  std::vector<uint64_t> wire_bytes;  // per atom: modeled bytes shipped
  uint64_t resident_bytes = 0;

  void Clear() {
    atoms.clear();
    tries.clear();
    attrs.clear();
    wire_bytes.clear();
    resident_bytes = 0;
  }
};

/// The simulated cluster: a config plus one LocalShard per server.
/// Execution strategies shuffle into it (dist::HCubeShuffle — which
/// clears all shard state first, so a Cluster can be fresh per stage
/// or re-used across stages interchangeably), then run per-server
/// joins over shard(s).
class Cluster {
 public:
  explicit Cluster(ClusterConfig config)
      : config_(std::move(config)),
        shards_(config_.num_servers > 0 ? size_t(config_.num_servers) : 0) {}

  const ClusterConfig& config() const { return config_; }
  int num_servers() const { return int(shards_.size()); }

  LocalShard& shard(int s) { return shards_[size_t(s)]; }
  const LocalShard& shard(int s) const { return shards_[size_t(s)]; }

  /// kResourceExhausted iff any shard's resident set exceeds the
  /// per-server memory budget — the paper's OOM failure mode.
  Status CheckMemory() const;

  /// Largest per-server resident set (the cluster's memory high-water
  /// mark).
  uint64_t MaxResidentBytes() const;

  /// Drops all shard state (between queries / stages).
  void ClearShards();

 private:
  ClusterConfig config_;
  std::vector<LocalShard> shards_;
};

}  // namespace adj::dist

#endif  // ADJ_DIST_CLUSTER_H_
