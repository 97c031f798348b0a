#ifndef ADJ_STORAGE_INDEX_CACHE_H_
#define ADJ_STORAGE_INDEX_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/relation.h"
#include "storage/trie.h"
#include "storage/write_batch.h"

namespace adj::storage {

/// One (relation, permutation)'s index: the relation with its columns
/// permuted, sorted, and deduplicated, plus the trie built over it.
/// Both handles are the cache's physical artifacts, keyed by the
/// permutation alone, so every consumer of one permutation *borrows*
/// the same rows buffer and trie instead of rebuilding per run — the
/// way RDF-TDAA persists its trie-shaped indexes across queries rather
/// than reconstructing them per lookup. Attribute names belong to the
/// query, not to storage: a bind site relabels `rel` under its atom's
/// schema with an O(1) Relation::AliasSpan (wcoj::PrepareRelationShared).
struct PreparedIndex {
  std::shared_ptr<const Relation> rel;  // permuted + SortAndDedup'ed
  std::shared_ptr<const Trie> trie;     // built over `rel`

  /// Resident payload: tuple data plus the trie's arrays (compressed
  /// levels at their encoded size).
  uint64_t Bytes() const {
    return (rel ? rel->SizeBytes() : 0) + (trie ? trie->ResidentBytes() : 0);
  }
};

/// Per-call build accounting, threaded from a bind site up into the
/// RunReport so "the second run built zero tries" is observable.
struct IndexBuildStats {
  uint64_t builds = 0;     // artifacts constructed by this consumer
  uint64_t hits = 0;       // artifacts served from the cache
  uint64_t mmap_hits = 0;  // subset of hits served by snapshot-mapped
                           // artifacts (persist warm restore)
  uint64_t patched = 0;    // artifacts obtained by delta-patching a
                           // cached payload of the pre-write relation
                           // version (merge-on-read), not rebuilding
  uint64_t delta_rows_merged = 0;  // delta rows galloping-merged into
                                   // patched payloads by this consumer
};

/// Process-wide cache of index artifacts keyed by (relation identity,
/// build spec) — the shared index layer. One instance lives alongside
/// each root storage::Catalog (execution and reduced catalogs share
/// their source's cache), so every bind site that used to permute,
/// sort, and Trie::Build inline now asks the cache and shares the
/// result by pointer; tries are never deep-copied.
///
/// Key: `identity` is the address of the physical source object (a
/// base Relation for permuted indexes, a permuted index's trie for
/// HCube shard indexes); `spec` encodes everything else the build
/// depends on (column order, share vector, variant, server count).
/// Relations reachable through a catalog are immutable, so an entry
/// never goes *stale* — it only becomes garbage once its source is
/// unreachable.
///
/// Lifetime / invalidation: every entry carries a `pin`, a shared
/// handle to its source. Sweep() — called by Catalog after every
/// write — drops entries whose pin the cache alone still holds:
/// replacing a relation evicts its indexes (and, transitively, shard
/// indexes derived from them) as soon as the last consumer lets go,
/// while indexes of untouched relations survive pointer-identical.
/// The pin also rules out identity ABA: a key address cannot be reused
/// while its entry is resident.
///
/// Concurrency: all operations are mutex-serialized except the build
/// itself, which runs outside the lock under single-flight — N threads
/// requesting one missing key perform exactly one build; the rest
/// block and share the artifact. A failed build is not cached (the
/// next request retries).
///
/// Memory: resident_bytes() totals every entry's artifact; an optional
/// byte budget evicts least-recently-used entries that no consumer
/// currently holds. (The serving layer additionally accounts the
/// indexes *pinned* by cached prepared queries toward its own budget —
/// see serve::PreparedQueryCache.)
///
/// Persistence: the permuted layers can round-trip through a snapshot.
/// ExportPermutedIndexes() hands the writer every perm-keyed payload;
/// AdoptPermuted() re-seats payloads whose arrays view an mmap'ed
/// snapshot, flagged so hits report as mmap-loaded.
class IndexCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t mmap_hits = 0;  // hits served by snapshot-mapped entries
    uint64_t builds = 0;
    uint64_t patched_builds = 0;  // entries produced by delta-patching
                                  // instead of a from-scratch build
    uint64_t delta_rows_merged = 0;  // total delta rows merged in
    uint64_t build_failures = 0;
    uint64_t evictions = 0;  // Sweep GC + budget evictions
    uint64_t resident_bytes = 0;
    uint64_t entries = 0;
    uint64_t mmap_entries = 0;  // entries adopted from a snapshot
  };

  /// `budget_bytes` caps resident artifact bytes (0 = unbounded).
  explicit IndexCache(uint64_t budget_bytes = 0)
      : budget_bytes_(budget_bytes) {}

  /// Whether freshly built or delta-patched tries are re-encoded
  /// through Trie::Compress (per-level density heuristic — tiny or
  /// incompressible levels stay raw, and compressed levels of a
  /// patched predecessor stay compressed). On by default so large
  /// indexes are charged at their encoded size; benches flip it off
  /// to measure the raw baseline.
  void set_compress_tries(bool on) {
    compress_tries_.store(on, std::memory_order_relaxed);
  }
  bool compress_tries() const {
    return compress_tries_.load(std::memory_order_relaxed);
  }

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  /// What a build hands back: the type-erased artifact and its
  /// resident size (charged against the budget).
  struct BuildResult {
    std::shared_ptr<const void> artifact;
    uint64_t bytes = 0;
    // Set when the artifact was produced by (or derived from) a
    // delta-patch of a cached predecessor payload: the entry ticks
    // `patched` counters rather than `builds`, and hands the flag down
    // to layers built over it.
    bool patched = false;
    uint64_t delta_rows_merged = 0;
  };
  using BuildFn = std::function<StatusOr<BuildResult>()>;

  /// The generic get-or-build: returns the artifact under
  /// (identity, spec), invoking `build` (outside the cache lock,
  /// single-flight) when absent. `pin` must keep `identity` alive and
  /// is what Sweep() uses to decide reachability. `stats`, when given,
  /// receives one hit or build tick.
  StatusOr<std::shared_ptr<const void>> GetOrBuild(
      const void* identity, const std::string& spec,
      std::shared_ptr<const void> pin, const BuildFn& build,
      IndexBuildStats* stats = nullptr);

  /// The permuted index of (relation identity, column order): `base`
  /// with column i of the result taken from column perm[i], sorted,
  /// deduplicated, and trie-indexed. Two physical entries back it —
  /// the rows payload and the trie over it, both keyed by the
  /// permutation alone — so repeated requests return pointer-equal
  /// handles. `rel` keeps base's schema, of which only the arity means
  /// anything here; bind sites relabel it under their atom's attributes
  /// (wcoj::PrepareRelationShared). `stats` ticks once, at the trie
  /// layer.
  StatusOr<PreparedIndex> GetPermuted(std::shared_ptr<const Relation> base,
                                      const std::vector<int>& perm,
                                      IndexBuildStats* stats = nullptr);

  /// Trie-less variant for hash-join-only binds: the rows payload
  /// alone, shared with GetPermuted of the same permutation but never
  /// paying for a trie build. `stats` ticks once, at the rows layer.
  StatusOr<std::shared_ptr<const Relation>> GetPermutedRelation(
      std::shared_ptr<const Relation> base, const std::vector<int>& perm,
      IndexBuildStats* stats = nullptr);

  /// One perm-keyed physical payload — the unit the snapshot writer
  /// serializes.
  struct ExportedPayload {
    const void* identity = nullptr;       // base relation address
    std::vector<int> perm;
    std::shared_ptr<const Relation> rows;  // canonical permuted relation
    std::shared_ptr<const Trie> trie;      // null if never trie-bound
    uint64_t lru_tick = 0;  // hotter layer's tick, for restore ordering
  };

  /// Snapshot of every resident permuted-index payload (rows and trie
  /// entries folded together). Artifacts are shared, not copied;
  /// identities are only meaningful to a caller that can map them back
  /// to relations it holds (the catalog snapshot writer).
  std::vector<ExportedPayload> ExportPermutedIndexes() const;

  /// Re-seats one permuted payload loaded from a snapshot: `canon`
  /// (sorted rows viewing mapped memory) and `trie` (FromMapped; null
  /// if the payload was never trie-bound) are installed under the keys
  /// GetPermuted/GetPermutedRelation resolve, flagged mmap so hits
  /// report as mmap-loaded. Existing entries win (adoption never
  /// clobbers); the byte budget applies as usual. `base` must be the
  /// relation the payload was exported from — in the restored catalog,
  /// not the saved one.
  Status AdoptPermuted(std::shared_ptr<const Relation> base,
                       const std::vector<int>& perm,
                       std::shared_ptr<const Relation> canon,
                       std::shared_ptr<const Trie> trie);

  /// Registers a delta edge from relation version `prev` to its
  /// successor `next` (the catalog calls this on every tuple write,
  /// before the sweep). For every canonical permuted payload of `prev`
  /// currently resident — plus any payloads `prev` itself inherited
  /// and never consumed, whose deltas compose — the cache records a
  /// *patch source*: {payload handle, net delta}. The next
  /// GetPermuted* miss under `next` then builds its canonical rows by
  /// permuting + sorting the (small) delta and galloping-merging it
  /// into the recorded payload — O(delta log n) locate work and run
  /// copies — instead of re-permuting and re-sorting all of `next`.
  /// A resident trie of `prev` joins its source, and so do the
  /// artifacts keyed on that trie (HCube shards, spec → artifact):
  /// when the trie layer patches, those become the new trie's shard
  /// sources (TakeShardSource). Recording takes handles only — no
  /// routing, merging or trie work happens here.
  /// Patch sources hold the payload artifact itself, so they survive
  /// sweeps/evictions of `prev`'s entries — once the catalog rebinds
  /// the name, `prev`'s entries are swept and the patch source is the
  /// only part of the pre-write version left resident. They die when
  /// consumed, superseded by a newer write, or when `next` itself
  /// becomes unreachable.
  void LinkDelta(const std::shared_ptr<const Relation>& prev,
                 const std::shared_ptr<const Relation>& next,
                 std::shared_ptr<const DeltaBatch> delta);

  /// An artifact keyed on an older version of a permuted trie (an
  /// HCube ShardedRelation, type-erased) and what separates the two:
  /// `delta`, in base-relation column order, and `perm`, the column
  /// order both tries index.
  struct ShardSource {
    std::shared_ptr<const void> artifact;
    std::shared_ptr<const DeltaBatch> delta;
    std::vector<int> perm;
  };

  /// Hands out (and forgets) the shard source recorded for `spec` on
  /// `trie`, a trie the cache delta-patched from a predecessor whose
  /// `spec` artifact was resident at the write (or, when nothing bound
  /// the relation between writes, at the first of them: deltas
  /// compose). The caller patches the artifact instead of building it
  /// from the trie's rows.
  std::optional<ShardSource> TakeShardSource(
      const std::shared_ptr<const Trie>& trie, const std::string& spec);

  /// Garbage collection, run after every catalog write: drops entries
  /// (iterating to a fixpoint, so derived entries chain) whose pin is
  /// held by nothing outside this cache — entry pins and the tries
  /// patch sources hold count as inside.
  void Sweep();

  /// Re-applies the byte budget (LRU eviction of entries no consumer
  /// holds); no-op when unbounded. The snapshot loader calls this
  /// after adoption, once its temporary handles are gone — entries
  /// look in-use while the adopter still holds them.
  void EnforceBudget();

  void Clear();

  uint64_t budget_bytes() const { return budget_bytes_; }
  void set_budget_bytes(uint64_t bytes);

  uint64_t resident_bytes() const;
  size_t size() const;
  Stats stats() const;

 private:
  /// Structured key for permuted-layer entries, kept so the snapshot
  /// writer can enumerate payloads without parsing spec strings.
  struct PermutedMeta {
    enum Kind { kRows, kTrie };
    Kind kind = kRows;
    std::vector<int> perm;
  };

  struct Entry {
    std::shared_ptr<const void> artifact;  // null while building
    std::shared_ptr<const void> pin;
    uint64_t bytes = 0;
    uint64_t lru_tick = 0;
    bool ready = false;
    bool mmap = false;  // adopted from a snapshot (arrays view the map)
    bool patched = false;  // produced by / derived from a delta patch
    std::shared_ptr<const PermutedMeta> meta;  // permuted layers only
  };
  using Key = std::pair<const void*, std::string>;

  /// One patchable predecessor for (relation, perm): the canonical
  /// permuted rows of an older version of the relation — and the trie
  /// over them, when it was resident — plus the net delta separating
  /// the two versions. Rows and trie are consumed independently (each
  /// layer patches once); a cleared member means that layer already
  /// patched or was never resident.
  struct PatchSource {
    std::shared_ptr<const Relation> payload;
    std::shared_ptr<const DeltaBatch> delta;
    std::shared_ptr<const Trie> trie;
    // Artifacts keyed on `trie`, by spec; handed to the patched trie.
    std::map<std::string, ShardSource> shards;
  };
  /// Patch sources for one successor relation, keyed by SpecJoin(perm).
  /// `child` guards against address reuse: a record is only honored
  /// while child.lock() still yields the relation it was made for.
  struct PatchRecord {
    std::weak_ptr<const Relation> child;
    std::map<std::string, PatchSource> by_perm;
  };
  /// Shard sources for one patched trie, keyed by spec; `child` is the
  /// ABA guard, as in PatchRecord.
  struct ShardRecord {
    std::weak_ptr<const Trie> child;
    std::map<std::string, ShardSource> by_spec;
  };

  /// The two physical layers under GetPermuted/GetPermutedRelation,
  /// keyed by the permutation alone: the canonical permuted relation
  /// (sorted row payload) and the trie over it. `stats` ticks this
  /// layer's hit/build. `merged_out` reports delta rows merged *by
  /// this call* (zero on a hit), so the bind that triggered the merge
  /// charges it to its consumer exactly once.
  StatusOr<std::shared_ptr<const Relation>> GetPermutedRows(
      const std::shared_ptr<const Relation>& base,
      const std::vector<int>& perm, IndexBuildStats* stats,
      uint64_t* merged_out = nullptr);
  /// The trie over `rows`, this base's GetPermutedRows payload; a trie
  /// built over a patched payload counts as patched.
  StatusOr<std::shared_ptr<const Trie>> GetPermutedTrie(
      const std::shared_ptr<const Relation>& base,
      const std::vector<int>& perm, const Relation& rows,
      IndexBuildStats* stats);

  /// Whether the resident entry under (identity, spec) was produced by
  /// (or derived from) a delta patch — how a trie inherits
  /// patched-ness from the rows payload it is built over.
  bool EntryIsPatched(const void* identity, const std::string& spec) const;

  /// Takes (without consuming) the patch source for (base, perm), if a
  /// live record holds one.
  bool PeekPatchSource(const std::shared_ptr<const Relation>& base,
                       const std::vector<int>& perm, PatchSource* out) const;
  /// Clears the source's rows payload (the rows layer has merged),
  /// crediting `merged_rows` to the cache-wide merge counter; the
  /// source survives while its trie is still unconsumed.
  void ConsumePatchSource(const void* identity, const std::vector<int>& perm,
                          uint64_t merged_rows);
  /// Clears the source's trie (the trie layer has patched), dropping
  /// the per-perm source — and the record once empty — when the rows
  /// side is already consumed. The source's shards become the shard
  /// sources of `successor`, the trie patched from it (dropped when
  /// null).
  void ConsumeTriePatchSource(const void* identity,
                              const std::vector<int>& perm,
                              const std::shared_ptr<const Trie>& successor);

  /// GetOrBuild plus permuted-layer bookkeeping (meta tag, mmap flag
  /// forwarded from adopted builds).
  StatusOr<std::shared_ptr<const void>> GetOrBuildTagged(
      const void* identity, const std::string& spec,
      std::shared_ptr<const void> pin, const BuildFn& build,
      IndexBuildStats* stats, std::shared_ptr<const PermutedMeta> meta);

  /// Installs a ready entry directly (snapshot adoption). No-op
  /// returning false if the key is already present. Caller holds mu_.
  bool AdoptEntryLocked(const Key& key, std::shared_ptr<const void> pin,
                        std::shared_ptr<const void> artifact, uint64_t bytes,
                        std::shared_ptr<const PermutedMeta> meta);

  /// Evicts LRU entries nobody currently holds until the budget is
  /// met. Caller holds mu_.
  void EnforceBudgetLocked();
  /// One GC pass; returns whether anything was dropped. Caller holds
  /// mu_.
  bool SweepOnceLocked();

  uint64_t budget_bytes_;
  std::atomic<bool> compress_tries_{true};
  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::map<Key, std::shared_ptr<Entry>> entries_;
  // Patch sources keyed by successor-relation address (ABA-guarded by
  // PatchRecord::child). Payload bytes referenced only from here are
  // not charged to the budget; records are bounded — consumed on the
  // next bind, superseded by the next write, or dropped by Sweep once
  // the successor dies.
  std::map<const void*, PatchRecord> patches_;
  // Shard sources keyed by patched-trie address (ABA-guarded by
  // ShardRecord::child); consumed by the shuffle that rebuilds the
  // spec, dropped by Sweep once the trie dies.
  std::map<const void*, ShardRecord> shard_patches_;
  uint64_t tick_ = 0;
  Stats stats_;
};

/// Renders a column permutation / share-style integer vector for use
/// in cache spec strings ("0,2,1").
std::string SpecJoin(const std::vector<int>& xs);

}  // namespace adj::storage

#endif  // ADJ_STORAGE_INDEX_CACHE_H_
