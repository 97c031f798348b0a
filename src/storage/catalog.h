#ifndef ADJ_STORAGE_CATALOG_H_
#define ADJ_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/index_cache.h"
#include "storage/relation.h"
#include "storage/write_batch.h"

namespace adj::storage {

/// Named collection of base relations — the database D of the paper.
/// For the paper's subgraph workloads every query atom is bound to a
/// copy of the same edge relation; the catalog stores each distinct
/// physical relation once and atoms reference it by name.
///
/// Entry model: every name binds exactly one *immutable relation
/// version* (possibly mmap-backed from a persist snapshot) plus its
/// per-name version counter — the relations D as they are now, which
/// is all planning, costing and execution ever read. A write never
/// mutates a relation: a tuple write galloping-merges its coalesced
/// DeltaBatch into a new relation and rebinds the name, and the index
/// cache keeps the pre-write version's payloads only as patch sources
/// (IndexCache::LinkDelta), so the write's cost to readers is the
/// index patch on their next bind. The pre-write relation itself is
/// released as soon as nothing but the cache refers to it.
///
/// Ownership model: entries hold shared_ptr<const Relation>, so a name
/// can own its relation outright or borrow one another catalog — or
/// another name in this catalog — already holds (WriteBatch::Create
/// with a shared relation, WriteBatch::AliasRelation). Borrowed
/// entries share physical storage with their source: Get returns the
/// same pointer for every alias, no tuple data is copied, and the
/// relation stays alive as long as any catalog references it, even
/// after the source catalog is destroyed. Writes rebind only the
/// written name: aliases of the old relation version keep reading it.
///
/// Mutation surface: WriteBatch + Apply() is the one write API —
/// ordered insert/delete/create/alias ops validated up front and
/// applied atomically (a rejected batch leaves the catalog untouched).
///
/// Staleness tracking is *per relation*: every write to a name bumps
/// VersionOf(name), so caches invalidate only entries whose bound
/// relations actually changed (serve::PreparedQueryCache validates a
/// prepared query's recorded name→version dependencies). Every
/// successful Apply also sweeps the index cache. Versions are not
/// atomic: like the rest of the catalog, mutation must be quiesced
/// with respect to readers (docs/ARCHITECTURE.md, "Ownership rules";
/// serve::Server::Apply does this with a reader/writer lock).
class Catalog {
 public:
  Catalog() = default;

  // Movable, not copyable (relations can be large).
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Applies `batch` atomically: every op is validated against the
  /// catalog-plus-batch-prefix state first (missing names, tuple arity
  /// mismatches, null relations), and a failed validation returns the
  /// error with the catalog untouched. On success each written name
  /// gains one version; tuple ops coalesce into one DeltaBatch per
  /// name, linked into the index cache for merge-on-read patching,
  /// and the index cache is swept once.
  Status Apply(const WriteBatch& batch);

  bool Contains(const std::string& name) const;

  /// Borrowed pointer to the bound relation; valid until the entry
  /// is replaced and the last catalog sharing the relation is
  /// destroyed. Aliases of one physical relation return pointer-equal
  /// results.
  StatusOr<const Relation*> Get(const std::string& name) const;

  /// Shared handle to the bound relation — the way to alias a
  /// relation into another catalog (WriteBatch::Create) without
  /// copying it.
  StatusOr<std::shared_ptr<const Relation>> GetShared(
      const std::string& name) const;

  std::vector<std::string> Names() const;

  /// Totals over *distinct physical* relations: a relation registered
  /// under several names (aliases, shared creates) is counted once.
  uint64_t TotalTuples() const;
  uint64_t TotalBytes() const;

  /// Per-relation write counter: 0 for a name not in the catalog,
  /// bumped by every write that rebinds `name` (create, alias rebind,
  /// tuple delta). Anything derived from the relation bound at version
  /// v — indexes, plans, prepared contexts — is exactly as fresh as
  /// (VersionOf(name) == v), independent of writes to other names.
  uint64_t VersionOf(const std::string& name) const;

  /// One entry as the persist layer saves it: the bound relation and
  /// its version.
  struct EntryState {
    std::shared_ptr<const Relation> rel;
    uint64_t version = 0;
    /// Always empty: entries hold no delta chain. Kept only because
    /// perfbench's mixed-rw writer reads its size to count compactions
    /// (always 0 now); drop it with the next change to perfbench.
    std::vector<std::shared_ptr<const DeltaBatch>> deltas;
  };
  StatusOr<EntryState> Inspect(const std::string& name) const;

  /// Installs a relation loaded from a snapshot under `name`; the
  /// name's version becomes max(current, `version`) + 1 so
  /// restored-over entries still read as written. Null `rel` is
  /// rejected. Sweeps the index cache like any write.
  Status Restore(const std::string& name, std::shared_ptr<const Relation> rel,
                 uint64_t version);

  /// The shared index layer riding alongside this catalog: every bind
  /// site (wcoj / exec / dist / optimizer) requests permuted-sorted-
  /// trie-indexed artifacts through it instead of constructing inline.
  /// Internally synchronized, hence usable through const catalogs; a
  /// write sweeps entries whose source relation is no longer
  /// reachable, after linking its delta for merge-on-read patching.
  IndexCache& index_cache() const { return *index_cache_; }

  /// Makes this catalog use `other`'s index cache, so indexes built
  /// against relations aliased from `other` (execution catalogs,
  /// selection-reduced catalogs) are shared rather than rebuilt.
  void ShareIndexCacheWith(const Catalog& other) {
    index_cache_ = other.index_cache_;
  }

 private:
  struct Entry {
    std::shared_ptr<const Relation> rel;
    uint64_t version = 0;
    // Whether `rel` is known lexicographically sorted + unique
    // (true from the first tuple write on: merged output is canonical).
    bool canonical = false;
  };

  /// Applies one coalesced DeltaBatch to `name` (which must exist):
  /// computes the next relation version by galloping merge, links the
  /// delta into the index cache, rebinds the name and bumps its
  /// version.
  void ApplyDelta(const std::string& name, std::shared_ptr<DeltaBatch> delta);

  std::map<std::string, Entry> relations_;
  std::shared_ptr<IndexCache> index_cache_ = std::make_shared<IndexCache>();
};

}  // namespace adj::storage

#endif  // ADJ_STORAGE_CATALOG_H_
