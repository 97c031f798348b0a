#include "storage/index_cache.h"

#include <algorithm>

namespace adj::storage {

std::string SpecJoin(const std::vector<int>& xs) {
  std::string out;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(xs[i]);
  }
  return out;
}

namespace {

std::string RowsSpec(const std::vector<int>& perm) {
  return "rows:p=" + SpecJoin(perm);
}
std::string TrieSpec(const std::vector<int>& perm) {
  return "trie:p=" + SpecJoin(perm);
}

Status CheckPermutation(const std::shared_ptr<const Relation>& base,
                        const std::vector<int>& perm) {
  if (base == nullptr) {
    return Status::InvalidArgument("null base relation for index");
  }
  if (base->arity() != static_cast<int>(perm.size())) {
    return Status::InvalidArgument("column order arity mismatch for index");
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::shared_ptr<const void>> IndexCache::GetOrBuild(
    const void* identity, const std::string& spec,
    std::shared_ptr<const void> pin, const BuildFn& build,
    IndexBuildStats* stats) {
  return GetOrBuildTagged(identity, spec, std::move(pin), build, stats,
                          /*meta=*/nullptr);
}

StatusOr<std::shared_ptr<const void>> IndexCache::GetOrBuildTagged(
    const void* identity, const std::string& spec,
    std::shared_ptr<const void> pin, const BuildFn& build,
    IndexBuildStats* stats, std::shared_ptr<const PermutedMeta> meta) {
  if (identity == nullptr || pin == nullptr) {
    return Status::InvalidArgument("index cache key needs a live source");
  }
  const Key key{identity, spec};
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) break;  // miss: this thread builds
    std::shared_ptr<Entry> entry = it->second;
    if (!entry->ready) {
      // Another thread is building this key: wait, then re-check (the
      // entry is gone if that build failed, making us the builder).
      ready_cv_.wait(lock);
      continue;
    }
    entry->lru_tick = ++tick_;
    ++stats_.hits;
    if (entry->mmap) ++stats_.mmap_hits;
    if (stats != nullptr) {
      ++stats->hits;
      if (entry->mmap) ++stats->mmap_hits;
    }
    return entry->artifact;
  }

  auto entry = std::make_shared<Entry>();
  entry->pin = std::move(pin);
  entry->meta = std::move(meta);
  entries_[key] = entry;
  lock.unlock();
  StatusOr<BuildResult> built = build();
  lock.lock();
  // A concurrent Clear() may have dropped our placeholder (and a new
  // builder may have replaced it): only touch the map and the resident
  // accounting if the placeholder is still ours.
  auto it = entries_.find(key);
  const bool resident = it != entries_.end() && it->second == entry;
  if (!built.ok() || built->artifact == nullptr) {
    if (resident) entries_.erase(it);
    ++stats_.build_failures;
    ready_cv_.notify_all();
    return built.ok() ? Status::Internal("index build returned no artifact")
                      : built.status();
  }
  entry->artifact = std::move(built->artifact);
  entry->bytes = built->bytes;
  entry->lru_tick = ++tick_;
  entry->ready = true;
  entry->patched = built->patched;
  if (built->patched) {
    ++stats_.patched_builds;
    if (stats != nullptr) {
      ++stats->patched;
      stats->delta_rows_merged += built->delta_rows_merged;
    }
  } else {
    ++stats_.builds;
    if (stats != nullptr) ++stats->builds;
  }
  if (resident) {
    stats_.resident_bytes += entry->bytes;
    EnforceBudgetLocked();
  }
  ready_cv_.notify_all();
  return entry->artifact;
}

StatusOr<std::shared_ptr<const Relation>> IndexCache::GetPermutedRows(
    const std::shared_ptr<const Relation>& base, const std::vector<int>& perm,
    IndexBuildStats* stats, uint64_t* merged_out) {
  if (merged_out != nullptr) *merged_out = 0;
  auto meta = std::make_shared<PermutedMeta>();
  meta->kind = PermutedMeta::kRows;
  meta->perm = perm;
  std::shared_ptr<const DeltaBatch> applied;  // the delta this call merged
  StatusOr<std::shared_ptr<const void>> artifact = GetOrBuildTagged(
      base.get(), RowsSpec(perm), base,
      [&]() -> StatusOr<BuildResult> {
        // The canonical physical payload: one permuted + sorted
        // relation per (base, perm), whose buffer every bind of the
        // permutation aliases. Snapshot adoption swaps in a
        // mapped-span relation under the same key. The payload keeps
        // base's schema: only its arity means anything to storage.
        const Schema& schema = base->schema();
        PatchSource src;
        if (PeekPatchSource(base, perm, &src) && src.payload != nullptr) {
          // Merge-on-read: the relation gained a delta since the
          // recorded payload was built. Permute + sort only the delta
          // rows into this column order, then gallop-merge them over
          // the predecessor's canonical payload — O(delta · log n)
          // locate work plus run copies, never an O(n log n) re-sort
          // of the whole relation.
          Relation ins = src.delta->inserts.PermuteColumns(schema, perm);
          ins.SortAndDedup();
          Relation del = src.delta->deletes.PermuteColumns(schema, perm);
          del.SortAndDedup();
          Relation merged(schema);
          MergeDeltaRows(src.payload->raw(), schema.arity(), ins.raw(),
                         del.raw(), &merged.mutable_raw());
          auto canon = std::make_shared<const Relation>(std::move(merged));
          applied = src.delta;
          BuildResult result;
          result.artifact = canon;
          result.bytes = canon->SizeBytes();
          result.patched = true;
          result.delta_rows_merged = src.delta->rows();
          return result;
        }
        Relation rel = base->PermuteColumns(schema, perm);
        rel.SortAndDedup();
        auto canon = std::make_shared<const Relation>(std::move(rel));
        return BuildResult{canon, canon->SizeBytes()};
      },
      stats, std::move(meta));
  if (!artifact.ok()) return artifact.status();
  if (applied != nullptr) {
    ConsumePatchSource(base.get(), perm, applied->rows());
    if (merged_out != nullptr) *merged_out = applied->rows();
  }
  return std::static_pointer_cast<const Relation>(*artifact);
}

StatusOr<std::shared_ptr<const Trie>> IndexCache::GetPermutedTrie(
    const std::shared_ptr<const Relation>& base, const std::vector<int>& perm,
    const Relation& rows, IndexBuildStats* stats) {
  auto meta = std::make_shared<PermutedMeta>();
  meta->kind = PermutedMeta::kTrie;
  meta->perm = perm;
  StatusOr<std::shared_ptr<const void>> artifact = GetOrBuildTagged(
      base.get(), TrieSpec(perm), base,
      [&]() -> StatusOr<BuildResult> {
        // Trie-layer delta patch: when the predecessor's trie is still
        // on the patch record (the rows merge clears only the payload
        // side), splice the permuted delta into its CSR arrays instead
        // of re-scanning all n merged rows. The tuple-count check
        // downgrades to a scratch build if the patch and the payload
        // ever disagree (they cannot under the single-writer contract;
        // the guard keeps a corrupt record from propagating).
        PatchSource src;
        if (PeekPatchSource(base, perm, &src) && src.trie != nullptr &&
            src.delta != nullptr) {
          const Schema& schema = rows.schema();
          Relation ins = src.delta->inserts.PermuteColumns(schema, perm);
          ins.SortAndDedup();
          Relation del = src.delta->deletes.PermuteColumns(schema, perm);
          del.SortAndDedup();
          Trie patched = Trie::PatchFrom(*src.trie, ins, del);
          if (patched.NumTuples() == rows.size()) {
            if (compress_tries()) {
              patched = Trie::Compress(std::move(patched));
            }
            auto trie = std::make_shared<const Trie>(std::move(patched));
            ConsumeTriePatchSource(base.get(), perm, trie);
            BuildResult result{trie, trie->ResidentBytes()};
            result.patched = true;
            return result;
          }
          ConsumeTriePatchSource(base.get(), perm, nullptr);
        }
        Trie built = Trie::Build(rows);
        if (compress_tries()) built = Trie::Compress(std::move(built));
        auto trie = std::make_shared<const Trie>(std::move(built));
        BuildResult result{trie, trie->ResidentBytes()};
        // A trie over a patched payload counts as patched work, not a
        // from-scratch index build: its input rows were delta-merged.
        result.patched = EntryIsPatched(base.get(), RowsSpec(perm));
        return result;
      },
      stats, std::move(meta));
  if (!artifact.ok()) return artifact.status();
  return std::static_pointer_cast<const Trie>(*artifact);
}

StatusOr<PreparedIndex> IndexCache::GetPermuted(
    std::shared_ptr<const Relation> base, const std::vector<int>& perm,
    IndexBuildStats* stats) {
  ADJ_RETURN_IF_ERROR(CheckPermutation(base, perm));
  // The consumer asked for the trie, so only the trie layer ticks its
  // stats; a delta merge the rows layer ran on the way is still this
  // bind's work.
  uint64_t merged = 0;
  StatusOr<std::shared_ptr<const Relation>> rows =
      GetPermutedRows(base, perm, /*stats=*/nullptr, &merged);
  if (!rows.ok()) return rows.status();
  StatusOr<std::shared_ptr<const Trie>> trie =
      GetPermutedTrie(base, perm, **rows, stats);
  if (!trie.ok()) return trie.status();
  if (stats != nullptr) stats->delta_rows_merged += merged;
  return PreparedIndex{std::move(*rows), std::move(*trie)};
}

StatusOr<std::shared_ptr<const Relation>> IndexCache::GetPermutedRelation(
    std::shared_ptr<const Relation> base, const std::vector<int>& perm,
    IndexBuildStats* stats) {
  ADJ_RETURN_IF_ERROR(CheckPermutation(base, perm));
  return GetPermutedRows(base, perm, stats);
}

std::vector<IndexCache::ExportedPayload> IndexCache::ExportPermutedIndexes()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  // Fold the layered entries back into (identity, perm) payload units.
  std::map<std::pair<const void*, std::string>, ExportedPayload> payloads;
  auto slot = [&](const void* identity,
                  const std::vector<int>& perm) -> ExportedPayload& {
    ExportedPayload& p = payloads[{identity, SpecJoin(perm)}];
    if (p.identity == nullptr) {
      p.identity = identity;
      p.perm = perm;
    }
    return p;
  };
  for (const auto& [key, entry] : entries_) {
    if (!entry->ready || entry->meta == nullptr) continue;
    const PermutedMeta& meta = *entry->meta;
    ExportedPayload& p = slot(key.first, meta.perm);
    p.lru_tick = std::max(p.lru_tick, entry->lru_tick);
    if (meta.kind == PermutedMeta::kRows) {
      p.rows = std::static_pointer_cast<const Relation>(entry->artifact);
    } else {
      p.trie = std::static_pointer_cast<const Trie>(entry->artifact);
    }
  }
  std::vector<ExportedPayload> out;
  out.reserve(payloads.size());
  for (auto& [key, p] : payloads) {
    // A trie can outlive its rows entry (budget eviction); the writer
    // needs the rows, so such a payload is not exportable.
    if (p.rows != nullptr) out.push_back(std::move(p));
  }
  return out;
}

bool IndexCache::AdoptEntryLocked(const Key& key,
                                  std::shared_ptr<const void> pin,
                                  std::shared_ptr<const void> artifact,
                                  uint64_t bytes,
                                  std::shared_ptr<const PermutedMeta> meta) {
  if (entries_.count(key) != 0) return false;  // live entries win
  auto entry = std::make_shared<Entry>();
  entry->artifact = std::move(artifact);
  entry->pin = std::move(pin);
  entry->bytes = bytes;
  entry->lru_tick = ++tick_;
  entry->ready = true;
  entry->mmap = true;
  entry->meta = std::move(meta);
  entries_[key] = entry;
  stats_.resident_bytes += bytes;
  return true;
}

Status IndexCache::AdoptPermuted(std::shared_ptr<const Relation> base,
                                 const std::vector<int>& perm,
                                 std::shared_ptr<const Relation> canon,
                                 std::shared_ptr<const Trie> trie) {
  if (base == nullptr || canon == nullptr) {
    return Status::InvalidArgument("adopt needs a base and a payload");
  }
  if (static_cast<int>(perm.size()) != base->arity() ||
      canon->arity() != base->arity()) {
    return Status::InvalidArgument("adopt: permutation arity mismatch");
  }
  if (trie != nullptr &&
      (trie->arity() != base->arity() || trie->NumTuples() != canon->size())) {
    return Status::InvalidArgument("adopt: trie does not match payload");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const void* identity = base.get();
  {
    auto meta = std::make_shared<PermutedMeta>();
    meta->kind = PermutedMeta::kRows;
    meta->perm = perm;
    AdoptEntryLocked({identity, RowsSpec(perm)}, base, canon,
                     canon->SizeBytes(), std::move(meta));
  }
  if (trie != nullptr) {
    auto meta = std::make_shared<PermutedMeta>();
    meta->kind = PermutedMeta::kTrie;
    meta->perm = perm;
    AdoptEntryLocked({identity, TrieSpec(perm)}, base, trie,
                     trie->ResidentBytes(), std::move(meta));
  }
  EnforceBudgetLocked();
  return Status::OK();
}

void IndexCache::LinkDelta(const std::shared_ptr<const Relation>& prev,
                           const std::shared_ptr<const Relation>& next,
                           std::shared_ptr<const DeltaBatch> delta) {
  if (prev == nullptr || next == nullptr || delta == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  PatchRecord rec;
  rec.child = next;
  // Inherit `prev`'s own unconsumed sources first — prev may itself be
  // an unbound successor of an older version, in which case the two
  // deltas compose into one net delta per payload.
  auto pit = patches_.find(prev.get());
  if (pit != patches_.end()) {
    if (auto live = pit->second.child.lock(); live == prev) {
      for (auto& [perm, src] : pit->second.by_perm) {
        auto net = std::make_shared<DeltaBatch>(
            ComposeDelta(*src.delta, *delta));
        // Payload and trie both describe the ORIGINAL version, so the
        // composed net delta applies to either.
        PatchSource& inherited = rec.by_perm[perm];
        inherited = PatchSource{src.payload, net, src.trie, src.shards};
        for (auto& [spec, shard] : inherited.shards) {
          shard.delta = shard.delta == src.delta
                            ? net
                            : std::make_shared<DeltaBatch>(
                                  ComposeDelta(*shard.delta, *delta));
        }
      }
    }
    patches_.erase(pit);
  }
  // Fresh sources from every canonical payload (and its trie) of
  // `prev` currently resident; these supersede inherited ones (one
  // delta, not two).
  for (const auto& [key, entry] : entries_) {
    if (key.first != prev.get() || !entry->ready ||
        entry->meta == nullptr) {
      continue;
    }
    if (entry->meta->kind == PermutedMeta::kRows) {
      PatchSource& src = rec.by_perm[SpecJoin(entry->meta->perm)];
      src.payload = std::static_pointer_cast<const Relation>(entry->artifact);
      src.delta = delta;
      src.trie = nullptr;  // reset an inherited trie: set below if resident
      src.shards.clear();
    }
  }
  for (const auto& [key, entry] : entries_) {
    if (key.first != prev.get() || !entry->ready ||
        entry->meta == nullptr ||
        entry->meta->kind != PermutedMeta::kTrie) {
      continue;
    }
    const std::string perm = SpecJoin(entry->meta->perm);
    auto sit = rec.by_perm.find(perm);
    PatchSource* src = nullptr;
    if (sit != rec.by_perm.end() && sit->second.delta == delta) {
      // Attach only to a fresh source (same delta): an inherited one
      // carries the older version's trie, not this entry.
      src = &sit->second;
    } else if (sit == rec.by_perm.end()) {
      // Trie resident without its rows payload (evicted): the trie
      // layer can still patch even though the rows layer rebuilds.
      src = &rec.by_perm[perm];
      src->delta = delta;
    }
    if (src == nullptr) continue;
    src->trie = std::static_pointer_cast<const Trie>(entry->artifact);
    // Its shards: the artifacts resident under the trie's identity.
    // Shard sources the trie itself holds from its own patch and no
    // shuffle consumed are not carried on: a spec nobody reran since
    // the last write rebuilds, so a source never outlives two writes.
    for (auto it = entries_.lower_bound(Key{src->trie.get(), std::string()});
         it != entries_.end() && it->first.first == src->trie.get(); ++it) {
      if (it->second->ready && it->second->meta == nullptr) {
        src->shards[it->first.second] =
            ShardSource{it->second->artifact, delta, entry->meta->perm};
      }
    }
  }
  if (!rec.by_perm.empty()) patches_[next.get()] = std::move(rec);
}

std::optional<IndexCache::ShardSource> IndexCache::TakeShardSource(
    const std::shared_ptr<const Trie>& trie, const std::string& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shard_patches_.find(trie.get());
  if (it == shard_patches_.end() || it->second.child.lock() != trie) {
    return std::nullopt;
  }
  auto sit = it->second.by_spec.find(spec);
  if (sit == it->second.by_spec.end()) return std::nullopt;
  ShardSource out = std::move(sit->second);
  it->second.by_spec.erase(sit);
  if (it->second.by_spec.empty()) shard_patches_.erase(it);
  return out;
}

bool IndexCache::PeekPatchSource(const std::shared_ptr<const Relation>& base,
                                 const std::vector<int>& perm,
                                 PatchSource* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = patches_.find(base.get());
  if (it == patches_.end()) return false;
  // ABA guard: honor the record only for the relation it was made for.
  if (it->second.child.lock() != base) return false;
  auto pit = it->second.by_perm.find(SpecJoin(perm));
  if (pit == it->second.by_perm.end()) return false;
  *out = pit->second;
  return true;
}

void IndexCache::ConsumePatchSource(const void* identity,
                                    const std::vector<int>& perm,
                                    uint64_t merged_rows) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.delta_rows_merged += merged_rows;
  auto it = patches_.find(identity);
  if (it == patches_.end()) return;
  auto pit = it->second.by_perm.find(SpecJoin(perm));
  if (pit == it->second.by_perm.end()) return;
  pit->second.payload.reset();
  if (pit->second.trie == nullptr) it->second.by_perm.erase(pit);
  if (it->second.by_perm.empty()) patches_.erase(it);
}

void IndexCache::ConsumeTriePatchSource(
    const void* identity, const std::vector<int>& perm,
    const std::shared_ptr<const Trie>& successor) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = patches_.find(identity);
  if (it == patches_.end()) return;
  auto pit = it->second.by_perm.find(SpecJoin(perm));
  if (pit == it->second.by_perm.end()) return;
  if (successor != nullptr && !pit->second.shards.empty()) {
    shard_patches_[successor.get()] =
        ShardRecord{successor, std::move(pit->second.shards)};
  }
  pit->second.shards.clear();
  pit->second.trie.reset();
  if (pit->second.payload == nullptr) it->second.by_perm.erase(pit);
  if (it->second.by_perm.empty()) patches_.erase(it);
}

bool IndexCache::EntryIsPatched(const void* identity,
                                const std::string& spec) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(Key{identity, spec});
  return it != entries_.end() && it->second->ready && it->second->patched;
}

bool IndexCache::SweepOnceLocked() {
  // How many pins inside the cache share each source's control block:
  // a source is unreachable when the cache accounts for every one of
  // its remaining references.
  std::map<const void*, long> cache_pins;
  for (const auto& [key, entry] : entries_) {
    if (entry->ready) ++cache_pins[entry->pin.get()];
  }
  // Patch sources hold tries of older relation versions for
  // merge-on-read; that must not keep the shard entries pinned by
  // those tries alive.
  for (const auto& [identity, record] : patches_) {
    for (const auto& [perm, src] : record.by_perm) {
      if (src.trie != nullptr) ++cache_pins[src.trie.get()];
    }
  }
  bool dropped = false;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const Entry& e = *it->second;
    if (e.ready && e.pin.use_count() <= cache_pins[e.pin.get()]) {
      stats_.resident_bytes -= e.bytes;
      ++stats_.evictions;
      it = entries_.erase(it);
      dropped = true;
    } else {
      ++it;
    }
  }
  return dropped;
}

void IndexCache::Sweep() {
  std::lock_guard<std::mutex> lock(mu_);
  // Fixpoint: dropping a trie entry releases its artifact, which may
  // have been the last external reference pinning shard entries
  // derived from it — the next pass collects those.
  while (SweepOnceLocked()) {
  }
  // Patch records die with their successor relation, shard records
  // with their patched trie (their handles are what would otherwise
  // keep dead payloads and shards resident).
  std::erase_if(patches_,
                [](const auto& kv) { return kv.second.child.expired(); });
  std::erase_if(shard_patches_,
                [](const auto& kv) { return kv.second.child.expired(); });
}

void IndexCache::EnforceBudgetLocked() {
  if (budget_bytes_ == 0) return;
  while (stats_.resident_bytes > budget_bytes_) {
    // LRU among entries no consumer holds right now; evicting a held
    // artifact would not free memory anyway.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const Entry& e = *it->second;
      if (!e.ready || e.artifact.use_count() > 1) continue;
      if (victim == entries_.end() ||
          e.lru_tick < victim->second->lru_tick) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything is in use
    stats_.resident_bytes -= victim->second->bytes;
    ++stats_.evictions;
    entries_.erase(victim);
  }
}

void IndexCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, entry] : entries_) {
    if (entry->ready) {
      stats_.resident_bytes -= entry->bytes;
      ++stats_.evictions;
    }
  }
  entries_.clear();
  patches_.clear();
  shard_patches_.clear();
}

void IndexCache::EnforceBudget() {
  std::lock_guard<std::mutex> lock(mu_);
  EnforceBudgetLocked();
}

void IndexCache::set_budget_bytes(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_bytes_ = bytes;
  EnforceBudgetLocked();
}

uint64_t IndexCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.resident_bytes;
}

size_t IndexCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

IndexCache::Stats IndexCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.entries = entries_.size();
  out.mmap_entries = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry->ready && entry->mmap) ++out.mmap_entries;
  }
  return out;
}

}  // namespace adj::storage
