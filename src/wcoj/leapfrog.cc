#include "wcoj/leapfrog.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "common/timer.h"
#include "wcoj/intersect.h"

namespace adj::wcoj {

void JoinStats::Merge(const JoinStats& other) {
  if (tuples_at_level.size() < other.tuples_at_level.size()) {
    tuples_at_level.resize(other.tuples_at_level.size(), 0);
  }
  for (size_t i = 0; i < other.tuples_at_level.size(); ++i) {
    tuples_at_level[i] += other.tuples_at_level[i];
  }
  seeks += other.seeks;
  extensions += other.extensions;
  seconds += other.seconds;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  simd_intersections += other.simd_intersections;
  scalar_fallbacks += other.scalar_fallbacks;
  blocks_decoded += other.blocks_decoded;
}

const IntersectionCache::Entry* IntersectionCache::Lookup(uint64_t key) const {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

const IntersectionCache::Entry* IntersectionCache::Insert(uint64_t key,
                                                          Entry&& entry) {
  const uint64_t cost = entry.vals.size() + entry.idxs.size();
  if (stored_values_ + cost > capacity_) return nullptr;  // cache full: skip
  auto [it, inserted] = map_.emplace(key, std::move(entry));
  if (inserted) stored_values_ += cost;
  return &it->second;
}

void IntersectionCache::Clear() {
  map_.clear();
  stored_values_ = 0;
}

namespace {

using storage::Trie;

/// One (input, level) pair participating at an order position.
struct Participant {
  int input;  // index into inputs
  int level;  // trie level of this attribute within the input
};

class Executor {
 public:
  Executor(const std::vector<JoinInput>& inputs,
           const query::AttributeOrder& order, const EmitFn* emit,
           JoinStats* stats, const JoinLimits& limits,
           std::optional<Value> first_value, IntersectionCache* cache)
      : inputs_(inputs),
        order_(order),
        emit_(emit),
        stats_(stats),
        limits_(limits),
        first_value_(first_value),
        cache_(cache) {}

  StatusOr<uint64_t> Run() {
    const int n = static_cast<int>(order_.size());
    participants_.assign(n, {});
    for (int r = 0; r < static_cast<int>(inputs_.size()); ++r) {
      const JoinInput& in = inputs_[r];
      ADJ_CHECK(in.trie != nullptr);
      ADJ_CHECK(static_cast<int>(in.attrs.size()) == in.trie->arity());
      int prev_pos = -1;
      for (int l = 0; l < static_cast<int>(in.attrs.size()); ++l) {
        auto it = std::find(order_.begin(), order_.end(), in.attrs[l]);
        if (it == order_.end()) {
          return Status::InvalidArgument(
              "input attribute missing from attribute order");
        }
        const int pos = static_cast<int>(it - order_.begin());
        if (pos <= prev_pos) {
          return Status::InvalidArgument(
              "input trie levels not aligned with attribute order");
        }
        prev_pos = pos;
        participants_[pos].push_back({r, l});
      }
    }
    for (int i = 0; i < n; ++i) {
      if (participants_[i].empty()) {
        return Status::InvalidArgument(
            "attribute covered by no input (cartesian product)");
      }
    }
    if (stats_ != nullptr && stats_->tuples_at_level.size() < size_t(n)) {
      stats_->tuples_at_level.resize(n, 0);
    }
    indexes_.assign(inputs_.size(), {});
    for (size_t r = 0; r < inputs_.size(); ++r) {
      indexes_[r].assign(inputs_[r].attrs.size(), 0);
    }
    binding_.assign(n, 0);
    tuples_local_.assign(n, 0);
    BuildArena(n);
    timer_.Restart();
    Status st = Descend(0);
    FlushStats();
    if (!st.ok()) return st;
    return count_;
  }

 private:
  /// Preallocated per-order-position kernel workspace, carved out of
  /// the executor's flat arena at Run(): range and RunView views over
  /// the current sibling ranges, the intersection output (values + a
  /// row-major position matrix) and the k-way reduction scratch.
  /// Buffers for distinct positions are disjoint, so the recursion
  /// (iterate level i's result while descending into i+1) never
  /// clobbers live data — and steady-state Descend touches no heap.
  struct Slot {
    Trie::Range* ranges = nullptr;
    intersect::RunView* views = nullptr;
    Value* vals = nullptr;
    uint32_t* pos = nullptr;
    intersect::KScratch scratch;
    // Only carved when a participant level is block-compressed: one
    // persistent block-decode cache per participant, so compressed
    // runs flow through the kernels with no per-call allocation — and
    // consecutive Descends whose small sibling ranges share a block
    // decode it once, not per call.
    storage::blockcodec::DecodeCache* caches = nullptr;
    uint32_t cap = 0;  // min MaxRangeWidth over participants
  };

  /// Sizes the arena from the tries' per-level maximum sibling-range
  /// widths (recorded at Trie::Build — no index rescan here). The
  /// intersection at a position never exceeds its narrowest
  /// participant range, so cap = min over participants bounds every
  /// output. Value/position buffers are only carved where the
  /// streaming path materializes (k >= 2, uncached); cached mode owns
  /// its memory in cache entries and borrows only the scratch.
  void BuildArena(int n) {
    slots_.assign(n, Slot{});
    std::vector<size_t> parts_off(n), vals_off(n), pos_off(n), pa_off(n),
        pb_off(n), ord_off(n), bs_off(n);
    size_t total_parts = 0, total_vals = 0, total_u32 = 0, total_bs = 0;
    struct ArenaRef {
      const uint8_t* id;
      size_t vals_off;
      size_t bits_off;
      uint32_t num_blocks;
    };
    std::vector<ArenaRef> arenas;
    size_t total_arena_vals = 0, total_arena_bits = 0;
    for (int i = 0; i < n; ++i) {
      const std::vector<Participant>& parts = participants_[i];
      const size_t k = parts.size();
      uint32_t cap = std::numeric_limits<uint32_t>::max();
      bool any_compressed = false;
      for (const Participant& p : parts) {
        cap = std::min(cap, inputs_[p.input].trie->MaxRangeWidth(p.level));
      }
      slots_[i].cap = cap;
      parts_off[i] = total_parts;
      total_parts += k;
      // One decode arena per distinct compressed payload (a self-join
      // views the same trie level from several participants — size and
      // decode it once). Offsets into the flat storage below.
      for (const Participant& p : parts) {
        const Trie& trie = *inputs_[p.input].trie;
        if (!trie.level_compressed(p.level)) continue;
        any_compressed = true;
        const auto view = trie.CompressedView(p.level);
        const uint8_t* pay = view.bytes.data();
        bool seen = false;
        for (const ArenaRef& a : arenas) seen |= a.id == pay;
        if (seen) continue;
        const uint32_t nb = view.num_blocks();
        arenas.push_back({pay, total_arena_vals, total_arena_bits, nb});
        total_arena_vals += size_t(nb) * storage::blockcodec::kBlockValues;
        total_arena_bits += (size_t(nb) + 63) / 64;
      }
      const bool need_vals = cache_ == nullptr && k >= 2;
      vals_off[i] = total_vals;
      if (need_vals) total_vals += cap;
      pos_off[i] = total_u32;
      if (need_vals) total_u32 += size_t(cap) * k;
      pa_off[i] = total_u32;
      if (k >= 3) total_u32 += cap;
      pb_off[i] = total_u32;
      if (k >= 3) total_u32 += cap;
      ord_off[i] = total_u32;
      if (k >= 2) total_u32 += k;
      bs_off[i] = total_bs;
      if (any_compressed) total_bs += k;
    }
    range_storage_.assign(total_parts, {});
    view_storage_.assign(total_parts, {});
    vals_storage_.assign(total_vals, 0);
    u32_storage_.assign(total_u32, 0);
    decode_caches_.assign(total_bs, {});
    decode_arena_storage_.assign(total_arena_vals, 0);
    decode_bitmap_storage_.assign(total_arena_bits, 0);
    for (int i = 0; i < n; ++i) {
      Slot& s = slots_[i];
      s.ranges = range_storage_.data() + parts_off[i];
      s.views = view_storage_.data() + parts_off[i];
      s.vals = vals_storage_.data() + vals_off[i];
      s.pos = u32_storage_.data() + pos_off[i];
      s.scratch.pa = u32_storage_.data() + pa_off[i];
      s.scratch.pb = u32_storage_.data() + pb_off[i];
      s.scratch.ord = u32_storage_.data() + ord_off[i];
      s.caches = decode_caches_.data() + bs_off[i];
      // Bind each compressed participant's cache to its payload's
      // arena: the Descend loops revisit scattered sibling ranges of
      // the same level, so memoizing decoded blocks for the run is
      // what keeps direct-on-compressed intersection near raw speed.
      const std::vector<Participant>& parts = participants_[i];
      for (size_t j = 0; j < parts.size(); ++j) {
        const Participant& p = parts[j];
        const Trie& trie = *inputs_[p.input].trie;
        if (!trie.level_compressed(p.level)) continue;
        const uint8_t* pay = trie.CompressedView(p.level).bytes.data();
        for (const ArenaRef& a : arenas) {
          if (a.id != pay) continue;
          s.caches[j].arena_id = pay;
          s.caches[j].arena = decode_arena_storage_.data() + a.vals_off;
          s.caches[j].decoded = decode_bitmap_storage_.data() + a.bits_off;
          break;
        }
      }
    }
  }

  /// True when every block covering [lo, hi) (non-empty) is already
  /// decoded in the cache's bound arena.
  static bool RunDecoded(const storage::blockcodec::DecodeCache& c,
                         uint32_t lo, uint32_t hi) {
    namespace bc = storage::blockcodec;
    const uint32_t b1 = (hi - 1) / bc::kBlockValues;
    for (uint32_t b = lo / bc::kBlockValues; b <= b1; ++b) {
      if ((c.decoded[b >> 6] & (uint64_t{1} << (b & 63))) == 0) return false;
    }
    return true;
  }

  /// Sibling range of participant p at order position i, derived from
  /// its parent level's current index.
  Trie::Range RangeOf(const Participant& p) const {
    const Trie& trie = *inputs_[p.input].trie;
    if (p.level == 0) return trie.RootRange();
    return trie.ChildRange(p.level - 1, indexes_[p.input][p.level - 1]);
  }

  Status CheckLimits() {
    if (extensions_ > limits_.max_extensions) {
      return Status::ResourceExhausted("join exceeded extension budget");
    }
    if ((extensions_ & 0xFFF) == 0 && timer_.Seconds() > limits_.max_seconds) {
      return Status::DeadlineExceeded("join exceeded time budget");
    }
    return Status::OK();
  }

  /// Leapfrog extension at order position i: intersect the participant
  /// ranges through the kernel layer, then recurse per common value.
  Status Descend(int i) {
    const std::vector<Participant>& parts = participants_[i];
    const int k = static_cast<int>(parts.size());
    Slot& slot = slots_[i];

    // Materialize range + run views; bail out on any empty range.
    for (int j = 0; j < k; ++j) {
      const Participant& p = parts[j];
      const Trie& trie = *inputs_[p.input].trie;
      const Trie::Range r = RangeOf(p);
      if (r.empty()) return Status::OK();
      slot.ranges[j] = r;
      if (!trie.level_compressed(p.level)) {
        // Rebind the raw fields only: assigning a whole RunView also
        // rewrites its compressed-run payload, which measured ~20%
        // slower on plans made of many small raw Descends.
        slot.views[j].raw = trie.RangeSpan(p.level, r);
        slot.views[j].compressed = false;
      } else {
        // Once every block covering the run sits decoded in the
        // arena, the run is readable as a plain raw span at
        // arena + lo (non-final blocks are always full, so level
        // position p lives at arena[p]) — warm ranges then take the
        // raw kernel path and only cold ranges pay the
        // direct-on-compressed machinery (which fills the arena).
        const storage::blockcodec::DecodeCache& c = slot.caches[j];
        if (c.decoded != nullptr && RunDecoded(c, r.lo, r.hi)) {
          slot.views[j] = intersect::RunView::Raw(
              std::span<const Value>(c.arena + r.lo, r.hi - r.lo));
        } else {
          slot.views[j] = intersect::RunView::Compressed(
              {trie.CompressedView(p.level), r.lo, r.hi});
        }
      }
    }

    if (cache_ != nullptr) return DescendCached(i, parts, slot, k);

    if (i == 0 && first_value_.has_value()) {
      // Sampler mode: pin order[0] to *first_value_.
      const Value v = *first_value_;
      for (int j = 0; j < k; ++j) {
        const Participant& p = parts[j];
        const Trie& trie = *inputs_[p.input].trie;
        uint32_t idx = trie.FindInRange(p.level, slot.ranges[j], v);
        ++kernel_stats_.seeks;
        if (idx == slot.ranges[j].hi) return Status::OK();
        indexes_[p.input][p.level] = idx;
      }
      return Emit(i, v);
    }

    if (k == 1) {
      // Single participant: every sibling value extends the binding —
      // stream straight off the run, no materialization. Compressed
      // runs stream block by block through the slot's decode cache
      // rather than paying a per-value block decode via ValueAt.
      const Participant& p = parts[0];
      const intersect::RunView& v = slot.views[0];
      const Trie::Range r = slot.ranges[0];
      if (!v.compressed) {
        for (uint32_t t = 0; t < v.raw.size(); ++t) {
          indexes_[p.input][p.level] = r.lo + t;
          ADJ_RETURN_IF_ERROR(Emit(i, v.raw[t]));
        }
      } else {
        namespace bc = storage::blockcodec;
        bc::DecodeCache* const cache = slot.caches;
        const uint32_t bend = (r.hi - 1) / bc::kBlockValues;
        for (uint32_t blk = r.lo / bc::kBlockValues; blk <= bend; ++blk) {
          const uint32_t cnt = bc::DecodeBlockCached(
              v.comp.level, blk, cache, &kernel_stats_.blocks_decoded);
          const uint32_t base = blk * bc::kBlockValues;
          const uint32_t lo = std::max(r.lo, base);
          const uint32_t hi = std::min(r.hi, base + cnt);
          for (uint32_t idx = lo; idx < hi; ++idx) {
            indexes_[p.input][p.level] = idx;
            // Deeper levels use their own slots' caches, so the block
            // held here survives the recursion inside Emit.
            ADJ_RETURN_IF_ERROR(Emit(i, cache->vals[idx - base]));
          }
        }
      }
      return Status::OK();
    }

    const size_t kk = static_cast<size_t>(k);
    const size_t n =
        intersect::IntersectK(slot.views, k, slot.vals, slot.pos,
                              slot.scratch, slot.caches, &kernel_stats_);
    for (size_t t = 0; t < n; ++t) {
      for (int j = 0; j < k; ++j) {
        const Participant& p = parts[j];
        indexes_[p.input][p.level] = slot.ranges[j].lo + slot.pos[t * kk + j];
      }
      ADJ_RETURN_IF_ERROR(Emit(i, slot.vals[t]));
    }
    return Status::OK();
  }

  /// Cached variant: compute (or reuse) the full intersection at this
  /// position, then iterate it.
  Status DescendCached(int i, const std::vector<Participant>& parts,
                       Slot& slot, int k) {
    uint64_t key = HashCombine(0x9E3779B97F4A7C15ULL, uint64_t(i));
    for (int j = 0; j < k; ++j) {
      key = HashCombine(key, uint64_t(parts[j].input));
      key = HashCombine(key, slot.ranges[j].lo);
      key = HashCombine(key, slot.ranges[j].hi);
    }
    const IntersectionCache::Entry* entry = cache_->Lookup(key);
    IntersectionCache::Entry fresh;
    if (entry == nullptr) {
      ++cache_misses_;
      // Same kernels as the streaming path, materialized into the
      // entry's own buffers (the cache outlives this run's arena).
      const size_t kk = static_cast<size_t>(k);
      fresh.vals.resize(slot.cap);
      fresh.idxs.resize(size_t(slot.cap) * kk);
      const size_t n = intersect::IntersectK(
          slot.views, k, fresh.vals.data(), fresh.idxs.data(), slot.scratch,
          slot.caches, &kernel_stats_);
      fresh.vals.resize(n);
      fresh.idxs.resize(n * kk);
      fresh.vals.shrink_to_fit();
      fresh.idxs.shrink_to_fit();
      // Kernel positions are run-relative; the cache stores absolute
      // trie indexes (the key already encodes the ranges).
      for (size_t t = 0; t < n; ++t) {
        for (size_t j = 0; j < kk; ++j) {
          fresh.idxs[t * kk + j] += slot.ranges[j].lo;
        }
      }
      const IntersectionCache::Entry* stored =
          cache_->Insert(key, std::move(fresh));
      // Insert leaves `fresh` intact when the cache is full; otherwise
      // iterate the stored entry (unordered_map growth preserves
      // element addresses, and the cache never evicts).
      entry = stored != nullptr ? stored : &fresh;
    } else {
      ++cache_hits_;
    }
    const size_t num_vals = entry->vals.size();
    for (size_t t = 0; t < num_vals; ++t) {
      Value v = entry->vals[t];
      if (i == 0 && first_value_.has_value() && v != *first_value_) continue;
      for (int j = 0; j < k; ++j) {
        indexes_[parts[j].input][parts[j].level] = entry->idxs[t * k + j];
      }
      ADJ_RETURN_IF_ERROR(Emit(i, v));
    }
    return Status::OK();
  }

  /// Records the extension to value v at position i and recurses (or
  /// emits a full result tuple at the deepest position).
  Status Emit(int i, Value v) {
    binding_[i] = v;
    ++extensions_;
    ++tuples_local_[i];
    ADJ_RETURN_IF_ERROR(CheckLimits());
    if (i + 1 == static_cast<int>(order_.size())) {
      ++count_;
      if (emit_ != nullptr && *emit_) {
        (*emit_)(std::span<const Value>(binding_.data(), binding_.size()));
      }
      return Status::OK();
    }
    return Descend(i + 1);
  }

  /// One flush per Run — the inner loops tick local counters only, so
  /// the hot path carries no branches on an optional stats sink.
  void FlushStats() {
    if (stats_ == nullptr) return;
    stats_->seconds += timer_.Seconds();
    stats_->seeks += kernel_stats_.seeks;
    stats_->simd_intersections += kernel_stats_.simd_intersections;
    stats_->scalar_fallbacks += kernel_stats_.scalar_fallbacks;
    stats_->blocks_decoded += kernel_stats_.blocks_decoded;
    stats_->extensions += extensions_;
    stats_->cache_hits += cache_hits_;
    stats_->cache_misses += cache_misses_;
    for (size_t i = 0; i < tuples_local_.size(); ++i) {
      stats_->tuples_at_level[i] += tuples_local_[i];
    }
  }

  const std::vector<JoinInput>& inputs_;
  const query::AttributeOrder& order_;
  const EmitFn* emit_;
  JoinStats* stats_;
  const JoinLimits& limits_;
  std::optional<Value> first_value_;
  IntersectionCache* cache_;

  std::vector<std::vector<Participant>> participants_;  // per order pos
  std::vector<std::vector<uint32_t>> indexes_;  // per input per level
  std::vector<Value> binding_;
  // Arena backing store (sized once in BuildArena) and per-position
  // views into it.
  std::vector<Slot> slots_;
  std::vector<Trie::Range> range_storage_;
  std::vector<intersect::RunView> view_storage_;
  std::vector<Value> vals_storage_;
  std::vector<uint32_t> u32_storage_;
  std::vector<storage::blockcodec::DecodeCache> decode_caches_;
  std::vector<Value> decode_arena_storage_;
  std::vector<uint64_t> decode_bitmap_storage_;
  // Local counters, flushed once per Run.
  std::vector<uint64_t> tuples_local_;
  intersect::KernelStats kernel_stats_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t count_ = 0;
  uint64_t extensions_ = 0;
  WallTimer timer_;
};

}  // namespace

StatusOr<uint64_t> LeapfrogJoin(const std::vector<JoinInput>& inputs,
                                const query::AttributeOrder& order,
                                const EmitFn* emit, JoinStats* stats,
                                const JoinLimits& limits,
                                std::optional<Value> first_value,
                                IntersectionCache* cache) {
  if (inputs.empty()) return Status::InvalidArgument("no join inputs");
  Executor exec(inputs, order, emit, stats, limits, first_value, cache);
  return exec.Run();
}

StatusOr<PreparedRelation> PrepareRelation(
    const storage::Relation& base, const std::vector<AttrId>& atom_attrs,
    const std::vector<int>& rank) {
  if (base.arity() != static_cast<int>(atom_attrs.size())) {
    return Status::InvalidArgument("atom arity mismatch in PrepareRelation");
  }
  storage::Schema bound(atom_attrs);
  std::vector<int> perm;
  storage::Schema sorted = bound.SortedBy(rank, &perm);
  PreparedRelation out;
  out.rel = base.PermuteColumns(sorted, perm);
  out.rel.SortAndDedup();
  out.trie = storage::Trie::Build(out.rel);
  out.attrs = sorted.attrs();
  return out;
}

std::vector<int> AscendingRank(int num_attrs) {
  std::vector<int> rank(static_cast<size_t>(num_attrs));
  for (size_t a = 0; a < rank.size(); ++a) rank[a] = int(a);
  return rank;
}

StatusOr<SharedPreparedRelation> PrepareRelationShared(
    std::shared_ptr<const storage::Relation> base,
    const std::vector<AttrId>& atom_attrs, const std::vector<int>& rank,
    storage::IndexCache& cache, storage::IndexBuildStats* stats) {
  if (base == nullptr) {
    return Status::InvalidArgument("null base relation in PrepareRelation");
  }
  if (base->arity() != static_cast<int>(atom_attrs.size())) {
    return Status::InvalidArgument("atom arity mismatch in PrepareRelation");
  }
  storage::Schema bound(atom_attrs);
  std::vector<int> perm;
  storage::Schema sorted = bound.SortedBy(rank, &perm);
  StatusOr<std::shared_ptr<const storage::PreparedIndex>> index =
      cache.GetPermuted(std::move(base), sorted, perm, stats);
  if (!index.ok()) return index.status();
  SharedPreparedRelation out;
  out.index = std::move(index.value());
  out.attrs = sorted.attrs();
  return out;
}

StatusOr<SharedBoundRelation> PrepareRelationRowsShared(
    std::shared_ptr<const storage::Relation> base,
    const std::vector<AttrId>& atom_attrs, const std::vector<int>& rank,
    storage::IndexCache& cache, storage::IndexBuildStats* stats) {
  if (base == nullptr) {
    return Status::InvalidArgument("null base relation in PrepareRelation");
  }
  if (base->arity() != static_cast<int>(atom_attrs.size())) {
    return Status::InvalidArgument("atom arity mismatch in PrepareRelation");
  }
  storage::Schema bound(atom_attrs);
  std::vector<int> perm;
  storage::Schema sorted = bound.SortedBy(rank, &perm);
  StatusOr<std::shared_ptr<const storage::Relation>> rel =
      cache.GetPermutedRelation(std::move(base), sorted, perm, stats);
  if (!rel.ok()) return rel.status();
  SharedBoundRelation out;
  out.rel = std::move(rel.value());
  out.attrs = sorted.attrs();
  return out;
}

}  // namespace adj::wcoj
