#include "dist/hcube.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "common/timer.h"
#include "storage/block_codec.h"
#include "storage/write_batch.h"

namespace adj::dist {
namespace {

namespace bc = storage::blockcodec;

/// Per-input routing plan: how each column's value fixes a cube
/// coordinate, and which coordinates stay free (duplication dims).
struct RoutePlan {
  /// (attr, share, stride) per bound column.
  struct BoundDim {
    AttrId attr;
    uint32_t share;
    uint64_t stride;
  };
  std::vector<BoundDim> bound;
  /// (share, stride) per unbound attribute with share > 1; attributes
  /// with share 1 contribute coordinate 0 and are skipped.
  std::vector<std::pair<uint32_t, uint64_t>> free_dims;
};

/// Simulates Push's arrival order: the interleaved record stream a
/// receiver collects is not sorted, so its local build must sort.
storage::Relation ScrambleRows(const storage::Relation& rel, uint64_t seed) {
  std::vector<uint64_t> idx(rel.size());
  std::iota(idx.begin(), idx.end(), uint64_t{0});
  Rng rng(seed);
  for (uint64_t i = idx.size(); i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.Uniform(i)]);
  }
  storage::Relation out(rel.schema());
  out.Reserve(rel.size());
  for (uint64_t i : idx) out.Append(rel.Row(i));
  return out;
}

/// Routes one relation to its destination servers. A tuple lands on
/// DupCubes(R, p) cubes; cubes collapse onto servers round-robin, and
/// a tuple is shipped at most once per server.
std::vector<storage::Relation> RouteInput(const storage::Relation& rel,
                                          const RoutePlan& plan,
                                          int num_servers) {
  std::vector<storage::Relation> blocks(size_t(num_servers),
                                        storage::Relation(rel.schema()));
  std::vector<uint64_t> seen(size_t(num_servers), 0);
  uint64_t tuple_stamp = 0;
  std::vector<uint32_t> coord(plan.free_dims.size());
  for (uint64_t row = 0; row < rel.size(); ++row) {
    const std::span<const Value> tuple = rel.Row(row);
    uint64_t base = 0;
    for (size_t c = 0; c < plan.bound.size(); ++c) {
      const RoutePlan::BoundDim& dim = plan.bound[c];
      base += uint64_t(AttributeHash(dim.attr, tuple[c], dim.share)) *
              dim.stride;
    }
    ++tuple_stamp;
    // Odometer over the free coordinates.
    std::fill(coord.begin(), coord.end(), 0u);
    while (true) {
      uint64_t cube = base;
      for (size_t d = 0; d < coord.size(); ++d) {
        cube += uint64_t(coord[d]) * plan.free_dims[d].second;
      }
      const size_t server = size_t(cube % uint64_t(num_servers));
      if (seen[server] != tuple_stamp) {
        seen[server] = tuple_stamp;
        blocks[server].Append(tuple);
      }
      size_t d = 0;
      for (; d < coord.size(); ++d) {
        if (++coord[d] < plan.free_dims[d].first) break;
        coord[d] = 0;
      }
      if (d == coord.size()) break;
    }
  }
  return blocks;
}

/// Block-codec size of one array of sorted runs: its wire size when
/// shipped in the storage layer's execution format.
uint64_t EncodedBytes(std::span<const Value> values) {
  bc::CompressedLevel level;
  bc::EncodeLevel(values, &level);
  return level.ResidentBytes();
}

/// Pull ships the sorted block column by column, each column
/// block-encoded.
uint64_t PullWireBytes(const storage::Relation& block) {
  std::vector<Value> column(block.size());
  uint64_t bytes = 0;
  for (int c = 0; c < block.arity(); ++c) {
    for (uint64_t r = 0; r < block.size(); ++r) column[r] = block.At(r, c);
    bytes += EncodedBytes(column);
  }
  return bytes;
}

/// Merge ships the trie's value and child-offset arrays, each
/// block-encoded; a level already compressed ships as it is resident,
/// so a raw trie and its Trie::Compress-ed form cost the same bytes.
uint64_t MergeWireBytes(const storage::Trie& trie) {
  uint64_t bytes = 0;
  for (int l = 0; l < trie.arity(); ++l) {
    bytes += trie.level_compressed(l)
                 ? bc::ViewResidentBytes(trie.CompressedView(l))
                 : EncodedBytes(trie.LevelSpan(l));
    if (l + 1 < trie.arity()) bytes += EncodedBytes(trie.ChildBeginSpan(l));
  }
  return bytes;
}

/// Wire bytes of shipping one server's fragment under `variant`: Push
/// sends raw records, Pull the encoded sorted block, Merge the encoded
/// trie arrays. An empty fragment ships nothing.
uint64_t WireBytes(HCubeVariant variant, const storage::Relation& block,
                   const storage::Trie& trie) {
  if (block.empty()) return 0;
  switch (variant) {
    case HCubeVariant::kPush:
      return block.SizeBytes();
    case HCubeVariant::kPull:
      return PullWireBytes(block);
    case HCubeVariant::kMerge:
      return MergeWireBytes(trie);
  }
  return 0;
}

/// Single-server shuffle outcome without building anything: with one
/// server every tuple of the (already canonical) input lands on that
/// server exactly once, so the shard fragment *is* the prepared
/// relation and its trie — alias them. Wire bytes are computed exactly
/// as BuildSharded would, so the modeled traffic is unchanged.
ShardedRelation AliasSingleServer(
    std::shared_ptr<const storage::Relation> rel,
    std::shared_ptr<const storage::Trie> trie, HCubeVariant variant) {
  ShardedRelation sharded;
  sharded.per_server.resize(1);
  ShardedRelation::Fragment& frag = sharded.per_server[0];
  frag.wire_bytes = WireBytes(variant, *rel, *trie);
  frag.block = std::move(rel);
  frag.trie = std::move(trie);
  return sharded;
}

/// Routes, canonicalizes, and index-builds one input end to end —
/// the expensive per-input work an IndexCache hit skips entirely.
/// `build_seconds` (size num_servers) receives each receiver's timed
/// local build work for this input.
ShardedRelation BuildSharded(const storage::Relation& rel,
                             const RoutePlan& plan, int num_servers,
                             HCubeVariant variant, size_t input_index,
                             std::vector<double>* build_seconds) {
  std::vector<storage::Relation> blocks = RouteInput(rel, plan, num_servers);
  ShardedRelation sharded;
  sharded.per_server.resize(size_t(num_servers));
  for (int s = 0; s < num_servers; ++s) {
    storage::Relation block = std::move(blocks[size_t(s)]);
    block.SortAndDedup();
    ShardedRelation::Fragment& frag = sharded.per_server[size_t(s)];
    storage::Trie trie;
    if (!block.empty()) {
      switch (variant) {
        case HCubeVariant::kPush: {
          // Records arrive interleaved: sort + dedup + build, timed.
          storage::Relation arrival =
              ScrambleRows(block, uint64_t(s) * 131 + input_index + 1);
          WallTimer timer;
          arrival.SortAndDedup();
          trie = storage::Trie::Build(arrival);
          (*build_seconds)[size_t(s)] += timer.Seconds();
          break;
        }
        case HCubeVariant::kPull: {
          // Sorted compressed blocks: verify order + build, no sort.
          WallTimer timer;
          block.IsSortedUnique();
          trie = storage::Trie::Build(block);
          (*build_seconds)[size_t(s)] += timer.Seconds();
          break;
        }
        case HCubeVariant::kMerge: {
          // Tries ship pre-built; the receiver adopts the arrays and
          // does no local build work (the sender-side build below is
          // not charged to the receiver's makespan).
          trie = storage::Trie::Build(block);
          break;
        }
      }
    }
    frag.wire_bytes = WireBytes(variant, block, trie);
    frag.block = std::make_shared<const storage::Relation>(std::move(block));
    frag.trie = std::make_shared<const storage::Trie>(std::move(trie));
  }
  return sharded;
}

/// The shards of an input after a write, from `prev`, its shards
/// before it: the delta's rows are permuted into the input's column
/// order and routed exactly like the input's own tuples (free
/// dimensions included). Each server the delta reaches merges its rows
/// into the old block and patches the old trie (Push and Pull
/// receivers are charged that work, Merge receivers adopt); every
/// other server keeps its fragment as it is. The result equals
/// BuildSharded over the new rows, fragment by fragment.
ShardedRelation PatchSharded(const ShardedRelation& prev,
                             const storage::DeltaBatch& delta,
                             const std::vector<int>& perm,
                             const storage::Schema& schema,
                             const RoutePlan& plan, int num_servers,
                             HCubeVariant variant,
                             std::vector<double>* build_seconds) {
  storage::Relation ins = delta.inserts.PermuteColumns(schema, perm);
  ins.SortAndDedup();
  storage::Relation del = delta.deletes.PermuteColumns(schema, perm);
  del.SortAndDedup();
  // Routing keeps each server's rows in input order, so they stay
  // sorted.
  const std::vector<storage::Relation> ins_at =
      RouteInput(ins, plan, num_servers);
  const std::vector<storage::Relation> del_at =
      RouteInput(del, plan, num_servers);
  ShardedRelation sharded = prev;
  for (int s = 0; s < num_servers; ++s) {
    const storage::Relation& si = ins_at[size_t(s)];
    const storage::Relation& sd = del_at[size_t(s)];
    if (si.empty() && sd.empty()) continue;
    ShardedRelation::Fragment& frag = sharded.per_server[size_t(s)];
    WallTimer timer;
    storage::Relation block(schema);
    storage::MergeDeltaRows(frag.block->raw(), schema.arity(), si.raw(),
                            sd.raw(), &block.mutable_raw());
    storage::Trie trie;
    if (!block.empty()) trie = storage::Trie::PatchFrom(*frag.trie, si, sd);
    if (variant != HCubeVariant::kMerge) {
      (*build_seconds)[size_t(s)] += timer.Seconds();
    }
    frag.wire_bytes = WireBytes(variant, block, trie);
    frag.block = std::make_shared<const storage::Relation>(std::move(block));
    frag.trie = std::make_shared<const storage::Trie>(std::move(trie));
  }
  return sharded;
}

}  // namespace

uint64_t ShardedRelation::Bytes() const {
  uint64_t bytes = 0;
  for (const Fragment& frag : per_server) {
    if (frag.block != nullptr) bytes += frag.block->SizeBytes();
    if (frag.trie != nullptr) {
      bytes += frag.trie->ResidentBytes();
    }
  }
  return bytes;
}

const char* HCubeVariantName(HCubeVariant variant) {
  switch (variant) {
    case HCubeVariant::kPush:
      return "Push";
    case HCubeVariant::kPull:
      return "Pull";
    case HCubeVariant::kMerge:
      return "Merge";
  }
  return "?";
}

StatusOr<HCubeResult> HCubeShuffle(const std::vector<HCubeInput>& inputs,
                                   const ShareVector& share,
                                   HCubeVariant variant, Cluster* cluster,
                                   storage::IndexCache* cache,
                                   storage::IndexBuildStats* build_stats) {
  if (cluster == nullptr || cluster->num_servers() < 1) {
    return Status::InvalidArgument("HCubeShuffle requires a cluster");
  }
  if (!share.Valid()) {
    return Status::InvalidArgument("invalid share vector " + share.ToString() +
                                   ": every share must be >= 1");
  }
  const int num_servers = cluster->num_servers();
  const size_t num_attrs = share.p.size();

  // Mixed-radix strides: cube = sum_a coord[a] * stride[a].
  std::vector<uint64_t> stride(num_attrs);
  uint64_t cubes = 1;
  for (size_t a = 0; a < num_attrs; ++a) {
    stride[a] = cubes;
    cubes *= share.p[a];
  }

  std::vector<RoutePlan> plans(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const HCubeInput& in = inputs[i];
    if (in.rel == nullptr) {
      return Status::InvalidArgument("HCubeInput with null relation");
    }
    if (int(in.attrs.size()) != in.rel->arity()) {
      return Status::InvalidArgument("HCubeInput attrs/arity mismatch");
    }
    AttrMask bound_mask = 0;
    for (AttrId attr : in.attrs) {
      if (attr < 0 || size_t(attr) >= num_attrs) {
        return Status::InvalidArgument(
            "atom attribute " + std::to_string(attr) +
            " outside share vector " + share.ToString());
      }
      plans[i].bound.push_back(
          {attr, share.p[size_t(attr)], stride[size_t(attr)]});
      bound_mask |= AttrMask(1) << attr;
    }
    for (size_t a = 0; a < num_attrs; ++a) {
      if ((bound_mask & (AttrMask(1) << a)) == 0 && share.p[a] > 1) {
        plans[i].free_dims.emplace_back(share.p[a], stride[a]);
      }
    }
  }

  // Resolve every input to its ShardedRelation — through the cache for
  // pinned inputs (building exactly once, reusing later), inline
  // otherwise. Local build time is charged only when this call did the
  // building: a warm run's receivers genuinely do no index work.
  std::vector<std::shared_ptr<const ShardedRelation>> sharded(inputs.size());
  std::vector<double> build_s(size_t(num_servers), 0.0);
  for (size_t i = 0; i < inputs.size(); ++i) {
    const HCubeInput& in = inputs[i];
    // Single-server alias: the fragment is the prepared index itself,
    // so nothing is routed, sorted, or built — reported as a reuse of
    // the pinned index (with mmap provenance if it was snapshot-loaded),
    // never as a build. Its kPull/kMerge wire bytes still go through
    // the cache so they are sized once per input; the cached artifact
    // keeps only those sizes, since an entry holding its own pin (the
    // trie) could never be swept.
    const bool alias_single =
        num_servers == 1 && in.shared_rel != nullptr &&
        in.shared_rel.get() == in.rel && in.trie != nullptr;
    if (cache != nullptr && in.trie != nullptr) {
      std::string spec = std::string("hcube:") + HCubeVariantName(variant) +
                         ":s=" + std::to_string(num_servers) +
                         ":p=" + share.ToString() + ":a=";
      for (size_t c = 0; c < in.attrs.size(); ++c) {
        if (c > 0) spec += ',';
        spec += std::to_string(in.attrs[c]);
      }
      StatusOr<std::shared_ptr<const void>> artifact = cache->GetOrBuild(
          in.trie.get(), spec, in.trie,
          [&]() -> StatusOr<storage::IndexCache::BuildResult> {
            // The input's trie was delta-patched from one whose shards
            // under this spec were resident: patch them too. (One
            // server's artifact holds wire sizes only; it re-aliases.)
            std::optional<storage::IndexCache::ShardSource> src =
                cache->TakeShardSource(in.trie, spec);
            if (src.has_value() && num_servers > 1) {
              auto patched = std::make_shared<ShardedRelation>(PatchSharded(
                  *std::static_pointer_cast<const ShardedRelation>(
                      src->artifact),
                  *src->delta, src->perm, in.rel->schema(), plans[i],
                  num_servers, variant, &build_s));
              storage::IndexCache::BuildResult result{patched,
                                                      patched->Bytes()};
              result.patched = true;
              return result;
            }
            auto built = std::make_shared<ShardedRelation>(
                alias_single
                    ? AliasSingleServer(in.shared_rel, in.trie, variant)
                    : BuildSharded(*in.rel, plans[i], num_servers, variant,
                                   i, &build_s));
            if (alias_single) {
              built->per_server[0].block.reset();
              built->per_server[0].trie.reset();
            }
            return storage::IndexCache::BuildResult{built, built->Bytes()};
          },
          alias_single ? nullptr : build_stats);
      if (!artifact.ok()) return artifact.status();
      sharded[i] = std::static_pointer_cast<const ShardedRelation>(*artifact);
      if (alias_single) {
        auto served = std::make_shared<ShardedRelation>(*sharded[i]);
        served->per_server[0].block = in.shared_rel;
        served->per_server[0].trie = in.trie;
        sharded[i] = std::move(served);
      }
    } else if (alias_single) {
      sharded[i] = std::make_shared<const ShardedRelation>(
          AliasSingleServer(in.shared_rel, in.trie, variant));
    } else {
      sharded[i] = std::make_shared<const ShardedRelation>(BuildSharded(
          *in.rel, plans[i], num_servers, variant, i, &build_s));
      if (build_stats != nullptr) ++build_stats->builds;
    }
    if (alias_single && build_stats != nullptr) {
      ++build_stats->hits;
      if (in.trie->mmap_backed()) ++build_stats->mmap_hits;
    }
  }

  // Assemble shards and account communication per variant. The comm
  // figures are derived from the (possibly cached) fragments, so cold
  // and warm shuffles report identical modeled traffic.
  cluster->ClearShards();
  HCubeResult result;
  const NetworkModel& net = cluster->config().net;
  for (int s = 0; s < num_servers; ++s) {
    LocalShard& shard = cluster->shard(s);
    shard.attrs.reserve(inputs.size());
    shard.atoms.reserve(inputs.size());
    shard.tries.reserve(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      const ShardedRelation::Fragment& frag =
          sharded[i]->per_server[size_t(s)];
      result.comm.tuple_copies += frag.block->size();
      if (!frag.block->empty()) {
        ++result.comm.blocks;
        result.comm.bytes += frag.wire_bytes;
      }
      shard.resident_bytes += frag.block->SizeBytes();
      shard.resident_bytes += frag.trie->ResidentBytes();
      shard.attrs.push_back(inputs[i].attrs);
      shard.atoms.push_back(frag.block);
      shard.tries.push_back(frag.trie);
      shard.wire_bytes.push_back(frag.wire_bytes);
    }
    result.build_seconds_sum += build_s[size_t(s)];
    result.build_seconds_max =
        std::max(result.build_seconds_max, build_s[size_t(s)]);
  }

  ADJ_RETURN_IF_ERROR(cluster->CheckMemory());

  result.comm.seconds =
      variant == HCubeVariant::kPush
          ? PushSeconds(net, result.comm.tuple_copies, result.comm.bytes,
                        num_servers)
          : PullSeconds(net, result.comm.blocks, result.comm.bytes,
                        num_servers);
  return result;
}

}  // namespace adj::dist
