// Coverage for the shared index layer: the storage::IndexCache's
// pointer-identity contract, write-driven invalidation, the
// single-flight build guarantee, and the end-to-end "a prepared
// query's second run builds zero indexes" acceptance — pinned here at
// cache-stats level, unreachable from the api-level suites.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "api/api.h"
#include "catalog_test_util.h"
#include "common/rng.h"
#include "core/engine.h"
#include "dataset/generators.h"
#include "dist/hcube.h"
#include "exec/hcubej.h"
#include "query/query.h"
#include "storage/catalog.h"
#include "storage/index_cache.h"
#include "wcoj/leapfrog.h"

namespace adj::storage {
namespace {

Relation SmallGraph(uint64_t seed, uint64_t nodes = 30,
                    uint64_t edges = 150) {
  Rng rng(seed);
  return dataset::ErdosRenyi(nodes, edges, rng);
}

std::vector<int> IdentityPerm(const Relation& rel) {
  std::vector<int> perm(size_t(rel.arity()));
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = int(i);
  return perm;
}

TEST(IndexCacheTest, HitReturnsPointerIdenticalIndex) {
  Catalog db;
  test::CreateRelation(&db, "G", SmallGraph(1));
  std::shared_ptr<const Relation> base = *db.GetShared("G");

  auto first = db.index_cache().GetPermuted(base, IdentityPerm(*base));
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = db.index_cache().GetPermuted(base, IdentityPerm(*base));
  ASSERT_TRUE(second.ok()) << second.status();

  // The trie and the rows payload are the same objects.
  EXPECT_EQ(first->trie.get(), second->trie.get());
  EXPECT_EQ(first->rel->RowsIdentity(), second->rel->RowsIdentity());
  EXPECT_TRUE(first->rel->IsSortedUnique());
  EXPECT_EQ(first->trie->NumTuples(), first->rel->size());

  // Two physical entries: the first call builds the rows and the trie
  // over them; the second call hits both.
  IndexCache::Stats stats = db.index_cache().stats();
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(IndexCacheTest, LabelingsOfOnePermutationSharePayload) {
  Catalog db;
  test::CreateRelation(&db, "G", SmallGraph(15));
  std::shared_ptr<const Relation> base = *db.GetShared("G");
  const std::vector<int> rank = wcoj::AscendingRank(3);

  // Two attribute labelings of the same physical permutation — the
  // triangle query's G(a,b) / G(b,c) pattern.
  auto first =
      wcoj::PrepareRelationShared(base, {0, 1}, rank, db.index_cache());
  ASSERT_TRUE(first.ok()) << first.status();
  const uint64_t bytes_one_labeling = db.index_cache().resident_bytes();
  auto second =
      wcoj::PrepareRelationShared(base, {1, 2}, rank, db.index_cache());
  ASSERT_TRUE(second.ok()) << second.status();

  // Distinct labels, one physical payload: the trie pointer and the
  // row buffer are shared, and the second labeling adds no entry and
  // zero resident bytes.
  EXPECT_EQ(first->index.trie.get(), second->index.trie.get());
  EXPECT_EQ(first->rel().RowsIdentity(), second->rel().RowsIdentity());
  EXPECT_EQ(first->rel().schema().ToString(), "(a,b)");
  EXPECT_EQ(second->rel().schema().ToString(), "(b,c)");
  EXPECT_EQ(db.index_cache().resident_bytes(), bytes_one_labeling);
  EXPECT_EQ(db.index_cache().size(), 2u);
}

TEST(IndexCacheTest, RebindsOfAResidentPermutationReportHits) {
  Catalog db;
  test::CreateRelation(&db, "G", SmallGraph(17));
  std::shared_ptr<const Relation> base = *db.GetShared("G");
  const std::vector<int> rank = wcoj::AscendingRank(3);

  IndexBuildStats cold;
  ASSERT_TRUE(
      wcoj::PrepareRelationShared(base, {0, 1}, rank, db.index_cache(), &cold)
          .ok());
  EXPECT_EQ(cold.builds, 1u);
  EXPECT_EQ(cold.hits, 0u);

  // A second labeling of the permutation builds nothing...
  IndexBuildStats relabeled;
  ASSERT_TRUE(wcoj::PrepareRelationShared(base, {1, 2}, rank,
                                          db.index_cache(), &relabeled)
                  .ok());
  EXPECT_EQ(relabeled.hits, 1u);
  EXPECT_EQ(relabeled.builds, 0u);

  // ...and neither does a trie-less bind of its resident rows.
  IndexBuildStats rows_only;
  auto rows = wcoj::PrepareRelationRowsShared(base, {0, 2}, rank,
                                              db.index_cache(), &rows_only);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows_only.hits, 1u);
  EXPECT_EQ(rows_only.builds, 0u);
  EXPECT_EQ(rows->rel->schema().ToString(), "(a,c)");
  EXPECT_EQ(db.index_cache().stats().builds, 2u);
}

TEST(IndexCacheTest, TrieLessBindSharesRowsAndSkipsTrieBuild) {
  Catalog db;
  test::CreateRelation(&db, "G", SmallGraph(16));
  std::shared_ptr<const Relation> base = *db.GetShared("G");

  auto rel = db.index_cache().GetPermutedRelation(base, IdentityPerm(*base));
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_TRUE((*rel)->IsSortedUnique());
  // Only the rows layer exists — no trie was built for a
  // hash-join-only bind.
  EXPECT_EQ(db.index_cache().size(), 1u);
  const uint64_t rows_only_bytes = db.index_cache().resident_bytes();

  auto idx = db.index_cache().GetPermuted(base, IdentityPerm(*base));
  ASSERT_TRUE(idx.ok()) << idx.status();
  // The trie-backed bind reuses the same row payload and only then
  // pays for the trie.
  EXPECT_EQ((*rel)->RowsIdentity(), idx->rel->RowsIdentity());
  EXPECT_GT(db.index_cache().resident_bytes(), rows_only_bytes);
}

TEST(IndexCacheTest, DistinctColumnOrdersAreDistinctEntries) {
  Catalog db;
  test::CreateRelation(&db, "G", SmallGraph(2));
  std::shared_ptr<const Relation> base = *db.GetShared("G");

  auto forward = db.index_cache().GetPermuted(base, {0, 1});
  ASSERT_TRUE(forward.ok());
  // Reversed column order: same relation, different index.
  auto backward = db.index_cache().GetPermuted(base, {1, 0});
  ASSERT_TRUE(backward.ok());
  EXPECT_NE(forward->trie.get(), backward->trie.get());
  EXPECT_NE(forward->rel->RowsIdentity(), backward->rel->RowsIdentity());
  // Distinct permutations share nothing: two rows + trie pairs.
  EXPECT_EQ(db.index_cache().stats().builds, 4u);
}

TEST(IndexCacheTest, ReplacingARelationEvictsItsIndexes) {
  Catalog db;
  test::CreateRelation(&db, "G", SmallGraph(3));
  test::CreateRelation(&db, "H", SmallGraph(4));
  {
    std::shared_ptr<const Relation> g = *db.GetShared("G");
    std::shared_ptr<const Relation> h = *db.GetShared("H");
    ASSERT_TRUE(db.index_cache().GetPermuted(g, IdentityPerm(*g)).ok());
    ASSERT_TRUE(db.index_cache().GetPermuted(h, IdentityPerm(*h)).ok());
  }
  // Two physical entries (rows, trie) per relation.
  ASSERT_EQ(db.index_cache().size(), 4u);

  // Replacing G bumps its version and sweeps G's index; H's entries
  // survive pointer-identical.
  const Trie* h_before =
      db.index_cache()
          .GetPermuted(*db.GetShared("H"), IdentityPerm(**db.Get("H")))
          .value()
          .trie.get();
  const uint64_t g_version = db.VersionOf("G");
  const uint64_t h_version = db.VersionOf("H");
  test::CreateRelation(&db, "G", SmallGraph(5));
  EXPECT_GT(db.VersionOf("G"), g_version);
  EXPECT_EQ(db.VersionOf("H"), h_version);
  EXPECT_EQ(db.index_cache().size(), 2u);
  EXPECT_GE(db.index_cache().stats().evictions, 1u);
  const Trie* h_after =
      db.index_cache()
          .GetPermuted(*db.GetShared("H"), IdentityPerm(**db.Get("H")))
          .value()
          .trie.get();
  EXPECT_EQ(h_before, h_after);
}

TEST(IndexCacheTest, HeldIndexesSurviveReplacementUntilReleased) {
  Catalog db;
  test::CreateRelation(&db, "G", SmallGraph(6));
  std::shared_ptr<const Relation> base = *db.GetShared("G");
  auto held = db.index_cache().GetPermuted(base, IdentityPerm(*base));
  ASSERT_TRUE(held.ok());

  // A consumer (here: `base` + `held`, standing in for a prepared
  // ExecutionContext aliasing the relation) still references the old
  // G, so the entry must not be swept out from under it...
  test::CreateRelation(&db, "G", SmallGraph(7));
  EXPECT_EQ(db.index_cache().size(), 2u);

  // ...but once the last consumer lets go, the next write collects it.
  held = StatusOr<PreparedIndex>(Status::Internal("released"));
  base.reset();
  test::CreateRelation(&db, "X", SmallGraph(8));
  EXPECT_EQ(db.index_cache().size(), 0u);
}

// HCube shard entries are keyed and pinned on the bound index's cached
// trie, not on a bind's per-call alias: they survive across runs, and
// a replaced relation takes them along in the sweep — including the
// single-server entry, whose fragment is that trie itself.
TEST(IndexCacheTest, ShardEntriesAreSweptWithTheirRelation) {
  Catalog db;
  test::CreateRelation(&db, "G", SmallGraph(18, 40, 250));
  core::Engine engine(&db);
  query::Query q = *query::Query::Parse("G(a,b) G(b,c) G(a,c)");
  for (int servers : {1, 4}) {
    core::EngineOptions options;
    options.cluster.num_servers = servers;
    options.num_samples = 64;
    StatusOr<exec::RunReport> cold = engine.Run(q, "HCubeJ", options);
    ASSERT_TRUE(cold.ok()) << cold.status();
    StatusOr<exec::RunReport> warm = engine.Run(q, "HCubeJ", options);
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ(warm->index_builds, 0u) << servers << " servers";
  }
  // Rows and trie of the one permutation, plus the shard entries.
  EXPECT_GT(db.index_cache().size(), 2u);

  test::CreateRelation(&db, "G", SmallGraph(19));
  EXPECT_EQ(db.index_cache().size(), 0u);
  EXPECT_EQ(db.index_cache().resident_bytes(), 0u);
}

// A tuple write keeps the pre-write version's payload and trie only as
// the write's patch source for merge-on-read. The catalog no longer
// holds the pre-write relation, so the sweep drops its rows, trie and
// shard entries (patch sources count as the cache's own), and after a
// rerun the cache holds exactly one version's artifacts.
TEST(IndexCacheTest, PatchSourcesDoNotKeepShardEntriesAlive) {
  Catalog db;
  test::CreateRelation(&db, "G", SmallGraph(20, 40, 250));
  core::Engine engine(&db);
  query::Query q = *query::Query::Parse("G(a,b) G(b,c) G(a,c)");
  core::EngineOptions options;
  options.num_samples = 64;
  StatusOr<exec::RunReport> first = engine.Run(q, "HCubeJ", options);
  ASSERT_TRUE(first.ok()) << first.status();
  const size_t one_version = db.index_cache().size();
  ASSERT_GT(one_version, 2u);  // rows, trie and the shard entries

  for (Value v : {1000, 1002}) {
    const std::weak_ptr<const Relation> before = *db.GetShared("G");
    WriteBatch batch;
    batch.Insert("G", {v, v + 1});
    ASSERT_TRUE(db.Apply(batch).ok());
    // Nothing of the pre-write version is resident but the patch
    // source: the relation is freed and its entries are swept.
    EXPECT_TRUE(before.expired()) << "write " << v;
    EXPECT_EQ(db.index_cache().size(), 0u) << "write " << v;
    EXPECT_EQ(db.index_cache().resident_bytes(), 0u) << "write " << v;

    // The written version binds by patching that source and shuffles
    // into shard entries of its own: one version's worth again.
    StatusOr<exec::RunReport> patched = engine.Run(q, "HCubeJ", options);
    ASSERT_TRUE(patched.ok()) << patched.status();
    EXPECT_GT(patched->index_patched, 0u) << "write " << v;
    EXPECT_EQ(patched->output_count, first->output_count);
    EXPECT_EQ(db.index_cache().size(), one_version) << "write " << v;
  }
}

TEST(IndexCacheTest, ConcurrentLookupsBuildOnce) {
  Catalog db;
  test::CreateRelation(&db, "G", SmallGraph(9, 60, 400));
  std::shared_ptr<const Relation> base = *db.GetShared("G");

  constexpr int kThreads = 8;
  std::atomic<int> build_calls{0};
  std::atomic<const void*> first_artifact{nullptr};
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      auto artifact = db.index_cache().GetOrBuild(
          base.get(), "single-flight-test", base,
          [&]() -> StatusOr<IndexCache::BuildResult> {
            ++build_calls;
            // Give waiters time to pile onto the in-flight build.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            auto index = std::make_shared<PreparedIndex>();
            index->rel = base;
            index->trie =
                std::make_shared<const Trie>(Trie::Build(*base));
            return IndexCache::BuildResult{index, index->Bytes()};
          });
      if (!artifact.ok()) {
        mismatch = true;
        return;
      }
      const void* expected = nullptr;
      if (!first_artifact.compare_exchange_strong(expected,
                                                  artifact->get())) {
        if (expected != artifact->get()) mismatch = true;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(build_calls.load(), 1);
  EXPECT_FALSE(mismatch.load());
  IndexCache::Stats stats = db.index_cache().stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.hits, uint64_t(kThreads - 1));
}

TEST(IndexCacheTest, FailedBuildIsNotCachedAndRetries) {
  Catalog db;
  test::CreateRelation(&db, "G", SmallGraph(10));
  std::shared_ptr<const Relation> base = *db.GetShared("G");

  int calls = 0;
  auto failing = db.index_cache().GetOrBuild(
      base.get(), "retry-test", base,
      [&]() -> StatusOr<IndexCache::BuildResult> {
        ++calls;
        return Status::Internal("injected build failure");
      });
  EXPECT_FALSE(failing.ok());
  auto retried = db.index_cache().GetOrBuild(
      base.get(), "retry-test", base,
      [&]() -> StatusOr<IndexCache::BuildResult> {
        ++calls;
        auto index = std::make_shared<PreparedIndex>();
        index->rel = base;
        index->trie = std::make_shared<const Trie>(Trie::Build(*base));
        return IndexCache::BuildResult{index, index->Bytes()};
      });
  EXPECT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(db.index_cache().stats().build_failures, 1u);
}

TEST(IndexCacheTest, ByteBudgetEvictsUnreferencedLru) {
  Catalog db;
  test::CreateRelation(&db, "A", SmallGraph(11, 40, 300));
  test::CreateRelation(&db, "B", SmallGraph(12, 40, 300));
  std::shared_ptr<const Relation> a = *db.GetShared("A");
  std::shared_ptr<const Relation> b = *db.GetShared("B");

  auto idx_a = db.index_cache().GetPermuted(a, IdentityPerm(*a));
  ASSERT_TRUE(idx_a.ok());
  const uint64_t one_entry = db.index_cache().resident_bytes();
  ASSERT_GT(one_entry, 0u);
  idx_a = StatusOr<PreparedIndex>(Status::Internal("released"));

  // Budget for ~one entry: inserting B's index evicts A's (LRU, no
  // outside holder), keeping the cache within budget.
  db.index_cache().set_budget_bytes(one_entry + one_entry / 2);
  auto idx_b = db.index_cache().GetPermuted(b, IdentityPerm(*b));
  ASSERT_TRUE(idx_b.ok());
  EXPECT_LE(db.index_cache().resident_bytes(),
            one_entry + one_entry / 2);
  // A's pair was (at least partially) evicted to make room; B's rows
  // and trie are resident and usable.
  EXPECT_GE(db.index_cache().stats().evictions, 1u);
  EXPECT_LT(db.index_cache().size(), 4u);
  EXPECT_TRUE(idx_b->rel->IsSortedUnique());
}

}  // namespace
}  // namespace adj::storage

namespace adj {
namespace {

// The tentpole acceptance, asserted through the public facade: with a
// warm cache, a prepared query's second Run performs zero
// Trie::Build/SortAndDedup calls on base relations.
TEST(IndexReuseTest, PreparedSecondRunBuildsZeroIndexes) {
  Rng rng(13);
  api::Database db;
  db.AddRelation("G", dataset::ErdosRenyi(40, 250, rng));
  api::Session session = db.OpenSession();
  session.options().num_samples = 64;

  StatusOr<api::PreparedQuery> prepared =
      session.Prepare("G(a,b) G(b,c) G(a,c)");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  // Prepare pinned the bound-atom indexes and reported them in the
  // EXPLAIN rendering.
  EXPECT_NE(prepared->explanation().find("pinned indexes"),
            std::string::npos);
  EXPECT_GT(prepared->resident_bytes(), 0u);

  api::Result first = prepared->Run();
  ASSERT_TRUE(first.ok()) << first.status();
  // Run 1 reuses every bound-atom index (pinned at Prepare) but still
  // builds the per-server shard artifacts.
  EXPECT_GT(first.index_builds(), 0u);
  EXPECT_GT(first.index_reused(), 0u);

  for (int run = 2; run <= 3; ++run) {
    api::Result warm = prepared->Run();
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ(warm.index_builds(), 0u) << "run " << run;
    EXPECT_GT(warm.index_reused(), 0u) << "run " << run;
    EXPECT_EQ(warm.count(), first.count()) << "run " << run;
  }
}

// Direct (unprepared) repeat execution of the same query also reuses
// the catalog-level cache across Engine::Run calls.
TEST(IndexReuseTest, RepeatedDirectRunsReuseIndexes) {
  Rng rng(14);
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::ErdosRenyi(40, 250, rng));
  core::Engine engine(&db);
  query::Query q = *query::Query::Parse("G(a,b) G(b,c)");
  core::EngineOptions options;

  StatusOr<exec::RunReport> cold = engine.Run(q, "HCubeJ", options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_GT(cold->index_builds, 0u);
  StatusOr<exec::RunReport> warm = engine.Run(q, "HCubeJ", options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->index_builds, 0u);
  EXPECT_GT(warm->index_reused, 0u);
  EXPECT_EQ(warm->output_count, cold->output_count);
  // Modeled communication is identical cold and warm: the cache saves
  // computation, not modeled traffic.
  EXPECT_EQ(warm->comm.bytes, cold->comm.bytes);
  EXPECT_EQ(warm->comm.tuple_copies, cold->comm.tuple_copies);
}

}  // namespace
}  // namespace adj
