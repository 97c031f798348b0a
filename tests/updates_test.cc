// Delta-aware update coverage: WriteBatch/Apply semantics (atomicity,
// per-name versions, tombstones of written rows), the MergeDeltaRows /
// ComposeDelta kernels against set oracles, and the randomized mixed
// read/write property suite — interleaved batches and prepared runs
// across all five strategies must match a rebuild-from-scratch oracle
// after every write. Runs under the ASan/UBSan leg like every test.
// (Snapshot round-trips of written-to catalogs live in persist_test.)
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "catalog_test_util.h"
#include "common/rng.h"
#include "core/spj.h"
#include "dataset/generators.h"
#include "storage/catalog.h"
#include "storage/trie.h"
#include "storage/write_batch.h"
#include "wcoj/naive_join.h"

namespace adj {
namespace {

using storage::Catalog;
using storage::DeltaBatch;
using storage::Relation;
using storage::Schema;
using storage::WriteBatch;

using Edge = std::pair<Value, Value>;

Schema EdgeSchema() { return Schema({0, 1}); }

Relation FromEdges(const std::set<Edge>& edges) {
  Relation rel(EdgeSchema());
  for (const auto& [a, b] : edges) rel.Append({a, b});
  return rel;
}

std::set<Edge> ToEdges(const Relation& rel) {
  std::set<Edge> out;
  for (uint64_t i = 0; i < rel.size(); ++i) {
    out.emplace(rel.Row(i)[0], rel.Row(i)[1]);
  }
  return out;
}

/// Ground truth for a query over an explicit edge set: a fresh catalog
/// built from scratch (no deltas, no caches) plus the naive evaluator.
uint64_t RebuildOracle(const std::set<Edge>& edges, const std::string& text) {
  Catalog db;
  test::CreateRelation(&db, "G", FromEdges(edges));
  StatusOr<core::SpjQuery> spj = core::ParseSpj(text);
  EXPECT_TRUE(spj.ok()) << spj.status();
  StatusOr<Relation> joined = wcoj::NaiveJoin(spj->join, db);
  EXPECT_TRUE(joined.ok()) << joined.status();
  return joined.ok() ? joined->size() : 0;
}

// ---------------------------------------------------------------------------
// WriteBatch / Catalog::Apply semantics

TEST(WriteBatchTest, ApplyIsAtomic) {
  Catalog db;
  test::CreateRelation(&db, "G", FromEdges({{1, 2}, {2, 3}}));
  const uint64_t version = db.VersionOf("G");

  // Valid prefix + invalid tail: nothing may stick.
  WriteBatch batch;
  batch.Insert("G", {7, 8});
  batch.Insert("G", {9});  // arity mismatch
  EXPECT_FALSE(db.Apply(batch).ok());
  EXPECT_EQ(db.VersionOf("G"), version);
  EXPECT_EQ(ToEdges(**db.Get("G")), (std::set<Edge>{{1, 2}, {2, 3}}));

  WriteBatch missing;
  missing.Insert("NoSuch", {1, 2});
  EXPECT_FALSE(db.Apply(missing).ok());
  EXPECT_EQ(db.VersionOf("G"), version);
  EXPECT_EQ(db.VersionOf("NoSuch"), 0u);
}

TEST(WriteBatchTest, VersionsBumpOnlyWrittenNames) {
  Catalog db;
  test::CreateRelation(&db, "G", FromEdges({{1, 2}}));
  test::CreateRelation(&db, "H", FromEdges({{3, 4}}));
  const uint64_t g_version = db.VersionOf("G");
  const uint64_t h_version = db.VersionOf("H");

  WriteBatch batch;
  batch.Insert("H", {5, 6});
  ASSERT_TRUE(db.Apply(batch).ok());
  EXPECT_EQ(db.VersionOf("G"), g_version);
  EXPECT_GT(db.VersionOf("H"), h_version);
  EXPECT_EQ(db.VersionOf("absent"), 0u);
}

TEST(WriteBatchTest, ContentNoOpWriteKeepsVersion) {
  Catalog db;
  test::CreateRelation(&db, "G", FromEdges({{1, 2}, {2, 3}}));
  const uint64_t version = db.VersionOf("G");

  // Inserting a present tuple and deleting an absent one change no
  // content; the relation must still read as unwritten so caches over
  // it stay fresh.
  WriteBatch batch;
  batch.Insert("G", {1, 2});
  batch.Delete("G", {100, 200});
  ASSERT_TRUE(db.Apply(batch).ok());
  EXPECT_EQ(db.VersionOf("G"), version);
  EXPECT_EQ(ToEdges(**db.Get("G")), (std::set<Edge>{{1, 2}, {2, 3}}));
}

TEST(WriteBatchTest, TombstoneOfADeltaRow) {
  Catalog db;
  test::CreateRelation(&db, "G", FromEdges({{1, 2}}));

  // {5,6} only ever exists because a write added it; the later
  // tombstone must remove it from the next version.
  WriteBatch add;
  add.Insert("G", {5, 6});
  ASSERT_TRUE(db.Apply(add).ok());
  EXPECT_EQ(ToEdges(**db.Get("G")), (std::set<Edge>{{1, 2}, {5, 6}}));

  WriteBatch del;
  del.Delete("G", {5, 6});
  ASSERT_TRUE(db.Apply(del).ok());
  EXPECT_EQ(ToEdges(**db.Get("G")), (std::set<Edge>{{1, 2}}));

  // And the reverse order inside ONE batch: insert-then-tombstone of
  // the same tuple coalesces to a no-op for that tuple.
  WriteBatch both;
  both.Insert("G", {7, 8});
  both.Delete("G", {7, 8});
  ASSERT_TRUE(db.Apply(both).ok());
  EXPECT_EQ(ToEdges(**db.Get("G")), (std::set<Edge>{{1, 2}}));
}

// ---------------------------------------------------------------------------
// Merge kernels against set oracles

TEST(MergeDeltaRowsTest, MatchesSetOracleOnRandomInputs) {
  Rng rng(12021);
  for (int round = 0; round < 50; ++round) {
    const int arity = 1 + int(rng.Uniform(3));
    auto random_rel = [&](uint64_t rows) {
      Relation rel(Schema([&] {
        std::vector<AttrId> attrs(arity);
        for (int i = 0; i < arity; ++i) attrs[i] = i;
        return attrs;
      }()));
      for (uint64_t r = 0; r < rows; ++r) {
        std::vector<Value> tuple(arity);
        for (int c = 0; c < arity; ++c) tuple[c] = Value(rng.Uniform(12));
        rel.Append(tuple);
      }
      rel.SortAndDedup();
      return rel;
    };
    Relation base = random_rel(rng.Uniform(60));
    Relation inserts = random_rel(rng.Uniform(10));
    Relation deletes = random_rel(rng.Uniform(10));
    // Keep the two delta sides disjoint, as Catalog::Apply guarantees.
    {
      std::vector<Value> kept;
      for (uint64_t i = 0; i < deletes.size(); ++i) {
        std::span<const Value> row = deletes.Row(i);
        bool inserted = false;
        for (uint64_t j = 0; j < inserts.size(); ++j) {
          if (std::equal(row.begin(), row.end(), inserts.Row(j).begin())) {
            inserted = true;
            break;
          }
        }
        if (!inserted) kept.insert(kept.end(), row.begin(), row.end());
      }
      deletes.mutable_raw() = std::move(kept);
    }

    std::vector<Value> merged;
    storage::MergeDeltaRows(base.raw(), arity, inserts.raw(), deletes.raw(),
                            &merged);

    std::set<std::vector<Value>> oracle;
    auto rows_of = [&](const Relation& rel) {
      std::set<std::vector<Value>> out;
      for (uint64_t i = 0; i < rel.size(); ++i) {
        out.emplace(rel.Row(i).begin(), rel.Row(i).end());
      }
      return out;
    };
    oracle = rows_of(base);
    for (const auto& row : rows_of(deletes)) oracle.erase(row);
    for (const auto& row : rows_of(inserts)) oracle.insert(row);

    std::vector<Value> expect;
    for (const auto& row : oracle) {
      expect.insert(expect.end(), row.begin(), row.end());
    }
    EXPECT_EQ(merged, expect) << "round " << round << " arity " << arity;
  }
}

TEST(TriePatchTest, MatchesScratchBuildOnRandomDeltas) {
  Rng rng(4242);
  for (int round = 0; round < 80; ++round) {
    const int arity = 1 + int(rng.Uniform(3));
    std::vector<AttrId> attrs(arity);
    for (int i = 0; i < arity; ++i) attrs[i] = i;
    const Schema schema(attrs);
    auto random_row = [&](uint64_t domain) {
      std::vector<Value> row(arity);
      for (int c = 0; c < arity; ++c) row[c] = Value(rng.Uniform(domain));
      return row;
    };

    Relation base(schema);
    const uint64_t rows = rng.Uniform(80);
    for (uint64_t r = 0; r < rows; ++r) base.Append(random_row(9));
    base.SortAndDedup();

    // Deletes: a sample of real rows plus a couple of dangling ones
    // (absent rows -- PatchFrom must treat them as no-ops, matching
    // MergeDeltaRows). Inserts: random rows outside the delete set.
    Relation deletes(schema);
    for (uint64_t r = 0; r < base.size(); ++r) {
      if (rng.Uniform(4) == 0) {
        std::span<const Value> row = base.Row(r);
        deletes.Append(std::vector<Value>(row.begin(), row.end()));
      }
    }
    for (int i = 0; i < 2; ++i) deletes.Append(random_row(14));
    deletes.SortAndDedup();
    auto contains = [&](const Relation& rel, std::span<const Value> row) {
      for (uint64_t r = 0; r < rel.size(); ++r) {
        if (std::equal(row.begin(), row.end(), rel.Row(r).begin())) {
          return true;
        }
      }
      return false;
    };
    Relation inserts(schema);
    for (uint64_t i = rng.Uniform(12); i > 0; --i) {
      std::vector<Value> row = random_row(12);
      if (!contains(deletes, row)) inserts.Append(row);
    }
    inserts.SortAndDedup();

    std::vector<Value> merged_raw;
    storage::MergeDeltaRows(base.raw(), arity, inserts.raw(), deletes.raw(),
                            &merged_raw);
    Relation merged(schema);
    merged.mutable_raw() = std::move(merged_raw);

    const storage::Trie patched =
        storage::Trie::PatchFrom(storage::Trie::Build(base), inserts, deletes);
    const storage::Trie built = storage::Trie::Build(merged);
    ASSERT_EQ(patched.arity(), built.arity()) << "round " << round;
    ASSERT_EQ(patched.NumTuples(), built.NumTuples()) << "round " << round;
    for (int l = 0; l < built.arity(); ++l) {
      const auto pv = patched.LevelSpan(l), bv = built.LevelSpan(l);
      ASSERT_TRUE(std::equal(pv.begin(), pv.end(), bv.begin(), bv.end()))
          << "values differ at level " << l << " round " << round;
      const auto pk = patched.ChildBeginSpan(l), bk = built.ChildBeginSpan(l);
      ASSERT_TRUE(std::equal(pk.begin(), pk.end(), bk.begin(), bk.end()))
          << "child offsets differ at level " << l << " round " << round;
      EXPECT_EQ(patched.MaxRangeWidth(l), built.MaxRangeWidth(l))
          << "width differs at level " << l << " round " << round;
    }
  }
}

TEST(ComposeDeltaTest, CompositionEqualsSequentialApplication) {
  Rng rng(777);
  for (int round = 0; round < 30; ++round) {
    Catalog sequential;
    test::CreateRelation(&sequential, "G", dataset::ErdosRenyi(12, 30, rng));
    const std::set<Edge> start = ToEdges(**sequential.Get("G"));

    auto random_batch = [&] {
      WriteBatch batch;
      for (int i = 0; i < 4; ++i) {
        Value a = Value(rng.Uniform(12)), b = Value(rng.Uniform(12));
        if (rng.Uniform(2) == 0) {
          batch.Insert("G", {a, b});
        } else {
          batch.Delete("G", {a, b});
        }
      }
      return batch;
    };
    WriteBatch first = random_batch();
    WriteBatch second = random_batch();
    ASSERT_TRUE(sequential.Apply(first).ok());
    ASSERT_TRUE(sequential.Apply(second).ok());

    // ComposeDelta is exercised through the catalog: two chained
    // batches against one relation produce the same content as the
    // composed net delta the index cache patches with (checked against
    // the sequential result via a third, batch-merged application).
    Catalog merged;
    test::CreateRelation(&merged, "G", FromEdges(start));
    ASSERT_TRUE(merged.Apply(first).ok());
    ASSERT_TRUE(merged.Apply(second).ok());
    EXPECT_EQ(ToEdges(**merged.Get("G")), ToEdges(**sequential.Get("G")));

    // And the kernel directly: compose two random DeltaBatches, apply
    // once, compare with applying them one after the other.
    auto delta_of = [&](int rows) {
      DeltaBatch d;
      d.inserts = Relation(EdgeSchema());
      d.deletes = Relation(EdgeSchema());
      for (int i = 0; i < rows; ++i) {
        Value a = Value(rng.Uniform(10)), b = Value(rng.Uniform(10));
        if (rng.Uniform(2) == 0) {
          d.inserts.Append({a, b});
        } else {
          d.deletes.Append({a, b});
        }
      }
      d.inserts.SortAndDedup();
      d.deletes.SortAndDedup();
      // Disjoint sides, as the catalog maintains.
      std::set<Edge> ins = ToEdges(d.inserts);
      Relation deletes(EdgeSchema());
      for (const auto& [a, b] : ToEdges(d.deletes)) {
        if (ins.find({a, b}) == ins.end()) deletes.Append({a, b});
      }
      d.deletes = std::move(deletes);
      return d;
    };
    DeltaBatch a = delta_of(3 + int(rng.Uniform(4)));
    DeltaBatch b = delta_of(3 + int(rng.Uniform(4)));
    Relation base = FromEdges(start);
    base.SortAndDedup();

    std::vector<Value> step1, step2;
    storage::MergeDeltaRows(base.raw(), 2, a.inserts.raw(), a.deletes.raw(),
                            &step1);
    storage::MergeDeltaRows(step1, 2, b.inserts.raw(), b.deletes.raw(),
                            &step2);

    DeltaBatch net = storage::ComposeDelta(a, b);
    std::vector<Value> direct;
    storage::MergeDeltaRows(base.raw(), 2, net.inserts.raw(),
                            net.deletes.raw(), &direct);
    EXPECT_EQ(direct, step2) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Randomized mixed read/write property suite

constexpr const char* kStrategies[] = {"ADJ", "HCubeJ", "HCubeJ+Cache",
                                       "SparkSQL", "BigJoin"};

TEST(UpdatePropertyTest, MixedReadsAndWritesMatchRebuildOracle) {
  Rng rng(20260808);
  api::Database db;
  db.AddRelation("G", dataset::ErdosRenyi(25, 90, rng));
  std::set<Edge> mirror = ToEdges(**db.catalog().Get("G"));

  api::Session session = db.OpenSession();
  session.options().num_samples = 64;
  session.options().cluster.num_servers = 2;

  const std::string kPath = "G(a,b) G(b,c)";
  const std::string kTriangle = "G(a,b) G(b,c) G(a,c)";
  StatusOr<api::PreparedQuery> prepared = session.Prepare(kPath);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  for (int round = 0; round < 6; ++round) {
    // A random batch: mostly fresh inserts, some tombstones — biased
    // toward rows added by *earlier* batches so tombstone-of-delta-row
    // paths run every round.
    WriteBatch batch;
    const int ops = 1 + int(rng.Uniform(5));
    for (int i = 0; i < ops; ++i) {
      const uint64_t kind = rng.Uniform(3);
      if (kind < 2 || mirror.empty()) {
        const Value a = Value(rng.Uniform(25) + (round + 1) * 100);
        const Value b = Value(rng.Uniform(25) + (round + 1) * 100);
        batch.Insert("G", {a, b});
        mirror.insert({a, b});
      } else {
        auto victim = mirror.begin();
        std::advance(victim, rng.Uniform(mirror.size()));
        batch.Delete("G", {victim->first, victim->second});
        mirror.erase(victim);
      }
    }
    ASSERT_TRUE(db.Apply(batch).ok());
    ASSERT_EQ(ToEdges(**db.catalog().Get("G")), mirror)
        << "round " << round;

    // Rebuild-from-scratch oracle after every write...
    const uint64_t path_oracle = RebuildOracle(mirror, kPath);
    const uint64_t triangle_oracle = RebuildOracle(mirror, kTriangle);

    // ...against all five strategies (cold session runs)...
    for (const char* strategy : kStrategies) {
      api::Result r = session.Run(kPath, strategy);
      ASSERT_TRUE(r.ok()) << strategy << ": " << r.status();
      EXPECT_EQ(r.count(), path_oracle)
          << strategy << " diverged at round " << round;
    }
    api::Result triangle = session.Run(kTriangle);
    ASSERT_TRUE(triangle.ok()) << triangle.status();
    EXPECT_EQ(triangle.count(), triangle_oracle) << "round " << round;

    // ...and against the delta-refreshed prepared query (merge-on-read
    // instead of re-plan: the staleness check + Reprepare is exactly
    // what serve::Server does between writes).
    EXPECT_FALSE(session.IsFresh(*prepared));
    StatusOr<api::PreparedQuery> refreshed = session.Reprepare(*prepared);
    ASSERT_TRUE(refreshed.ok()) << refreshed.status();
    prepared = std::move(refreshed);
    api::Result via_prepared = prepared->Run();
    ASSERT_TRUE(via_prepared.ok()) << via_prepared.status();
    EXPECT_EQ(via_prepared.count(), path_oracle)
        << "prepared rerun diverged at round " << round;
    EXPECT_TRUE(session.IsFresh(*prepared));
    EXPECT_EQ(via_prepared.index_builds(), 0u)
        << "a delta refresh must patch, not rebuild, at round " << round;
  }
}

}  // namespace
}  // namespace adj
