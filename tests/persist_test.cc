// Persistence subsystem tests: snapshot round trips (relations, name
// aliases, warm index payloads, mapped tries), the corrupt-file error
// paths (truncation, bit flips, wrong magic/version/endianness/value
// width — every one a clean Status, never a crash; this file runs
// under the ASan/UBSan CI leg), budget-bounded adoption, and the
// randomized save→open→every-strategy equivalence property.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "api/api.h"
#include "catalog_test_util.h"
#include "common/rng.h"
#include "core/engine.h"
#include "persist/snapshot.h"
#include "query/query.h"
#include "storage/catalog.h"
#include "storage/trie.h"
#include "wcoj/leapfrog.h"
#include "wcoj/naive_join.h"

namespace adj {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
}

/// A small catalog with deliberately unsorted rows (catalog relations
/// are stored as-is; only index payloads are canonical) and an alias
/// name sharing the physical relation.
storage::Catalog MakeCatalog() {
  storage::Catalog db;
  storage::Relation edges((storage::Schema({0, 1})));
  edges.Append({5, 1});
  edges.Append({2, 9});
  edges.Append({2, 3});
  edges.Append({7, 7});
  test::CreateRelation(&db, "E", std::move(edges));
  EXPECT_TRUE(test::AliasRelation(&db, "E2", "E").ok());
  storage::Relation triple((storage::Schema({0, 1, 2})));
  triple.Append({1, 2, 3});
  triple.Append({1, 2, 4});
  test::CreateRelation(&db, "T", std::move(triple));
  return db;
}

/// A warmed api::Database: builtin graph, one prepared triangle query
/// executed once on a single server, so the index cache holds the
/// permuted rows and tries Save() persists.
api::Database MakeWarmDatabase(uint64_t* count) {
  api::Database db;
  EXPECT_TRUE(db.LoadBuiltin("AS", 0.15).ok());
  api::Session session = db.OpenSession();
  session.options().cluster.num_servers = 1;
  session.options().num_samples = 64;
  // Pin the cost model: on instrumented (sanitizer) builds the
  // measured seek rate can flip the plan to precompute, whose
  // materialized bag is heap-built — the warm-restart assertions
  // below need the plan to bind the base tries deterministically.
  session.options().beta_precomputed_override = 4e6;
  session.options().beta_raw_override = 4e6;
  StatusOr<api::PreparedQuery> prepared =
      session.Prepare("G(a,b) G(b,c) G(a,c)");
  EXPECT_TRUE(prepared.ok()) << prepared.status();
  api::Result r = prepared->Run();
  EXPECT_TRUE(r.ok()) << r.status();
  if (count != nullptr) *count = r.count();
  return db;
}

TEST(SnapshotRoundTrip, RelationsNamesAndAliases) {
  const std::string path = TempPath("roundtrip.adjsnap");
  storage::Catalog db = MakeCatalog();
  StatusOr<persist::WriteStats> written =
      persist::SnapshotWriter::Write(db, path);
  ASSERT_TRUE(written.ok()) << written.status();
  EXPECT_EQ(written->relations, 2u);  // E/E2 share one physical
  EXPECT_EQ(written->names, 3u);

  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  storage::Catalog loaded;
  StatusOr<persist::SnapshotReader::LoadStats> stats =
      reader->LoadInto(&loaded);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->names, 3u);

  for (const std::string& name : db.Names()) {
    StatusOr<const storage::Relation*> want = db.Get(name);
    StatusOr<const storage::Relation*> got = loaded.Get(name);
    ASSERT_TRUE(want.ok() && got.ok()) << name;
    EXPECT_EQ((*want)->schema().ToString(), (*got)->schema().ToString());
    EXPECT_TRUE(std::ranges::equal((*want)->raw(), (*got)->raw())) << name;
  }
  // The alias still shares its physical relation after the round trip.
  StatusOr<std::shared_ptr<const storage::Relation>> e = loaded.GetShared("E");
  StatusOr<std::shared_ptr<const storage::Relation>> e2 =
      loaded.GetShared("E2");
  ASSERT_TRUE(e.ok() && e2.ok());
  EXPECT_EQ((*e)->RowsIdentity(), (*e2)->RowsIdentity());
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, EmptyCatalog) {
  const std::string path = TempPath("empty.adjsnap");
  storage::Catalog db;
  ASSERT_TRUE(persist::SnapshotWriter::Write(db, path).ok());
  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_TRUE(reader->Verify().ok());
  storage::Catalog loaded;
  StatusOr<persist::SnapshotReader::LoadStats> stats =
      reader->LoadInto(&loaded);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(loaded.Names().empty());
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, WarmIndexesServeMmapLoaded) {
  const std::string path = TempPath("warm.adjsnap");
  uint64_t in_memory_count = 0;
  api::Database db = MakeWarmDatabase(&in_memory_count);
  ASSERT_TRUE(db.Save(path).ok());

  api::Database restarted;
  EXPECT_EQ(restarted.relation_version("G"), 0u);
  ASSERT_TRUE(restarted.Open(path).ok());
  EXPECT_GT(restarted.relation_version("G"), 0u);
  EXPECT_GT(restarted.catalog().index_cache().stats().mmap_entries, 0u);

  api::Session session = restarted.OpenSession();
  session.options().cluster.num_servers = 1;
  session.options().num_samples = 64;
  session.options().beta_precomputed_override = 4e6;
  session.options().beta_raw_override = 4e6;
  StatusOr<api::PreparedQuery> prepared =
      session.Prepare("G(a,b) G(b,c) G(a,c)");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  api::Result r = prepared->Run();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.count(), in_memory_count);
  EXPECT_EQ(r.index_builds(), 0u);
  EXPECT_GT(r.index_mmap_loaded(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, UnsavedLabelingBindsMmapLoaded) {
  // The snapshot stores payloads per (relation, permutation), not per
  // attribute labeling: a labeling nobody bound before the save binds
  // the mapped trie after Open without building anything.
  const std::string path = TempPath("labeling.adjsnap");
  storage::Catalog db = MakeCatalog();
  const std::vector<int> rank = wcoj::AscendingRank(3);
  ASSERT_TRUE(wcoj::PrepareRelationShared(*db.GetShared("E"), {0, 1}, rank,
                                          db.index_cache())
                  .ok());
  ASSERT_TRUE(persist::SnapshotWriter::Write(db, path).ok());

  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  storage::Catalog loaded;
  ASSERT_TRUE(reader->LoadInto(&loaded).ok());
  storage::IndexBuildStats stats;
  StatusOr<wcoj::SharedPreparedRelation> bound = wcoj::PrepareRelationShared(
      *loaded.GetShared("E"), {1, 2}, rank, loaded.index_cache(), &stats);
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.mmap_hits, 1u);
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_TRUE(bound->trie().mmap_backed());
  EXPECT_EQ(bound->rel().schema().ToString(), "(b,c)");
  EXPECT_EQ(bound->rel().size(), 4u);
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, MappedTriesAgreeWithBuild) {
  const std::string path = TempPath("tries.adjsnap");
  api::Database db = MakeWarmDatabase(nullptr);
  ASSERT_TRUE(db.Save(path).ok());

  api::Database restarted;
  ASSERT_TRUE(restarted.Open(path).ok());
  std::vector<storage::IndexCache::ExportedPayload> payloads =
      restarted.catalog().index_cache().ExportPermutedIndexes();
  ASSERT_FALSE(payloads.empty());
  size_t tries = 0;
  for (const auto& payload : payloads) {
    if (payload.trie == nullptr) continue;
    ++tries;
    EXPECT_TRUE(payload.trie->mmap_backed());
    ASSERT_NE(payload.rows, nullptr);
    // The mapped spans must describe exactly the trie a fresh build
    // over the same canonical rows produces — array for array.
    storage::Trie built = storage::Trie::Build(*payload.rows);
    EXPECT_EQ(payload.trie->NumTuples(), built.NumTuples());
    const int depth = payload.rows->arity();
    for (int level = 0; level < depth; ++level) {
      // Levels may be stored block-compressed (snapshot v3 maps them
      // in place); decoded content must match the fresh build exactly.
      std::vector<Value> mapped_vals;
      std::vector<Value> built_vals;
      payload.trie->DecodeLevelInto(level, &mapped_vals);
      built.DecodeLevelInto(level, &built_vals);
      EXPECT_TRUE(mapped_vals == built_vals) << "values, level " << level;
      if (level + 1 < depth) {
        EXPECT_TRUE(std::ranges::equal(payload.trie->ChildBeginSpan(level),
                                       built.ChildBeginSpan(level)))
            << "child offsets, level " << level;
      }
    }
  }
  EXPECT_GT(tries, 0u);
  std::remove(path.c_str());
}

uint64_t GetLittleEndian64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t(p[i]) << (8 * i);
  return v;
}

/// Checks that the snapshot `stats` describe (written from `catalog`
/// to `path`) is framing plus one copy of each artifact: beyond
/// raw_bytes only the header, footer, TOC, manifest, and at most 63
/// bytes of alignment padding in front of each segment — and raw_bytes
/// is one resident copy of what the catalog holds now: every name's
/// current relation and every index payload of those relations.
void ExpectOneCopyOfEachArtifact(const storage::Catalog& catalog,
                                 const std::string& path,
                                 const persist::WriteStats& stats) {
  const std::vector<uint8_t> bytes = ReadFile(path);
  ASSERT_EQ(bytes.size(), stats.file_bytes);
  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  uint64_t data_bytes = 0;
  uint64_t manifest_bytes = 0;
  for (const persist::SegmentInfo& seg : reader->segments()) {
    if (seg.kind == persist::SegmentKind::kManifest) {
      manifest_bytes += seg.size;
    } else {
      data_bytes += seg.size;
    }
  }
  EXPECT_EQ(data_bytes, stats.raw_bytes);
  std::set<const storage::Relation*> relations;
  uint64_t resident = 0;
  for (const std::string& name : catalog.Names()) {
    StatusOr<std::shared_ptr<const storage::Relation>> rel =
        catalog.GetShared(name);
    ASSERT_TRUE(rel.ok());
    if (relations.insert(rel->get()).second) resident += (*rel)->SizeBytes();
  }
  EXPECT_EQ(stats.relations, relations.size());
  for (const auto& p : catalog.index_cache().ExportPermutedIndexes()) {
    if (!relations.contains(static_cast<const storage::Relation*>(
            p.identity))) {
      continue;  // derived state (bags, shards) is not persisted
    }
    resident += p.rows->SizeBytes();
    if (p.trie != nullptr) resident += p.trie->ResidentBytes();
  }
  EXPECT_EQ(stats.raw_bytes, resident);
  const uint64_t toc_bytes =
      GetLittleEndian64(bytes.data() + bytes.size() - persist::kFooterSize + 8);
  const uint64_t framing = persist::kHeaderSize + persist::kFooterSize +
                           toc_bytes + manifest_bytes +
                           (persist::kSegmentAlign - 1) *
                               reader->segments().size();
  EXPECT_LE(stats.file_bytes - stats.raw_bytes, framing);
}

TEST(SnapshotRoundTrip, StoresEachArtifactOnce) {
  const std::string path = TempPath("single_copy.adjsnap");
  uint64_t in_memory_count = 0;
  api::Database db = MakeWarmDatabase(&in_memory_count);
  StatusOr<persist::WriteStats> stats =
      persist::SnapshotWriter::Write(db.catalog(), path);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->tries, 0u);
  EXPECT_GT(stats->compressed_levels, 0u);  // IndexCache compresses
  ExpectOneCopyOfEachArtifact(db.catalog(), path, *stats);

  api::Database restarted;
  ASSERT_TRUE(restarted.Open(path).ok());
  api::Session session = restarted.OpenSession();
  session.options().cluster.num_servers = 1;
  session.options().num_samples = 64;
  api::Result r = session.Run("G(a,b) G(b,c) G(a,c)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.count(), in_memory_count);
  std::remove(path.c_str());
}

/// Count of `text` over a fresh catalog holding a copy of `rel` under
/// "G": no writes, no caches, the naive evaluator.
uint64_t OracleCount(const storage::Relation& rel, const std::string& text) {
  storage::Catalog fresh;
  test::CreateRelation(&fresh, "G", rel);
  StatusOr<query::Query> q = query::Query::Parse(text);
  EXPECT_TRUE(q.ok()) << q.status();
  StatusOr<storage::Relation> joined = wcoj::NaiveJoin(*q, fresh);
  EXPECT_TRUE(joined.ok()) << joined.status();
  return joined.ok() ? joined->size() : 0;
}

TEST(SnapshotRoundTrip, WrittenCatalogStoresCurrentVersionOnce) {
  // A written-to catalog saves each name's current relation once: the
  // pre-write versions are gone from the catalog, so neither they nor
  // their indexes reach the file, and Save after the writes is no
  // bigger than one copy of what the catalog now holds.
  const std::string path = TempPath("written.adjsnap");
  const std::vector<std::string> texts = {"G(a,b) G(b,c)",
                                          "G(a,b) G(b,c) G(a,c)"};
  api::Database db = MakeWarmDatabase(nullptr);
  std::vector<uint64_t> versions = {db.relation_version("G")};
  for (int round = 0; round < 3; ++round) {
    const Value v = 1'000'000 + Value(2 * round);
    storage::WriteBatch batch;
    batch.Insert("G", {v, v + 1});
    batch.Insert("G", {v + 1, v + 2});
    if (round == 2) batch.Delete("G", {1'000'000, 1'000'001});
    ASSERT_TRUE(db.Apply(batch).ok());
    versions.push_back(db.relation_version("G"));
    ASSERT_GT(versions.back(), versions[versions.size() - 2]);
    // Rerun so the written version's indexes are resident when saved.
    api::Session session = db.OpenSession();
    session.options().cluster.num_servers = 1;
    session.options().num_samples = 64;
    api::Result r = session.Run(texts.back());
    ASSERT_TRUE(r.ok()) << r.status();
  }
  StatusOr<persist::WriteStats> stats =
      persist::SnapshotWriter::Write(db.catalog(), path);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->relations, 1u);
  EXPECT_EQ(stats->names, 1u);
  EXPECT_GT(stats->payloads, 0u);
  ExpectOneCopyOfEachArtifact(db.catalog(), path, *stats);

  const storage::Relation& live = **db.catalog().Get("G");
  api::Database restarted;
  ASSERT_TRUE(restarted.Open(path).ok());
  const storage::Relation& back = **restarted.catalog().Get("G");
  EXPECT_TRUE(back.is_alias());  // views the mapped file
  EXPECT_TRUE(std::ranges::equal(back.raw(), live.raw()));
  // Versions stay monotone across the reload and the next write.
  EXPECT_GT(restarted.relation_version("G"), versions.back());
  const uint64_t reopened_version = restarted.relation_version("G");
  storage::WriteBatch more;
  more.Insert("G", {2'000'000, 2'000'001});
  ASSERT_TRUE(restarted.Apply(more).ok());
  EXPECT_GT(restarted.relation_version("G"), reopened_version);

  api::Session session = restarted.OpenSession();
  session.options().num_samples = 64;
  for (const std::string& text : texts) {
    api::Result r = session.Run(text);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r.count(), OracleCount(**restarted.catalog().Get("G"), text))
        << text;
  }
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, DeepVerifyPasses) {
  const std::string path = TempPath("verify.adjsnap");
  api::Database db = MakeWarmDatabase(nullptr);
  ASSERT_TRUE(db.Save(path).ok());
  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_TRUE(reader->VerifyChecksums().ok());
  EXPECT_TRUE(reader->Verify().ok());
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, DeepVerifyRejectsUnsortedPayloadRows) {
  // Checksums only prove the bytes are the ones written; Verify also
  // proves a payload is servable. Adopt rows the join kernels cannot
  // gallop through (not sorted), save them with valid checksums, and
  // expect only the deep check to object.
  const std::string path = TempPath("unsorted_payload.adjsnap");
  storage::Catalog db = MakeCatalog();
  StatusOr<std::shared_ptr<const storage::Relation>> base = db.GetShared("E");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(db.index_cache()
                  .AdoptPermuted(*base, {0, 1}, *base, nullptr)
                  .ok());
  ASSERT_TRUE(persist::SnapshotWriter::Write(db, path).ok());
  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_TRUE(reader->VerifyChecksums().ok());
  const Status verified = reader->Verify();
  EXPECT_FALSE(verified.ok());
  EXPECT_NE(verified.ToString().find("sorted-unique"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, BudgetBoundedAdoption) {
  const std::string path = TempPath("budget.adjsnap");
  uint64_t in_memory_count = 0;
  api::Database db = MakeWarmDatabase(&in_memory_count);
  ASSERT_TRUE(db.Save(path).ok());

  // A budget far below the payload sizes: adoption must respect it
  // (evicting coldest-first) and the catalog must still answer
  // correctly — indexes rebuild on demand.
  api::Database restarted;
  restarted.catalog().index_cache().set_budget_bytes(1024);
  ASSERT_TRUE(restarted.Open(path).ok());
  EXPECT_LE(restarted.catalog().index_cache().stats().resident_bytes, 1024u);

  api::Session session = restarted.OpenSession();
  session.options().cluster.num_servers = 1;
  session.options().num_samples = 64;
  api::Result r = session.Run("G(a,b) G(b,c) G(a,c)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.count(), in_memory_count);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corrupt-file paths. Every mutation must produce a Status error from
// Open / VerifyChecksums / Database::Open — and a failed Database::Open
// must leave the target catalog untouched.

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("corrupt.adjsnap");
    storage::Catalog db = MakeCatalog();
    ASSERT_TRUE(persist::SnapshotWriter::Write(db, path_).ok());
    bytes_ = ReadFile(path_);
    ASSERT_GE(bytes_.size(), persist::kHeaderSize + persist::kFooterSize);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Expects that the file at path_ (already mutated) fails cleanly:
  /// either Open itself errors, or checksum verification does.
  void ExpectRejected(const std::string& what) {
    StatusOr<persist::SnapshotReader> reader =
        persist::SnapshotReader::Open(path_);
    if (reader.ok()) {
      EXPECT_FALSE(reader->VerifyChecksums().ok()) << what;
    } else {
      EXPECT_FALSE(reader.status().ok()) << what;
    }
    // The api-level Open (which always verifies) must reject too, and
    // must not disturb the database it was called on.
    api::Database db;
    storage::Relation keep((storage::Schema({0, 1})));
    keep.Append({1, 2});
    db.AddRelation("KEEP", std::move(keep));
    const uint64_t version = db.relation_version("KEEP");
    EXPECT_FALSE(db.Open(path_).ok()) << what;
    EXPECT_EQ(db.relation_version("KEEP"), version) << what;
    EXPECT_EQ(db.relation_names(), std::vector<std::string>{"KEEP"}) << what;
  }

  std::string path_;
  std::vector<uint8_t> bytes_;
};

TEST_F(SnapshotCorruptionTest, TruncatedAtEveryRegion) {
  for (size_t keep :
       {size_t(0), size_t(1), persist::kHeaderSize - 1, persist::kHeaderSize,
        bytes_.size() / 2, bytes_.size() - persist::kFooterSize,
        bytes_.size() - 1}) {
    std::vector<uint8_t> cut(bytes_.begin(),
                             bytes_.begin() + std::ptrdiff_t(keep));
    WriteFile(path_, cut);
    ExpectRejected("truncated to " + std::to_string(keep) + " bytes");
  }
}

TEST_F(SnapshotCorruptionTest, FlippedByteInEverySegment) {
  // Locate the real segments first (bytes between them are alignment
  // padding no reader ever consumes), then flip one byte in each.
  StatusOr<persist::SnapshotReader> pristine =
      persist::SnapshotReader::Open(path_);
  ASSERT_TRUE(pristine.ok()) << pristine.status();
  for (const persist::SegmentInfo& seg : pristine->segments()) {
    if (seg.size == 0) continue;
    std::vector<uint8_t> mutated = bytes_;
    mutated[seg.offset + seg.size / 2] ^= 0x40;
    WriteFile(path_, mutated);
    ExpectRejected("flipped byte in segment at offset " +
                   std::to_string(seg.offset));
  }
}

TEST_F(SnapshotCorruptionTest, FlippedTocChecksumByte) {
  std::vector<uint8_t> mutated = bytes_;
  mutated[mutated.size() - persist::kFooterSize + 16] ^= 0x01;
  WriteFile(path_, mutated);
  ExpectRejected("flipped TOC checksum");
}

TEST_F(SnapshotCorruptionTest, WrongMagic) {
  std::vector<uint8_t> mutated = bytes_;
  mutated[0] = 'X';
  WriteFile(path_, mutated);
  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().ToString().find("magic"), std::string::npos);
  ExpectRejected("wrong magic");
}

TEST_F(SnapshotCorruptionTest, WrongVersion) {
  // A future version, v4 — with per-labeling binding records — and v3,
  // with relation and payload mirrors, are all rejected by the
  // v6-only reader.
  for (uint8_t version : {uint8_t{0x7F}, uint8_t{4}, uint8_t{3}}) {
    std::vector<uint8_t> mutated = bytes_;
    mutated[8] = version;  // version field (little-endian low byte)
    WriteFile(path_, mutated);
    StatusOr<persist::SnapshotReader> reader =
        persist::SnapshotReader::Open(path_);
    ASSERT_FALSE(reader.ok());
    EXPECT_NE(reader.status().ToString().find("version"), std::string::npos);
    ExpectRejected("version " + std::to_string(version));
  }
}

TEST_F(SnapshotCorruptionTest, PreviousVersionWithDeltaChainsIsRejected) {
  // v5 stored a base relation and an inline delta chain per name; its
  // manifest does not parse as v6, so the header check must refuse it
  // with a Status before any manifest byte is read.
  ASSERT_EQ(persist::kVersion, 6u);
  std::vector<uint8_t> mutated = bytes_;
  mutated[8] = 5;  // version field (little-endian low byte)
  WriteFile(path_, mutated);
  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().ToString().find("format version 5"),
            std::string::npos)
      << reader.status();
  ExpectRejected("version 5");
}

TEST_F(SnapshotCorruptionTest, ForeignEndianness) {
  std::vector<uint8_t> mutated = bytes_;
  std::reverse(mutated.begin() + 12, mutated.begin() + 16);  // endian tag
  WriteFile(path_, mutated);
  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().ToString().find("endian"), std::string::npos);
  ExpectRejected("foreign endianness");
}

TEST_F(SnapshotCorruptionTest, WrongValueWidth) {
  std::vector<uint8_t> mutated = bytes_;
  mutated[16] = uint8_t(mutated[16] * 2);  // value-size field
  WriteFile(path_, mutated);
  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  ExpectRejected("wrong value width");
}

TEST_F(SnapshotCorruptionTest, MissingAndEmptyFiles) {
  api::Database db;
  EXPECT_FALSE(db.Open(TempPath("does_not_exist.adjsnap")).ok());
  WriteFile(path_, {});
  ExpectRejected("empty file");
}

// ---------------------------------------------------------------------------
// Randomized property: save → open → every strategy answers exactly
// like the NaiveJoin oracle over the original in-memory catalog.

struct RandomCase {
  query::Query query;
  storage::Catalog db;
};

RandomCase MakeRandomCase(uint64_t seed) {
  Rng rng(seed);
  const int num_attrs = 3 + int(rng.Uniform(2));  // 3..4
  const int num_atoms = 2 + int(rng.Uniform(3));  // 2..4

  RandomCase out;
  std::vector<query::Atom> atoms;
  AttrMask covered = 0;
  for (int i = 0; i < num_atoms; ++i) {
    const int arity = 2 + int(rng.Uniform(2));  // 2..3
    std::vector<AttrId> attrs;
    if (covered != 0) {
      std::vector<AttrId> pool;
      for (int a = 0; a < num_attrs; ++a) {
        if (covered & (AttrMask(1) << a)) pool.push_back(a);
      }
      attrs.push_back(pool[rng.Uniform(pool.size())]);
    }
    while (int(attrs.size()) < arity) {
      AttrId a = AttrId(rng.Uniform(uint64_t(num_attrs)));
      if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
        attrs.push_back(a);
      }
    }
    for (AttrId a : attrs) covered |= (AttrMask(1) << a);

    const std::string name = "R" + std::to_string(i);
    storage::Relation rel(
        (storage::Schema(std::vector<AttrId>(attrs.begin(), attrs.end()))));
    const uint64_t rows = 30 + rng.Uniform(90);
    const uint64_t domain = 5 + rng.Uniform(12);
    for (uint64_t r = 0; r < rows; ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < attrs.size(); ++c) {
        row.push_back(Value(rng.Uniform(domain)));
      }
      rel.Append(row);
    }
    rel.SortAndDedup();
    test::CreateRelation(&out.db, name, std::move(rel));
    atoms.push_back(query::Atom{name, storage::Schema(attrs)});
  }
  std::vector<std::string> used_names;
  std::vector<query::Atom> remapped;
  std::vector<AttrId> remap(size_t(num_attrs), -1);
  for (int a = 0; a < num_attrs; ++a) {
    if (covered & (AttrMask(1) << a)) {
      remap[size_t(a)] = AttrId(used_names.size());
      used_names.push_back(std::string(1, char('a' + a)));
    }
  }
  for (query::Atom& atom : atoms) {
    std::vector<AttrId> attrs;
    for (AttrId a : atom.schema.attrs()) attrs.push_back(remap[size_t(a)]);
    remapped.push_back(query::Atom{atom.relation, storage::Schema(attrs)});
  }
  out.query = query::Query::Make(used_names, remapped);
  return out;
}

class SnapshotPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotPropertyTest, ReopenedCatalogMatchesOracleOnAllStrategies) {
  RandomCase c = MakeRandomCase(uint64_t(GetParam()) * 104729 + 7);
  auto naive = wcoj::NaiveJoin(c.query, c.db, 5'000'000);
  ASSERT_TRUE(naive.ok()) << naive.status();
  const uint64_t truth = naive->size();

  const std::string path =
      TempPath("property_" + std::to_string(GetParam()) + ".adjsnap");
  ASSERT_TRUE(persist::SnapshotWriter::Write(c.db, path).ok());
  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_TRUE(reader->Verify().ok());
  storage::Catalog loaded;
  ASSERT_TRUE(reader->LoadInto(&loaded).ok());

  core::Engine engine(&loaded);
  core::EngineOptions opts;
  opts.cluster.num_servers = 3;
  opts.num_samples = 32;
  for (core::Strategy s :
       {core::Strategy::kCommFirst, core::Strategy::kCachedCommFirst,
        core::Strategy::kBinaryJoin, core::Strategy::kBigJoin,
        core::Strategy::kCoOpt}) {
    auto report = engine.Run(c.query, s, opts);
    ASSERT_TRUE(report.ok())
        << core::StrategyName(s) << ": " << report.status();
    ASSERT_TRUE(report->ok())
        << core::StrategyName(s) << ": " << report->status;
    EXPECT_EQ(report->output_count, truth)
        << core::StrategyName(s) << " on " << c.query.ToString();
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotPropertyTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace adj
