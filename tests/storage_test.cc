#include <gtest/gtest.h>

#include <algorithm>

#include "catalog_test_util.h"
#include "common/rng.h"
#include "storage/catalog.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace adj::storage {
namespace {

TEST(SchemaTest, PositionAndContains) {
  Schema s({2, 0, 3});
  EXPECT_EQ(s.arity(), 3);
  EXPECT_EQ(s.PositionOf(2), 0);
  EXPECT_EQ(s.PositionOf(0), 1);
  EXPECT_EQ(s.PositionOf(3), 2);
  EXPECT_EQ(s.PositionOf(1), -1);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_FALSE(s.Contains(1));
}

TEST(SchemaTest, Mask) {
  Schema s({0, 2, 4});
  EXPECT_EQ(s.Mask(), AttrMask(0b10101));
}

TEST(SchemaTest, SortedByRank) {
  // Global order: c < a < b  =>  rank a=1, b=2, c=0.
  Schema s({0, 1, 2});  // (a, b, c)
  std::vector<int> rank = {1, 2, 0};
  std::vector<int> perm;
  Schema sorted = s.SortedBy(rank, &perm);
  EXPECT_EQ(sorted.attrs(), (std::vector<AttrId>{2, 0, 1}));
  EXPECT_EQ(perm, (std::vector<int>{2, 0, 1}));
}

TEST(SchemaTest, ToStringLettersAttrs) {
  Schema s({0, 1, 4});
  EXPECT_EQ(s.ToString(), "(a,b,e)");
}

TEST(RelationTest, AppendAndAccess) {
  Relation r(Schema({0, 1}));
  r.Append({3, 4});
  r.Append({1, 2});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.At(0, 0), 3u);
  EXPECT_EQ(r.At(1, 1), 2u);
  EXPECT_EQ(r.SizeBytes(), 4 * sizeof(Value));
}

TEST(RelationTest, SortAndDedup) {
  Relation r(Schema({0, 1}));
  r.Append({2, 1});
  r.Append({1, 2});
  r.Append({2, 1});
  r.Append({1, 1});
  r.SortAndDedup();
  ASSERT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.IsSortedUnique());
  EXPECT_EQ(r.At(0, 0), 1u);
  EXPECT_EQ(r.At(0, 1), 1u);
  EXPECT_EQ(r.At(2, 0), 2u);
}

TEST(RelationTest, SortIsLexicographic) {
  Relation r(Schema({0, 1, 2}));
  r.Append({1, 2, 3});
  r.Append({1, 1, 9});
  r.Append({0, 9, 9});
  r.SortAndDedup();
  EXPECT_EQ(r.At(0, 0), 0u);
  EXPECT_EQ(r.At(1, 1), 1u);
  EXPECT_EQ(r.At(2, 1), 2u);
}

TEST(RelationTest, PermuteColumns) {
  Relation r(Schema({0, 1}));
  r.Append({1, 10});
  r.Append({2, 20});
  Relation p = r.PermuteColumns(Schema({1, 0}), {1, 0});
  EXPECT_EQ(p.At(0, 0), 10u);
  EXPECT_EQ(p.At(0, 1), 1u);
  EXPECT_EQ(p.schema().attrs(), (std::vector<AttrId>{1, 0}));
}

TEST(RelationTest, DistinctColumn) {
  Relation r(Schema({0, 1}));
  r.Append({1, 5});
  r.Append({1, 6});
  r.Append({2, 5});
  EXPECT_EQ(r.DistinctColumn(0), (std::vector<Value>{1, 2}));
  EXPECT_EQ(r.DistinctColumn(1), (std::vector<Value>{5, 6}));
}

TEST(RelationTest, SemiJoinFilter) {
  Relation r(Schema({0, 1}));
  r.Append({1, 5});
  r.Append({2, 6});
  r.Append({3, 7});
  Relation f = r.SemiJoinFilter(0, {1, 3});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f.At(0, 0), 1u);
  EXPECT_EQ(f.At(1, 0), 3u);
}

TEST(RelationTest, EmptyRelationProperties) {
  Relation r(Schema({0, 1}));
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0u);
  r.SortAndDedup();
  EXPECT_TRUE(r.IsSortedUnique());
}

TEST(RelationTest, RandomSortDedupMatchesStdSet) {
  Rng rng(99);
  Relation r(Schema({0, 1, 2}));
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 500; ++i) {
    std::vector<Value> row = {Value(rng.Uniform(10)), Value(rng.Uniform(10)),
                              Value(rng.Uniform(10))};
    rows.push_back(row);
    r.Append(row);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  r.SortAndDedup();
  ASSERT_EQ(r.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int c = 0; c < 3; ++c) EXPECT_EQ(r.At(i, c), rows[i][size_t(c)]);
  }
}

TEST(CatalogTest, CreateGetContains) {
  Catalog db;
  Relation r(Schema({0, 1}));
  r.Append({1, 2});
  test::CreateRelation(&db, "G", std::move(r));
  EXPECT_TRUE(db.Contains("G"));
  EXPECT_FALSE(db.Contains("H"));
  auto got = db.Get("G");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->size(), 1u);
  EXPECT_FALSE(db.Get("H").ok());
}

TEST(CatalogTest, ReplaceAndTotals) {
  Catalog db;
  Relation a(Schema({0, 1}));
  a.Append({1, 2});
  a.Append({3, 4});
  test::CreateRelation(&db, "R", std::move(a));
  EXPECT_EQ(db.TotalTuples(), 2u);
  Relation b(Schema({0}));
  b.Append({9});
  test::CreateRelation(&db, "R", std::move(b));
  EXPECT_EQ(db.TotalTuples(), 1u);
  EXPECT_EQ(db.Names(), std::vector<std::string>{"R"});
}

TEST(CatalogTest, AliasSharesPhysicalStorage) {
  Catalog db;
  Relation r(Schema({0, 1}));
  r.Append({1, 2});
  test::CreateRelation(&db, "G", std::move(r));
  ASSERT_TRUE(test::AliasRelation(&db, "G2", "G").ok());
  ASSERT_TRUE(test::AliasRelation(&db, "G3", "G2").ok());
  EXPECT_TRUE(db.Contains("G2"));
  // All three names resolve to the same physical relation — no copy.
  EXPECT_EQ(*db.Get("G2"), *db.Get("G"));
  EXPECT_EQ(*db.Get("G3"), *db.Get("G"));
  EXPECT_EQ(db.Names(), (std::vector<std::string>{"G", "G2", "G3"}));
  // Self-alias is a harmless no-op; aliasing a missing name fails.
  EXPECT_TRUE(test::AliasRelation(&db, "G", "G").ok());
  EXPECT_EQ(*db.Get("G"), *db.Get("G2"));
  EXPECT_FALSE(test::AliasRelation(&db, "X", "missing").ok());
  EXPECT_FALSE(db.Contains("X"));
}

TEST(CatalogTest, TotalsCountAliasedRelationsOnce) {
  Catalog db;
  Relation r(Schema({0, 1}));
  r.Append({1, 2});
  r.Append({3, 4});
  test::CreateRelation(&db, "G", std::move(r));
  ASSERT_TRUE(test::AliasRelation(&db, "G2", "G").ok());
  EXPECT_EQ(db.TotalTuples(), 2u);
  EXPECT_EQ(db.TotalBytes(), 4 * sizeof(Value));
  // A distinct physical relation still adds to the totals.
  Relation other(Schema({0}));
  other.Append({7});
  test::CreateRelation(&db, "H", std::move(other));
  EXPECT_EQ(db.TotalTuples(), 3u);
}

TEST(CatalogTest, ReplacementRebindsOnlyThatName) {
  Catalog db;
  Relation r(Schema({0, 1}));
  r.Append({1, 2});
  test::CreateRelation(&db, "G", std::move(r));
  ASSERT_TRUE(test::AliasRelation(&db, "G2", "G").ok());
  const Relation* original = *db.Get("G2");
  // Replacing "G" must not disturb the alias, which co-owns the old
  // physical relation.
  Relation fresh(Schema({0, 1}));
  fresh.Append({5, 6});
  fresh.Append({7, 8});
  test::CreateRelation(&db, "G", std::move(fresh));
  EXPECT_EQ(*db.Get("G2"), original);
  EXPECT_EQ((*db.Get("G2"))->At(0, 0), 1u);
  EXPECT_EQ((*db.Get("G"))->size(), 2u);
  EXPECT_NE(*db.Get("G"), *db.Get("G2"));
  EXPECT_EQ(db.TotalTuples(), 3u);  // two distinct physical relations
}

TEST(CatalogTest, SharedCreateBorrowsAcrossCatalogs) {
  Catalog exec_db;
  const Relation* borrowed = nullptr;
  {
    Catalog source;
    Relation r(Schema({0, 1}));
    r.Append({1, 2});
    test::CreateRelation(&source, "G", std::move(r));
    auto shared = source.GetShared("G");
    ASSERT_TRUE(shared.ok());
    borrowed = shared->get();
    ASSERT_TRUE(
        test::ShareRelation(&exec_db, "G", std::move(shared.value())).ok());
    EXPECT_EQ(*exec_db.Get("G"), *source.Get("G"));
    EXPECT_FALSE(source.GetShared("missing").ok());
  }
  // The source catalog is gone; shared ownership keeps the relation
  // alive for the borrowing catalog.
  ASSERT_TRUE(exec_db.Contains("G"));
  EXPECT_EQ(*exec_db.Get("G"), borrowed);
  EXPECT_EQ((*exec_db.Get("G"))->At(0, 1), 2u);
  EXPECT_EQ(exec_db.TotalTuples(), 1u);
  EXPECT_FALSE(test::ShareRelation(&exec_db, "null", nullptr).ok());
  EXPECT_FALSE(exec_db.Contains("null"));
}

TEST(CatalogTest, VersionBumpsOnEveryMappingMutation) {
  Catalog db;
  EXPECT_EQ(db.VersionOf("G"), 0u);

  Relation r(Schema({0, 1}));
  r.Append({1, 2});
  test::CreateRelation(&db, "G", std::move(r));
  EXPECT_EQ(db.VersionOf("G"), 1u);

  // Every successful mapping mutation bumps the name it binds: an
  // alias, a shared create and a replacing create all invalidate plans
  // built against the old mapping — and leave other names' versions
  // alone.
  ASSERT_TRUE(test::AliasRelation(&db, "G2", "G").ok());
  EXPECT_EQ(db.VersionOf("G2"), 1u);
  auto shared = db.GetShared("G");
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(test::ShareRelation(&db, "G3", std::move(shared.value())).ok());
  EXPECT_EQ(db.VersionOf("G3"), 1u);
  Relation replacement(Schema({0, 1}));
  replacement.Append({7, 8});
  test::CreateRelation(&db, "G", std::move(replacement));
  EXPECT_EQ(db.VersionOf("G"), 2u);
  EXPECT_EQ(db.VersionOf("G2"), 1u);
  EXPECT_EQ(db.VersionOf("G3"), 1u);

  // Reads and failed mutations leave every version untouched.
  (void)db.Get("G");
  (void)db.Names();
  EXPECT_FALSE(test::AliasRelation(&db, "X", "missing").ok());
  EXPECT_FALSE(test::ShareRelation(&db, "null", nullptr).ok());
  EXPECT_EQ(db.VersionOf("G"), 2u);
  EXPECT_EQ(db.VersionOf("X"), 0u);
  EXPECT_EQ(db.VersionOf("null"), 0u);
}

}  // namespace
}  // namespace adj::storage
