#include <algorithm>
#include <gtest/gtest.h>

#include "catalog_test_util.h"
#include "common/rng.h"
#include "dataset/generators.h"
#include "exec/yannakakis.h"
#include "query/queries.h"
#include "wcoj/naive_join.h"

namespace adj::exec {
namespace {

storage::Catalog SmallDb(uint64_t seed, uint64_t nodes = 30,
                         uint64_t edges = 150) {
  Rng rng(seed);
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::ErdosRenyi(nodes, edges, rng));
  return db;
}

TEST(SemiJoinTest, FiltersDanglingTuples) {
  storage::Relation l(storage::Schema({0, 1}));
  l.Append({1, 2});
  l.Append({3, 4});
  l.Append({5, 6});
  storage::Relation r(storage::Schema({1, 2}));
  r.Append({2, 9});
  r.Append({6, 9});
  storage::Relation out = SemiJoin(l, r);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.At(0, 0), 1u);
  EXPECT_EQ(out.At(1, 0), 5u);
}

TEST(SemiJoinTest, NoSharedAttrsIsIdentity) {
  storage::Relation l(storage::Schema({0}));
  l.Append({1});
  storage::Relation r(storage::Schema({1}));
  r.Append({9});
  EXPECT_EQ(SemiJoin(l, r).size(), 1u);
}

TEST(SemiJoinTest, EmptyRightEliminatesAll) {
  storage::Relation l(storage::Schema({0, 1}));
  l.Append({1, 2});
  storage::Relation r(storage::Schema({1}));
  EXPECT_EQ(SemiJoin(l, r).size(), 0u);
}

TEST(YannakakisTest, AcyclicPathQueryMatchesNaive) {
  storage::Catalog db = SmallDb(3);
  auto q = query::Query::Parse("G(a,b) G(b,c) G(c,d)");
  ASSERT_TRUE(q.ok());
  auto naive = wcoj::NaiveJoin(*q, db);
  ASSERT_TRUE(naive.ok());
  YannakakisStats stats;
  auto result = YannakakisJoinAuto(*q, db, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), naive->size());
  EXPECT_TRUE(std::ranges::equal(result->raw(), naive->raw()));
  // Full reduction never grows bags.
  EXPECT_LE(stats.reduced_bag_tuples, stats.bag_tuples);
}

TEST(YannakakisTest, CyclicQueriesViaGhdMatchNaive) {
  storage::Catalog db = SmallDb(7);
  for (int qi : {1, 2, 4, 5, 6, 10, 11}) {
    auto q = query::MakeBenchmarkQuery(qi);
    auto naive = wcoj::NaiveJoin(*q, db);
    ASSERT_TRUE(naive.ok()) << "Q" << qi;
    auto result = YannakakisJoinAuto(*q, db);
    ASSERT_TRUE(result.ok()) << "Q" << qi;
    EXPECT_EQ(result->size(), naive->size()) << "Q" << qi;
  }
}

TEST(YannakakisTest, ReductionBoundsIntermediates) {
  // On a path query with many dangling edges, full reduction keeps
  // intermediates at most the bag sizes after reduction.
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::PathGraph(50));
  auto q = query::Query::Parse("G(a,b) G(b,c) G(c,d) G(d,e)");
  YannakakisStats stats;
  auto result = YannakakisJoinAuto(*q, db, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 46u);  // 50-node path: 46 4-edge walks
  EXPECT_LE(stats.intermediate_tuples,
            stats.reduced_bag_tuples * 4);  // no blow-up
}

TEST(YannakakisTest, RowLimitPropagates) {
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::CompleteGraph(12));
  auto q = query::MakeBenchmarkQuery(2);
  auto result = YannakakisJoinAuto(*q, db, nullptr, /*row_limit=*/10);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(YannakakisTest, EmptyInputYieldsEmpty) {
  storage::Catalog db;
  test::CreateRelation(&db, "G", storage::Relation(storage::Schema({0, 1})));
  auto q = query::Query::Parse("G(a,b) G(b,c)");
  auto result = YannakakisJoinAuto(*q, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
}

}  // namespace
}  // namespace adj::exec
