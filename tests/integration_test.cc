#include <gtest/gtest.h>

#include <tuple>

#include "catalog_test_util.h"
#include "common/rng.h"
#include "core/engine.h"
#include "dataset/builtin.h"
#include "dataset/generators.h"
#include "query/queries.h"
#include "wcoj/naive_join.h"

namespace adj::core {
namespace {

storage::Catalog SmallDb(uint64_t seed, uint64_t nodes = 30,
                         uint64_t edges = 150) {
  Rng rng(seed);
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::ErdosRenyi(nodes, edges, rng));
  return db;
}

EngineOptions FastOptions() {
  EngineOptions opts;
  opts.cluster.num_servers = 4;
  opts.num_samples = 64;
  return opts;
}

/// End-to-end equivalence: all five strategies return the oracle count
/// on every evaluated query.
class StrategyEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, Strategy>> {};

TEST_P(StrategyEquivalenceTest, CountMatchesOracle) {
  const int qi = std::get<0>(GetParam());
  const Strategy strategy = std::get<1>(GetParam());
  auto q = query::MakeBenchmarkQuery(qi);
  ASSERT_TRUE(q.ok());
  storage::Catalog db = SmallDb(uint64_t(qi));
  auto naive = wcoj::NaiveJoin(*q, db);
  ASSERT_TRUE(naive.ok());

  Engine engine(&db);
  auto report = engine.Run(*q, strategy, FastOptions());
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->ok()) << report->status;
  EXPECT_EQ(report->output_count, naive->size())
      << "Q" << qi << " " << StrategyName(strategy);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAllQueries, StrategyEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(Strategy::kCoOpt,
                                         Strategy::kCommFirst,
                                         Strategy::kCachedCommFirst,
                                         Strategy::kBinaryJoin,
                                         Strategy::kBigJoin)));

/// The same equivalence on a second random graph and the easy queries.
class EasyQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(EasyQueryTest, CoOptMatchesOracle) {
  const int qi = GetParam();
  auto q = query::MakeBenchmarkQuery(qi);
  storage::Catalog db = SmallDb(uint64_t(100 + qi), 40, 250);
  auto naive = wcoj::NaiveJoin(*q, db);
  ASSERT_TRUE(naive.ok());
  Engine engine(&db);
  auto report = engine.Run(*q, Strategy::kCoOpt, FastOptions());
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->ok());
  EXPECT_EQ(report->output_count, naive->size());
}

INSTANTIATE_TEST_SUITE_P(Easy, EasyQueryTest,
                         ::testing::Values(7, 8, 9, 10, 11));

TEST(EngineTest, PlanIsValidForPaperQuery) {
  storage::Catalog db = SmallDb(42, 60, 500);
  auto q = query::MakeBenchmarkQuery(5);
  Engine engine(&db);
  auto planned = engine.Plan(*q, FastOptions());
  ASSERT_TRUE(planned.ok()) << planned.status();
  const optimizer::QueryPlan& plan = planned->plan;
  EXPECT_EQ(plan.order.size(), size_t(q->num_attrs()));
  EXPECT_TRUE(ghd::IsValidOrder(plan.decomp, *q, plan.order));
  EXPECT_GT(planned->optimize_s, 0.0);
}

TEST(EngineTest, ExhaustivePlannerAgreesOnCount) {
  storage::Catalog db = SmallDb(43);
  auto q = query::MakeBenchmarkQuery(5);
  auto naive = wcoj::NaiveJoin(*q, db);
  Engine engine(&db);
  EngineOptions opts = FastOptions();
  opts.use_exhaustive_planner = true;
  auto report = engine.Run(*q, Strategy::kCoOpt, opts);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->ok());
  EXPECT_EQ(report->output_count, naive->size());
}

TEST(EngineTest, ExactEstimatePlannerAgreesOnCount) {
  storage::Catalog db = SmallDb(44);
  auto q = query::MakeBenchmarkQuery(4);
  auto naive = wcoj::NaiveJoin(*q, db);
  Engine engine(&db);
  EngineOptions opts = FastOptions();
  opts.use_exact_estimates = true;
  auto report = engine.Run(*q, Strategy::kCoOpt, opts);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->ok());
  EXPECT_EQ(report->output_count, naive->size());
}

TEST(EngineTest, ReportBreaksDownCosts) {
  storage::Catalog db = SmallDb(45, 60, 600);
  auto q = query::MakeBenchmarkQuery(5);
  Engine engine(&db);
  auto report = engine.Run(*q, Strategy::kCoOpt, FastOptions());
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->ok());
  EXPECT_GT(report->optimize_s, 0.0);
  EXPECT_GT(report->comm_s, 0.0);
  EXPECT_GE(report->comp_s, 0.0);
  EXPECT_GT(report->TotalSeconds(), 0.0);
  EXPECT_FALSE(report->plan_description.empty());
}

TEST(EngineTest, TimeLimitEmulatesTimeout) {
  storage::Catalog db = SmallDb(46, 300, 8000);
  auto q = query::MakeBenchmarkQuery(3);
  Engine engine(&db);
  EngineOptions opts = FastOptions();
  opts.limits.max_extensions = 1000;  // emulate memory pressure
  auto report = engine.Run(*q, Strategy::kCommFirst, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST(EngineTest, StrategyNames) {
  EXPECT_STREQ(StrategyName(Strategy::kCoOpt), "ADJ");
  EXPECT_STREQ(StrategyName(Strategy::kCommFirst), "HCubeJ");
  EXPECT_STREQ(StrategyName(Strategy::kCachedCommFirst), "HCubeJ+Cache");
  EXPECT_STREQ(StrategyName(Strategy::kBinaryJoin), "SparkSQL");
  EXPECT_STREQ(StrategyName(Strategy::kBigJoin), "BigJoin");
}

TEST(EngineTest, CommFirstOrderCoversAllAttrs) {
  storage::Catalog db = SmallDb(47);
  auto q = query::MakeBenchmarkQuery(6);
  Engine engine(&db);
  auto order = engine.SelectCommFirstOrder(*q);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->size(), size_t(q->num_attrs()));
}

TEST(EngineTest, DeterministicAcrossRuns) {
  storage::Catalog db = SmallDb(48);
  auto q = query::MakeBenchmarkQuery(5);
  Engine engine(&db);
  auto a = engine.Run(*q, Strategy::kCoOpt, FastOptions());
  auto b = engine.Run(*q, Strategy::kCoOpt, FastOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->output_count, b->output_count);
  EXPECT_EQ(a->comm.tuple_copies, b->comm.tuple_copies);
}

TEST(EngineTest, BuiltinDatasetSmokeRun) {
  auto g = dataset::MakeBuiltin("WB", 0.05);
  ASSERT_TRUE(g.ok());
  storage::Catalog db;
  test::CreateRelation(&db, "G", std::move(g.value()));
  auto q = query::MakeBenchmarkQuery(1);
  Engine engine(&db);
  auto adj = engine.Run(*q, Strategy::kCoOpt, FastOptions());
  auto hcj = engine.Run(*q, Strategy::kCommFirst, FastOptions());
  ASSERT_TRUE(adj.ok() && hcj.ok());
  ASSERT_TRUE(adj->ok() && hcj->ok());
  EXPECT_EQ(adj->output_count, hcj->output_count);
  EXPECT_GT(adj->output_count, 0u);
}

}  // namespace
}  // namespace adj::core
