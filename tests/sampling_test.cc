#include <gtest/gtest.h>

#include <cmath>

#include "catalog_test_util.h"
#include "common/rng.h"
#include "dataset/generators.h"
#include "query/queries.h"
#include "sampling/sampler.h"
#include "sampling/sketch_estimator.h"
#include "wcoj/naive_join.h"

namespace adj::sampling {
namespace {

using query::Query;

TEST(ChernoffTest, SampleCountFormula) {
  // k = ceil(0.5 p^-2 ln(2/delta)).
  EXPECT_EQ(ChernoffSampleCount(0.1, 0.05),
            uint64_t(std::ceil(0.5 * 100 * std::log(40.0))));
  EXPECT_GE(ChernoffSampleCount(0.01, 0.01), 10000u);
  EXPECT_EQ(ChernoffSampleCount(0, 0.5), 1u);
}

TEST(SamplerTest, ExactOnCompleteGraphTriangles) {
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::CompleteGraph(8));
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  SamplerOptions opts;
  opts.num_samples = 64;
  auto est = SampleCardinality(*q, db, {0, 1, 2}, opts);
  ASSERT_TRUE(est.ok());
  // Complete graph is perfectly symmetric: every sampled value yields
  // the same count, so the estimate is exact: 8*7*6 = 336.
  EXPECT_EQ(est->val_a_size, 8u);
  EXPECT_NEAR(est->cardinality, 336.0, 1e-9);
}

TEST(SamplerTest, ConvergesWithMoreSamples) {
  Rng rng(11);
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::ZipfGraph(200, 3000, 0.8, rng));
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  auto naive = wcoj::NaiveJoin(*q, db);
  ASSERT_TRUE(naive.ok());
  const double truth = double(naive->size());
  ASSERT_GT(truth, 0);

  auto run = [&](uint64_t k) {
    SamplerOptions opts;
    opts.num_samples = k;
    opts.seed = 5;
    auto est = SampleCardinality(*q, db, {0, 1, 2}, opts);
    EXPECT_TRUE(est.ok());
    const double d = std::max(est->cardinality, truth) /
                     std::max(1.0, std::min(est->cardinality, truth));
    return d;
  };
  const double d_small = run(8);
  const double d_large = run(4096);
  // The paper's D metric converges toward 1 as samples grow.
  EXPECT_LT(d_large, 1.35);
  EXPECT_LE(d_large, d_small * 1.5 + 0.5);
}

TEST(SamplerTest, PerLevelEstimatesScaleWithSamples) {
  Rng rng(13);
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::ErdosRenyi(100, 800, rng));
  auto q = Query::Parse("G(a,b) G(b,c)");
  SamplerOptions opts;
  opts.num_samples = 512;
  auto est = SampleCardinality(*q, db, {0, 1, 2}, opts);
  ASSERT_TRUE(est.ok());
  ASSERT_EQ(est->est_tuples_at_level.size(), 3u);
  // Level-0 estimate approximates |val(A)| (each sample emits <= 1
  // binding at level 0 and val(a) values all join something or not).
  EXPECT_GT(est->est_tuples_at_level[0], 0.0);
  // Deepest level estimate equals the cardinality estimate.
  EXPECT_NEAR(est->est_tuples_at_level[2], est->cardinality, 1e-6);
}

TEST(SamplerTest, DistributedAccountingPresent) {
  Rng rng(17);
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::ErdosRenyi(100, 800, rng));
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  SamplerOptions opts;
  opts.num_samples = 32;
  opts.distributed = true;
  auto est = SampleCardinality(*q, db, {0, 1, 2}, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_GT(est->comm.tuple_copies, 0u);
  EXPECT_GT(est->comm.seconds, 0.0);
  // The reduced database can not exceed 1 projection + full relation
  // per atom.
  uint64_t upper = 0;
  for (int i = 0; i < q->num_atoms(); ++i) {
    upper += 2 * (*db.Get("G"))->size();
  }
  EXPECT_LE(est->comm.tuple_copies, upper);
}

TEST(SamplerTest, SemijoinReductionShrinksComm) {
  // With few samples, relations containing A shrink a lot.
  Rng rng(19);
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::ErdosRenyi(500, 4000, rng));
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  SamplerOptions small_opts;
  small_opts.num_samples = 4;
  small_opts.seed = 1;
  auto small = SampleCardinality(*q, db, {0, 1, 2}, small_opts);
  SamplerOptions big_opts;
  big_opts.num_samples = 2048;
  big_opts.seed = 1;
  auto big = SampleCardinality(*q, db, {0, 1, 2}, big_opts);
  ASSERT_TRUE(small.ok() && big.ok());
  EXPECT_LT(small->comm.tuple_copies, big->comm.tuple_copies);
}

TEST(SamplerTest, EmptyJoinEstimatesZero) {
  storage::Catalog db;
  storage::Relation g(storage::Schema({0, 1}));
  g.Append({1, 2});  // no triangle possible
  test::CreateRelation(&db, "G", std::move(g));
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  SamplerOptions opts;
  opts.num_samples = 16;
  auto est = SampleCardinality(*q, db, {0, 1, 2}, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->cardinality, 0.0);
}

TEST(SamplerTest, BetaMeasured) {
  Rng rng(23);
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::ErdosRenyi(200, 2000, rng));
  auto q = Query::Parse("G(a,b) G(b,c)");
  SamplerOptions opts;
  opts.num_samples = 512;
  auto est = SampleCardinality(*q, db, {0, 1, 2}, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_GT(est->beta_extensions_per_s, 0.0);
}

TEST(SketchTest, SingleAtomIsExact) {
  Rng rng(29);
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::ErdosRenyi(50, 300, rng));
  auto q = Query::Parse("G(a,b) G(b,c)");
  auto sketch = SketchEstimator::Build(*q, db);
  ASSERT_TRUE(sketch.ok());
  EXPECT_DOUBLE_EQ(sketch->EstimateJoin(0b01),
                   double((*db.Get("G"))->size()));
}

TEST(SketchTest, TwoWayJoinUsesContainment) {
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::CompleteGraph(10));
  auto q = Query::Parse("G(a,b) G(b,c)");
  auto sketch = SketchEstimator::Build(*q, db);
  ASSERT_TRUE(sketch.ok());
  // |G|=90, V(b)=10 on both sides: est = 90*90/10 = 810.
  // True: for each (a,b): 9 extensions => 810. Exact here.
  EXPECT_NEAR(sketch->EstimateJoin(0b11), 810.0, 1e-9);
}

TEST(SketchTest, SamplingBeatsSketchOnCyclicJoin) {
  // Sec. IV's motivation: sketch error on cyclic joins is much larger
  // than sampling error.
  Rng rng(31);
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::ZipfGraph(150, 2500, 0.9, rng));
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  auto naive = wcoj::NaiveJoin(*q, db);
  ASSERT_TRUE(naive.ok());
  const double truth = std::max(1.0, double(naive->size()));

  auto sketch = SketchEstimator::Build(*q, db);
  ASSERT_TRUE(sketch.ok());
  const double sketch_est = std::max(1.0, sketch->EstimateJoin(0b111));
  const double sketch_d =
      std::max(sketch_est, truth) / std::min(sketch_est, truth);

  SamplerOptions opts;
  opts.num_samples = 2048;
  auto sample = SampleCardinality(*q, db, {0, 1, 2}, opts);
  ASSERT_TRUE(sample.ok());
  const double sample_est = std::max(1.0, sample->cardinality);
  const double sample_d =
      std::max(sample_est, truth) / std::min(sample_est, truth);

  EXPECT_LT(sample_d, sketch_d);
}

TEST(SketchTest, EstimateBindingsSelectsContainedAtoms) {
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::CompleteGraph(6));
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  auto sketch = SketchEstimator::Build(*q, db);
  ASSERT_TRUE(sketch.ok());
  // attrs {a,b}: only atom 0 contained.
  EXPECT_DOUBLE_EQ(sketch->EstimateBindings(0b011),
                   double((*db.Get("G"))->size()));
  // No atoms inside {a}: neutral 1.0.
  EXPECT_DOUBLE_EQ(sketch->EstimateBindings(0b001), 1.0);
}

}  // namespace
}  // namespace adj::sampling
