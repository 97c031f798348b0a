// Plan-shape regression: on a skewed graph the planners must never
// open an attribute order on a cross product. Every prefix of the
// chosen order has to be connected in the query graph (each attribute
// after the first shares an atom with an earlier one) — both for ADJ's
// order (DeriveOrder's sketch score over the traversal's valid orders)
// and for the comm-first baseline's (the same score over all orders).
// A prefix like the 4-cycle's {a,c} binds every (a, c) pair and costs
// an order of magnitude over the connected orders.
#include <gtest/gtest.h>

#include <string>

#include "catalog_test_util.h"
#include "common/rng.h"
#include "core/engine.h"
#include "dataset/generators.h"
#include "query/queries.h"

namespace adj {
namespace {

/// Index of the first attribute of `order` that shares no atom with
/// the attributes before it, or -1 when every prefix is connected.
int FirstDisconnected(const query::Query& q,
                      const query::AttributeOrder& order) {
  AttrMask prefix = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const AttrMask bit = AttrMask(1) << order[i];
    bool adjacent = i == 0;
    for (const query::Atom& atom : q.atoms()) {
      const AttrMask schema = atom.schema.Mask();
      if ((schema & bit) != 0 && (schema & prefix) != 0) adjacent = true;
    }
    if (!adjacent) return int(i);
    prefix |= bit;
  }
  return -1;
}

std::string Render(const query::AttributeOrder& order) {
  std::string out;
  for (AttrId a : order) {
    if (!out.empty()) out += " < ";
    out += char('a' + a);
  }
  return out;
}

TEST(PlanShapeTest, EveryOrderPrefixIsConnected) {
  // The benchmark graph's shape: RMAT over 2^13 nodes, ~9 450 edges.
  Rng rng(3);
  dataset::RmatParams params;
  params.scale = 13;
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::Rmat(params, 9450, rng));
  core::Engine engine(&db);
  core::EngineOptions options;
  options.num_samples = 256;
  options.cluster.num_servers = 4;
  // Pinned extension rates keep the traversal independent of the
  // host's measured seek speed.
  options.beta_precomputed_override = 4e6;
  options.beta_raw_override = 4e6;

  for (int index : {1, 2, 3, 5, 6, 10, 11}) {
    StatusOr<query::Query> q = query::MakeBenchmarkQuery(index);
    ASSERT_TRUE(q.ok()) << q.status();
    const std::string name = "Q" + std::to_string(index);

    StatusOr<core::PlanResult> plan = engine.Plan(*q, options);
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status();
    const query::AttributeOrder& adj_order = plan->plan.order;
    ASSERT_EQ(int(adj_order.size()), q->num_attrs()) << name;
    EXPECT_EQ(FirstDisconnected(*q, adj_order), -1)
        << name << " ADJ order " << Render(adj_order);

    StatusOr<query::AttributeOrder> comm_first =
        engine.SelectCommFirstOrder(*q, options.cluster);
    ASSERT_TRUE(comm_first.ok()) << name << ": " << comm_first.status();
    ASSERT_EQ(int(comm_first->size()), q->num_attrs()) << name;
    EXPECT_EQ(FirstDisconnected(*q, *comm_first), -1)
        << name << " comm-first order " << Render(*comm_first);
  }
}

}  // namespace
}  // namespace adj
