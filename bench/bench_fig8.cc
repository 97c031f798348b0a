// Reproduces Fig. 8: effectiveness of attribute-order pruning.
// For Q4–Q6 over every dataset we score ALL n! attribute orders by the
// number of intermediate tuples Leapfrog generates and report:
//   Invalid-Max      worst order among the invalid ones,
//   Valid-Max        worst order among the hypertree-valid ones,
//   All-Selected     the order the comm-first baseline picks from all
//                    orders (sketch-scored, as in HCubeJ [11]),
//   Valid-Selected   the order ADJ picks from valid orders.
// Intermediate counts are estimated by pinned-first-attribute sampling
// (exact enumeration over 120 orders x 18 test cases would take hours;
// the sampling estimator is unbiased and the orders are ranked by
// orders of magnitude).
#include <algorithm>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "ghd/decomposition.h"
#include "sampling/sampler.h"

namespace adj::bench {
namespace {

/// Estimated intermediate tuples (sum over non-final levels) of
/// Leapfrog under `order`.
double EstimateIntermediates(const query::Query& q,
                             const storage::Catalog& db,
                             const query::AttributeOrder& order) {
  sampling::SamplerOptions opts;
  opts.num_samples = 48;
  opts.seed = 7;
  opts.per_sample_limits.max_extensions = 100'000;
  auto est = sampling::SampleCardinality(q, db, order, opts);
  if (!est.ok()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i + 1 < est->est_tuples_at_level.size(); ++i) {
    sum += est->est_tuples_at_level[i];
  }
  return sum;
}

void Run() {
  // This bench scores every one of the n! orders 18 times; run the
  // datasets at half the global bench scale to keep the sweep to
  // minutes (ranking is preserved — the gaps are orders of magnitude).
  DatasetCache data(ScaleFromEnv() * 0.5);
  const int servers = ServersFromEnv();
  PrintHeader(
      "Fig 8: attribute-order pruning (estimated intermediate tuples)");
  std::printf("%-5s %-5s %14s %14s %14s %14s\n", "query", "data",
              "Invalid-Max", "Valid-Max", "All-Selected", "Valid-Selected");
  for (int qi : {4, 5, 6}) {
    auto q = query::MakeBenchmarkQuery(qi);
    ADJ_CHECK(q.ok());
    auto decomp = ghd::FindOptimalGhd(*q);
    ADJ_CHECK(decomp.ok());

    for (const std::string& name : AllDatasets()) {
      const storage::Catalog& db = data.Get(name);
      core::Engine engine(&db);

      double invalid_max = 0.0, valid_max = 0.0;
      for (const query::AttributeOrder& order :
           query::AllOrders(q->AllAttrs())) {
        const double inter = EstimateIntermediates(*q, db, order);
        if (ghd::IsValidOrder(*decomp, *q, order)) {
          valid_max = std::max(valid_max, inter);
        } else {
          invalid_max = std::max(invalid_max, inter);
        }
      }
      // All-Selected: comm-first baseline order (scored over all).
      core::EngineOptions opts = BenchOptions(servers);
      auto all_selected = engine.SelectCommFirstOrder(*q, opts.cluster);
      ADJ_CHECK(all_selected.ok());
      const double all_sel = EstimateIntermediates(*q, db, *all_selected);
      // Valid-Selected: ADJ's planned order.
      opts.num_samples = 200;
      auto planned = engine.Plan(*q, opts);
      ADJ_CHECK(planned.ok()) << planned.status();
      const double valid_sel =
          EstimateIntermediates(*q, db, planned->plan.order);

      std::printf("%-5s %-5s %14s %14s %14s %14s\n",
                  query::BenchmarkQueryName(qi).c_str(), name.c_str(),
                  Num(invalid_max).c_str(), Num(valid_max).c_str(),
                  Num(all_sel).c_str(), Num(valid_sel).c_str());
    }
  }
  std::printf(
      "\nExpected shape (paper): Valid-Max <= Invalid-Max and "
      "Valid-Selected <= All-Selected across test cases.\n");
}

}  // namespace
}  // namespace adj::bench

int main() {
  adj::SetLogLevel(adj::LogLevel::kWarning);
  adj::bench::Run();
  return 0;
}
