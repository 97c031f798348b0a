// adj_cli: run an arbitrary (SPJ) join query from the command line,
// against a real SNAP edge list or a synthetic graph.
//
//   adj_cli [options] "G(a,b) G(b,c) G(a,c) | a=5 | b,c"
//     --graph PATH      load a SNAP edge list as relation G
//     --dataset NAME    use a builtin stand-in (WB/AS/WT/LJ/EN/OK)
//     --scale S         builtin dataset scale (default 0.2)
//     --load PATH       open a snapshot (relations + warm indexes)
//                       instead of loading a dataset
//     --save PATH       after the query runs, snapshot the catalog —
//                       including the indexes the query just warmed —
//                       so the next `adj_cli --load PATH` starts warm
//     --insert R:a,b    queue a tuple insert into relation R; repeat
//                       freely — all queued writes are applied as ONE
//                       atomic storage::WriteBatch before the query,
//                       merged into R's next version (cached/mapped
//                       indexes are delta-patched, not rebuilt)
//     --remove R:a,b    queue a tombstone, same batch semantics
//     --servers N       simulated servers (default 4)
//     --strategy NAME   any registered strategy (default ADJ); the cli
//                       itself registers "Yannakakis" at startup to
//                       demonstrate the open StrategyRegistry
//     --explain         print ADJ's plan (hypertree, traversal, costs)
//
// Examples:
//   adj_cli "G(a,b) G(b,c) G(a,c)"
//   adj_cli --dataset LJ --strategy HCubeJ "G(a,b) G(b,c) G(c,a)"
//   adj_cli --strategy Yannakakis "G(a,b) G(b,c) G(a,c)"
//   adj_cli --graph my.txt "G(a,b) G(b,c) | a=7 | c"
#include <cstdio>
#include <cstdlib>
#include <vector>
#include <cstring>
#include <string>

#include "api/api.h"
#include "common/timer.h"
#include "core/spj.h"
#include "core/strategy_registry.h"
#include "dataset/builtin.h"
#include "exec/yannakakis.h"

namespace {

// A strategy the core library does not know about, plugged in at
// startup: Yannakakis' acyclic-query evaluator as a single-server
// oracle run. Selectable via --strategy Yannakakis like the builtin
// five — no core::Strategy change involved.
adj::Status RegisterYannakakisStrategy() {
  using namespace adj;
  return core::StrategyRegistry::Global().Register(
      "Yannakakis",
      [](core::Engine& engine, const query::Query& q,
         const core::EngineOptions& options) -> StatusOr<exec::RunReport> {
        WallTimer timer;
        exec::YannakakisStats stats;
        StatusOr<storage::Relation> joined = exec::YannakakisJoinAuto(
            q, engine.db(), &stats, options.limits.max_materialized_rows);
        exec::RunReport report;
        report.method = "Yannakakis";
        if (!joined.ok()) {
          report.status = joined.status();
          return report;
        }
        report.output_count = joined->size();
        report.comp_s = timer.Seconds();
        report.extensions = stats.intermediate_tuples;
        return report;
      });
}

std::string KnownStrategies() {
  std::string out;
  for (const std::string& name :
       adj::core::StrategyRegistry::Global().Names()) {
    if (!out.empty()) out += " | ";
    out += name;
  }
  return out;
}

// Parses "R:v1,v2,..." (as taken by --insert / --remove) into a
// relation name and tuple. Returns false on malformed specs.
bool ParseTupleSpec(const std::string& spec, std::string* relation,
                    std::vector<adj::Value>* tuple) {
  const size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0) return false;
  *relation = spec.substr(0, colon);
  tuple->clear();
  size_t pos = colon + 1;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    if (comma == pos) return false;
    char* end = nullptr;
    const unsigned long long v =
        std::strtoull(spec.c_str() + pos, &end, 10);
    if (end != spec.c_str() + comma) return false;
    tuple->push_back(static_cast<adj::Value>(v));
    pos = comma + 1;
  }
  return !tuple->empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adj;
  Status registered = RegisterYannakakisStrategy();
  if (!registered.ok()) {
    std::fprintf(stderr, "%s\n", registered.ToString().c_str());
    return 2;
  }

  std::string graph_path, dataset_name = "AS", query_text;
  std::string load_path, save_path;
  std::string strategy = "ADJ";
  double scale = 0.2;
  int servers = 4;
  bool explain = false;
  storage::WriteBatch writes;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--graph") {
      graph_path = next();
    } else if (arg == "--insert" || arg == "--remove") {
      std::string relation;
      std::vector<Value> tuple;
      if (!ParseTupleSpec(next(), &relation, &tuple)) {
        std::fprintf(stderr, "%s expects R:v1,v2,...\n", arg.c_str());
        return 2;
      }
      if (arg == "--insert") {
        writes.Insert(std::move(relation), std::move(tuple));
      } else {
        writes.Delete(std::move(relation), std::move(tuple));
      }
    } else if (arg == "--load") {
      load_path = next();
    } else if (arg == "--save") {
      save_path = next();
    } else if (arg == "--dataset") {
      dataset_name = next();
    } else if (arg == "--scale") {
      scale = std::atof(next());
    } else if (arg == "--servers") {
      servers = std::atoi(next());
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--strategy") {
      strategy = next();
      if (!core::StrategyRegistry::Global().Contains(strategy)) {
        std::fprintf(stderr, "unknown strategy: %s (known: %s)\n",
                     strategy.c_str(), KnownStrategies().c_str());
        return 2;
      }
    } else {
      query_text = arg;
    }
  }
  if (query_text.empty()) {
    std::fprintf(stderr,
                 "usage: adj_cli [options] \"G(a,b) G(b,c) ...\"\n"
                 "  --strategy %s\n",
                 KnownStrategies().c_str());
    return 2;
  }

  StatusOr<core::SpjQuery> spj = core::ParseSpj(query_text);
  if (!spj.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 spj.status().ToString().c_str());
    return 2;
  }

  api::Database db;
  if (!load_path.empty()) {
    Status opened = db.Open(load_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "snapshot error: %s\n",
                   opened.ToString().c_str());
      return 1;
    }
    std::printf("opened snapshot %s: %llu tuples, warm indexes mapped\n",
                load_path.c_str(),
                static_cast<unsigned long long>(db.total_tuples()));
  } else if (!graph_path.empty()) {
    Status loaded = db.LoadEdgeList(graph_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load error: %s\n", loaded.ToString().c_str());
      return 1;
    }
    std::printf("loaded %llu edges from %s\n",
                static_cast<unsigned long long>(db.total_tuples()),
                graph_path.c_str());
  } else {
    Status loaded = db.LoadBuiltin(dataset_name, scale);
    if (!loaded.ok()) {
      std::fprintf(stderr, "dataset error: %s\n", loaded.ToString().c_str());
      return 1;
    }
    // LoadBuiltin just registered "G", so the lookup cannot fail; the
    // guard only keeps the deref honest.
    StatusOr<const storage::Relation*> g = db.catalog().Get("G");
    if (g.ok()) {
      std::printf("%s\n",
                  dataset::DescribeDataset(dataset_name, **g).c_str());
    }
  }

  if (!writes.empty()) {
    // One atomic batch: a validation failure (unknown relation, arity
    // mismatch) applies nothing. Tuple writes merge into the targets'
    // next versions; their mapped indexes are patched on the next bind.
    const size_t ops = writes.size();
    Status applied = db.Apply(writes);
    if (!applied.ok()) {
      std::fprintf(stderr, "write error: %s\n", applied.ToString().c_str());
      return 1;
    }
    std::printf("applied %llu write op(s)",
                static_cast<unsigned long long>(ops));
    for (const std::string& name : writes.TouchedNames()) {
      std::printf("  %s@v%llu", name.c_str(),
                  static_cast<unsigned long long>(db.relation_version(name)));
    }
    std::printf("\n");
  }

  api::Session session = db.OpenSession();
  session.options().cluster.num_servers = servers;
  session.options().num_samples = 500;
  session.set_default_strategy(strategy);

  std::printf("query: %s\nstrategy: %s, servers: %d\n\n",
              spj->ToString().c_str(), strategy.c_str(), servers);
  api::Result result;
  bool ran = false;
  if (explain) {
    StatusOr<api::PreparedQuery> prepared = session.Prepare(query_text);
    if (prepared.ok()) {
      std::printf("%s\n", prepared->explanation().c_str());
      if (strategy == "ADJ") {
        // The explained plan is the one ADJ would run — execute it
        // instead of planning the same query a second time.
        result = prepared->Run();
        ran = true;
      }
    } else {
      // Projecting queries can't be prepared; explain the join body
      // directly instead.
      core::Engine engine(&db.catalog());
      StatusOr<core::PlanResult> planned =
          engine.Plan(spj->join, session.options());
      if (planned.ok()) {
        std::printf("%s\n", planned->explanation.c_str());
      } else {
        std::printf("explain unavailable: %s\n",
                    planned.status().ToString().c_str());
      }
    }
  }
  if (!ran) result = session.Run(query_text);
  if (!result.ok()) {
    std::fprintf(stderr, "run error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", result.report().ToString().c_str());
  if (!result.report().plan_description.empty()) {
    std::printf("plan: %s\n", result.report().plan_description.c_str());
  }
  std::printf("result count: %llu",
              static_cast<unsigned long long>(result.count()));
  if (spj->projection != 0) std::printf(" (distinct projected)");
  if (result.selection_filtered() > 0) {
    std::printf("  [selection push-down removed %llu tuples]",
                static_cast<unsigned long long>(result.selection_filtered()));
  }
  if (result.index_mmap_loaded() > 0) {
    std::printf("  [%llu bindings served by snapshot-mapped indexes]",
                static_cast<unsigned long long>(result.index_mmap_loaded()));
  }
  if (result.index_patched() > 0) {
    std::printf("  [%llu bindings delta-patched, %llu delta rows merged]",
                static_cast<unsigned long long>(result.index_patched()),
                static_cast<unsigned long long>(result.delta_rows_merged()));
  }
  std::printf("\n");
  if (!save_path.empty()) {
    // Saved after the run on purpose: the snapshot carries the index
    // artifacts this query just built, so reopening starts warm.
    Status saved = db.Save(save_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "save error: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("saved snapshot to %s\n", save_path.c_str());
  }
  return 0;
}
