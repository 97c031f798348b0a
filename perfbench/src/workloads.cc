// Seeded inputs, set-up, the closed-loop served runs, the answer
// oracles and the durability check of the three workloads.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "core/spj.h"
#include "dataset/generators.h"
#include "dist/cluster.h"
#include "exec/hcubej.h"
#include "perfbench.h"
#include "query/queries.h"

namespace perfbench {
namespace {

constexpr int kHotTemplates[] = {1, 2, 3, 5, 6, 10, 11};
constexpr int kColdShapes[] = {1, 2, 3, 5, 6, 10};
constexpr int kMixedTemplates[] = {1, 2, 11};
constexpr int kMixedReaders = 3;
// Written edges join node ids below this bound: RMAT puts its hubs at
// the low ids, so the writes land in the dense part every template reads.
constexpr Value kDenseIds = 512;
constexpr size_t kWriteEdges = 256;
constexpr size_t kColdTexts = 20000;
// The cold-plan stream leaves out the tenth of the nodes with the
// highest out-degree: a selection on one of them can plan for seconds
// (a Q5 shape up to 18 s at scale 0.15), so a run's figures would hang
// on how many it drew. The traced run plans one hub query on its own
// instead (core.plan_hub_ms).
constexpr double kHubShare = 0.10;
// mixed-rw readers think between requests (exponential, this mean):
// back-to-back readers never leave the catalog lock free, and the
// writer would wait for the whole window.
constexpr double kThinkMeanS = 0.010;

/// Independent RNG stream `stream` of the workload seed.
Rng Stream(uint64_t seed, uint64_t stream) {
  Rng mix(seed ^ (0xA24BAED4963EE407ULL * (stream + 1)));
  return Rng(mix.Next64());
}

serve::ServerOptions ServerConfig() {
  // The shipped defaults: 4 workers, 4 simulated servers, plan cache of
  // 32 entries, compaction every 4096 delta rows.
  return serve::ServerOptions{};
}

std::string SnapshotPath(const Config& cfg, const char* tag) {
  return cfg.out_dir + "/" + cfg.workload_name + "-" +
         std::to_string(cfg.seed) + "-" + tag + ".snap";
}

void Require(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               st.ToString().c_str());
  std::exit(3);
}

/// The HCubeJ count of `text` over `db`: selections pushed down, then a
/// one-round HCube join under the ascending attribute order.
StatusOr<uint64_t> OracleCount(const storage::Catalog& db,
                               const std::string& text, int threads) {
  StatusOr<core::SpjQuery> spj = core::ParseSpj(text);
  if (!spj.ok()) return spj.status();
  StatusOr<core::PushedDown> pushed = core::PushDownSelections(db, *spj);
  if (!pushed.ok()) return pushed.status();
  query::AttributeOrder order;
  for (int a = 0; a < pushed->query.num_attrs(); ++a) order.push_back(a);
  exec::HCubeJParams params;
  params.worker_threads = threads;
  dist::Cluster cluster(ServerConfig().engine.cluster);
  StatusOr<exec::HCubeJOutput> out =
      exec::RunHCubeJ(pushed->query, pushed->catalog, order, params, &cluster);
  if (!out.ok()) return out.status();
  if (!out->report.ok()) return out->report.status;
  return out->report.output_count;
}

/// Oracle counts for `texts` over `db`, four texts at a time.
std::map<std::string, uint64_t> OracleCounts(
    const storage::Catalog& db, const std::vector<std::string>& texts,
    std::vector<std::string>* mismatches) {
  std::vector<StatusOr<uint64_t>> counts(texts.size(), uint64_t{0});
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  const int threads = std::min<int>(4, int(texts.size()));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < texts.size();) {
        counts[i] = OracleCount(db, texts[i], 1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::map<std::string, uint64_t> out;
  for (size_t i = 0; i < texts.size(); ++i) {
    if (!counts[i].ok()) {
      mismatches->push_back("oracle failed for '" + texts[i] +
                            "': " + counts[i].status().ToString());
      continue;
    }
    out[texts[i]] = *counts[i];
  }
  return out;
}

storage::Catalog CatalogWith(const storage::Relation& graph) {
  storage::Catalog db;
  storage::WriteBatch create;
  create.Create("G", graph);
  Require(db.Apply(create), "oracle catalog");
  return db;
}

/// RMAT graph in the LJ stand-in's shape: 2^13 nodes, 63 000 x scale
/// edges, default quadrant weights.
storage::Relation GenerateGraph(uint64_t seed, double scale) {
  Rng rng = Stream(seed, 1);
  dataset::RmatParams params;
  params.scale = 13;
  return dataset::Rmat(params, uint64_t(63000.0 * scale), rng);
}

/// Query text of benchmark query Q`index` over relation G.
std::string TemplateText(int index) {
  StatusOr<query::Query> q = query::MakeBenchmarkQuery(index);
  Require(q.status(), "benchmark query");
  std::string text;
  for (const query::Atom& atom : q->atoms()) {
    if (!text.empty()) text += " ";
    text += atom.relation + "(";
    for (int j = 0; j < atom.schema.arity(); ++j) {
      if (j > 0) text += ",";
      text += q->attr_name(atom.schema.attr(j));
    }
    text += ")";
  }
  return text;
}

/// Nodes with an out-edge, highest out-degree first (ties by id).
std::vector<Value> SourcesByDegree(const storage::Relation& graph) {
  // The graph is sorted by source: degrees are run lengths.
  std::vector<std::pair<uint64_t, Value>> by_degree;
  for (uint64_t i = 0; i < graph.size(); ++i) {
    const Value v = graph.At(i, 0);
    if (by_degree.empty() || by_degree.back().second != v) {
      by_degree.push_back({0, v});
    }
    ++by_degree.back().first;
  }
  std::sort(by_degree.begin(), by_degree.end(), [](const auto& x, const auto& y) {
    return x.first != y.first ? x.first > y.first : x.second < y.second;
  });
  std::vector<Value> out;
  for (const auto& [degree, v] : by_degree) out.push_back(v);
  return out;
}

/// Q10 (4-cycle) selected on the highest-out-degree node.
std::string HubText(const storage::Relation& graph) {
  return TemplateText(10) + " | a=" + std::to_string(SourcesByDegree(graph)[0]);
}

/// `count` distinct cold-plan texts: Q1/Q2/Q3/Q5/Q6/Q10 shapes in
/// rotation, each with one selection a=v, v a node with an out-edge
/// outside the top hubs.
std::vector<std::string> ColdTexts(const storage::Relation& graph,
                                   uint64_t seed, size_t count) {
  const std::vector<Value> ranked = SourcesByDegree(graph);
  const size_t skip = size_t(kHubShare * double(ranked.size()));
  const std::vector<Value> pool(ranked.begin() + long(skip), ranked.end());
  const size_t shapes = std::size(kColdShapes);
  count = std::min(count, shapes * pool.size());
  std::vector<std::string> bodies;
  for (int shape : kColdShapes) bodies.push_back(TemplateText(shape));
  // Per shape, a golden-ratio sequence over the degree ranks from a
  // seeded start: uniform over nodes, and every stretch of the stream
  // holds each degree band in its share, so runs differ in their
  // constants rather than in how many costly selections they draw.
  Rng rng = Stream(seed, 2);
  std::vector<double> u(shapes);
  for (double& x : u) x = rng.NextDouble();
  std::vector<std::set<Value>> used(shapes);
  std::vector<std::string> texts;
  for (size_t i = 0; texts.size() < count; ++i) {
    const size_t shape = i % shapes;
    Value v;
    do {
      u[shape] += 0.6180339887498949;
      u[shape] -= std::floor(u[shape]);
      v = pool[size_t(u[shape] * double(pool.size()))];
    } while (!used[shape].insert(v).second);
    texts.push_back(bodies[shape] + " | a=" + std::to_string(v));
  }
  return texts;
}

/// `edges` new edges among the dense node ids: the insert batch, its
/// tombstone batch, and the graph with them added.
WritePair MakeWritePair(const storage::Relation& graph, uint64_t seed,
                        size_t edges) {
  WritePair pair;
  pair.with_batch = graph;
  Rng rng = Stream(seed, 3);
  std::set<std::pair<Value, Value>> chosen;
  while (chosen.size() < edges) {
    const Value u = Value(rng.Uniform(kDenseIds));
    const Value v = Value(rng.Uniform(kDenseIds));
    if (u == v || chosen.count({u, v}) != 0) continue;
    // The graph is sorted and deduplicated: binary-search the edge.
    const Value key[2] = {u, v};
    uint64_t lo = 0, hi = graph.size();
    while (lo < hi) {
      const uint64_t mid = (lo + hi) / 2;
      std::span<const Value> row = graph.Row(mid);
      if (std::lexicographical_compare(row.begin(), row.end(), key, key + 2)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < graph.size() && graph.At(lo, 0) == u && graph.At(lo, 1) == v) {
      continue;
    }
    chosen.insert({u, v});
  }
  for (const auto& [u, v] : chosen) {
    pair.insert.Insert("G", {u, v});
    pair.remove.Delete("G", {u, v});
    pair.with_batch.Append({u, v});
  }
  pair.with_batch.SortAndDedup();
  return pair;
}

}  // namespace

std::string PlanFingerprint(const std::string& plan_description) {
  return plan_description.substr(0, plan_description.find(", est "));
}

Served SetUp(const Config& cfg, Tracer* tracer) {
  Served s;
  const int64_t kSetupRequest = -1;
  const double start = Now();
  int root = tracer ? tracer->Begin("setup", -1, kSetupRequest) : -1;
  auto span = [&](const char* name) {
    return tracer ? tracer->Begin(name, root, kSetupRequest) : -1;
  };
  auto end = [&](int id) {
    if (tracer) tracer->End(id);
  };

  int id = span("dataset.generate");
  s.graph = GenerateGraph(cfg.seed, cfg.scale);
  end(id);
  s.generate_s = Now() - start;
  s.writes = MakeWritePair(s.graph, cfg.seed, kWriteEdges);

  api::Database db;
  db.AddRelation("G", s.graph);
  const std::string snapshot = SnapshotPath(cfg, "setup");
  auto save = [&](const api::Database& from) {
    const int saved = span("persist.save");
    const double t0 = Now();
    Require(from.Save(snapshot), "Database::Save");
    s.save_s = Now() - t0;
    end(saved);
    s.snapshot_mb = double(std::filesystem::file_size(snapshot)) / 1e6;
  };
  auto warm = [&] {
    const int warmed = span("serve.warm");
    for (const std::string& t : s.templates) {
      api::Result r = s.server->Execute(t);
      Require(r.status(), "warm-up request");
      if (cfg.workload == Workload::kMixedRw) {
        s.first_run_builds += r.index_builds();
        s.first_run_mmap += r.index_mmap_loaded();
      }
    }
    end(warmed);
  };

  if (cfg.workload == Workload::kMixedRw) {
    for (int q : kMixedTemplates) s.templates.push_back(TemplateText(q));
    // Serve from a snapshot: warm the indexes, Save, Open into a fresh
    // database; the first runs after Open should find them mapped.
    api::Session session = db.OpenSession();
    for (const std::string& t : s.templates) {
      StatusOr<api::PreparedQuery> p = session.Prepare(t);
      Require(p.status(), "mixed-rw warm prepare");
      Require(p->Run().status(), "mixed-rw warm run");
    }
    save(db);
    api::Database opened;
    id = span("persist.open");
    const double t0 = Now();
    Require(opened.Open(snapshot), "Database::Open");
    s.open_s = Now() - t0;
    end(id);
    s.server = std::make_unique<serve::Server>(std::move(opened), ServerConfig());
    warm();
  } else {
    if (cfg.workload == Workload::kHotJoin) {
      for (int q : kHotTemplates) s.templates.push_back(TemplateText(q));
    } else {
      s.cold_texts = ColdTexts(s.graph, cfg.seed, kColdTexts);
      s.hub_text = HubText(s.graph);
      // The warm state of a server that has served these shapes: base
      // indexes built, calibration measured. Every measured request
      // still misses the plan cache, since its text is new.
      for (int q : kColdShapes) s.templates.push_back(TemplateText(q));
    }
    s.server = std::make_unique<serve::Server>(std::move(db), ServerConfig());
    warm();
    // What a restart would map back in.
    save(s.server->database());
  }
  end(root);
  s.setup_s = Now() - start;
  // A served snapshot stays mapped; unlinking it keeps the mapping.
  std::filesystem::remove(snapshot);
  return s;
}

ServedRun Serve(const Config& cfg, Served& served, double seconds,
                size_t* next_cold, bool traced) {
  serve::Server& server = *served.server;
  const storage::IndexCache& index = server.database().catalog().index_cache();
  ServedRun run;
  run.before = server.stats();
  run.index_before = index.stats();

  const int readers = cfg.workload == Workload::kMixedRw ? kMixedReaders : 1;
  std::vector<std::vector<ReadSample>> logs(static_cast<size_t>(readers));
  std::vector<Tracer> tracers(static_cast<size_t>(readers));
  std::vector<Rng> think_rng;
  for (int c = 0; c < readers; ++c) {
    think_rng.push_back(Stream(cfg.seed, 10 + uint64_t(c)));
  }
  const double start = Now();
  const double deadline = start + seconds;

  // Closed loop: a client sends its next request when the previous one
  // answered. Template cycles run whole, so every template is sampled
  // equally often.
  auto reader = [&](int client) {
    const size_t cycle =
        cfg.workload == Workload::kColdPlan ? 1 : served.templates.size();
    const size_t rotation = served.templates.size();
    for (size_t i = 0;; ++i) {
      if (i % cycle == 0 && Now() >= deadline) break;
      ReadSample sample;
      sample.client = client;
      if (cfg.workload == Workload::kColdPlan) {
        if (*next_cold >= served.cold_texts.size()) break;
        sample.text = served.cold_texts[(*next_cold)++];
      } else {
        sample.text = served.templates[(i + size_t(client)) % cycle];
      }
      // A traced phase traces every other round of templates (or
      // shapes), so traced and untraced requests of each interleave and
      // their latency difference is the tracing overhead.
      sample.traced = traced && (i / rotation) % 2 == 1;
      Tracer& tr = tracers[size_t(client)];
      const int64_t request = (int64_t(client) << 32) | int64_t(i);
      const int root =
          sample.traced ? tr.Begin("serve.request", -1, request) : -1;
      const int submit =
          sample.traced ? tr.Begin("serve.submit", root, request) : -1;
      const double t0 = Now();
      StatusOr<std::future<api::Result>> future = server.Submit(sample.text);
      if (sample.traced) tr.End(submit);
      if (!future.ok()) {
        sample.result = api::Result(future.status());
      } else {
        sample.result = future->get();
      }
      sample.latency_s = Now() - t0;
      if (sample.traced) tr.End(root);
      logs[size_t(client)].push_back(std::move(sample));
      if (cfg.workload == Workload::kMixedRw) {
        const double u = think_rng[size_t(client)].NextDouble();
        std::this_thread::sleep_for(
            std::chrono::duration<double>(-kThinkMeanS * std::log(1.0 - u)));
      }
    }
  };

  auto writer = [&] {
    size_t prev_chain = 0;
    while (Now() < deadline) {
      const storage::WriteBatch& batch =
          served.batch_present ? served.writes.remove : served.writes.insert;
      const double t0 = Now();
      const Status st = server.Apply(batch);
      const double t1 = Now();
      if (!st.ok()) {
        ++run.write_failures;
        continue;
      }
      run.write_latencies.push_back(t1 - t0);
      served.batch_present = !served.batch_present;
      ++run.writes;
      StatusOr<storage::Catalog::EntryState> state =
          server.database().catalog().Inspect("G");
      if (state.ok()) {
        if (state->deltas.size() < prev_chain) ++run.compactions;
        prev_chain = state->deltas.size();
      }
    }
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < readers; ++c) clients.emplace_back(reader, c);
  if (cfg.workload == Workload::kMixedRw) clients.emplace_back(writer);
  for (std::thread& t : clients) t.join();
  run.elapsed_s = Now() - start;

  for (int c = 0; c < readers; ++c) {
    for (ReadSample& s : logs[size_t(c)]) run.reads.push_back(std::move(s));
    run.spans.Append(tracers[size_t(c)]);
  }
  run.after = server.stats();
  run.index_after = index.stats();
  return run;
}

void CheckAnswers(const Config& cfg, Served& served,
                  const std::vector<const ServedRun*>& runs,
                  std::vector<std::string>* mismatches) {
  std::set<std::string> distinct;
  for (const ServedRun* run : runs) {
    for (const ReadSample& s : run->reads) distinct.insert(s.text);
  }
  const std::vector<std::string> texts(distinct.begin(), distinct.end());

  // Every count a read may return: one for the read-only workloads,
  // the two committed states (without / with the batch) for mixed-rw.
  std::map<std::string, std::vector<uint64_t>> allowed;
  if (cfg.workload == Workload::kMixedRw) {
    const storage::Catalog without = CatalogWith(served.graph);
    const storage::Catalog with = CatalogWith(served.writes.with_batch);
    std::map<std::string, uint64_t> a =
        OracleCounts(without, served.templates, mismatches);
    std::map<std::string, uint64_t> b =
        OracleCounts(with, served.templates, mismatches);
    for (const std::string& t : served.templates) {
      served.state_counts[t] = {a[t], b[t]};
      allowed[t] = {a[t], b[t]};
    }
  } else {
    // The read-only workloads have not written yet: the served catalog
    // is the generated graph.
    for (const auto& [text, count] :
         OracleCounts(served.server->database().catalog(), texts,
                      mismatches)) {
      allowed[text] = {count};
    }
  }

  for (const ServedRun* run : runs) {
    for (const ReadSample& s : run->reads) {
      if (!s.result.ok()) continue;  // counted as failed, not as wrong
      const std::vector<uint64_t>& ok = allowed[s.text];
      if (std::find(ok.begin(), ok.end(), s.result.count()) != ok.end()) {
        continue;
      }
      char buf[96];
      std::snprintf(buf, sizeof(buf), " returned %" PRIu64 ", oracle",
                    s.result.count());
      std::string line = "'" + s.text + "'" + buf;
      for (uint64_t c : ok) line += " " + std::to_string(c);
      mismatches->push_back(line);
    }
  }
}

void CheckDurability(const Config& cfg, Served& served,
                     std::vector<std::string>* mismatches) {
  serve::Server& server = *served.server;
  server.Drain();
  // The reopened snapshot answers every template exactly as the live
  // server does, and the live server is in the committed state its
  // write count implies.
  const std::string path = SnapshotPath(cfg, "after");
  Require(server.database().Save(path), "Database::Save");
  api::Database reopened;
  Require(reopened.Open(path), "Database::Open");
  api::Session session = reopened.OpenSession();
  for (const std::string& t : served.templates) {
    const api::Result live = server.Execute(t);
    const api::Result back = session.Run(t);
    const auto& [without, with] = served.state_counts[t];
    const uint64_t expected = served.batch_present ? with : without;
    if (!live.ok() || live.count() != expected) {
      mismatches->push_back("live '" + t + "' after drain: " +
                            live.ToString() + ", expected " +
                            std::to_string(expected));
    }
    if (!back.ok() || back.count() != live.count()) {
      mismatches->push_back("reopened '" + t + "': " + back.ToString() +
                            ", live " + std::to_string(live.count()));
    }
  }
  std::filesystem::remove(path);
}

std::vector<double> WriteProbe(Served& served, int n) {
  std::vector<double> latencies;
  for (int i = 0; i < n; ++i) {
    // Spread over about a second, so one stretch of host noise does not
    // decide the figure.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const storage::WriteBatch& batch =
        served.batch_present ? served.writes.remove : served.writes.insert;
    const double t0 = Now();
    Require(served.server->Apply(batch), "Server::Apply");
    latencies.push_back(Now() - t0);
    served.batch_present = !served.batch_present;
  }
  // Refresh the plans the writes staled, so the window starts warm.
  for (const std::string& t : served.templates) {
    Require(served.server->Execute(t).status(), "re-warm request");
  }
  return latencies;
}

}  // namespace perfbench
