// The traced run's replay: the served request sequence sent again one
// layer down, with a span around every call into a layer's public
// functions — api (Session / PreparedQuery), core (ParseSpj,
// PushDownSelections, Engine::Plan / PrepareExecution / RunPrepared),
// storage (Database::Apply), and sibling probes of the planning and
// join layers (ghd, sampling, optimizer calibration, wcoj Leapfrog) on
// the same inputs.
#include <algorithm>
#include <map>
#include <optional>

#include "core/engine.h"
#include "core/spj.h"
#include "exec/hcubej.h"
#include "ghd/decomposition.h"
#include "optimizer/cost_model.h"
#include "perfbench.h"
#include "sampling/sampler.h"
#include "wcoj/leapfrog.h"

namespace perfbench {
namespace {

/// One replayed request's context: its root span and expected count.
struct Request {
  Tracer& tracer;
  int root;
  int64_t id;
  uint64_t expected;
  std::vector<std::string>* mismatches;

  void Check(const char* layer, const std::string& text, uint64_t count) {
    if (count == expected) return;
    mismatches->push_back(std::string(layer) + " replay of '" + text +
                          "' returned " + std::to_string(count) +
                          ", served/oracle " + std::to_string(expected));
  }
};

/// core::ParseSpj -> PushDownSelections -> Engine::Plan ->
/// PrepareExecution -> RunPrepared, then the sibling probes.
void ReplayCore(Request& req, const std::string& text,
                const storage::Catalog& base,
                const core::EngineOptions& options,
                const std::string& served_fingerprint, ReplayStats* stats) {
  Tracer& tr = req.tracer;
  std::optional<StatusOr<core::SpjQuery>> spj;
  {
    Scoped s(tr, "core.parse_spj", req.root, req.id);
    spj.emplace(core::ParseSpj(text));
  }
  if (!spj->ok()) {
    req.mismatches->push_back("ParseSpj('" + text + "'): " +
                              spj->status().ToString());
    return;
  }
  query::Query join = (*spj)->join;
  const storage::Catalog* db = &base;
  std::optional<core::PushedDown> pushed;
  if (!(*spj)->selections.empty()) {
    Scoped s(tr, "core.pushdown", req.root, req.id);
    StatusOr<core::PushedDown> p = core::PushDownSelections(base, **spj);
    if (!p.ok()) {
      req.mismatches->push_back("PushDownSelections: " + p.status().ToString());
      return;
    }
    pushed.emplace(std::move(p.value()));
    join = pushed->query;
    db = &pushed->catalog;
  }

  core::Engine engine(db);
  std::optional<StatusOr<core::PlanResult>> planned;
  {
    Scoped s(tr, "core.plan", req.root, req.id);
    planned.emplace(engine.Plan(join, options));
  }
  if (!planned->ok()) {
    req.mismatches->push_back("Engine::Plan: " + planned->status().ToString());
    return;
  }
  const optimizer::QueryPlan& plan = (*planned)->plan;
  std::optional<StatusOr<core::ExecutionContext>> ctx;
  {
    Scoped s(tr, "core.prepare_exec", req.root, req.id);
    ctx.emplace(engine.PrepareExecution(join, plan, options));
  }
  if (!ctx->ok()) {
    req.mismatches->push_back("PrepareExecution: " + ctx->status().ToString());
    return;
  }
  std::optional<StatusOr<exec::RunReport>> report;
  const double run_start = Now();
  {
    Scoped s(tr, "core.run_prepared", req.root, req.id);
    report.emplace(engine.RunPrepared(**ctx, options));
  }
  const double run_wall = Now() - run_start;
  if (!report->ok() || !(*report)->ok()) {
    req.mismatches->push_back(
        "RunPrepared: " + (report->ok() ? (*report)->status.ToString()
                                        : report->status().ToString()));
    return;
  }
  const exec::RunReport& r = **report;
  req.Check("core", text, r.output_count);

  ++stats->requests;
  if (!served_fingerprint.empty() &&
      PlanFingerprint(plan.ToString(join)) != served_fingerprint) {
    ++stats->plan_flips;
  }
  for (bool b : plan.precompute) stats->bags_precomputed += b ? 1 : 0;
  if (plan.est_comp_s > 0 && r.comp_s > 0) {
    stats->qerror_comp.push_back(std::max(plan.est_comp_s / r.comp_s,
                                          r.comp_s / plan.est_comp_s));
  }
  if (r.comp_s > 0) stats->wall_over_comp.push_back(run_wall / r.comp_s);
  stats->precompute_ms.push_back((*ctx)->precompute_s * 1e3);

  // Sibling probes: the planning sub-layers on the same inputs.
  std::optional<StatusOr<ghd::Decomposition>> decomp;
  {
    Scoped s(tr, "ghd.find_ghd", req.root, req.id);
    decomp.emplace(ghd::FindOptimalGhd(join));
  }
  query::AttributeOrder order;
  for (int a = 0; a < join.num_attrs(); ++a) order.push_back(a);
  if (decomp->ok()) {
    std::vector<query::AttributeOrder> valid =
        ghd::ValidAttributeOrders(**decomp, join);
    if (!valid.empty()) order = valid.front();
  }
  {
    sampling::SamplerOptions sopts;
    sopts.num_samples = options.num_samples;
    sopts.seed = options.seed;
    sopts.per_sample_limits = options.limits;
    Scoped s(tr, "sampling.sample", req.root, req.id);
    (void)sampling::SampleCardinality(join, *db, order, sopts,
                                      options.cluster.net,
                                      options.cluster.num_servers);
  }
  {
    Scoped s(tr, "optimizer.calibrate", req.root, req.id);
    (void)optimizer::CalibrateBetaPrecomputed(*db, join, order);
  }

  // The join layer alone: Leapfrog over the unsharded bound inputs of
  // the plan's final query.
  StatusOr<std::vector<exec::BoundAtom>> bound =
      exec::BindAtomsForOrder((*ctx)->query, (*ctx)->db, (*ctx)->order);
  if (!bound.ok()) {
    req.mismatches->push_back("BindAtomsForOrder: " +
                              bound.status().ToString());
    return;
  }
  std::vector<wcoj::JoinInput> inputs;
  for (const exec::BoundAtom& atom : *bound) {
    inputs.push_back({&atom.trie(), atom.attrs});
  }
  wcoj::JoinStats js;
  std::optional<StatusOr<uint64_t>> count;
  const double lf_start = Now();
  {
    Scoped s(tr, "wcoj.leapfrog", req.root, req.id);
    count.emplace(wcoj::LeapfrogJoin(inputs, (*ctx)->order, nullptr, &js));
  }
  stats->leapfrog_seconds += Now() - lf_start;
  stats->leapfrog_extensions += js.extensions;
  if (!count->ok()) {
    req.mismatches->push_back("LeapfrogJoin: " + count->status().ToString());
    return;
  }
  req.Check("wcoj", text, **count);
}

}  // namespace

void Replay(const Config& cfg, Served& served, const ServedRun& served_run,
            double seconds, Tracer& tracer, ReplayStats* stats,
            std::vector<std::string>* mismatches) {
  const core::EngineOptions& options = served.server->options().engine;

  // What the server answered, per text: count and plan structure.
  std::map<std::string, std::pair<uint64_t, std::string>> served_answer;
  std::vector<std::string> sequence;
  for (const ReadSample& s : served_run.reads) {
    if (!s.result.ok()) continue;
    if (served_answer.count(s.text) == 0) sequence.push_back(s.text);
    served_answer.emplace(
        s.text, std::make_pair(s.result.count(),
                               PlanFingerprint(
                                   s.result.report().plan_description)));
  }
  if (cfg.workload != Workload::kColdPlan) sequence = served.templates;
  if (sequence.empty()) return;

  // mixed-rw replays against its own copy of the generated graph, so
  // the served database stays untouched for the durability check.
  const bool mixed = cfg.workload == Workload::kMixedRw;
  api::Database own;
  if (mixed) own.AddRelation("G", served.graph);
  api::Database& db = mixed ? own : served.server->database();
  api::Session session = db.OpenSession();
  session.options() = options;
  bool batch_present = false;
  std::map<std::string, api::PreparedQuery> prepared;

  const double deadline = Now() + seconds;
  const size_t cycle = mixed || cfg.workload == Workload::kHotJoin
                           ? sequence.size()
                           : 1;
  // cold-plan: the hub selection its stream leaves out, planned once.
  if (!served.hub_text.empty()) {
    StatusOr<core::SpjQuery> spj = core::ParseSpj(served.hub_text);
    StatusOr<core::PushedDown> pushed =
        spj.ok() ? core::PushDownSelections(db.catalog(), *spj)
                 : StatusOr<core::PushedDown>(spj.status());
    if (!pushed.ok()) {
      mismatches->push_back("hub query: " + pushed.status().ToString());
    } else {
      core::Engine engine(&pushed->catalog);
      Scoped s(tracer, "core.plan_hub", -1, -2);
      (void)engine.Plan(pushed->query, options);
    }
  }

  // At least one request (one whole cycle for the template workloads),
  // then until the deadline, checked at cycle boundaries.
  for (size_t i = 0;; ++i) {
    if (i > 0 && i % cycle == 0 && Now() >= deadline) break;
    if (cycle == 1 && i >= sequence.size()) break;
    const std::string& text = sequence[i % sequence.size()];
    uint64_t expected = served_answer[text].first;
    if (mixed) {
      const auto& [without, with] = served.state_counts[text];
      expected = batch_present ? with : without;
    }
    const int64_t id = int64_t(i);
    Scoped root(tracer, "request", -1, id);
    Request req{tracer, root.id(), id, expected, mismatches};

    // The api layer: what a serving client calls.
    auto it = prepared.find(text);
    if (it == prepared.end() || !mixed) {
      std::optional<StatusOr<api::PreparedQuery>> p;
      {
        Scoped s(tracer, "api.prepare", root.id(), id);
        p.emplace(session.Prepare(text));
      }
      if (!p->ok()) {
        mismatches->push_back("Session::Prepare('" + text +
                              "'): " + p->status().ToString());
        continue;
      }
      it = prepared.insert_or_assign(text, std::move(p->value())).first;
    } else if (!session.IsFresh(it->second)) {
      std::optional<StatusOr<api::PreparedQuery>> p;
      {
        Scoped s(tracer, "api.reprepare", root.id(), id);
        p.emplace(session.Reprepare(it->second));
      }
      if (!p->ok()) {
        mismatches->push_back("Session::Reprepare('" + text +
                              "'): " + p->status().ToString());
        continue;
      }
      it->second = std::move(p->value());
    }
    std::optional<api::Result> result;
    {
      Scoped s(tracer, "api.run", root.id(), id);
      result.emplace(it->second.Run());
    }
    if (!result->ok()) {
      mismatches->push_back("PreparedQuery::Run('" + text +
                            "'): " + result->status().ToString());
      continue;
    }
    req.Check("api", text, result->count());

    ReplayCore(req, text, db.catalog(), options,
               mixed ? std::string() : served_answer[text].second, stats);

    // mixed-rw: one write per reader cycle, through the storage layer.
    if (mixed && (i + 1) % cycle == 0) {
      const storage::WriteBatch& batch =
          batch_present ? served.writes.remove : served.writes.insert;
      Scoped s(tracer, "storage.apply", root.id(), id);
      const Status st = db.Apply(batch);
      if (!st.ok()) {
        mismatches->push_back("Database::Apply: " + st.ToString());
        return;
      }
      batch_present = !batch_present;
    }
  }
}

}  // namespace perfbench
