// perfbench: the repository benchmark. Runs one workload end to end
// through serve::Server and prints one JSON result line; see
// perfbench/README.md for the workloads, every metric and the layer ->
// end-to-end table.
//
//   perfbench --workload hot-join|cold-plan|mixed-rw --seed N
//             --seconds S --trace 0|1 [--smoke] [--out DIR] [--git-sha SHA]
//
// --trace 0 reports the end-to-end metrics (wall clock, untraced);
// --trace 1 reports the per-layer metrics of a traced run. Exit code 0
// only when every answer matched its oracle.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "perfbench.h"
#include "wcoj/intersect.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

// ---------------------------------------------------------------------
// Helpers declared in perfbench.h.
// ---------------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

std::string Json::Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

Json& Json::Num(const std::string& key, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return Raw(key, buf);
}
Json& Json::Int(const std::string& key, uint64_t v) {
  return Raw(key, std::to_string(v));
}
Json& Json::Bool(const std::string& key, bool v) {
  return Raw(key, v ? "true" : "false");
}
Json& Json::Str(const std::string& key, const std::string& v) {
  return Raw(key, Quote(v));
}
Json& Json::Raw(const std::string& key, std::string json) {
  kv_.emplace_back(key, std::move(json));
  return *this;
}
std::string Json::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < kv_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(kv_[i].first) + ": " + kv_[i].second;
  }
  return out + "}";
}

namespace {

constexpr int kProbeWrites = 400;

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string HostJson() {
  return Json()
      .Int("nproc", std::thread::hardware_concurrency())
      .Str("cpu_model", CpuModel())
      .Str("l2_cache", ReadFirstLine("/sys/devices/system/cpu/cpu0/cache/index2/size"))
      .Str("intersect_kernel",
           wcoj::intersect::KernelName(wcoj::intersect::ActiveKernel()))
      .Dump();
}

std::vector<double> Ms(const std::vector<double>& seconds) {
  std::vector<double> out;
  for (double s : seconds) out.push_back(s * 1e3);
  return out;
}

/// Latencies and counters of the reads that answered.
struct ReadSummary {
  std::vector<double> latency_ms;
  std::vector<double> modeled_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

ReadSummary Summarize(const std::vector<const ServedRun*>& runs) {
  ReadSummary s;
  for (const ServedRun* run : runs) {
    for (const ReadSample& r : run->reads) {
      ++s.attempted;
      if (!r.result.ok()) {
        ++s.failed;
        continue;
      }
      s.latency_ms.push_back(r.latency_s * 1e3);
      s.modeled_ms.push_back(r.result.total_seconds() * 1e3);
    }
    s.attempted += run->writes + run->write_failures;
    s.failed += run->write_failures;
  }
  return s;
}

/// Per distinct text: served count, plan fingerprint, median latency.
std::string PerTemplateJson(const Served& served, const ServedRun& run) {
  if (!served.cold_texts.empty()) return "[]";
  std::string out = "[";
  for (const std::string& t : served.templates) {
    std::vector<double> lat;
    std::set<std::string> plans;
    uint64_t count = 0;
    for (const ReadSample& r : run.reads) {
      if (r.text != t || !r.result.ok()) continue;
      lat.push_back(r.latency_s * 1e3);
      plans.insert(PlanFingerprint(r.result.report().plan_description));
      count = r.result.count();
    }
    std::string fps = "[";
    for (const std::string& p : plans) {
      fps += (fps.size() > 1 ? ", " : "") + Json::Quote(p);
    }
    if (out.size() > 1) out += ", ";
    out += Json()
               .Str("text", t)
               .Int("samples", lat.size())
               .Num("latency_p50_ms", Quantile(lat, 0.5))
               .Int("count", count)
               .Raw("plans", fps + "]")
               .Dump();
  }
  return out + "]";
}

std::string MetricsJson(const Metrics& m) {
  Json j;
  for (const Metrics::Item& it : m.items) {
    j.Raw(it.name, Json().Num("value", it.value).Str("unit", it.unit).Dump());
  }
  return j.Dump();
}

/// Traced over untraced latency, minus one: per query shape (the text
/// before any selection), the ratio of the traced and untraced median
/// latencies; the median of those ratios.
double TracingOverhead(const ServedRun& run) {
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_shape;
  for (const ReadSample& r : run.reads) {
    if (!r.result.ok()) continue;
    auto& [traced, untraced] = by_shape[r.text.substr(0, r.text.find(" |"))];
    (r.traced ? traced : untraced).push_back(r.latency_s);
  }
  std::vector<double> ratios;
  for (const auto& [shape, lat] : by_shape) {
    if (lat.first.empty() || lat.second.empty()) continue;
    ratios.push_back(Quantile(lat.first, 0.5) / Quantile(lat.second, 0.5));
  }
  return ratios.empty() ? 0.0 : Quantile(ratios, 0.5) - 1.0;
}

struct Outcome {
  ReadSummary reads;
  Metrics metrics;
  Json record;
  std::vector<std::string> mismatches;
  std::string spans_json;  // traced run only
};

/// Samples the process's resident set every 50 ms while alive.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling; returns the largest sample, in MB.
  double Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return peak_mb_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    do {
      peak_mb_ = std::max(peak_mb_, RssMb());
    } while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                           [this] { return stop_; }));
    peak_mb_ = std::max(peak_mb_, RssMb());
  }

  static double RssMb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmRSS:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0.0;
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;         // guarded by mu_
  double peak_mb_ = 0.0;      // written by the sampler thread
  std::thread thread_;        // last: starts after the fields above
};

Outcome RunUntraced(const Config& cfg) {
  Outcome out;
  std::vector<double> setups;
  Served served;
  for (int r = 0; r < cfg.setup_repeats; ++r) {
    served = Served();  // the previous set-up's server is gone first
    served = SetUp(cfg, nullptr);
    setups.push_back(served.setup_s);
  }
  const bool mixed = cfg.workload == Workload::kMixedRw;
  std::vector<double> writes;
  if (!mixed) writes = WriteProbe(served, kProbeWrites);

  size_t cursor = 0;
  RssSampler rss;
  const ServedRun run = Serve(cfg, served, cfg.seconds, &cursor, false);
  const double peak_rss_mb = rss.Stop();
  const double index_mb =
      double(served.server->database().catalog().index_cache().resident_bytes()) /
      1e6;
  if (mixed) writes = run.write_latencies;

  CheckAnswers(cfg, served, {&run}, &out.mismatches);
  if (mixed) CheckDurability(cfg, served, &out.mismatches);

  out.reads = Summarize({&run});
  const std::vector<double>& lat = out.reads.latency_ms;
  const std::vector<double> write_ms = Ms(writes);
  Metrics& m = out.metrics;
  m.Add("setup_s", Quantile(setups, 0.5), "s");
  m.Add("latency_p50_ms", Quantile(lat, 0.5), "ms");
  m.Add("latency_p90_ms", Quantile(lat, 0.9), "ms");
  m.Add("throughput_qps", double(lat.size()) / run.elapsed_s, "1/s");
  m.Add("write_p50_ms", Quantile(write_ms, 0.5), "ms");
  m.Add("write_p90_ms", Quantile(write_ms, 0.9), "ms");
  m.Add("modeled_p50_ms", Quantile(out.reads.modeled_ms, 0.5), "ms");
  m.Add("peak_rss_mb", peak_rss_mb, "MB");
  m.Add("snapshot_mb", served.snapshot_mb, "MB");

  std::string setup_list = "[";
  for (double s : setups) {
    setup_list += (setup_list.size() > 1 ? ", " : "") + std::to_string(s);
  }
  out.record.Raw("setup_s_each", setup_list + "]")
      .Int("reads_ok", lat.size())
      .Int("reads_beyond_p90", uint64_t(double(lat.size()) * 0.1))
      .Int("writes", writes.size())
      .Raw("write_ms_p50_p90_p99_max",
           "[" + std::to_string(Quantile(write_ms, 0.5)) + ", " +
               std::to_string(Quantile(write_ms, 0.9)) + ", " +
               std::to_string(Quantile(write_ms, 0.99)) + ", " +
               std::to_string(Quantile(write_ms, 1.0)) + "]")
      .Str("writes_measured", mixed ? "writer client beside the readers"
                                    : "probe on the set-up server")
      .Int("compactions", run.compactions)
      .Num("index_cache_resident_mb", index_mb)
      .Raw("templates", PerTemplateJson(served, run));
  return out;
}

Outcome RunTraced(const Config& cfg) {
  Outcome out;
  Tracer tracer;
  Served served = SetUp(cfg, &tracer);
  size_t cursor = 0;
  // Half the window serves requests (every other round traced), the
  // other half replays them one layer down.
  const ServedRun run = Serve(cfg, served, cfg.seconds * 0.5, &cursor, true);
  CheckAnswers(cfg, served, {&run}, &out.mismatches);
  ReplayStats rs;
  Replay(cfg, served, run, cfg.seconds * 0.5, tracer, &rs, &out.mismatches);
  tracer.Append(run.spans);
  const storage::IndexCache& index =
      served.server->database().catalog().index_cache();
  const double index_mb = double(index.resident_bytes()) / 1e6;
  const serve::ServerStats stats_end = served.server->stats();
  if (cfg.workload == Workload::kMixedRw) {
    CheckDurability(cfg, served, &out.mismatches);
  }

  out.reads = Summarize({&run});

  // Per-read means of the served reads' Result counters.
  double answered = 0, ext = 0, inter = 0, tuples = 0, bytes = 0, simd = 0,
         scalar = 0, blocks = 0, compressed_max = 0;
  std::vector<double> comm_ms;
  for (const ReadSample& r : run.reads) {
    if (!r.result.ok()) continue;
    const exec::RunReport& rep = r.result.report();
    answered += 1;
    ext += double(rep.extensions);
    for (size_t l = 0; l + 1 < rep.tuples_at_level.size(); ++l) {
      inter += double(rep.tuples_at_level[l]);
    }
    tuples += double(rep.comm.tuple_copies);
    bytes += double(rep.comm.bytes);
    simd += double(rep.simd_intersections);
    scalar += double(rep.scalar_fallbacks);
    blocks += double(rep.blocks_decoded);
    compressed_max = std::max(compressed_max, double(rep.compressed_bytes));
    comm_ms.push_back(rep.comm_s * 1e3);
  }
  const double per_read = answered > 0 ? 1.0 / answered : 0.0;
  const storage::IndexCache::Stats& i0 = run.index_before;
  const storage::IndexCache::Stats& i1 = run.index_after;
  const double builds = double(i1.builds - i0.builds);
  const double hits = double(i1.hits - i0.hits);
  const uint64_t cache_hits = run.after.cache.hits - run.before.cache.hits;
  const uint64_t cache_misses = run.after.cache.misses - run.before.cache.misses;
  auto median_ms = [&](const char* span) {
    return Quantile(Ms(tracer.Durations(span)), 0.5);
  };
  const double overhead = TracingOverhead(run);

  Metrics& m = out.metrics;
  m.Add("serve.plan_builds", double(run.after.plan_builds - run.before.plan_builds),
        "count");
  m.Add("serve.plan_cache_hit_ratio",
        cache_hits + cache_misses > 0
            ? double(cache_hits) / double(cache_hits + cache_misses)
            : 0.0,
        "ratio");
  m.Add("serve.reprepared", double(run.after.reprepared - run.before.reprepared),
        "count");
  m.Add("serve.submit_us", median_ms("serve.submit") * 1e3, "us");
  m.Add("serve.writes_per_s", double(run.writes) / run.elapsed_s, "1/s");
  m.Add("serve.write_max_ms", Quantile(Ms(run.write_latencies), 1.0), "ms");
  m.Add("serve.error_rate",
        out.reads.attempted > 0
            ? double(out.reads.failed) / double(out.reads.attempted)
            : 0.0,
        "ratio");
  m.Add("api.prepare_ms", median_ms("api.prepare"), "ms");
  m.Add("api.run_ms", median_ms("api.run"), "ms");
  m.Add("api.reprepare_ms", median_ms("api.reprepare"), "ms");
  m.Add("core.parse_spj_us", median_ms("core.parse_spj") * 1e3, "us");
  m.Add("core.pushdown_ms", median_ms("core.pushdown"), "ms");
  m.Add("core.plan_ms", median_ms("core.plan"), "ms");
  m.Add("core.plan_hub_ms", median_ms("core.plan_hub"), "ms");
  m.Add("core.prepare_exec_ms", median_ms("core.prepare_exec"), "ms");
  m.Add("core.run_prepared_ms", median_ms("core.run_prepared"), "ms");
  m.Add("ghd.find_ghd_ms", median_ms("ghd.find_ghd"), "ms");
  m.Add("sampling.sample_ms", median_ms("sampling.sample"), "ms");
  m.Add("optimizer.calibrate_ms", median_ms("optimizer.calibrate"), "ms");
  m.Add("optimizer.qerror_comp", Quantile(rs.qerror_comp, 0.5), "ratio");
  m.Add("optimizer.bags_precomputed",
        rs.requests > 0 ? double(rs.bags_precomputed) / double(rs.requests)
                        : 0.0,
        "count");
  m.Add("optimizer.plan_flips", double(rs.plan_flips), "count");
  m.Add("exec.precompute_ms", Quantile(rs.precompute_ms, 0.5), "ms");
  m.Add("exec.extensions", ext * per_read, "count");
  m.Add("exec.intermediate_tuples", inter * per_read, "count");
  m.Add("dist.shuffled_tuples", tuples * per_read, "count");
  m.Add("dist.shuffle_mb", bytes * per_read / 1e6, "MB");
  m.Add("dist.modeled_comm_ms", Quantile(comm_ms, 0.5), "ms");
  m.Add("dist.wall_over_comp", Quantile(rs.wall_over_comp, 0.5), "ratio");
  m.Add("wcoj.leapfrog_ms", median_ms("wcoj.leapfrog"), "ms");
  m.Add("wcoj.extensions_per_s",
        rs.leapfrog_seconds > 0
            ? double(rs.leapfrog_extensions) / rs.leapfrog_seconds
            : 0.0,
        "1/s");
  m.Add("wcoj.simd_intersections", simd * per_read, "count");
  m.Add("wcoj.scalar_fallbacks", scalar * per_read, "count");
  m.Add("wcoj.blocks_decoded", blocks * per_read, "count");
  m.Add("storage.index_builds", builds * per_read, "count");
  m.Add("storage.index_reused", hits * per_read, "count");
  m.Add("storage.index_hit_ratio",
        hits + builds > 0 ? hits / (hits + builds) : 0.0, "ratio");
  m.Add("storage.index_patched",
        double(i1.patched_builds - i0.patched_builds) * per_read, "count");
  m.Add("storage.delta_rows_merged",
        double(i1.delta_rows_merged - i0.delta_rows_merged) * per_read,
        "count");
  m.Add("storage.apply_ms", median_ms("storage.apply"), "ms");
  m.Add("storage.compactions", double(run.compactions), "count");
  m.Add("storage.pinned_index_mb", double(stats_end.cache.resident_bytes) / 1e6,
        "MB");
  m.Add("storage.compressed_mb", compressed_max / 1e6, "MB");
  m.Add("storage.index_cache_mb", index_mb, "MB");
  m.Add("persist.save_s", served.save_s, "s");
  m.Add("persist.open_s", served.open_s, "s");
  m.Add("persist.index_mmap", double(served.first_run_mmap), "count");
  m.Add("persist.first_run_builds", double(served.first_run_builds), "count");
  m.Add("dataset.generate_s", served.generate_s, "s");
  m.Add("trace.overhead_pct", overhead * 100.0, "%");

  Json self;
  for (const auto& [name, seconds] : tracer.SelfSeconds()) {
    self.Num(name, seconds);
  }
  out.record.Raw("self_time_s", self.Dump())
      .Int("replayed_requests", rs.requests)
      .Int("served_reads", out.reads.latency_ms.size())
      .Int("writes", run.writes)
      .Raw("templates", PerTemplateJson(served, run));

  std::string spans = "[";
  for (const Span& s : tracer.spans()) {
    if (spans.size() > 1) spans += ",\n";
    spans += Json()
                 .Str("name", s.name)
                 .Num("start", s.start)
                 .Num("end", s.end)
                 .Raw("parent", std::to_string(s.parent))
                 .Raw("request", std::to_string(s.request))
                 .Dump();
  }
  out.spans_json = spans + "]\n";
  return out;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "hot-join|cold-plan|mixed-rw --seed N --seconds S --trace 0|1 "
               "[--smoke] [--out DIR] [--git-sha SHA]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      cfg.workload_name = val;
      have_workload = true;
      if (val == "hot-join") {
        cfg.workload = Workload::kHotJoin;
      } else if (val == "cold-plan") {
        cfg.workload = Workload::kColdPlan;
      } else if (val == "mixed-rw") {
        cfg.workload = Workload::kMixedRw;
      } else {
        return Usage(("unknown workload " + val).c_str());
      }
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = val == "1";
    } else if (arg == "--out") {
      cfg.out_dir = val;
    } else if (arg == "--git-sha") {
      cfg.git_sha = val;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");
  if (cfg.smoke) {
    cfg.scale = 0.03;
    cfg.setup_repeats = 1;
  }
  std::filesystem::create_directories(cfg.out_dir);

  Outcome out = cfg.trace ? RunTraced(cfg) : RunUntraced(cfg);
  const bool correct = out.mismatches.empty();
  for (size_t i = 0; i < out.mismatches.size() && i < 20; ++i) {
    std::fprintf(stderr, "MISMATCH: %s\n", out.mismatches[i].c_str());
  }

  const std::string base = cfg.out_dir + "/" + cfg.workload_name + "-seed" +
                           std::to_string(cfg.seed) + "-trace" +
                           (cfg.trace ? "1" : "0");
  std::string mismatch_list = "[";
  for (size_t i = 0; i < out.mismatches.size() && i < 20; ++i) {
    mismatch_list += (i > 0 ? ", " : "") + Json::Quote(out.mismatches[i]);
  }
  Json record;
  record.Str("workload", cfg.workload_name)
      .Int("seed", cfg.seed)
      .Bool("trace", cfg.trace)
      .Bool("smoke", cfg.smoke)
      .Num("scale", cfg.scale)
      .Num("seconds", cfg.seconds)
      .Str("git_sha", cfg.git_sha)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Raw("host", HostJson())
      .Str("clocks",
           "wall fields from the benchmark's steady_clock; modeled_* from "
           "api::Result::total_seconds()")
      .Bool("correct", correct)
      .Int("attempted", out.reads.attempted)
      .Int("failed", out.reads.failed)
      .Raw("mismatches", mismatch_list + "]")
      .Raw("metrics", MetricsJson(out.metrics))
      .Raw("detail", out.record.Dump());
  std::ofstream(base + ".json") << record.Dump() << "\n";
  if (!out.spans_json.empty()) {
    std::ofstream(base + "-spans.json") << out.spans_json;
  }

  for (const Metrics::Item& it : out.metrics.items) {
    std::fprintf(stderr, "  %-28s %14.4f %s\n", it.name.c_str(), it.value,
                 it.unit.c_str());
  }
  std::printf("%s\n", Json()
                          .Bool("correct", correct)
                          .Int("attempted", out.reads.attempted)
                          .Int("failed", out.reads.failed)
                          .Raw("metrics", MetricsJson(out.metrics))
                          .Dump()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
