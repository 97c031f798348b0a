// Compressed-trie smoke: what block-compressed index storage buys and
// what it costs, end to end on the WB builtin. Two databases over the
// same dataset — one with IndexCache trie compression disabled (raw
// baseline), one with the default-on compression — prepare and run the
// same triangle query. Gates, each a hard failure for CI's Release
// leg:
//
//   1. Size — the trie bytes resident in the compressed cache must be
//      <= 0.6x the raw cache's trie bytes (the block codec must
//      actually earn its keep on a real skewed graph), and the
//      compressed run must report nonzero compressed_bytes /
//      blocks_decoded while the raw run reports zero.
//   2. Speed — the warm prepared run over compressed tries must stay
//      within 1.15x of the raw-trie run (best of kRounds each; the two
//      runs alternate round by round, so both minima are taken over
//      the same stretch of machine noise): intersecting directly on
//      compressed runs (skip-table galloping + per-block decode into
//      executor scratch) is allowed to cost a little, not a lot.
//   3. Answers agree.
//
// Emits BENCH_compressed.json so the size/speed trade-off is recorded
// per run. Scale knob: ADJ_BENCH_SCALE (bench_util.h).
#include <cstdio>
#include <memory>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "storage/trie.h"

namespace adj::bench {
namespace {

constexpr char kQuery[] = "G(a,b) G(b,c) G(a,c)";
constexpr double kMaxTrieByteRatio = 0.6;  // compressed / raw
constexpr double kMaxRunRatio = 1.15;      // compressed / raw, warm
constexpr int kRounds = 15;

/// Total resident bytes of the distinct tries in a catalog's index
/// cache (payloads can share a trie; count each once).
uint64_t TrieResidentBytes(const storage::Catalog& catalog) {
  uint64_t bytes = 0;
  std::set<const storage::Trie*> seen;
  for (const storage::IndexCache::ExportedPayload& p :
       catalog.index_cache().ExportPermutedIndexes()) {
    if (p.trie != nullptr && seen.insert(p.trie.get()).second) {
      bytes += p.trie->ResidentBytes();
    }
  }
  return bytes;
}

struct PreparedRun {
  api::Database db;
  std::unique_ptr<api::Session> session;
  std::unique_ptr<api::PreparedQuery> prepared;
  double best_run_s = 0.0;
  uint64_t count = 0;
  uint64_t compressed_bytes = 0;
  uint64_t blocks_decoded = 0;
};

/// Opens WB and prepares the triangle with trie compression on or off.
PreparedRun Prepare(double scale, bool compress) {
  PreparedRun out;
  StatusOr<api::Database> db = api::Database::OpenBuiltin("WB", scale);
  ADJ_CHECK(db.ok()) << db.status();
  out.db = std::move(*db);
  out.db.catalog().index_cache().set_compress_tries(compress);
  out.session = std::make_unique<api::Session>(out.db.OpenSession());
  out.session->options().cluster.num_servers = 1;
  StatusOr<api::PreparedQuery> prepared = out.session->Prepare(kQuery);
  ADJ_CHECK(prepared.ok()) << prepared.status();
  out.prepared = std::make_unique<api::PreparedQuery>(std::move(*prepared));
  return out;
}

/// Times one warm prepared run, keeping the best.
void TimeRun(PreparedRun* run, int round) {
  WallTimer t;
  api::Result res = run->prepared->Run();
  const double s = t.Seconds();
  ADJ_CHECK(res.ok()) << res.status();
  if (round == 0 || s < run->best_run_s) run->best_run_s = s;
  run->count = res.count();
  run->compressed_bytes = res.compressed_bytes();
  run->blocks_decoded = res.blocks_decoded();
}

int Run() {
  // Default above bench_util's 0.2: the 1.15x run gate needs the join
  // well clear of timer noise, and the 0.6x size gate needs levels
  // past the compressor's min-size threshold.
  const double scale = ScaleFromEnv(4.0);
  int failures = 0;

  PreparedRun raw = Prepare(scale, /*compress=*/false);
  PreparedRun comp = Prepare(scale, /*compress=*/true);
  for (int round = 0; round < kRounds; ++round) {
    TimeRun(&raw, round);
    TimeRun(&comp, round);
  }

  const uint64_t raw_trie_bytes = TrieResidentBytes(raw.db.catalog());
  const uint64_t comp_trie_bytes = TrieResidentBytes(comp.db.catalog());
  const double byte_ratio =
      raw_trie_bytes > 0
          ? static_cast<double>(comp_trie_bytes) / raw_trie_bytes
          : 1.0;
  const double run_ratio =
      raw.best_run_s > 0 ? comp.best_run_s / raw.best_run_s : 1.0;

  std::printf(
      "compressed smoke: out=%llu trie_bytes(raw=%llu compressed=%llu "
      "ratio=%.3f) run(raw=%.4fs compressed=%.4fs ratio=%.3f) "
      "report(bytes=%llu blocks=%llu)\n",
      static_cast<unsigned long long>(comp.count),
      static_cast<unsigned long long>(raw_trie_bytes),
      static_cast<unsigned long long>(comp_trie_bytes), byte_ratio,
      raw.best_run_s, comp.best_run_s, run_ratio,
      static_cast<unsigned long long>(comp.compressed_bytes),
      static_cast<unsigned long long>(comp.blocks_decoded));

  FILE* json = std::fopen("BENCH_compressed.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"compressed\",\n"
                 "  \"query\": \"%s\",\n"
                 "  \"dataset\": \"WB\",\n"
                 "  \"scale\": %.4f,\n"
                 "  \"output_count\": %llu,\n"
                 "  \"raw_trie_bytes\": %llu,\n"
                 "  \"compressed_trie_bytes\": %llu,\n"
                 "  \"trie_byte_ratio\": %.4f,\n"
                 "  \"raw_run_seconds\": %.6f,\n"
                 "  \"compressed_run_seconds\": %.6f,\n"
                 "  \"run_ratio\": %.4f,\n"
                 "  \"compressed_bytes_reported\": %llu,\n"
                 "  \"blocks_decoded\": %llu\n"
                 "}\n",
                 kQuery, scale,
                 static_cast<unsigned long long>(comp.count),
                 static_cast<unsigned long long>(raw_trie_bytes),
                 static_cast<unsigned long long>(comp_trie_bytes),
                 byte_ratio, raw.best_run_s, comp.best_run_s, run_ratio,
                 static_cast<unsigned long long>(comp.compressed_bytes),
                 static_cast<unsigned long long>(comp.blocks_decoded));
    std::fclose(json);
  }

  if (byte_ratio > kMaxTrieByteRatio) {
    std::fprintf(stderr,
                 "FAIL: compressed trie bytes %.3fx of raw (> %.2f)\n",
                 byte_ratio, kMaxTrieByteRatio);
    ++failures;
  }
  if (run_ratio > kMaxRunRatio) {
    std::fprintf(stderr, "FAIL: compressed run %.3fx of raw (> %.2f)\n",
                 run_ratio, kMaxRunRatio);
    ++failures;
  }
  if (comp.count != raw.count) {
    std::fprintf(stderr, "FAIL: compressed count %llu != raw %llu\n",
                 static_cast<unsigned long long>(comp.count),
                 static_cast<unsigned long long>(raw.count));
    ++failures;
  }
  if (comp.compressed_bytes == 0 || comp.blocks_decoded == 0) {
    std::fprintf(stderr,
                 "FAIL: compressed run reported bytes=%llu blocks=%llu "
                 "(want both nonzero)\n",
                 static_cast<unsigned long long>(comp.compressed_bytes),
                 static_cast<unsigned long long>(comp.blocks_decoded));
    ++failures;
  }
  if (raw.compressed_bytes != 0 || raw.blocks_decoded != 0) {
    std::fprintf(stderr,
                 "FAIL: raw run reported bytes=%llu blocks=%llu "
                 "(want both zero)\n",
                 static_cast<unsigned long long>(raw.compressed_bytes),
                 static_cast<unsigned long long>(raw.blocks_decoded));
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace adj::bench

int main() { return adj::bench::Run(); }
