// Coverage for the wcoj/intersect kernel layer: the SeekGEQ galloping
// primitive, 2-way kernels (scalar / AVX2) checked property-style
// against std::set_intersection and bit-for-bit against each other,
// the compressed-run kernels, the k-way driver over raw, compressed
// and mixed RunViews with its row-major position matrix, and in-place
// compaction (output aliasing an input). Also pins the leapfrog
// executor's kernel counters end to end.
#include "wcoj/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "query/attribute_order.h"
#include "storage/relation.h"
#include "wcoj/leapfrog.h"

namespace adj::wcoj::intersect {
namespace {

/// Strictly increasing values: `count` draws from [0, universe),
/// clamped so a small universe can still fill the set.
std::vector<Value> SortedUnique(Rng& rng, size_t count, uint32_t universe) {
  count = std::min<size_t>(count, universe / 2 + 1);
  std::set<Value> vals;
  while (vals.size() < count) {
    vals.insert(static_cast<Value>(rng.Uniform(universe)));
  }
  return {vals.begin(), vals.end()};
}

std::vector<Value> Reference(std::span<const Value> a,
                             std::span<const Value> b) {
  std::vector<Value> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Runs one fixed-implementation kernel and validates values against
/// the reference and positions against the inputs.
void CheckKernel(Kernel k, const std::vector<Value>& a,
                 const std::vector<Value>& b) {
  if (!CpuSupports(k)) GTEST_SKIP() << "CPU lacks " << KernelName(k);
  const std::vector<Value> expect = Reference(a, b);
  const size_t cap = std::min(a.size(), b.size());
  std::vector<Value> out(cap, 0);
  std::vector<uint32_t> pa(cap, 0), pb(cap, 0);
  KernelStats stats;
  size_t n = 0;
  switch (k) {
    case Kernel::kScalar:
      n = Intersect2Scalar(a, b, out.data(), pa.data(), 1, pb.data(), 1,
                           &stats);
      break;
    case Kernel::kAvx2:
      n = Intersect2Avx2(a, b, out.data(), pa.data(), 1, pb.data(), 1,
                         &stats);
      break;
    default:
      FAIL() << "not a fixed kernel";
  }
  ASSERT_EQ(n, expect.size()) << KernelName(k);
  for (size_t t = 0; t < n; ++t) {
    EXPECT_EQ(out[t], expect[t]) << KernelName(k) << " value " << t;
    ASSERT_LT(pa[t], a.size());
    ASSERT_LT(pb[t], b.size());
    EXPECT_EQ(a[pa[t]], out[t]) << KernelName(k) << " pos-a " << t;
    EXPECT_EQ(b[pb[t]], out[t]) << KernelName(k) << " pos-b " << t;
  }
}

const Kernel kAllKernels[] = {Kernel::kScalar, Kernel::kAvx2};

TEST(SeekGeqTest, MatchesLowerBoundWithAndWithoutHint) {
  Rng rng(1);
  for (int round = 0; round < 50; ++round) {
    std::vector<Value> s =
        SortedUnique(rng, 1 + rng.Uniform(200), 1000);
    for (int probe = 0; probe < 20; ++probe) {
      const Value v = static_cast<Value>(rng.Uniform(1100));
      const size_t want = static_cast<size_t>(
          std::lower_bound(s.begin(), s.end(), v) - s.begin());
      EXPECT_EQ(SeekGEQ(s, v), want);
      const size_t hint = rng.Uniform(s.size() + 1);
      const size_t got = SeekGEQ(s, v, hint);
      // With a hint the contract is "first index in [hint, n)".
      const size_t want_hinted = std::max(want, hint);
      EXPECT_EQ(got, want_hinted);
    }
  }
  KernelStats stats;
  std::vector<Value> s{5, 10, 15};
  SeekGEQ(s, 12, 0, &stats);
  EXPECT_EQ(stats.seeks, 1u);
}

TEST(Intersect2Test, EdgeCases) {
  const std::vector<Value> empty;
  const std::vector<Value> one{7};
  const std::vector<Value> dense{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  const std::vector<Value> disjoint{100, 200, 300};
  for (Kernel k : kAllKernels) {
    if (!CpuSupports(k)) continue;
    CheckKernel(k, empty, dense);
    CheckKernel(k, dense, empty);
    CheckKernel(k, one, dense);       // singleton hit
    CheckKernel(k, one, disjoint);    // singleton miss
    CheckKernel(k, dense, disjoint);  // fully disjoint
    CheckKernel(k, dense, dense);     // identical
    // Range-boundary hits: matches exactly at both ends.
    CheckKernel(k, {1, 12}, dense);
    CheckKernel(k, {0, 1, 12, 13}, dense);
  }
}

TEST(Intersect2Test, RandomizedAgainstSetIntersection) {
  Rng rng(2);
  for (int round = 0; round < 60; ++round) {
    // Mixed densities exercise the emit-heavy path, the block-skip
    // path, and the galloping path.
    const uint32_t universe = 50 + static_cast<uint32_t>(rng.Uniform(2000));
    std::vector<Value> a =
        SortedUnique(rng, 1 + rng.Uniform(300), universe);
    std::vector<Value> b =
        SortedUnique(rng, 1 + rng.Uniform(300), universe);
    for (Kernel k : kAllKernels) {
      if (!CpuSupports(k)) continue;
      CheckKernel(k, a, b);
    }
  }
}

TEST(Intersect2Test, AdversarialGallopDistances) {
  // One sparse side vs one dense side: the kernels must gallop over
  // long runs (whole-block-below) and the sparse side must be retired
  // one probe at a time (whole-block-above).
  Rng rng(3);
  std::vector<Value> dense(4096);
  for (size_t i = 0; i < dense.size(); ++i) {
    dense[i] = static_cast<Value>(2 * i);
  }
  std::vector<Value> sparse;
  for (Value v = 0; v < 8192; v += 511) sparse.push_back(v);
  for (Kernel k : kAllKernels) {
    if (!CpuSupports(k)) continue;
    CheckKernel(k, sparse, dense);
    CheckKernel(k, dense, sparse);
  }
}

TEST(Intersect2Test, KernelsAgreeBitForBit) {
  if (!CpuSupports(Kernel::kAvx2)) GTEST_SKIP() << "CPU lacks avx2";
  Rng rng(4);
  for (int round = 0; round < 40; ++round) {
    const uint32_t universe = 100 + static_cast<uint32_t>(rng.Uniform(4000));
    std::vector<Value> a = SortedUnique(rng, 1 + rng.Uniform(500), universe);
    std::vector<Value> b = SortedUnique(rng, 1 + rng.Uniform(500), universe);
    const size_t cap = std::min(a.size(), b.size());
    KernelStats stats;
    std::vector<Value> ref_out(cap);
    std::vector<uint32_t> ref_pa(cap), ref_pb(cap);
    const size_t ref_n = Intersect2Scalar(a, b, ref_out.data(),
                                          ref_pa.data(), 1, ref_pb.data(), 1,
                                          &stats);
    std::vector<Value> out(cap);
    std::vector<uint32_t> pa(cap), pb(cap);
    const size_t n = Intersect2Avx2(a, b, out.data(), pa.data(), 1,
                                    pb.data(), 1, &stats);
    ASSERT_EQ(n, ref_n);
    for (size_t t = 0; t < n; ++t) {
      EXPECT_EQ(out[t], ref_out[t]);
      EXPECT_EQ(pa[t], ref_pa[t]);
      EXPECT_EQ(pb[t], ref_pb[t]);
    }
  }
}

TEST(Intersect2Test, InPlaceCompactionAliasingEitherInput) {
  Rng rng(5);
  for (int round = 0; round < 30; ++round) {
    std::vector<Value> a = SortedUnique(rng, 1 + rng.Uniform(200), 600);
    std::vector<Value> b = SortedUnique(rng, 1 + rng.Uniform(200), 600);
    const std::vector<Value> expect = Reference(a, b);
    // Alias the output onto the *smaller* input (what the k-way
    // reduction does), for every dispatchable kernel.
    for (Kernel k : kAllKernels) {
      if (!CpuSupports(k)) continue;
      SetKernel(k);
      std::vector<Value> a_copy = a;
      std::vector<Value> b_copy = b;
      const bool a_smaller = a.size() <= b.size();
      Value* out = a_smaller ? a_copy.data() : b_copy.data();
      const size_t n = Intersect2(a_copy, b_copy, out);
      ASSERT_EQ(n, expect.size()) << KernelName(k);
      for (size_t t = 0; t < n; ++t) EXPECT_EQ(out[t], expect[t]);
    }
    SetKernel(Kernel::kAuto);
  }
}

TEST(DispatchTest, ForcedScalarCountsFallbacksAndAgrees) {
  Rng rng(7);
  std::vector<Value> a = SortedUnique(rng, 200, 1000);
  std::vector<Value> b = SortedUnique(rng, 200, 1000);
  const std::vector<Value> expect = Reference(a, b);
  std::vector<Value> out(std::min(a.size(), b.size()));

  SetKernel(Kernel::kScalar);
  EXPECT_EQ(ActiveKernel(), Kernel::kScalar);
  KernelStats scalar_stats;
  const size_t n_scalar =
      Intersect2(a, b, out.data(), nullptr, 1, nullptr, 1, &scalar_stats);
  EXPECT_EQ(scalar_stats.scalar_fallbacks, 1u);
  EXPECT_EQ(scalar_stats.simd_intersections, 0u);
  ASSERT_EQ(n_scalar, expect.size());

  SetKernel(Kernel::kAuto);
  const Kernel active = ActiveKernel();
  KernelStats auto_stats;
  const size_t n_auto =
      Intersect2(a, b, out.data(), nullptr, 1, nullptr, 1, &auto_stats);
  ASSERT_EQ(n_auto, expect.size());
  for (size_t t = 0; t < n_auto; ++t) EXPECT_EQ(out[t], expect[t]);
  if (active != Kernel::kScalar) {
    EXPECT_EQ(auto_stats.simd_intersections, 1u);
    EXPECT_EQ(auto_stats.scalar_fallbacks, 0u);
  }
  // Forcing a kernel the CPU may lack falls back to scalar rather
  // than faulting.
  SetKernel(Kernel::kAvx2);
  EXPECT_TRUE(ActiveKernel() == Kernel::kAvx2 ||
              ActiveKernel() == Kernel::kScalar);
  SetKernel(Kernel::kAuto);
}

// End-to-end: a leapfrog triangle join ticks the JoinStats kernel
// counters, and forced-scalar and dispatched runs agree on the result.
TEST(LeapfrogKernelTest, JoinCountsKernelUseAndKernelChoiceIsInvisible) {
  Rng rng(8);
  storage::Relation edges(storage::Schema({0, 1}));
  for (int i = 0; i < 400; ++i) {
    edges.Append({static_cast<Value>(rng.Uniform(40)),
                  static_cast<Value>(rng.Uniform(40))});
  }
  edges.SortAndDedup();

  auto run = [&](uint64_t* simd, uint64_t* scalar) -> uint64_t {
    PreparedRelation ab = *PrepareRelation(edges, {0, 1}, {0, 1, 2});
    PreparedRelation bc = *PrepareRelation(edges, {1, 2}, {0, 1, 2});
    PreparedRelation ac = *PrepareRelation(edges, {0, 2}, {0, 1, 2});
    std::vector<JoinInput> inputs = {{&ab.trie, ab.attrs},
                                     {&bc.trie, bc.attrs},
                                     {&ac.trie, ac.attrs}};
    query::AttributeOrder order{0, 1, 2};
    JoinStats stats;
    StatusOr<uint64_t> count =
        LeapfrogJoin(inputs, order, nullptr, &stats);
    EXPECT_TRUE(count.ok()) << count.status();
    *simd = stats.simd_intersections;
    *scalar = stats.scalar_fallbacks;
    return *count;
  };

  uint64_t simd = 0, scalar = 0;
  SetKernel(Kernel::kScalar);
  const uint64_t scalar_count = run(&simd, &scalar);
  EXPECT_EQ(simd, 0u);
  EXPECT_GT(scalar, 0u);

  SetKernel(Kernel::kAuto);
  uint64_t simd2 = 0, scalar2 = 0;
  const uint64_t auto_count = run(&simd2, &scalar2);
  EXPECT_EQ(auto_count, scalar_count);
  if (ActiveKernel() != Kernel::kScalar) {
    EXPECT_GT(simd2, 0u);
    EXPECT_EQ(scalar2, 0u);
  }
}

// ---------------------------------------------------------------------------
// Compressed-run kernels, property-checked against the raw kernels
// over the same values.

namespace bc = storage::blockcodec;

/// A block-compressed level made of sorted sibling runs, remembering
/// each run's [lo, hi) — the only ranges the run kernels are defined
/// over.
struct RunLevel {
  std::vector<Value> values;
  std::vector<std::pair<uint32_t, uint32_t>> runs;
  bc::CompressedLevel enc;

  CompressedRun Run(size_t i) const {
    return {enc.View(), runs[i].first, runs[i].second};
  }
  std::span<const Value> RawRun(size_t i) const {
    return std::span<const Value>(values).subspan(
        runs[i].first, runs[i].second - runs[i].first);
  }
};

RunLevel MakeRunLevel(Rng& rng, int num_runs, uint32_t max_run,
                      uint32_t universe) {
  RunLevel out;
  for (int r = 0; r < num_runs; ++r) {
    const std::vector<Value> run =
        SortedUnique(rng, 1 + rng.Uniform(max_run), universe);
    const uint32_t lo = uint32_t(out.values.size());
    out.values.insert(out.values.end(), run.begin(), run.end());
    out.runs.emplace_back(lo, uint32_t(out.values.size()));
  }
  bc::EncodeLevel(out.values, &out.enc);
  return out;
}

TEST(CompressedRunTest, SeekGEQRunMatchesRawSeek) {
  Rng rng(31337);
  for (int round = 0; round < 40; ++round) {
    const RunLevel lvl = MakeRunLevel(rng, 1 + int(rng.Uniform(12)), 400, 5000);
    bc::DecodeCache cache;
    KernelStats stats;
    for (size_t i = 0; i < lvl.runs.size(); ++i) {
      const std::span<const Value> raw = lvl.RawRun(i);
      for (int probe = 0; probe < 50; ++probe) {
        const Value v = Value(rng.Uniform(5200));
        const size_t hint = rng.Uniform(raw.size() + 1);
        ASSERT_EQ(SeekGEQRun(lvl.Run(i), v, hint, &cache, &stats),
                  SeekGEQ(raw, v, hint))
            << "run " << i << " v=" << v << " hint=" << hint;
      }
    }
  }
}

TEST(CompressedRunTest, Intersect2CRAndCCMatchRawWithPositions) {
  Rng rng(271828);
  for (int round = 0; round < 60; ++round) {
    const RunLevel la = MakeRunLevel(rng, 1 + int(rng.Uniform(6)), 500, 4000);
    const RunLevel lb = MakeRunLevel(rng, 1 + int(rng.Uniform(6)), 500, 4000);
    const size_t ia = rng.Uniform(la.runs.size());
    const size_t ib = rng.Uniform(lb.runs.size());
    const std::span<const Value> ra = la.RawRun(ia), rb = lb.RawRun(ib);
    const size_t cap = std::min(ra.size(), rb.size());

    std::vector<Value> want(cap), got(cap);
    std::vector<uint32_t> want_pa(cap), want_pb(cap), pa(cap), pb(cap);
    const size_t wn = Intersect2(ra, rb, want.data(), want_pa.data(), 1,
                                 want_pb.data(), 1, nullptr);

    bc::DecodeCache ca, cb;
    KernelStats stats;
    const size_t cr = Intersect2CR(la.Run(ia), rb, got.data(), pa.data(), 1,
                                   pb.data(), 1, &ca, &stats);
    ASSERT_EQ(cr, wn) << "CR round " << round;
    for (size_t t = 0; t < wn; ++t) {
      ASSERT_EQ(got[t], want[t]) << "CR value " << t;
      ASSERT_EQ(pa[t], want_pa[t]) << "CR pos-a " << t;
      ASSERT_EQ(pb[t], want_pb[t]) << "CR pos-b " << t;
    }

    const size_t cc = Intersect2CC(la.Run(ia), lb.Run(ib), got.data(),
                                   pa.data(), 1, pb.data(), 1, &ca, &cb,
                                   &stats);
    ASSERT_EQ(cc, wn) << "CC round " << round;
    for (size_t t = 0; t < wn; ++t) {
      ASSERT_EQ(got[t], want[t]) << "CC value " << t;
      ASSERT_EQ(pa[t], want_pa[t]) << "CC pos-a " << t;
      ASSERT_EQ(pb[t], want_pb[t]) << "CC pos-b " << t;
    }
    EXPECT_GT(stats.blocks_decoded, 0u);
  }
}

// The single k-way family over every representation mix, for k = 1..5:
// values against a std::set_intersection chain over the raw runs,
// positions against each input run, and the values-only variant
// against the positions variant.
TEST(IntersectKTest, MatchesSetIntersectionOverRawCompressedAndMixedRuns) {
  enum class Mix { kRaw, kCompressed, kMixed };
  Rng rng(1618);
  for (int k = 1; k <= 5; ++k) {
    for (Mix mix : {Mix::kRaw, Mix::kCompressed, Mix::kMixed}) {
      int nonempty = 0;
      for (int round = 0; round < 15; ++round) {
        // Dense multi-block runs (up to ~300 of a 600-value universe),
        // so even 5-way intersections are usually non-empty.
        std::vector<RunLevel> levels;
        std::vector<std::span<const Value>> raw;
        std::vector<RunView> views;
        // All levels first: the views below point into their storage.
        for (int j = 0; j < k; ++j) {
          levels.push_back(
              MakeRunLevel(rng, 1 + int(rng.Uniform(4)), 400, 600));
        }
        for (int j = 0; j < k; ++j) {
          const size_t run = rng.Uniform(levels[j].runs.size());
          raw.push_back(levels[j].RawRun(run));
          const bool compressed =
              mix == Mix::kCompressed || (mix == Mix::kMixed && j % 2 == 0);
          views.push_back(compressed ? RunView::Compressed(levels[j].Run(run))
                                     : RunView::Raw(raw.back()));
        }
        std::vector<Value> expect(raw[0].begin(), raw[0].end());
        size_t cap = raw[0].size();
        for (int j = 1; j < k; ++j) {
          expect = Reference(expect, raw[j]);
          cap = std::min(cap, raw[j].size());
        }
        nonempty += !expect.empty();

        // All-raw calls may pass no caches at all.
        std::vector<bc::DecodeCache> caches(mix == Mix::kRaw ? 0 : k);
        bc::DecodeCache* const cache_ptr =
            caches.empty() ? nullptr : caches.data();
        std::vector<Value> out(cap);
        std::vector<uint32_t> pos(cap * k), pa(cap), pb(cap), ord(k);
        const KScratch scratch{pa.data(), pb.data(), ord.data()};
        KernelStats stats;
        const size_t n = IntersectK(views.data(), k, out.data(), pos.data(),
                                    scratch, cache_ptr, &stats);
        ASSERT_EQ(n, expect.size()) << "k=" << k << " round " << round;
        for (size_t t = 0; t < n; ++t) {
          ASSERT_EQ(out[t], expect[t]) << "k=" << k << " value " << t;
          for (int j = 0; j < k; ++j) {
            const uint32_t p = pos[t * k + j];
            ASSERT_LT(p, raw[j].size());
            ASSERT_EQ(raw[j][p], out[t])
                << "k=" << k << " value " << t << " input " << j;
          }
        }

        std::vector<bc::DecodeCache> vcaches(caches.size());
        std::vector<Value> vals_only(cap);
        const size_t vn = IntersectKValues(
            views.data(), k, vals_only.data(),
            vcaches.empty() ? nullptr : vcaches.data(), &stats);
        ASSERT_EQ(vn, n);
        for (size_t t = 0; t < n; ++t) ASSERT_EQ(vals_only[t], out[t]);
        if (mix == Mix::kRaw) {
          EXPECT_EQ(stats.blocks_decoded, 0u);
        }
      }
      EXPECT_GT(nonempty, 0) << "k=" << k;
    }
  }
}

TEST(DenseKernelTest, DispatchedDenseIntersectionAgreesWithScalar) {
  Rng rng(42424);
  for (int round = 0; round < 20; ++round) {
    // Dense similar-size inputs (small gaps, lengths within 4x) steer
    // the dispatcher onto the all-pairs SIMD kernel when the CPU has
    // one; the answer must not depend on that choice.
    std::vector<Value> a, b;
    Value va = 0, vb = 0;
    const size_t na = 2000 + rng.Uniform(2000);
    const size_t nb = na / (1 + rng.Uniform(3));
    for (size_t i = 0; i < na; ++i) a.push_back(va += 1 + Value(rng.Uniform(3)));
    for (size_t i = 0; i < nb; ++i) b.push_back(vb += 1 + Value(rng.Uniform(3)));

    const size_t cap = std::min(a.size(), b.size());
    std::vector<Value> want(cap), got(cap);
    KernelStats stats;
    const size_t wn = Intersect2Scalar(a, b, want.data(), nullptr, 1, nullptr,
                                       1, &stats);
    const size_t gn =
        Intersect2(a, b, got.data(), nullptr, 1, nullptr, 1, &stats);
    ASSERT_EQ(gn, wn) << "round " << round;
    for (size_t t = 0; t < wn; ++t) ASSERT_EQ(got[t], want[t]);
  }
}

}  // namespace
}  // namespace adj::wcoj::intersect
