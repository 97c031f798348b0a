#include "wcoj/intersect.h"

#include <algorithm>
#include <atomic>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#define ADJ_INTERSECT_X86 1
#include <immintrin.h>
#endif

namespace adj::wcoj::intersect {

namespace {

std::atomic<Kernel> g_forced{Kernel::kAuto};

}  // namespace

bool CpuSupports(Kernel k) {
  switch (k) {
    case Kernel::kAuto:
    case Kernel::kScalar:
      return true;
    case Kernel::kAvx2:
#if defined(ADJ_INTERSECT_X86) && defined(__GNUC__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

void SetKernel(Kernel k) { g_forced.store(k, std::memory_order_relaxed); }

Kernel ActiveKernel() {
  static const Kernel detected =
      CpuSupports(Kernel::kAvx2) ? Kernel::kAvx2 : Kernel::kScalar;
  const Kernel forced = g_forced.load(std::memory_order_relaxed);
  if (forced == Kernel::kAuto) return detected;
  return CpuSupports(forced) ? forced : Kernel::kScalar;
}

const char* KernelName(Kernel k) {
  switch (k) {
    case Kernel::kAuto:
      return "auto";
    case Kernel::kScalar:
      return "scalar";
    case Kernel::kAvx2:
      return "avx2";
  }
  return "?";
}

size_t SeekGEQ(std::span<const Value> s, Value v, size_t hint,
               KernelStats* stats) {
  if (stats != nullptr) ++stats->seeks;
  const size_t n = s.size();
  size_t lo = hint;
  if (lo >= n || s[lo] >= v) return lo;
  // Galloping phase: double the step from lo until we overshoot.
  size_t step = 1;
  size_t prev = lo;
  size_t cur = lo + 1;
  while (cur < n && s[cur] < v) {
    prev = cur;
    step <<= 1;
    cur = (step > n - lo) ? n : lo + step;
  }
  // Binary search in (prev, cur].
  size_t a = prev + 1, b = std::min(cur + 1, n);
  while (a < b) {
    const size_t mid = a + (b - a) / 2;
    if (s[mid] < v) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  return a;
}

namespace {

/// Shared scalar merge for the kernels' tail handling and the scalar
/// baseline itself: galloping on whichever side lags.
inline size_t ScalarTail(std::span<const Value> a, std::span<const Value> b,
                         size_t i, size_t j, size_t n, Value* out_vals,
                         uint32_t* out_pa, size_t stride_a, uint32_t* out_pb,
                         size_t stride_b, KernelStats* stats) {
  const size_t na = a.size(), nb = b.size();
  while (i < na && j < nb) {
    const Value x = a[i];
    const Value y = b[j];
    if (x == y) {
      out_vals[n] = x;
      if (out_pa != nullptr) out_pa[n * stride_a] = static_cast<uint32_t>(i);
      if (out_pb != nullptr) out_pb[n * stride_b] = static_cast<uint32_t>(j);
      ++n;
      ++i;
      ++j;
    } else if (x < y) {
      i = SeekGEQ(a, y, i + 1, stats);
    } else {
      j = SeekGEQ(b, x, j + 1, stats);
    }
  }
  return n;
}

}  // namespace

size_t Intersect2Scalar(std::span<const Value> a, std::span<const Value> b,
                        Value* out_vals, uint32_t* out_pa, size_t stride_a,
                        uint32_t* out_pb, size_t stride_b,
                        KernelStats* stats) {
  return ScalarTail(a, b, 0, 0, 0, out_vals, out_pa, stride_a, out_pb,
                    stride_b, stats);
}

#if defined(ADJ_INTERSECT_X86) && defined(__GNUC__)

// Block-compare kernel: hold one probe value x = a[i], compare it
// against a vector's worth of b in one shot. Per iteration this either
// emits a match, retires x, or skips a whole block of b — and when an
// entire block sits below x, it falls back to galloping, so the kernel
// never loses to the scalar baseline on skewed inputs.

__attribute__((target("avx2"))) size_t Intersect2Avx2(
    std::span<const Value> a, std::span<const Value> b, Value* out_vals,
    uint32_t* out_pa, size_t stride_a, uint32_t* out_pb, size_t stride_b,
    KernelStats* stats) {
  const size_t na = a.size(), nb = b.size();
  size_t i = 0, j = 0, n = 0;
  while (i < na && j + 8 <= nb) {
    const Value x = a[i];
    const __m256i vx = _mm256_set1_epi32(static_cast<int>(x));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b.data() + j));
    const __m256i eq = _mm256_cmpeq_epi32(vx, vb);
    const unsigned eqm = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(eq)));
    if (eqm != 0) {
      // Strictly increasing b: at most one lane matches.
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(eqm));
      out_vals[n] = x;
      if (out_pa != nullptr) out_pa[n * stride_a] = static_cast<uint32_t>(i);
      if (out_pb != nullptr) {
        out_pb[n * stride_b] = static_cast<uint32_t>(j + lane);
      }
      ++n;
      ++i;
      j += lane + 1;
      continue;
    }
    // Lanes with b < x (unsigned compare via max): no eq lane, so
    // max(b, x) == x exactly where b < x. The mask is a contiguous
    // low-bit run because b ascends.
    const __m256i le = _mm256_cmpeq_epi32(_mm256_max_epu32(vb, vx), vx);
    const unsigned ltm = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(le)));
    if (ltm == 0xFFu) {
      j = SeekGEQ(b, x, j + 8, stats);  // whole block below x: gallop
    } else if (ltm == 0) {
      i = SeekGEQ(a, b[j], i + 1, stats);  // whole block above x
    } else {
      // x falls inside this block and is absent.
      j += static_cast<unsigned>(__builtin_popcount(ltm));
      ++i;
    }
  }
  return ScalarTail(a, b, i, j, n, out_vals, out_pa, stride_a, out_pb,
                    stride_b, stats);
}

// All-pairs ("shuffling", à la Lemire/Schlegel) variant for the dense
// similar-size shape, where block-compare degenerates to one probe per
// element and only ties scalar: compare a full vector of a against
// every rotation of a full vector of b, compress-store the matching a
// lanes, and advance whichever side's max is smaller. Values-only —
// recovering b positions from the rotation that hit would cost more
// than the win — so dispatch selects it only when no positions are
// requested.

namespace {

/// Lookup table mapping an 8-bit match mask to the lane permutation
/// that packs the matching lanes to the front.
struct Compress8Table {
  alignas(32) uint32_t idx[256][8];
  // prefix[c]: store mask selecting the first c lanes.
  alignas(32) uint32_t prefix[9][8];
  Compress8Table() {
    for (int m = 0; m < 256; ++m) {
      int k = 0;
      for (int lane = 0; lane < 8; ++lane) {
        if (m & (1 << lane)) idx[m][k++] = static_cast<uint32_t>(lane);
      }
      for (; k < 8; ++k) idx[m][k] = 0;
    }
    for (int c = 0; c <= 8; ++c) {
      for (int lane = 0; lane < 8; ++lane) {
        prefix[c][lane] = lane < c ? 0xFFFFFFFFu : 0;
      }
    }
  }
};

/// Both sides dense (average sibling gap <= 4) and within 4x of each
/// other's length (`a` is already the shorter side). Small inputs go
/// through the block-compare path — the all-pairs loop needs a full
/// vector per side to pay off.
inline bool OverlapsOutput(const Value* out, size_t out_len,
                           std::span<const Value> in) {
  const uintptr_t ob = reinterpret_cast<uintptr_t>(out);
  const uintptr_t oe = ob + out_len * sizeof(Value);
  const uintptr_t ib = reinterpret_cast<uintptr_t>(in.data());
  const uintptr_t ie = ib + in.size() * sizeof(Value);
  return ib < oe && ob < ie;
}

inline bool DenseSimilar(std::span<const Value> a, std::span<const Value> b) {
  const size_t na = a.size(), nb = b.size();
  if (na < 16) return false;
  if (nb > 4 * na) return false;
  return uint64_t(a.back() - a.front()) <= 4 * uint64_t(na - 1) &&
         uint64_t(b.back() - b.front()) <= 4 * uint64_t(nb - 1);
}

__attribute__((target("avx2"))) size_t IntersectDenseAvx2(
    std::span<const Value> a, std::span<const Value> b, Value* out_vals,
    KernelStats* stats) {
  static const Compress8Table table;
  const size_t na = a.size(), nb = b.size();
  size_t i = 0, j = 0, n = 0;
  // Rotation index vectors (lane l of rotation r reads vb lane
  // (l + r) % 8).
  __m256i rot[7];
  for (int r = 1; r <= 7; ++r) {
    alignas(32) uint32_t lanes[8];
    for (uint32_t l = 0; l < 8; ++l) lanes[l] = (l + r) & 7u;
    rot[r - 1] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
  }
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + j));
    __m256i eq = _mm256_cmpeq_epi32(va, vb);
    for (int r = 0; r < 7; ++r) {
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[r])));
    }
    const unsigned mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(eq)));
    if (mask != 0) {
      const unsigned cnt = static_cast<unsigned>(__builtin_popcount(mask));
      const __m256i shuf = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(table.idx[mask]));
      // Masked store writes exactly cnt lanes: a plain 8-wide store
      // would overshoot the min(na, nb)-sized output buffer when the
      // match count runs close to capacity.
      _mm256_maskstore_epi32(reinterpret_cast<int*>(out_vals + n),
                             _mm256_load_si256(reinterpret_cast<const __m256i*>(
                                 table.prefix[cnt])),
                             _mm256_permutevar8x32_epi32(va, shuf));
      n += cnt;
    }
    const Value amax = a[i + 7], bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  return ScalarTail(a, b, i, j, n, out_vals, nullptr, 1, nullptr, 1, stats);
}

}  // namespace

#else  // !x86: the AVX2 entry point exists but must not be called.

size_t Intersect2Avx2(std::span<const Value> a, std::span<const Value> b,
                      Value* out_vals, uint32_t* out_pa, size_t stride_a,
                      uint32_t* out_pb, size_t stride_b, KernelStats* stats) {
  return Intersect2Scalar(a, b, out_vals, out_pa, stride_a, out_pb, stride_b,
                          stats);
}

#endif  // ADJ_INTERSECT_X86

size_t Intersect2(std::span<const Value> a, std::span<const Value> b,
                  Value* out_vals, uint32_t* out_pa, size_t stride_a,
                  uint32_t* out_pb, size_t stride_b, KernelStats* stats) {
  // The block kernels scan the longer side vector-wide and retire the
  // shorter side one probe at a time: make `a` the shorter side.
  if (a.size() > b.size()) {
    std::swap(a, b);
    std::swap(out_pa, out_pb);
    std::swap(stride_a, stride_b);
  }
  const bool avx2 = ActiveKernel() == Kernel::kAvx2;
#if defined(ADJ_INTERSECT_X86) && defined(__GNUC__)
  // Dense similar-size shape: block-compare retires one probe per
  // element and only ties scalar there; the all-pairs kernel wins but
  // is values-only and — unlike the merge kernels, whose writes
  // strictly trail their reads — revisits input lanes after emitting,
  // so it must not run in place (the k-way reduction aliases out_vals
  // with its intermediate input).
  if (avx2 && out_pa == nullptr && out_pb == nullptr && DenseSimilar(a, b) &&
      !OverlapsOutput(out_vals, std::min(a.size(), b.size()), a) &&
      !OverlapsOutput(out_vals, std::min(a.size(), b.size()), b)) {
    if (stats != nullptr) ++stats->simd_intersections;
    return IntersectDenseAvx2(a, b, out_vals, stats);
  }
#endif
  if (avx2) {
    if (stats != nullptr) ++stats->simd_intersections;
    return Intersect2Avx2(a, b, out_vals, out_pa, stride_a, out_pb, stride_b,
                          stats);
  }
  if (stats != nullptr) ++stats->scalar_fallbacks;
  return Intersect2Scalar(a, b, out_vals, out_pa, stride_a, out_pb, stride_b,
                          stats);
}

namespace {

namespace bc = storage::blockcodec;
constexpr uint32_t kB = bc::kBlockValues;

/// Last block in [blk, bend] whose min is <= x, assuming blk itself is
/// already a valid candidate (its min is <= x or lies before the run's
/// first in-range position). Exponential gallop + binary search over
/// the skip table — the "seek via block skip-metadata" step.
inline uint32_t GallopBlocks(std::span<const Value> mins, uint32_t blk,
                             uint32_t bend, Value x) {
  uint32_t step = 1;
  while (blk + step <= bend && mins[blk + step] <= x) {
    blk += step;
    step <<= 1;
  }
  uint32_t a = blk + 1;
  uint32_t b = static_cast<uint32_t>(
      std::min<uint64_t>(uint64_t(blk) + step, bend) + 1);
  while (a < b) {
    const uint32_t mid = a + (b - a) / 2;
    if (mins[mid] <= x) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  return a - 1;
}

/// Decoded window of one block clipped to the run: cache->vals indexes
/// [s, e) hold positions [base + s, base + e) of the level.
struct BlockWindow {
  uint32_t s = 0;
  uint32_t e = 0;
  uint64_t base = 0;
};

inline BlockWindow DecodeWindow(const CompressedRun& r, uint32_t blk,
                                bc::DecodeCache* cache, KernelStats* stats) {
  const uint32_t cnt = bc::DecodeBlockCached(
      r.level, blk, cache, stats != nullptr ? &stats->blocks_decoded : nullptr);
  BlockWindow w;
  w.base = uint64_t(blk) * kB;
  w.s = static_cast<uint32_t>(std::max<uint64_t>(r.lo, w.base) - w.base);
  w.e = static_cast<uint32_t>(std::min<uint64_t>(r.hi, w.base + cnt) - w.base);
  return w;
}

}  // namespace

size_t SeekGEQRun(const CompressedRun& r, Value v, size_t hint,
                  bc::DecodeCache* cache, KernelStats* stats) {
  if (stats != nullptr) ++stats->seeks;
  const uint64_t lo = uint64_t(r.lo) + hint;
  if (lo >= r.hi) return r.size();
  const uint32_t bend = (r.hi - 1) / kB;
  const uint32_t cb = GallopBlocks(r.level.mins,
                                   static_cast<uint32_t>(lo / kB), bend, v);
  CompressedRun clipped = r;
  clipped.lo = static_cast<uint32_t>(lo);
  const BlockWindow w = DecodeWindow(clipped, cb, cache, stats);
  const Value* const buf = cache->vals;
  const Value* p = std::lower_bound(buf + w.s, buf + w.e, v);
  if (p != buf + w.e) {
    return static_cast<size_t>(w.base + (p - buf) - r.lo);
  }
  // Whole window below v: the next block's first value (if any is left
  // inside the run) is the first >= v.
  return static_cast<size_t>(std::min<uint64_t>(r.hi, w.base + kB) - r.lo);
}

size_t Intersect2CR(const CompressedRun& a, std::span<const Value> b,
                    Value* out_vals, uint32_t* out_pa, size_t stride_a,
                    uint32_t* out_pb, size_t stride_b,
                    bc::DecodeCache* cache_a, KernelStats* stats) {
  if (a.lo >= a.hi || b.empty()) return 0;
  const uint32_t bend = (a.hi - 1) / kB;
  uint32_t blk = a.lo / kB;
  size_t j = 0, n = 0;
  while (blk <= bend && j < b.size()) {
    // Skip whole blocks below b[j] via the skip table (every value of
    // block blk is < the next block's min — strictly increasing run).
    if (blk < bend && a.level.mins[blk + 1] <= b[j]) {
      blk = GallopBlocks(a.level.mins, blk + 1, bend, b[j]);
    }
    const BlockWindow w = DecodeWindow(a, blk, cache_a, stats);
    const std::span<const Value> dec(cache_a->vals + w.s, w.e - w.s);
    const size_t poff = static_cast<size_t>(w.base + w.s - a.lo);
    const size_t m = Intersect2(
        dec, b.subspan(j), out_vals + n,
        out_pa != nullptr ? out_pa + n * stride_a : nullptr, stride_a,
        out_pb != nullptr ? out_pb + n * stride_b : nullptr, stride_b, stats);
    // The offsets are 0 for the common single-block-run first window —
    // skip the fixup loops entirely there.
    if (out_pa != nullptr && poff != 0) {
      for (size_t t = 0; t < m; ++t) {
        out_pa[(n + t) * stride_a] += static_cast<uint32_t>(poff);
      }
    }
    if (out_pb != nullptr && j != 0) {
      for (size_t t = 0; t < m; ++t) {
        out_pb[(n + t) * stride_b] += static_cast<uint32_t>(j);
      }
    }
    n += m;
    if (blk == bend) break;
    // b values below the next block's min can never match again.
    j = SeekGEQ(b, a.level.mins[blk + 1], j, stats);
    ++blk;
  }
  return n;
}

size_t Intersect2CC(const CompressedRun& a, const CompressedRun& b,
                    Value* out_vals, uint32_t* out_pa, size_t stride_a,
                    uint32_t* out_pb, size_t stride_b,
                    bc::DecodeCache* cache_a, bc::DecodeCache* cache_b,
                    KernelStats* stats) {
  if (a.lo >= a.hi || b.lo >= b.hi) return 0;
  const uint32_t aend = (a.hi - 1) / kB, bbend = (b.hi - 1) / kB;
  uint32_t ablk = a.lo / kB, bblk = b.lo / kB;
  if (ablk == aend && bblk == bbend) {
    // Both runs live in a single block (children of one node, the
    // common case by far): decode the two windows and hand them to the
    // 2-way kernel directly. Window starts coincide with the run
    // starts, so emitted positions are already run-relative.
    const BlockWindow fa = DecodeWindow(a, ablk, cache_a, stats);
    const Value* const da = cache_a->vals;
    const BlockWindow fb = DecodeWindow(b, bblk, cache_b, stats);
    const Value* const db = cache_b->vals;
    return Intersect2(std::span<const Value>(da + fa.s, fa.e - fa.s),
                      std::span<const Value>(db + fb.s, fb.e - fb.s),
                      out_vals, out_pa, stride_a, out_pb, stride_b, stats);
  }
  BlockWindow wa = DecodeWindow(a, ablk, cache_a, stats);
  // Re-read vals after every DecodeWindow: an arena-backed cache's
  // window pointer moves with the block.
  const Value* sa = cache_a->vals;
  BlockWindow wb = DecodeWindow(b, bblk, cache_b, stats);
  const Value* sb = cache_b->vals;
  uint32_t ca = wa.s, cb = wb.s;
  size_t n = 0;
  while (true) {
    // First value of the next in-range block bounds the current
    // window from above; +inf at the run's last block.
    const uint64_t ua =
        ablk < aend ? uint64_t(a.level.mins[ablk + 1]) : UINT64_MAX;
    const uint64_t ub =
        bblk < bbend ? uint64_t(b.level.mins[bblk + 1]) : UINT64_MAX;
    const uint64_t bound = std::min(ua, ub);
    // Values < bound on each side live entirely inside the current
    // windows: intersect them, fix up positions, advance.
    uint32_t ea = wa.e, eb = wb.e;
    if (bound != UINT64_MAX) {
      ea = static_cast<uint32_t>(
          std::lower_bound(sa + ca, sa + wa.e, static_cast<Value>(bound)) -
          sa);
      eb = static_cast<uint32_t>(
          std::lower_bound(sb + cb, sb + wb.e, static_cast<Value>(bound)) -
          sb);
    }
    const size_t m = Intersect2(
        std::span<const Value>(sa + ca, ea - ca),
        std::span<const Value>(sb + cb, eb - cb), out_vals + n,
        out_pa != nullptr ? out_pa + n * stride_a : nullptr, stride_a,
        out_pb != nullptr ? out_pb + n * stride_b : nullptr, stride_b, stats);
    const size_t poa = static_cast<size_t>(wa.base + ca - a.lo);
    const size_t pob = static_cast<size_t>(wb.base + cb - b.lo);
    if (out_pa != nullptr && poa != 0) {
      for (size_t t = 0; t < m; ++t) {
        out_pa[(n + t) * stride_a] += static_cast<uint32_t>(poa);
      }
    }
    if (out_pb != nullptr && pob != 0) {
      for (size_t t = 0; t < m; ++t) {
        out_pb[(n + t) * stride_b] += static_cast<uint32_t>(pob);
      }
    }
    n += m;
    ca = ea;
    cb = eb;
    // At least one side exhausted its sub-bound window (the side whose
    // next-block min equals `bound` always did); advance it, skipping
    // blocks wholly below the other side's current value.
    if (ca == wa.e) {
      if (ablk == aend) break;
      ++ablk;
      if (cb < wb.e && ablk < aend && a.level.mins[ablk + 1] <= sb[cb]) {
        ablk = GallopBlocks(a.level.mins, ablk, aend, sb[cb]);
      }
      wa = DecodeWindow(a, ablk, cache_a, stats);
      sa = cache_a->vals;
      ca = wa.s;
    }
    if (cb == wb.e) {
      if (bblk == bbend) break;
      ++bblk;
      if (ca < wa.e && bblk < bbend && b.level.mins[bblk + 1] <= sa[ca]) {
        bblk = GallopBlocks(b.level.mins, bblk, bbend, sa[ca]);
      }
      wb = DecodeWindow(b, bblk, cache_b, stats);
      sb = cache_b->vals;
      cb = wb.s;
    }
  }
  return n;
}

namespace {

/// Fills ord[0..k) with run indexes sorted by ascending size
/// (insertion sort: k is the number of atoms covering one attribute —
/// single digits in practice).
inline void OrderBySize(const RunView* views, int k, uint32_t* ord) {
  for (int c = 0; c < k; ++c) ord[c] = static_cast<uint32_t>(c);
  for (int c = 1; c < k; ++c) {
    const uint32_t v = ord[c];
    int p = c - 1;
    while (p >= 0 && views[ord[p]].size() > views[v].size()) {
      ord[p + 1] = ord[p];
      --p;
    }
    ord[p + 1] = v;
  }
}

/// 2-way dispatch over two tagged runs. out_vals may alias a raw
/// `a` (the k-way reduction intersects its intermediate in place).
/// A run's cache is only touched when the run is compressed.
inline size_t Intersect2Runs(const RunView& a, const RunView& b,
                             Value* out_vals, uint32_t* out_pa,
                             size_t stride_a, uint32_t* out_pb,
                             size_t stride_b, bc::DecodeCache* cache_a,
                             bc::DecodeCache* cache_b, KernelStats* stats) {
  if (!a.compressed && !b.compressed) {
    return Intersect2(a.raw, b.raw, out_vals, out_pa, stride_a, out_pb,
                      stride_b, stats);
  }
  if (a.compressed && b.compressed) {
    return Intersect2CC(a.comp, b.comp, out_vals, out_pa, stride_a, out_pb,
                        stride_b, cache_a, cache_b, stats);
  }
  if (a.compressed) {
    return Intersect2CR(a.comp, b.raw, out_vals, out_pa, stride_a, out_pb,
                        stride_b, cache_a, stats);
  }
  return Intersect2CR(b.comp, a.raw, out_vals, out_pb, stride_b, out_pa,
                      stride_a, cache_b, stats);
}

/// Streams a whole compressed run into out_vals; positions (if
/// requested) are the identity, as for a raw k == 1 input.
inline size_t StreamRun(const CompressedRun& r, Value* out_vals,
                        uint32_t* out_pos, bc::DecodeCache* cache,
                        KernelStats* stats) {
  if (r.lo >= r.hi) return 0;
  const uint32_t bend = (r.hi - 1) / kB;
  size_t n = 0;
  for (uint32_t blk = r.lo / kB; blk <= bend; ++blk) {
    const BlockWindow w = DecodeWindow(r, blk, cache, stats);
    for (uint32_t t = w.s; t < w.e; ++t) {
      out_vals[n] = cache->vals[t];
      if (out_pos != nullptr) out_pos[n] = static_cast<uint32_t>(n);
      ++n;
    }
  }
  return n;
}

}  // namespace

size_t IntersectK(const RunView* views, int k, Value* out_vals,
                  uint32_t* out_pos, const KScratch& scratch,
                  bc::DecodeCache* caches, KernelStats* stats) {
  if (k <= 0) return 0;
  if (k == 1) {
    const RunView& v = views[0];
    if (v.compressed) {
      return StreamRun(v.comp, out_vals, out_pos, caches, stats);
    }
    std::copy(v.raw.begin(), v.raw.end(), out_vals);
    if (out_pos != nullptr) {
      for (size_t t = 0; t < v.raw.size(); ++t) {
        out_pos[t] = static_cast<uint32_t>(t);
      }
    }
    return v.raw.size();
  }
  // Smallest runs first: every intermediate then fits in the overall
  // minimum run size, which is what the caller's buffers hold.
  uint32_t* const ord = scratch.ord;
  OrderBySize(views, k, ord);
  // IntersectKValues passes no position matrix and no pa/pb, which
  // also lets the 2-way dispatch pick values-only kernels.
  const bool track = out_pos != nullptr;
  const size_t kk = static_cast<size_t>(k);
  auto cache_of = [&](uint32_t j) {
    return views[j].compressed ? caches + j : nullptr;
  };
  size_t n = Intersect2Runs(
      views[ord[0]], views[ord[1]], out_vals,
      track ? out_pos + ord[0] : nullptr, kk,
      track ? out_pos + ord[1] : nullptr, kk, cache_of(ord[0]),
      cache_of(ord[1]), stats);
  for (int c = 2; c < k && n > 0; ++c) {
    const uint32_t vi = ord[c];
    const size_t m = Intersect2Runs(
        RunView::Raw(std::span<const Value>(out_vals, n)), views[vi],
        out_vals, scratch.pa, 1, scratch.pb, 1, nullptr, cache_of(vi), stats);
    if (track) {
      // Compact surviving position rows in place (pa ascends and
      // pa[t] >= t, so reads never trail writes), then scatter the new
      // run's positions into its original column.
      for (size_t t = 0; t < m; ++t) {
        const uint32_t src = scratch.pa[t];
        if (src != t) {
          for (int cc = 0; cc < c; ++cc) {
            out_pos[t * kk + ord[cc]] = out_pos[src * kk + ord[cc]];
          }
        }
        out_pos[t * kk + vi] = scratch.pb[t];
      }
    }
    n = m;
  }
  return n;
}

size_t IntersectKValues(const RunView* views, int k, Value* out_vals,
                        bc::DecodeCache* caches, KernelStats* stats) {
  constexpr int kStackOrd = 32;
  uint32_t ord_stack[kStackOrd];
  std::vector<uint32_t> ord_heap;
  uint32_t* ord = ord_stack;
  if (k > kStackOrd) {
    ord_heap.resize(static_cast<size_t>(k));
    ord = ord_heap.data();
  }
  const KScratch scratch{nullptr, nullptr, ord};
  return IntersectK(views, k, out_vals, nullptr, scratch, caches, stats);
}

}  // namespace adj::wcoj::intersect
