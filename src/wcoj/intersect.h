#ifndef ADJ_WCOJ_INTERSECT_H_
#define ADJ_WCOJ_INTERSECT_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.h"
#include "storage/block_codec.h"

/// Sorted-set intersection kernels — the innermost loop of Leapfrog
/// TrieJoin, factored out of the executor so one implementation serves
/// Descend, the intersection cache, and BigJoin's expansion step.
///
/// The kernels write into caller-provided buffers and never allocate,
/// so the join executor can run them out of a preallocated arena with
/// zero heap traffic in steady state.
///
/// Input contract: every run is strictly increasing (a trie sibling
/// range is a sorted duplicate-free value run). Positions emitted are
/// relative to the run start; callers add the range's `lo` to get
/// absolute trie indexes.
///
/// Two layers:
///  - 2-way leaves over flat `std::span<const Value>` views: a scalar
///    galloping merge and an AVX2 block-compare kernel, plus an AVX2
///    all-pairs kernel for dense similar-size values-only inputs. The
///    AVX2 kernels are selected once per process by runtime CPU
///    detection (overridable via SetKernel); other hosts and non-x86
///    builds run the scalar kernel.
///  - One k-way driver (IntersectK / IntersectKValues) over RunView, a
///    tagged raw-span-or-compressed-run input, so raw and
///    block-compressed trie levels flow through the same reduction.
namespace adj::wcoj::intersect {

/// Which 2-way implementation executes. kAuto resolves to AVX2 when
/// the CPU supports it, else scalar, at first use.
enum class Kernel { kAuto, kScalar, kAvx2 };

/// Forces a specific kernel (kAuto restores detection). Forcing a
/// kernel the CPU lacks falls back to scalar. Affects the whole
/// process; meant for tests ("SIMD and scalar agree bit-for-bit") and
/// the micro-bench, not concurrent reconfiguration under load.
void SetKernel(Kernel k);

/// The kernel 2-way intersections currently dispatch to (never kAuto).
Kernel ActiveKernel();

/// Stable lowercase name ("scalar", "avx2") for reports.
const char* KernelName(Kernel k);

/// Whether this build + CPU can execute `k`.
bool CpuSupports(Kernel k);

/// Counters a consumer accumulates locally and flushes once per run —
/// the executor keeps these off the hot path (no per-seek branches on
/// an optional stats sink).
struct KernelStats {
  uint64_t seeks = 0;               // galloping SeekGEQ invocations
  uint64_t simd_intersections = 0;  // 2-way calls served by AVX2
  uint64_t scalar_fallbacks = 0;    // 2-way calls served scalar
  uint64_t blocks_decoded = 0;      // compressed blocks decoded to scratch
};

/// First index in [hint, s.size()) with s[i] >= v, or s.size() if
/// none. Galloping (exponential) search from `hint` — O(log distance).
/// The Leapfrog "seek" primitive.
size_t SeekGEQ(std::span<const Value> s, Value v, size_t hint = 0,
               KernelStats* stats = nullptr);

/// 2-way intersection: writes each common value to out_vals and, when
/// out_pa / out_pb are non-null, its position within a / b at the
/// given element strides (strided so k-way callers can scatter
/// straight into row-major position matrices). Buffers need capacity
/// min(a.size(), b.size()). out_vals may alias a.data() or b.data()
/// (in-place compaction is safe: writes trail reads). Returns the
/// number of common values. Dispatches per ActiveKernel().
size_t Intersect2(std::span<const Value> a, std::span<const Value> b,
                  Value* out_vals, uint32_t* out_pa = nullptr,
                  size_t stride_a = 1, uint32_t* out_pb = nullptr,
                  size_t stride_b = 1, KernelStats* stats = nullptr);

/// Fixed-implementation variants, for the agreement tests and the
/// SIMD-vs-scalar micro-bench gate. The AVX2 variant must only be
/// called when CpuSupports(Kernel::kAvx2).
size_t Intersect2Scalar(std::span<const Value> a, std::span<const Value> b,
                        Value* out_vals, uint32_t* out_pa, size_t stride_a,
                        uint32_t* out_pb, size_t stride_b,
                        KernelStats* stats);
size_t Intersect2Avx2(std::span<const Value> a, std::span<const Value> b,
                      Value* out_vals, uint32_t* out_pa, size_t stride_a,
                      uint32_t* out_pb, size_t stride_b, KernelStats* stats);

// ---------------------------------------------------------------------------
// Compressed runs — intersecting block-compressed trie levels directly
// ---------------------------------------------------------------------------
//
// A compressed run is one sibling range [lo, hi) of a block-compressed
// trie level (storage::blockcodec). The kernels below never decompress
// the whole run: SeekGEQRun gallops the block skip table and decodes a
// single block; the intersections walk the overlap block by block,
// decode one block into a caller-owned blockcodec::DecodeCache, and
// feed the dispatched 2-way kernel above — so a compressed run still
// gets the AVX2 block-compare inner loop, skips whole blocks
// via the skip table, and does no allocation. The caches are the
// reason these kernels stay near raw speed on small sibling ranges:
// a caller that keeps one cache per compressed input across calls
// (the executor's Descend loop, BigJoin's per-binding expansion)
// re-decodes a block only when the walk actually leaves it.
//
// A block may straddle sibling-run boundaries, so only block minima
// whose first position lies inside [lo, hi) are comparable; the
// helpers respect that. Positions emitted for a compressed side are
// relative to the run (add `lo` for absolute trie indexes), matching
// the raw-span contract.

/// One sibling range of a block-compressed level.
struct CompressedRun {
  storage::blockcodec::CompressedLevelView level;
  uint32_t lo = 0;
  uint32_t hi = 0;
  uint32_t size() const { return hi - lo; }
};

/// A tagged raw-or-compressed input for the k-way driver: raw trie
/// levels (and compressed runs whose blocks are already decoded into
/// an arena) are Raw spans, the rest Compressed runs.
struct RunView {
  std::span<const Value> raw;
  CompressedRun comp;
  bool compressed = false;

  size_t size() const { return compressed ? comp.size() : raw.size(); }
  static RunView Raw(std::span<const Value> s) { return {s, {}, false}; }
  static RunView Compressed(CompressedRun r) { return {{}, r, true}; }
};

/// First run-relative index in [hint, r.size()) whose value is >= v,
/// or r.size() if none. Gallops over in-range block minima, then
/// decodes (at most) one block through `cache`.
size_t SeekGEQRun(const CompressedRun& r, Value v, size_t hint,
                  storage::blockcodec::DecodeCache* cache,
                  KernelStats* stats = nullptr);

/// Compressed x raw 2-way intersection. Positions for `a` are
/// run-relative, for `b` span-relative. `cache_a` caches a's block
/// decodes across calls. out_vals may alias b.data() with writes
/// trailing reads (the k-way reduction intersects in place), but must
/// not point into cache_a->vals.
size_t Intersect2CR(const CompressedRun& a, std::span<const Value> b,
                    Value* out_vals, uint32_t* out_pa, size_t stride_a,
                    uint32_t* out_pb, size_t stride_b,
                    storage::blockcodec::DecodeCache* cache_a,
                    KernelStats* stats = nullptr);

/// Compressed x compressed 2-way intersection; one cache per side
/// (they must be distinct objects).
size_t Intersect2CC(const CompressedRun& a, const CompressedRun& b,
                    Value* out_vals, uint32_t* out_pa, size_t stride_a,
                    uint32_t* out_pb, size_t stride_b,
                    storage::blockcodec::DecodeCache* cache_a,
                    storage::blockcodec::DecodeCache* cache_b,
                    KernelStats* stats = nullptr);

// ---------------------------------------------------------------------------
// k-way driver
// ---------------------------------------------------------------------------

/// Caller-provided scratch for IntersectK — carved from the join
/// executor's arena. pa/pb need capacity m = the minimum run size; ord
/// needs capacity k.
struct KScratch {
  uint32_t* pa = nullptr;
  uint32_t* pb = nullptr;
  uint32_t* ord = nullptr;
};

/// k-way intersection by pairwise reduction, smallest runs first (so
/// every intermediate fits in m = the minimum run size). Writes common
/// values to out_vals (capacity m) and, per value, the k positions —
/// one per input run, relative to that run, in the *given* order —
/// row-major into out_pos (capacity m * k). Returns the common count.
/// `caches` parallels `views`; an entry is used only when its view is
/// compressed (an all-raw call may pass nullptr). Keeping the caches
/// alive across calls is what makes consecutive small ranges hit
/// cached blocks.
size_t IntersectK(const RunView* views, int k, Value* out_vals,
                  uint32_t* out_pos, const KScratch& scratch,
                  storage::blockcodec::DecodeCache* caches,
                  KernelStats* stats = nullptr);

/// Values-only IntersectK (BigJoin's expansion step needs no
/// positions). out_vals capacity: the minimum run size.
size_t IntersectKValues(const RunView* views, int k, Value* out_vals,
                        storage::blockcodec::DecodeCache* caches,
                        KernelStats* stats = nullptr);

}  // namespace adj::wcoj::intersect

#endif  // ADJ_WCOJ_INTERSECT_H_
