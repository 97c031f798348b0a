#ifndef ADJ_EXEC_HCUBEJ_H_
#define ADJ_EXEC_HCUBEJ_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "dist/cluster.h"
#include "dist/hcube.h"
#include "exec/run_report.h"
#include "query/attribute_order.h"
#include "query/query.h"
#include "storage/catalog.h"
#include "wcoj/leapfrog.h"

namespace adj::exec {

/// A query atom bound to its base relation and re-columned for a
/// specific attribute order: columns ascend by order rank and the rows
/// are sorted/deduplicated — ready for HCube and trie building. The
/// rows buffer and trie are borrowed from the catalog's IndexCache
/// (shared, never deep-copied), so repeated binds of one (relation,
/// order) pair share one payload and a pointer-identical trie.
struct BoundAtom {
  storage::PreparedIndex index;  // rel: the atom's alias of the rows
  std::vector<AttrId> attrs;

  const storage::Relation& rel() const { return *index.rel; }
  const storage::Trie& trie() const { return *index.trie; }
};

/// Binds every atom of `q` against `db` and permutes it for `order`,
/// resolving each bind through db.index_cache(). `stats`, when given,
/// records per-atom cache builds vs. hits.
StatusOr<std::vector<BoundAtom>> BindAtomsForOrder(
    const query::Query& q, const storage::Catalog& db,
    const query::AttributeOrder& order,
    storage::IndexBuildStats* stats = nullptr);

struct HCubeJParams {
  /// Share vector; leave empty to have the optimal shares computed
  /// from the bound relation sizes (Eq. 3).
  dist::ShareVector share;
  dist::HCubeVariant variant = dist::HCubeVariant::kPull;
  /// max_seconds bounds the whole run, measured from RunHCubeJ's
  /// start: every server joins within what is left of it.
  wcoj::JoinLimits limits;
  /// When true, runs the HCubeJ+Cache baseline: each server memoizes
  /// intersections in whatever memory HCube storage left free.
  bool use_cache = false;
  /// When true, result tuples are gathered into `HCubeJOutput::results`
  /// (used by pre-computation); otherwise results are only counted.
  bool collect_output = false;
  /// Host threads that run the simulated servers' joins concurrently
  /// (dist::RunTasks). 0 (default) uses every core; 1 runs the servers
  /// inline, one after another. The width never exceeds the host's
  /// cores, so each server's measured join time — and comp_s, their
  /// makespan — is not time-sliced by the other servers of the run.
  int worker_threads = 0;
};

struct HCubeJOutput {
  RunReport report;
  /// Result tuples (schema = attributes in `order` sequence); filled
  /// only when params.collect_output.
  storage::Relation results;
  dist::ShareVector share_used;
};

/// One-round multi-way join (HCubeJ, Sec. II-A): HCube-shuffle all
/// atoms, then run Leapfrog on every server. The paper's
/// communication-first baseline and the execution backend of ADJ's
/// final query.
StatusOr<HCubeJOutput> RunHCubeJ(const query::Query& q,
                                 const storage::Catalog& db,
                                 const query::AttributeOrder& order,
                                 const HCubeJParams& params,
                                 dist::Cluster* cluster);

}  // namespace adj::exec

#endif  // ADJ_EXEC_HCUBEJ_H_
