#ifndef ADJ_SAMPLING_SKETCH_ESTIMATOR_H_
#define ADJ_SAMPLING_SKETCH_ESTIMATOR_H_

#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "query/query.h"
#include "storage/catalog.h"

namespace adj::sampling {

/// Classic sketch-based (System-R style) cardinality estimator: per
/// attribute distinct counts with uniformity + independence
/// assumptions. Included as the baseline Sec. IV argues against —
/// its error on cyclic joins is orders of magnitude worse than
/// sampling — and as the cheap order-selection proxy the HCubeJ
/// (comm-first) baseline uses.
class SketchEstimator {
 public:
  static StatusOr<SketchEstimator> Build(const query::Query& q,
                                         const storage::Catalog& db);

  /// Estimated size of the join of the atoms in `atoms`:
  ///   prod |R_i| / prod_A (product of the largest (c_A - 1) distinct
  ///   counts of A among the joined atoms)
  /// — the independence/inclusion heuristic of [17].
  double EstimateJoin(AtomMask atoms) const;

  /// Estimated number of bindings over `attrs` — the binding-count
  /// proxy for order selection: the join size of all atoms whose
  /// schema is contained in `attrs`, times, for each attribute of
  /// `attrs` no contained atom binds, the smallest distinct count any
  /// atom holds for it (a disconnected prefix is a cross product).
  double EstimateBindings(AttrMask attrs) const;

  uint64_t distinct(int atom, AttrId a) const {
    return distinct_[size_t(atom)][size_t(a)];
  }
  uint64_t atom_size(int atom) const { return sizes_[size_t(atom)]; }

 private:
  const query::Query* q_ = nullptr;
  std::vector<uint64_t> sizes_;                 // per atom
  std::vector<std::vector<uint64_t>> distinct_; // per atom per attr (0 if absent)
};

}  // namespace adj::sampling

#endif  // ADJ_SAMPLING_SKETCH_ESTIMATOR_H_
