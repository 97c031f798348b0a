#include "sampling/sketch_estimator.h"

#include <algorithm>

namespace adj::sampling {

StatusOr<SketchEstimator> SketchEstimator::Build(const query::Query& q,
                                                 const storage::Catalog& db) {
  SketchEstimator est;
  est.q_ = &q;
  est.sizes_.resize(q.num_atoms());
  est.distinct_.assign(q.num_atoms(),
                       std::vector<uint64_t>(q.num_attrs(), 0));
  for (int i = 0; i < q.num_atoms(); ++i) {
    StatusOr<const storage::Relation*> base = db.Get(q.atom(i).relation);
    if (!base.ok()) return base.status();
    const storage::Relation& rel = **base;
    est.sizes_[size_t(i)] = rel.size();
    const storage::Schema& schema = q.atom(i).schema;
    for (int c = 0; c < schema.arity(); ++c) {
      est.distinct_[size_t(i)][size_t(schema.attr(c))] =
          rel.DistinctColumn(c).size();
    }
  }
  return est;
}

double SketchEstimator::EstimateJoin(AtomMask atoms) const {
  if (atoms == 0) return 1.0;
  double size = 1.0;
  for (int i = 0; i < q_->num_atoms(); ++i) {
    if (atoms & (AtomMask(1) << i)) size *= double(sizes_[size_t(i)]);
  }
  for (int a = 0; a < q_->num_attrs(); ++a) {
    std::vector<double> counts;
    for (int i = 0; i < q_->num_atoms(); ++i) {
      if ((atoms & (AtomMask(1) << i)) == 0) continue;
      if (distinct_[size_t(i)][size_t(a)] > 0) {
        counts.push_back(double(distinct_[size_t(i)][size_t(a)]));
      }
    }
    if (counts.size() < 2) continue;
    // Divide by the (c-1) largest distinct counts — the standard
    // containment-of-values assumption.
    std::sort(counts.rbegin(), counts.rend());
    for (size_t j = 0; j + 1 < counts.size(); ++j) {
      size /= std::max(1.0, counts[j]);
    }
  }
  return std::max(size, 0.0);
}

double SketchEstimator::EstimateBindings(AttrMask attrs) const {
  AtomMask atoms = 0;
  AttrMask covered = 0;
  for (int i = 0; i < q_->num_atoms(); ++i) {
    const AttrMask schema = q_->atom(i).schema.Mask();
    if ((schema & ~attrs) == 0) {
      atoms |= (AtomMask(1) << i);
      covered |= schema;
    }
  }
  double size = EstimateJoin(atoms);
  // An attribute no contained atom binds still multiplies the
  // bindings by its candidate values, so a disconnected prefix (the
  // 4-cycle's {a,c}) prices as the cross product it is.
  for (int a = 0; a < q_->num_attrs(); ++a) {
    if ((attrs & ~covered & (AttrMask(1) << a)) == 0) continue;
    uint64_t fewest = 0;
    for (int i = 0; i < q_->num_atoms(); ++i) {
      const uint64_t d = distinct_[size_t(i)][size_t(a)];
      if (d > 0 && (fewest == 0 || d < fewest)) fewest = d;
    }
    if (fewest > 0) size *= double(fewest);
  }
  return size;
}

}  // namespace adj::sampling
