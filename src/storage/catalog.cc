#include "storage/catalog.h"

#include <algorithm>
#include <set>
#include <utility>

namespace adj::storage {

Status Catalog::Apply(const WriteBatch& batch) {
  // Phase 1 — validate every op against the catalog-plus-batch-prefix
  // name→arity view; nothing is mutated until the whole batch checks
  // out, so a rejected batch is a no-op.
  {
    std::map<std::string, int> created;  // names (re)bound by this batch
    // Consecutive tuple ops on one name — the common batch — share one
    // lookup; a create or alias may rebind the name, so it resets this.
    const std::string* last_name = nullptr;
    int last_arity = -1;
    auto arity_of = [&](const std::string& name) -> int {
      if (last_name != nullptr && *last_name == name) return last_arity;
      auto it = created.find(name);
      auto rit = relations_.find(name);
      last_arity = it != created.end()    ? it->second
                   : rit == relations_.end() ? -1
                                            : rit->second.rel->arity();
      last_name = &name;
      return last_arity;
    };
    for (const WriteBatch::Op& op : batch.ops_) {
      switch (op.kind) {
        case WriteBatch::Op::kCreate: {
          if (op.rel == nullptr) {
            return Status::InvalidArgument("null relation for catalog entry: " +
                                           op.name);
          }
          created[op.name] = op.rel->arity();
          last_name = nullptr;
          break;
        }
        case WriteBatch::Op::kAlias: {
          const int a = arity_of(op.target);
          if (a < 0) {
            return Status::NotFound("relation not in catalog: " + op.target);
          }
          created[op.name] = a;
          last_name = nullptr;
          break;
        }
        case WriteBatch::Op::kInsert:
        case WriteBatch::Op::kDelete: {
          const int a = arity_of(op.name);
          if (a < 0) {
            return Status::NotFound("relation not in catalog: " + op.name);
          }
          if (static_cast<int>(op.tuple.size()) != a) {
            return Status::InvalidArgument(
                "tuple arity mismatch for relation: " + op.name);
          }
          break;
        }
      }
    }
  }

  // Phase 2 — apply in queue order. Tuple ops coalesce into one
  // pending op list per name, flushed as a single DeltaBatch when a
  // create/alias rebinds the name mid-batch, and at the end: sorted by
  // tuple (stably, so queue order breaks ties), the last op per tuple
  // wins, which keeps inserts and deletes disjoint.
  std::map<std::string, std::vector<const WriteBatch::Op*>> pending;
  auto flush = [&](const std::string& name) {
    auto it = pending.find(name);
    if (it == pending.end()) return;
    std::vector<const WriteBatch::Op*>& ops = it->second;
    std::stable_sort(ops.begin(), ops.end(),
                     [](const WriteBatch::Op* x, const WriteBatch::Op* y) {
                       return x->tuple < y->tuple;
                     });
    const Schema& schema = relations_.at(name).rel->schema();
    auto delta = std::make_shared<DeltaBatch>();
    delta->inserts = Relation(schema);
    delta->deletes = Relation(schema);
    for (size_t i = 0; i < ops.size(); ++i) {
      if (i + 1 < ops.size() && ops[i + 1]->tuple == ops[i]->tuple) continue;
      Relation& rows = ops[i]->kind == WriteBatch::Op::kInsert
                           ? delta->inserts
                           : delta->deletes;
      rows.Append(std::span<const Value>(ops[i]->tuple));
    }
    pending.erase(it);
    ApplyDelta(name, std::move(delta));
  };
  std::vector<const WriteBatch::Op*>* run = nullptr;  // last name's ops
  for (const WriteBatch::Op& op : batch.ops_) {
    switch (op.kind) {
      case WriteBatch::Op::kInsert:
      case WriteBatch::Op::kDelete:
        if (run == nullptr || run->front()->name != op.name) {
          run = &pending[op.name];
        }
        run->push_back(&op);
        break;
      case WriteBatch::Op::kCreate: {
        run = nullptr;  // flush may erase its list
        flush(op.name);
        Entry& e = relations_[op.name];
        e.rel = op.rel;
        e.canonical = false;
        ++e.version;
        break;
      }
      case WriteBatch::Op::kAlias: {
        run = nullptr;
        flush(op.target);
        flush(op.name);
        // Copy the source entry before the map write so aliasing a
        // name to itself stays a no-op rebind.
        Entry src = relations_.at(op.target);
        Entry& e = relations_[op.name];
        const uint64_t version = e.version;
        e = std::move(src);
        e.version = version + 1;
        break;
      }
    }
  }
  for (auto it = pending.begin(); it != pending.end();) {
    const std::string name = it->first;
    ++it;  // flush erases the pending slot
    flush(name);
  }
  index_cache_->Sweep();
  return Status::OK();
}

void Catalog::ApplyDelta(const std::string& name,
                         std::shared_ptr<DeltaBatch> delta) {
  Entry& e = relations_.at(name);
  std::shared_ptr<const Relation> prev = e.rel;

  // The merge source must be canonical (sorted, unique). From the
  // first tuple write on it always is; a relation loaded unsorted pays
  // one sort here, never again.
  std::shared_ptr<const Relation> canon = prev;
  if (!e.canonical && !prev->IsSortedUnique()) {
    Relation sorted = *prev;
    sorted.SortAndDedup();
    canon = std::make_shared<const Relation>(std::move(sorted));
  }

  // Prune no-op rows — inserts already present, tombstones of absent
  // tuples — so a version bump means the relation's content actually
  // changed. O(delta · log n) galloping probes.
  {
    Relation kept(delta->inserts.schema());
    size_t hint = 0;
    for (uint64_t i = 0; i < delta->inserts.size(); ++i) {
      std::span<const Value> t = delta->inserts.Row(i);
      hint = RowLowerBound(canon->raw(), canon->arity(), t.data(), hint);
      if (hint >= canon->size() ||
          CompareRows(canon->Row(hint).data(), t.data(), canon->arity()) != 0) {
        kept.Append(t);
      }
    }
    delta->inserts = std::move(kept);
    Relation keep_del(delta->deletes.schema());
    hint = 0;
    for (uint64_t i = 0; i < delta->deletes.size(); ++i) {
      std::span<const Value> t = delta->deletes.Row(i);
      hint = RowLowerBound(canon->raw(), canon->arity(), t.data(), hint);
      if (hint < canon->size() &&
          CompareRows(canon->Row(hint).data(), t.data(), canon->arity()) == 0) {
        keep_del.Append(t);
      }
    }
    delta->deletes = std::move(keep_del);
  }
  if (delta->rows() == 0) return;  // content no-op: keep the binding

  Relation merged(canon->schema());
  MergeDeltaRows(canon->raw(), canon->arity(), delta->inserts.raw(),
                 delta->deletes.raw(), &merged.mutable_raw());
  auto next = std::make_shared<const Relation>(std::move(merged));

  // Let cached indexes of `prev` follow the rebind as patchable
  // sources before anything can sweep them.
  index_cache_->LinkDelta(prev, next, delta);

  e.rel = std::move(next);
  e.canonical = true;
  ++e.version;
}

bool Catalog::Contains(const std::string& name) const {
  return relations_.count(name) > 0;
}

StatusOr<const Relation*> Catalog::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation not in catalog: " + name);
  }
  return it->second.rel.get();
}

StatusOr<std::shared_ptr<const Relation>> Catalog::GetShared(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation not in catalog: " + name);
  }
  return it->second.rel;
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, entry] : relations_) names.push_back(name);
  return names;
}

uint64_t Catalog::TotalTuples() const {
  uint64_t n = 0;
  std::set<const Relation*> seen;
  for (const auto& [name, entry] : relations_) {
    if (seen.insert(entry.rel.get()).second) n += entry.rel->size();
  }
  return n;
}

uint64_t Catalog::TotalBytes() const {
  uint64_t n = 0;
  std::set<const Relation*> seen;
  for (const auto& [name, entry] : relations_) {
    if (seen.insert(entry.rel.get()).second) {
      n += entry.rel->SizeBytes();
    }
  }
  return n;
}

uint64_t Catalog::VersionOf(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? 0 : it->second.version;
}

StatusOr<Catalog::EntryState> Catalog::Inspect(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation not in catalog: " + name);
  }
  EntryState state;
  state.rel = it->second.rel;
  state.version = it->second.version;
  return state;
}

Status Catalog::Restore(const std::string& name,
                        std::shared_ptr<const Relation> rel,
                        uint64_t version) {
  if (rel == nullptr) {
    return Status::InvalidArgument("null relation to restore: " + name);
  }
  Entry& e = relations_[name];
  e.version = std::max(e.version, version) + 1;
  e.rel = std::move(rel);
  e.canonical = false;
  index_cache_->Sweep();
  return Status::OK();
}

}  // namespace adj::storage
