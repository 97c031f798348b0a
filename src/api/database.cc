#include "api/database.h"

#include <utility>

#include "api/session.h"
#include "dataset/builtin.h"
#include "persist/snapshot.h"
#include "storage/edge_list_io.h"

namespace adj::api {

StatusOr<Database> Database::OpenBuiltin(const std::string& dataset,
                                         double scale) {
  Database db;
  ADJ_RETURN_IF_ERROR(db.LoadBuiltin(dataset, scale));
  return db;
}

Status Database::LoadBuiltin(const std::string& dataset, double scale,
                             const std::string& as) {
  StatusOr<storage::Relation> rel = dataset::MakeBuiltin(dataset, scale);
  if (!rel.ok()) return rel.status();
  AddRelation(as, std::move(rel.value()));
  return Status::OK();
}

Status Database::LoadEdgeList(const std::string& path,
                              const std::string& as) {
  StatusOr<storage::Relation> rel = storage::LoadEdgeList(path);
  if (!rel.ok()) return rel.status();
  AddRelation(as, std::move(rel.value()));
  return Status::OK();
}

void Database::AddRelation(const std::string& name, storage::Relation rel) {
  storage::WriteBatch batch;
  batch.Create(name, std::move(rel));
  (void)catalog_->Apply(batch);  // a one-op create cannot fail validation
}

Status Database::Save(const std::string& path) const {
  StatusOr<persist::WriteStats> stats =
      persist::SnapshotWriter::Write(*catalog_, path);
  return stats.ok() ? Status::OK() : stats.status();
}

Status Database::Open(const std::string& path) {
  StatusOr<persist::SnapshotReader> reader = persist::SnapshotReader::Open(path);
  if (!reader.ok()) return reader.status();
  // Full-file integrity before any bytes are trusted: every segment's
  // checksum (one sequential pass) — a flipped bit anywhere fails here.
  ADJ_RETURN_IF_ERROR(reader->VerifyChecksums());
  StatusOr<persist::SnapshotReader::LoadStats> loaded =
      reader->LoadInto(catalog_.get());
  return loaded.ok() ? Status::OK() : loaded.status();
}

std::vector<std::string> Database::relation_names() const {
  return catalog_->Names();
}

uint64_t Database::total_tuples() const { return catalog_->TotalTuples(); }

Session Database::OpenSession() const {
  return Session(std::shared_ptr<const storage::Catalog>(catalog_));
}

}  // namespace adj::api
