#ifndef ADJ_TESTS_CATALOG_TEST_UTIL_H_
#define ADJ_TESTS_CATALOG_TEST_UTIL_H_

// One-op catalog writes for test set-up. A WriteBatch applied through
// Catalog::Apply is the catalog's only write path; these helpers queue
// the single op a fixture usually needs and apply it.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "storage/catalog.h"
#include "storage/relation.h"
#include "storage/write_batch.h"

namespace adj::test {

/// Binds an owned relation to `name`, replacing any previous binding.
inline void CreateRelation(storage::Catalog* db, std::string name,
                           storage::Relation rel) {
  storage::WriteBatch batch;
  batch.Create(std::move(name), std::move(rel));
  const Status applied = db->Apply(batch);
  EXPECT_TRUE(applied.ok()) << applied;
}

/// Binds an already-shared relation to `name` without copying it.
inline Status ShareRelation(storage::Catalog* db, std::string name,
                            std::shared_ptr<const storage::Relation> rel) {
  storage::WriteBatch batch;
  batch.Create(std::move(name), std::move(rel));
  return db->Apply(batch);
}

/// Binds `alias` to the relation version `target` resolves to now.
inline Status AliasRelation(storage::Catalog* db, std::string alias,
                            std::string target) {
  storage::WriteBatch batch;
  batch.AliasRelation(std::move(alias), std::move(target));
  return db->Apply(batch);
}

}  // namespace adj::test

#endif  // ADJ_TESTS_CATALOG_TEST_UTIL_H_
