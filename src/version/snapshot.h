// Immutable, refcounted database snapshots — the MVCC substrate for the
// multiuser server's snapshot reads.
//
// A Snapshot owns a frozen copy of a database at one instant, tagged with
// a monotonically increasing epoch. It is published as a
// shared_ptr<const Snapshot>: pinning is a refcount bump, readers run
// whole query workloads against the frozen state without ever touching a
// writer's lock, and the copy is freed when the last pin drops.
//
// Capture goes through the same seam as every other bulk path (version
// views and restores, Load, checkout import, check-in):
// core::Database::WriteItemStates. It registers the source's index specs,
// writes a copy of its raw item states and derives every retrieval
// structure in one pass. That is the only expensive step, so the server
// captures once per commit and every reader shares the result.

#ifndef SEED_VERSION_SNAPSHOT_H_
#define SEED_VERSION_SNAPSHOT_H_

#include <cstdint>
#include <memory>

#include "core/database.h"

namespace seed::version {

class Snapshot;
using SnapshotPtr = std::shared_ptr<const Snapshot>;

class Snapshot {
 public:
  /// Freezes a full copy of `source`: raw item states (tombstones
  /// included, so id spaces and audits replay exactly), attribute-index
  /// definitions, and rebuilt retrieval maps. The caller must serialize
  /// with writers of `source` — typically by capturing under the master
  /// mutex; the returned snapshot itself is immutable and safe to read
  /// from any number of threads concurrently.
  static SnapshotPtr Capture(const core::Database& source,
                             std::uint64_t epoch);

  const core::Database& database() const { return *db_; }
  std::uint64_t epoch() const { return epoch_; }

  size_t num_objects() const { return db_->num_live_objects(); }
  size_t num_relationships() const { return db_->num_live_relationships(); }

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

 private:
  Snapshot(std::unique_ptr<core::Database> db, std::uint64_t epoch)
      : db_(std::move(db)), epoch_(epoch) {}

  std::unique_ptr<core::Database> db_;
  std::uint64_t epoch_;
};

/// The snapshot's database as a shared pointer that keeps the whole
/// snapshot pinned (aliasing constructor). Hand this to the query entry
/// points' shared_ptr overloads so a running query can never outlive the
/// frozen state it reads.
inline std::shared_ptr<const core::Database> PinDatabase(SnapshotPtr snap) {
  const core::Database* db = &snap->database();
  return std::shared_ptr<const core::Database>(std::move(snap), db);
}

}  // namespace seed::version

#endif  // SEED_VERSION_SNAPSHOT_H_
