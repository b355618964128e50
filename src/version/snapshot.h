// Immutable, refcounted database snapshots — the MVCC substrate for the
// multiuser server's snapshot reads.
//
// A Snapshot owns a frozen copy of a database at one instant, tagged with
// a monotonically increasing epoch. It is published as a
// shared_ptr<const Snapshot>: pinning is a refcount bump, readers run
// whole query workloads against the frozen state without ever touching a
// writer's lock, and the copy is freed when the last pin drops. The
// `server.snapshot.live` gauge counts the snapshots alive: the published
// one plus every older epoch a reader still pins.
//
// Capture is one plain memory copy (core::Database::Copy): the raw item
// tables, id watermarks, retrieval maps, extent counters and attribute
// indexes are copied as they are, not re-derived. The copy gets a fresh
// instance id, so plan-cache entries never alias between epochs, and
// empty change tracking. That is O(database), so the multiuser server
// copies only when it must: it publishes through Recycling, gets each
// released snapshot's database back once the last pin drops, and brings
// it forward to the next epoch by replaying the commits since its own
// (docs/multiuser.md).

#ifndef SEED_VERSION_SNAPSHOT_H_
#define SEED_VERSION_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "core/database.h"

namespace seed::version {

class Snapshot;
using SnapshotPtr = std::shared_ptr<const Snapshot>;

class Snapshot {
 public:
  /// Freezes a full copy of `source`: raw item states (tombstones
  /// included, so id spaces and audits replay exactly), attribute indexes
  /// with their entries, and retrieval maps. The caller must serialize
  /// with writers of `source` — typically by capturing under the master
  /// mutex; the returned snapshot itself is immutable and safe to read
  /// from any number of threads concurrently.
  static SnapshotPtr Capture(const core::Database& source,
                             std::uint64_t epoch);

  /// Receives a released snapshot's database and epoch.
  using Recycler =
      std::function<void(std::unique_ptr<core::Database>, std::uint64_t)>;

  /// Freezes `db` as the snapshot of `epoch`. When the last pin drops,
  /// the snapshot is destroyed and `recycle` receives the database
  /// instead of it being freed; no reader can see it by then.
  static SnapshotPtr Recycling(std::unique_ptr<core::Database> db,
                               std::uint64_t epoch, Recycler recycle);

  const core::Database& database() const { return *db_; }
  std::uint64_t epoch() const { return epoch_; }

  size_t num_objects() const { return db_->num_live_objects(); }
  size_t num_relationships() const { return db_->num_live_relationships(); }

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  ~Snapshot();

 private:
  Snapshot(std::unique_ptr<core::Database> db, std::uint64_t epoch);

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
