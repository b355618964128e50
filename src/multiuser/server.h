// Two-level multi-user operation (paper, "Open problems"):
//
//   "One central server runs the complete database and several clients use
//   the server for retrieval operations, but take local copies for making
//   updates. Data that has been copied to a client for update has a write
//   lock in the central database. When a client sends an updated copy back
//   to the server, the server puts the modified data into the central
//   database in a single transaction. Versions are kept both locally and
//   globally under control of the user and the server, respectively."
//
// The paper left this unimplemented; we implement it in-process. Checkout
// granularity is the independent-object subtree. New item ids are drawn
// from per-client id stripes so concurrent clients never collide. Check-in
// is all-or-nothing: the server applies the client's changed items, audits
// consistency, and rolls the master back if the audit fails.
//
// Note how the paper's completeness split pays off here: a partial checkout
// is a *consistent* (if incomplete) database, because minimum cardinalities
// are not consistency rules.
//
// Concurrency model (docs/multiuser.md has the full contract):
//
//   * Snapshot reads. Every retrieval — Query, session reads, EXPLAIN —
//     runs against an immutable Snapshot of the master, pinned per
//     session. Readers never take a server mutex beyond a pointer copy
//     under `snapshot_mu_` and never block on a writer: a check-in
//     publishes the next snapshot, it does not invalidate the one
//     readers hold. A snapshot whose last pin drops goes back to the
//     server, which brings it forward by replaying the commits since its
//     epoch instead of copying the whole master for the next one.
//   * Striped write locks. Write-lock ownership lives in a LockStripes
//     table keyed at checkout granularity, so disjoint checkouts and
//     check-ins proceed in parallel; only the master-mutation span of a
//     check-in serializes, under `master_mu_`.
//   * Lock order (outer to inner): sessions_mu_ -> lock stripes ->
//     master_mu_ -> snapshot_mu_, and the spare slot's own mutex, which
//     is a leaf. No method takes an earlier mutex while holding a later
//     one.
//
// Direct access through master()/global_versions() bypasses all of this
// and is for single-threaded setup and inspection only; call
// PublishSnapshot() after direct master mutations so sessions see them.
// (A check-in that finds such writes publishes a full copy, so its
// snapshot holds them too.)

#ifndef SEED_MULTIUSER_SERVER_H_
#define SEED_MULTIUSER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/database.h"
#include "multiuser/lock_stripes.h"
#include "query/parser.h"
#include "version/snapshot.h"
#include "version/version_manager.h"

namespace seed::multiuser {

/// Items shipped to a client at checkout.
struct CheckoutBundle {
  std::vector<core::ObjectItem> objects;
  std::vector<core::RelationshipItem> relationships;
};

/// Items shipped back at check-in.
struct CheckinBundle {
  std::vector<core::ObjectItem> objects;
  std::vector<core::RelationshipItem> relationships;
};

class Server {
 public:
  /// The server owns the master database and its global version manager.
  explicit Server(schema::SchemaPtr schema);

  core::Database* master() { return master_.get(); }
  const core::Database& master() const { return *master_; }
  version::VersionManager* global_versions() { return versions_.get(); }
  const schema::SchemaPtr& schema() const { return schema_; }

  // --- Sessions --------------------------------------------------------------

  Result<ClientId> Connect(std::string client_name)
      SEED_EXCLUDES(sessions_mu_);
  Status Disconnect(ClientId client) SEED_EXCLUDES(sessions_mu_);
  size_t num_clients() const SEED_EXCLUDES(sessions_mu_) {
    common::MutexLock lock(sessions_mu_);
    return clients_.size();
  }

  /// Disjoint id stripe for new items created by this client.
  Result<std::uint64_t> IdStripeBase(ClientId client) const
      SEED_EXCLUDES(sessions_mu_);

  // --- Snapshot reads --------------------------------------------------------

  /// The latest published snapshot; captures one first if none has been
  /// published yet. Pinning is a refcount bump — the caller may read the
  /// result for as long as it likes without blocking any writer.
  version::SnapshotPtr PinSnapshot() SEED_EXCLUDES(master_mu_);

  /// Copies the master's current state and publishes it as the latest
  /// snapshot. Check-in publishes automatically on every successful
  /// commit; call this after mutating the master directly. It always
  /// copies and restarts the commit log, so no later publish replays
  /// onto an epoch older than this one.
  void PublishSnapshot() SEED_EXCLUDES(master_mu_);

  /// The snapshot pinned to `client`'s session: fixed at first use and
  /// across reads until RefreshSession (or the client's own successful
  /// check-in) moves it forward — repeated reads in a session see one
  /// frozen state, not a moving target.
  Result<version::SnapshotPtr> SessionSnapshot(ClientId client)
      SEED_EXCLUDES(sessions_mu_);

  /// Re-pins `client`'s session to the latest published snapshot.
  Status RefreshSession(ClientId client) SEED_EXCLUDES(sessions_mu_);

  /// Epoch of the latest published snapshot (0 before the first publish).
  std::uint64_t snapshot_epoch() const {
    return snapshot_epoch_.load(std::memory_order_acquire);
  }

  /// Looks up an independent object by name in the *master* (not a
  /// session snapshot), serialized with writers. This is the checkout
  /// name-resolution path: a root created by another client's fresh
  /// commit is visible here even before this session refreshes.
  Result<ObjectId> ResolveRoot(std::string_view name) const
      SEED_EXCLUDES(master_mu_);

  /// Runs a `find ...` object query against `client`'s session snapshot.
  Result<std::vector<ObjectId>> Query(ClientId client, std::string_view text,
                                      std::string* plan_out = nullptr,
                                      query::QueryTrace* trace = nullptr)
      SEED_EXCLUDES(sessions_mu_);

  // --- Locks and checkout ----------------------------------------------------

  /// Write-locks the subtrees rooted at `roots` for `client` and returns
  /// copies of their items plus the relationships among them. Fails with
  /// kLockConflict if any root is locked by another client; acquisition
  /// is all-or-nothing, so a failed checkout leaves no locks behind.
  Result<CheckoutBundle> Checkout(ClientId client,
                                  const std::vector<ObjectId>& roots)
      SEED_EXCLUDES(master_mu_);

  /// True if the independent object `root` is write-locked.
  bool IsLocked(ObjectId root) const { return locks_.IsLocked(root); }
  Result<ClientId> LockOwner(ObjectId root) const {
    return locks_.OwnerOf(root);
  }
  std::vector<ObjectId> LocksOf(ClientId client) const {
    return locks_.LocksOf(client);
  }
  size_t num_locks() const { return locks_.num_held(); }

  /// Releases locks without checking in (abandon local changes).
  Status ReleaseLocks(ClientId client, const std::vector<ObjectId>& roots);

  // --- Check-in --------------------------------------------------------------

  /// Applies the client's modified items to the master in a single
  /// transaction: every changed pre-existing item must belong to a subtree
  /// locked by the client; the master is audited afterwards and rolled
  /// back wholesale on any consistency violation (locks are kept, so the
  /// client can repair and retry). On success the client's locks are
  /// released, the next snapshot is published, the client's session is
  /// re-pinned to it (read-your-writes), and `commit_seq` (if non-null)
  /// receives this commit's position in the server's total commit order.
  Status Checkin(ClientId client, const CheckinBundle& bundle,
                 std::uint64_t* commit_seq = nullptr)
      SEED_EXCLUDES(master_mu_);

  std::uint64_t checkins_applied() const {
    return checkins_applied_.load(std::memory_order_relaxed);
  }
  std::uint64_t checkins_rejected() const {
    return checkins_rejected_.load(std::memory_order_relaxed);
  }
  std::uint64_t lock_conflicts() const {
    return lock_conflicts_.load(std::memory_order_relaxed);
  }

 private:
  struct ClientInfo {
    std::string name;
    std::uint64_t stripe_base = 0;
    /// Pinned lazily at first read, advanced by RefreshSession and by the
    /// client's own successful check-ins.
    version::SnapshotPtr snapshot;
  };

  /// Independent root of an object (walks parent objects; for relationship
  /// attributes, the root of the relationship's role-0 end). Reads the
  /// master, so it must be serialized with writers.
  ObjectId RootOf(ObjectId id) const SEED_REQUIRES(master_mu_);

  /// Latest snapshot without the pin tally (shared by the public pin
  /// entry points, which each count one pin).
  version::SnapshotPtr PinLatest() SEED_EXCLUDES(master_mu_);

  /// Publishes the master's state as the next epoch. The database is the
  /// spare brought forward when the commit log covers its epoch (O(items
  /// logged since)), otherwise a Copy() of the master. Every published
  /// snapshot hands its database back to the spare slot when its last
  /// pin drops. Returns the displaced snapshot, so the caller can drop
  /// what may be its last pin after releasing master_mu_.
  [[nodiscard]] version::SnapshotPtr PublishSnapshotLocked()
      SEED_REQUIRES(master_mu_);

  /// Takes the spare if the commit log covers its epoch and writes the
  /// master's current states of every id logged since into it; null when
  /// there is no such spare.
  std::unique_ptr<core::Database> BringSpareForwardLocked()
      SEED_REQUIRES(master_mu_);

  /// Empties the commit log: from now on it covers only epochs from
  /// `epoch` on, and the master as it stands counts as the server's own.
  void RestartLogLocked(std::uint64_t epoch) SEED_REQUIRES(master_mu_);

  /// The ids one accepted check-in wrote, and the epoch it published.
  struct LoggedCommit {
    std::uint64_t epoch = 0;
    std::vector<ObjectId> objects;
    std::vector<RelationshipId> relationships;
  };

  /// Commits the log keeps; a spare older than the oldest is copied over.
  static constexpr size_t kMaxLoggedCommits = 32;

  /// Holds at most one released snapshot database; defined in server.cc.
  class SpareSlot;

  schema::SchemaPtr schema_;
  // Set once in the constructor and never reset. The pointees are
  // single-threaded; every mutation and every direct read of the master
  // runs under master_mu_, which is the "serializes at the server"
  // contract — concurrent retrieval goes through snapshots instead.
  std::unique_ptr<core::Database> master_;
  std::unique_ptr<version::VersionManager> versions_;

  mutable common::Mutex sessions_mu_;
  std::unordered_map<ClientId, ClientInfo> clients_
      SEED_GUARDED_BY(sessions_mu_);
  IdGenerator<ClientId> client_ids_ SEED_GUARDED_BY(sessions_mu_);
  std::uint64_t next_stripe_ SEED_GUARDED_BY(sessions_mu_) = 1;

  /// Write-lock ownership at checkout granularity; internally striped and
  /// synchronized (it is the replacement for the old single server mutex
  /// on the lock path).
  LockStripes locks_;

  /// Serializes master mutation and direct master reads (check-in
  /// application, checkout copying, ResolveRoot, snapshot capture).
  mutable common::Mutex master_mu_;
  std::uint64_t next_commit_seq_ SEED_GUARDED_BY(master_mu_) = 1;

  /// Accepted check-ins since `log_base_epoch_`, oldest first: what a
  /// spare of an epoch from there on lacks.
  std::deque<LoggedCommit> commit_log_ SEED_GUARDED_BY(master_mu_);
  std::uint64_t log_base_epoch_ SEED_GUARDED_BY(master_mu_) = 0;
  /// The master's write_seq() after the server's last own write. Any other
  /// value before a check-in's apply means the master was written
  /// directly, and the log no longer describes it.
  std::uint64_t log_write_seq_ SEED_GUARDED_BY(master_mu_) = 0;

  /// Released snapshot databases come back here. Shared with the
  /// snapshots' deleters, so a snapshot may outlive its server.
  std::shared_ptr<SpareSlot> spare_;

  /// Publication point for snapshot reads: held only for pointer copies.
  mutable common::Mutex snapshot_mu_;
  version::SnapshotPtr current_snapshot_ SEED_GUARDED_BY(snapshot_mu_);
  std::atomic<std::uint64_t> snapshot_epoch_{0};

  // Outcome tallies are atomics so accessors stay lock-free for
  // observability samplers.
  std::atomic<std::uint64_t> checkins_applied_{0};
  std::atomic<std::uint64_t> checkins_rejected_{0};
  std::atomic<std::uint64_t> lock_conflicts_{0};
};

}  // namespace seed::multiuser

#endif  // SEED_MULTIUSER_SERVER_H_
