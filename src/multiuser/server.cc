#include "multiuser/server.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "common/macros.h"
#include "obs/metrics.h"

namespace seed::multiuser {

namespace {
/// Ids 2^40 apart can never collide between clients.
constexpr std::uint64_t kStripeSize = 1ull << 40;

obs::Gauge* SessionsGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge(
      "multiuser.sessions.connected");
  return gauge;
}

obs::Gauge* LocksHeldGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("server.locks.held");
  return gauge;
}

void CountCheckinRejected() {
  static obs::Counter* rejected = obs::MetricsRegistry::Global().GetCounter(
      "multiuser.checkins.rejected.total");
  rejected->Increment();
}

void CountSnapshotPin() {
  static obs::Counter* pins = obs::MetricsRegistry::Global().GetCounter(
      "server.snapshot.pins.total");
  pins->Increment();
}

/// Drops a displaced snapshot outside the locks. When this is its last
/// reference, the release is timed: the hand-back of its database to the
/// spare slot, or its free when the slot holds a newer epoch.
void ReleaseSnapshot(version::SnapshotPtr snap) {
  static obs::Histogram* release_ns =
      obs::MetricsRegistry::Global().GetHistogram(
          "server.snapshot.release.ns");
  // Displaced snapshots are unreachable from the server, so a count of
  // one cannot grow again.
  if (snap == nullptr || snap.use_count() != 1) return;
  obs::ScopedTimer timer(release_ns);
  snap.reset();
}
}  // namespace

/// The newest released snapshot database. Deleters hand epochs back from
/// any thread; the publisher takes one under master_mu_.
class Server::SpareSlot {
 public:
  void GiveBack(std::unique_ptr<core::Database> db, std::uint64_t epoch)
      SEED_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    if (db_ == nullptr || epoch_ < epoch) {
      db_.swap(db);
      epoch_ = epoch;
    }
    // `db` now holds the older database, if any. A parameter, it is freed
    // after `lock` has released the mutex.
  }

  /// The spare, if its epoch is at least `min_epoch` and it has `schema`.
  std::unique_ptr<core::Database> Take(std::uint64_t min_epoch,
                                       const schema::SchemaPtr& schema,
                                       std::uint64_t* epoch)
      SEED_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    if (db_ == nullptr || epoch_ < min_epoch || db_->schema() != schema) {
      return nullptr;
    }
    *epoch = epoch_;
    return std::move(db_);
  }

 private:
  common::Mutex mu_;
  std::unique_ptr<core::Database> db_ SEED_GUARDED_BY(mu_);
  std::uint64_t epoch_ SEED_GUARDED_BY(mu_) = 0;
};

Server::Server(schema::SchemaPtr schema)
    : schema_(std::move(schema)), spare_(std::make_shared<SpareSlot>()) {
  master_ = std::make_unique<core::Database>(schema_);
  versions_ = std::make_unique<version::VersionManager>(master_.get());
}

Result<ClientId> Server::Connect(std::string client_name) {
  common::MutexLock lock(sessions_mu_);
  ClientId id = client_ids_.Next();
  ClientInfo info;
  info.name = std::move(client_name);
  info.stripe_base = next_stripe_ * kStripeSize;
  ++next_stripe_;
  clients_[id] = std::move(info);
  SessionsGauge()->Add(1);
  return id;
}

Status Server::Disconnect(ClientId client) {
  {
    common::MutexLock lock(sessions_mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) {
      return Status::NotFound("client " + std::to_string(client.raw()));
    }
    clients_.erase(it);
    SessionsGauge()->Add(-1);
  }
  // Release every lock the client still holds.
  locks_.ReleaseAllOf(client);
  LocksHeldGauge()->Set(static_cast<std::int64_t>(locks_.num_held()));
  return Status::OK();
}

Result<std::uint64_t> Server::IdStripeBase(ClientId client) const {
  common::MutexLock lock(sessions_mu_);
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    return Status::NotFound("client " + std::to_string(client.raw()));
  }
  return it->second.stripe_base;
}

// --- Snapshots ---------------------------------------------------------------

void Server::RestartLogLocked(std::uint64_t epoch) {
  commit_log_.clear();
  log_base_epoch_ = epoch;
  log_write_seq_ = master_->write_seq();
}

std::unique_ptr<core::Database> Server::BringSpareForwardLocked() {
  static obs::Counter* recycled = obs::MetricsRegistry::Global().GetCounter(
      "server.snapshot.recycled.total");
  static obs::Histogram* replay_items =
      obs::MetricsRegistry::Global().GetHistogram(
          "server.snapshot.replay.items");
  std::uint64_t spare_epoch = 0;
  auto db = spare_->Take(log_base_epoch_, master_->schema(), &spare_epoch);
  if (db == nullptr) return nullptr;
  // The master's current state of every id a later commit wrote; an id
  // it no longer holds is erased.
  core::ItemStates states;
  const auto& objects = master_->objects_raw();
  const auto& relationships = master_->relationships_raw();
  for (const LoggedCommit& commit : commit_log_) {
    if (commit.epoch <= spare_epoch) continue;
    for (ObjectId id : commit.objects) {
      auto it = objects.find(id);
      if (it == objects.end()) {
        states.erased_objects.push_back(id);
      } else {
        states.objects.try_emplace(id, it->second);
      }
    }
    for (RelationshipId id : commit.relationships) {
      auto it = relationships.find(id);
      if (it == relationships.end()) {
        states.erased_relationships.push_back(id);
      } else {
        states.relationships.try_emplace(id, it->second);
      }
    }
  }
  auto dedupe = [](auto& ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  };
  dedupe(states.erased_objects);
  dedupe(states.erased_relationships);
  std::uint64_t items = states.objects.size() + states.relationships.size();
  items += states.erased_objects.size() + states.erased_relationships.size();
  replay_items->Record(items);
  db->WriteItemStates(std::move(states));
  db->object_ids() = master_->object_ids();
  db->relationship_ids() = master_->relationship_ids();
  db->TakeFreshIdentity();
  recycled->Increment();
  return db;
}

version::SnapshotPtr Server::PublishSnapshotLocked() {
  std::uint64_t epoch = snapshot_epoch_.load(std::memory_order_relaxed) + 1;
  std::unique_ptr<core::Database> db = BringSpareForwardLocked();
  if (db == nullptr) db = master_->Copy();
  version::SnapshotPtr snap = version::Snapshot::Recycling(
      std::move(db), epoch,
      [spare = spare_](std::unique_ptr<core::Database> released,
                       std::uint64_t released_epoch) {
        spare->GiveBack(std::move(released), released_epoch);
      });
  {
    common::MutexLock lock(snapshot_mu_);
    current_snapshot_.swap(snap);
  }
  snapshot_epoch_.store(epoch, std::memory_order_release);
  static obs::Counter* publishes = obs::MetricsRegistry::Global().GetCounter(
      "server.snapshot.publishes.total");
  publishes->Increment();
  static obs::Gauge* epoch_gauge =
      obs::MetricsRegistry::Global().GetGauge("server.snapshot.epoch");
  epoch_gauge->Set(static_cast<std::int64_t>(epoch));
  return snap;
}

void Server::PublishSnapshot() {
  version::SnapshotPtr displaced;
  {
    common::MutexLock lock(master_mu_);
    RestartLogLocked(snapshot_epoch() + 1);
    displaced = PublishSnapshotLocked();
  }
  ReleaseSnapshot(std::move(displaced));
}

version::SnapshotPtr Server::PinLatest() {
  {
    common::MutexLock lock(snapshot_mu_);
    if (current_snapshot_ != nullptr) return current_snapshot_;
  }
  // Nothing published yet: capture the initial snapshot. Two racing first
  // pins may both publish; the second simply becomes the newer epoch.
  PublishSnapshot();
  common::MutexLock lock(snapshot_mu_);
  return current_snapshot_;
}

version::SnapshotPtr Server::PinSnapshot() {
  CountSnapshotPin();
  return PinLatest();
}

Result<version::SnapshotPtr> Server::SessionSnapshot(ClientId client) {
  {
    common::MutexLock lock(sessions_mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) {
      return Status::NotFound("client " + std::to_string(client.raw()));
    }
    if (it->second.snapshot != nullptr) {
      CountSnapshotPin();
      return it->second.snapshot;
    }
  }
  version::SnapshotPtr snap = PinLatest();
  common::MutexLock lock(sessions_mu_);
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    return Status::NotFound("client " + std::to_string(client.raw()));
  }
  // First read of this session; a concurrent refresh may have pinned one
  // in the window above, in which case that pin wins.
  if (it->second.snapshot == nullptr) it->second.snapshot = std::move(snap);
  CountSnapshotPin();
  return it->second.snapshot;
}

Status Server::RefreshSession(ClientId client) {
  version::SnapshotPtr snap = PinLatest();
  {
    common::MutexLock lock(sessions_mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) {
      return Status::NotFound("client " + std::to_string(client.raw()));
    }
    it->second.snapshot.swap(snap);
    CountSnapshotPin();
  }
  // The displaced pin may be the last one.
  ReleaseSnapshot(std::move(snap));
  return Status::OK();
}

Result<ObjectId> Server::ResolveRoot(std::string_view name) const {
  common::MutexLock lock(master_mu_);
  return master_->FindObjectByName(name);
}

Result<std::vector<ObjectId>> Server::Query(ClientId client,
                                            std::string_view text,
                                            std::string* plan_out,
                                            query::QueryTrace* trace) {
  static obs::Counter* queries =
      obs::MetricsRegistry::Global().GetCounter("server.queries.total");
  queries->Increment();
  SEED_ASSIGN_OR_RETURN(version::SnapshotPtr snap, SessionSnapshot(client));
  return query::RunQuery(version::PinDatabase(std::move(snap)), text,
                         plan_out, trace);
}

// --- Locks and checkout ------------------------------------------------------

ObjectId Server::RootOf(ObjectId id) const {
  const auto& objects = master_->objects_raw();
  ObjectId cur = id;
  size_t steps = 0;
  while (steps++ <= objects.size()) {
    auto it = objects.find(cur);
    if (it == objects.end()) return cur;
    const core::ObjectItem& obj = it->second;
    if (obj.is_independent()) return cur;
    if (obj.parent_kind == core::ParentKind::kObject) {
      cur = obj.parent_object;
      continue;
    }
    // Relationship attribute: anchor at the role-0 participant's root.
    auto rel_it =
        master_->relationships_raw().find(obj.parent_relationship);
    if (rel_it == master_->relationships_raw().end()) return cur;
    cur = rel_it->second.ends[0];
  }
  return cur;
}

Result<CheckoutBundle> Server::Checkout(ClientId client,
                                        const std::vector<ObjectId>& roots) {
  static obs::Counter* checkouts = obs::MetricsRegistry::Global().GetCounter(
      "multiuser.checkouts.total");
  checkouts->Increment();
  {
    common::MutexLock lock(sessions_mu_);
    if (clients_.find(client) == clients_.end()) {
      return Status::NotFound("client " + std::to_string(client.raw()));
    }
  }

  // Take the write locks first, all-or-nothing; disjoint checkouts only
  // ever meet inside the stripe table, never on a server-wide mutex.
  std::vector<ObjectId> acquired;
  Status lock_status = locks_.AcquireAll(client, roots, &acquired);
  if (!lock_status.ok()) {
    lock_conflicts_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter* conflicts = obs::MetricsRegistry::Global().GetCounter(
        "multiuser.lock_conflicts.total");
    conflicts->Increment();
    return lock_status;
  }
  LocksHeldGauge()->Set(static_cast<std::int64_t>(locks_.num_held()));

  // The copy itself reads the master, serialized with check-in writers.
  // Locks were granted optimistically above, so a failed validation must
  // give back exactly the locks this call added (re-entrant holdings
  // stay) — after the master mutex is dropped, per the lock order.
  Status status = Status::OK();
  CheckoutBundle bundle;
  {
    common::MutexLock lock(master_mu_);
    // Validate all roots: existence and independence.
    for (ObjectId root : roots) {
      auto obj = master_->GetObject(root);
      if (!obj.ok()) {
        status = obj.status();
        break;
      }
      if (!(*obj)->is_independent()) {
        status = Status::InvalidArgument(
            "checkout granularity is the independent object; '" +
            master_->FullName(root) + "' is dependent");
        break;
      }
    }
    if (status.ok()) {
      // Collect subtree copies. A tombstoned child ships too, since the
      // local copy's rules read every child its parent lists, but nothing
      // below it does.
      std::unordered_set<ObjectId> in_bundle;
      // Ships `oid` once; true when it is live and its children are queued.
      auto take = [&](ObjectId oid, std::vector<ObjectId>* work) {
        auto it = master_->objects_raw().find(oid);
        if (it == master_->objects_raw().end()) return false;
        if (!in_bundle.insert(oid).second) return false;
        bundle.objects.push_back(it->second);
        if (it->second.deleted) return false;
        work->insert(work->end(), it->second.children.begin(),
                     it->second.children.end());
        return true;
      };
      for (ObjectId root : roots) {
        std::vector<ObjectId> work{root};
        while (!work.empty()) {
          ObjectId oid = work.back();
          work.pop_back();
          take(oid, &work);
        }
      }
      // Relationships whose both ends are in the bundle, plus their
      // attribute subtrees, in relationship-id order. The candidates are
      // the relationships of bundle objects; an attribute object joining
      // the bundle adds its own, of which only the higher ids are still
      // ahead (a lower one was decided before that object joined).
      std::set<RelationshipId> candidates;
      auto add_candidates = [&](ObjectId oid, RelationshipId after) {
        for (RelationshipId rid : master_->RelationshipsOf(oid)) {
          if (after < rid) candidates.insert(rid);
        }
        for (RelationshipId rid : master_->PatternRelationshipsOf(oid)) {
          if (after < rid) candidates.insert(rid);
        }
      };
      for (const core::ObjectItem& obj : bundle.objects) {
        add_candidates(obj.id, RelationshipId());
      }
      while (!candidates.empty()) {
        RelationshipId rid = *candidates.begin();
        candidates.erase(candidates.begin());
        const core::RelationshipItem& rel =
            master_->relationships_raw().at(rid);
        if (in_bundle.count(rel.ends[0]) == 0 ||
            in_bundle.count(rel.ends[1]) == 0) {
          continue;
        }
        bundle.relationships.push_back(rel);
        std::vector<ObjectId> work(rel.children.begin(), rel.children.end());
        while (!work.empty()) {
          ObjectId oid = work.back();
          work.pop_back();
          if (take(oid, &work)) add_candidates(oid, rid);
        }
      }
    }
  }
  if (!status.ok()) {
    if (!acquired.empty()) (void)locks_.Release(client, acquired);
    LocksHeldGauge()->Set(static_cast<std::int64_t>(locks_.num_held()));
    return status;
  }
  return bundle;
}

Status Server::ReleaseLocks(ClientId client,
                            const std::vector<ObjectId>& roots) {
  SEED_RETURN_IF_ERROR(locks_.Release(client, roots));
  LocksHeldGauge()->Set(static_cast<std::int64_t>(locks_.num_held()));
  return Status::OK();
}

// --- Check-in ----------------------------------------------------------------

Status Server::Checkin(ClientId client, const CheckinBundle& bundle,
                       std::uint64_t* commit_seq) {
  std::uint64_t stripe_lo = 0;
  {
    common::MutexLock lock(sessions_mu_);
    auto client_it = clients_.find(client);
    if (client_it == clients_.end()) {
      return Status::NotFound("client " + std::to_string(client.raw()));
    }
    stripe_lo = client_it->second.stripe_base;
  }
  std::uint64_t stripe_hi = stripe_lo + kStripeSize;
  // One sample per check-in that reaches the phase.
  static obs::Histogram* apply_ns =
      obs::MetricsRegistry::Global().GetHistogram("server.checkin.apply.ns");
  static obs::Histogram* audit_ns =
      obs::MetricsRegistry::Global().GetHistogram("server.checkin.audit.ns");
  static obs::Histogram* publish_ns =
      obs::MetricsRegistry::Global().GetHistogram("server.checkin.publish.ns");
  static obs::Histogram* lock_wait_ns =
      obs::MetricsRegistry::Global().GetHistogram(
          "server.checkin.lock_wait.ns");
  auto reject = [this](Status why) {
    checkins_rejected_.fetch_add(1, std::memory_order_relaxed);
    CountCheckinRejected();
    return why;
  };

  std::uint64_t seq = 0;
  // The snapshot the commit displaces; freed once both locks are dropped.
  version::SnapshotPtr displaced;
  {
    const std::uint64_t wait_start = obs::NowNanos();
    common::MutexLock lock(master_mu_);
    lock_wait_ns->Record(obs::NowNanos() - wait_start);
    // Whether the commit log still describes the master: nobody wrote it
    // since the server's last own write.
    const bool logged = master_->write_seq() == log_write_seq_;

    // --- Validate lock coverage, logging each item's prior state -------------
    // The undo batch restores what an item was, or erases it when the
    // bundle creates it; the first occurrence of an id wins.
    core::ItemStates apply;
    core::ItemStates undo;
    const auto& objects = master_->objects_raw();
    const auto& rels = master_->relationships_raw();
    for (const core::ObjectItem& obj : bundle.objects) {
      auto existing = objects.find(obj.id);
      if (existing != objects.end()) {
        if (!locks_.IsHeldBy(client, RootOf(obj.id))) {
          return reject(Status::LockConflict(
              "modified object '" + master_->FullName(obj.id) +
              "' is not covered by a write lock of this client"));
        }
        undo.objects.emplace(obj.id, existing->second);
      } else if (obj.id.raw() < stripe_lo || obj.id.raw() >= stripe_hi) {
        return reject(Status::FailedPrecondition(
            "new object id " + std::to_string(obj.id.raw()) +
            " lies outside the client's id stripe"));
      } else {
        undo.erased_objects.push_back(obj.id);
      }
      apply.objects[obj.id] = obj;
    }
    for (const core::RelationshipItem& rel : bundle.relationships) {
      auto existing = rels.find(rel.id);
      if (existing != rels.end()) {
        undo.relationships.emplace(rel.id, existing->second);
      } else if (rel.id.raw() < stripe_lo || rel.id.raw() >= stripe_hi) {
        return reject(Status::FailedPrecondition(
            "new relationship id " + std::to_string(rel.id.raw()) +
            " lies outside the client's id stripe"));
      } else {
        undo.erased_relationships.push_back(rel.id);
      }
      // Every pre-existing participant must be covered by a lock: creating
      // or changing a relationship updates both ends' participation.
      for (ObjectId end : rel.ends) {
        if (objects.find(end) != objects.end() &&
            !locks_.IsHeldBy(client, RootOf(end))) {
          return reject(Status::LockConflict(
              "relationship participant '" + master_->FullName(end) +
              "' is not covered by a write lock of this client"));
        }
      }
      apply.relationships[rel.id] = rel;
    }

    // --- Validate references: every id an item names is held by the
    // bundle or the master, so the apply and the audit never chase a
    // dangling id.
    auto has_object = [&](ObjectId id) {
      return apply.objects.count(id) != 0 || objects.count(id) != 0;
    };
    auto has_relationship = [&](RelationshipId id) {
      return apply.relationships.count(id) != 0 || rels.count(id) != 0;
    };
    auto dangling = [&](const char* what, std::uint64_t raw) {
      return reject(Status::FailedPrecondition(
          std::string("check-in names unknown ") + what + " " +
          std::to_string(raw)));
    };
    for (const auto& [id, obj] : apply.objects) {
      for (ObjectId child : obj.children) {
        if (!has_object(child)) return dangling("object", child.raw());
      }
      if (obj.parent_kind == core::ParentKind::kObject &&
          !has_object(obj.parent_object)) {
        return dangling("object", obj.parent_object.raw());
      }
      if (obj.parent_kind == core::ParentKind::kRelationship &&
          !has_relationship(obj.parent_relationship)) {
        return dangling("relationship", obj.parent_relationship.raw());
      }
    }
    for (const auto& [id, rel] : apply.relationships) {
      for (ObjectId end : rel.ends) {
        if (!has_object(end)) return dangling("object", end.raw());
      }
      for (ObjectId child : rel.children) {
        if (!has_object(child)) return dangling("object", child.raw());
      }
    }

    std::vector<ObjectId> touched_objects;
    std::vector<RelationshipId> touched_relationships;
    for (const auto& [id, obj] : apply.objects) touched_objects.push_back(id);
    for (const auto& [id, rel] : apply.relationships) {
      touched_relationships.push_back(id);
    }

    // --- Apply as a single transaction, audit, roll back on violation --------
    // Every commit is audited, so the master is clean before each bundle
    // and auditing the bundle's neighbourhood finds a violation exactly
    // when a full audit would.
    {
      obs::ScopedTimer timer(apply_ns);
      // The bundle's new ids lie in the client's stripe. The master's own
      // generators stay where they were, so that an item created on the
      // master directly does not take the id the client issues next.
      const std::uint64_t next_object = master_->object_ids().next_raw();
      const std::uint64_t next_relationship =
          master_->relationship_ids().next_raw();
      master_->WriteItemStates(std::move(apply));
      master_->object_ids().ResetTo(next_object);
      master_->relationship_ids().ResetTo(next_relationship);
    }
    core::Report audit;
    {
      obs::ScopedTimer timer(audit_ns);
      audit = master_->AuditNeighbourhood(touched_objects,
                                          touched_relationships);
    }
    if (!audit.clean()) {
      // A rejection reports what the full audit finds, as it always has;
      // only a rejected bundle pays for the full pass.
      core::Report full = master_->AuditConsistency();
      if (!full.clean()) audit = std::move(full);
      master_->WriteItemStates(std::move(undo));
      if (logged) log_write_seq_ = master_->write_seq();
      // Locks are deliberately kept: the client can repair and retry.
      return reject(Status::ConsistencyViolation(
          "check-in rejected: " + audit.violations.front().ToString() +
          (audit.size() > 1
               ? " (and " + std::to_string(audit.size() - 1) + " more)"
               : "")));
    }

    seq = next_commit_seq_++;
    const std::uint64_t epoch = snapshot_epoch() + 1;
    if (logged) {
      commit_log_.push_back({epoch, std::move(touched_objects),
                             std::move(touched_relationships)});
      log_write_seq_ = master_->write_seq();
      if (commit_log_.size() > kMaxLoggedCommits) {
        log_base_epoch_ = commit_log_.front().epoch;
        commit_log_.pop_front();
      }
    } else {
      RestartLogLocked(epoch);
    }
    // Publish before releasing the stripes: the next checkout winner's
    // snapshot already contains this commit.
    obs::ScopedTimer timer(publish_ns);
    displaced = PublishSnapshotLocked();
  }

  // Success: release all locks held by this client and move its session
  // snapshot forward (read-your-writes).
  locks_.ReleaseAllOf(client);
  LocksHeldGauge()->Set(static_cast<std::int64_t>(locks_.num_held()));
  (void)RefreshSession(client);
  ReleaseSnapshot(std::move(displaced));
  checkins_applied_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter* applied = obs::MetricsRegistry::Global().GetCounter(
      "multiuser.checkins.applied.total");
  applied->Increment();
  if (commit_seq != nullptr) *commit_seq = seq;
  return Status::OK();
}

}  // namespace seed::multiuser
