// Multi-user layer tests: sessions, write locks, checkout bundles,
// transactional check-in with rollback, id stripes, local/global versions.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "multiuser/client.h"
#include "multiuser/server.h"
#include "obs/metrics.h"
#include "random_edits.h"
#include "schema/schema_builder.h"
#include "spades/spec_schema.h"

namespace seed::multiuser {
namespace {

using core::Value;
using spades::BuildFig3Schema;
using test_support::DerivedState;
using test_support::RawItems;

/// Samples a histogram holds so far (0 before its first record).
std::uint64_t HistogramCount(const char* name) {
  const obs::Histogram* hist =
      obs::MetricsRegistry::Global().FindHistogram(name);
  return hist == nullptr ? 0 : hist->count();
}

/// A counter's value so far (0 before its first increment).
std::uint64_t CounterValue(const char* name) {
  const obs::Counter* counter =
      obs::MetricsRegistry::Global().FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

class MultiuserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fig3 = BuildFig3Schema();
    ASSERT_TRUE(fig3.ok());
    ids_ = fig3->ids;
    server_ = std::make_unique<Server>(fig3->schema);
    // Seed the master with a small spec before clients connect.
    alarms_ = *server_->master()->CreateObject(ids_.output_data, "Alarms");
    sensor_ = *server_->master()->CreateObject(ids_.action, "Sensor");
    write_ = *server_->master()->CreateRelationship(ids_.write, alarms_,
                                                    sensor_);
    server_->master()->ClearChangeTracking();
  }

  spades::Fig3Ids ids_;
  std::unique_ptr<Server> server_;
  ObjectId alarms_, sensor_;
  RelationshipId write_;
};

TEST_F(MultiuserTest, ConnectDisconnect) {
  auto c1 = server_->Connect("alice");
  auto c2 = server_->Connect("bob");
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_NE(*c1, *c2);
  EXPECT_EQ(server_->num_clients(), 2u);
  EXPECT_NE(*server_->IdStripeBase(*c1), *server_->IdStripeBase(*c2));
  ASSERT_TRUE(server_->Disconnect(*c1).ok());
  EXPECT_EQ(server_->num_clients(), 1u);
  EXPECT_TRUE(server_->Disconnect(*c1).IsNotFound());
}

TEST_F(MultiuserTest, CheckoutLocksSubtree) {
  ClientId alice = *server_->Connect("alice");
  auto bundle = server_->Checkout(alice, {alarms_});
  ASSERT_TRUE(bundle.ok());
  EXPECT_TRUE(server_->IsLocked(alarms_));
  EXPECT_EQ(*server_->LockOwner(alarms_), alice);
  EXPECT_EQ(bundle->objects.size(), 1u);  // Alarms has no sub-objects yet
  // Relationships are only shipped when both ends are in the bundle.
  EXPECT_TRUE(bundle->relationships.empty());
}

TEST_F(MultiuserTest, CheckoutConflictDetected) {
  ClientId alice = *server_->Connect("alice");
  ClientId bob = *server_->Connect("bob");
  ASSERT_TRUE(server_->Checkout(alice, {alarms_}).ok());
  auto conflict = server_->Checkout(bob, {alarms_});
  EXPECT_TRUE(conflict.status().IsLockConflict());
  EXPECT_EQ(server_->lock_conflicts(), 1u);
  // Re-checkout by the same owner is fine (lock is re-entrant).
  EXPECT_TRUE(server_->Checkout(alice, {alarms_}).ok());
}

TEST_F(MultiuserTest, CheckoutRejectsDependentRoots) {
  ObjectId desc =
      *server_->master()->CreateSubObject(alarms_, "Description");
  ClientId alice = *server_->Connect("alice");
  EXPECT_TRUE(server_->Checkout(alice, {desc}).status().IsInvalidArgument());
}

TEST_F(MultiuserTest, BundleIncludesRelationshipsAmongRoots) {
  ClientId alice = *server_->Connect("alice");
  auto bundle = server_->Checkout(alice, {alarms_, sensor_});
  ASSERT_TRUE(bundle.ok());
  EXPECT_EQ(bundle->objects.size(), 2u);
  ASSERT_EQ(bundle->relationships.size(), 1u);
  EXPECT_EQ(bundle->relationships[0].id, write_);
}

TEST_F(MultiuserTest, ClientSessionRoundTrip) {
  auto session = ClientSession::Open(server_.get(), "alice");
  ASSERT_TRUE(session.ok());
  ClientSession& alice = **session;
  ASSERT_TRUE(alice.CheckoutByName({"Alarms", "Sensor"}).ok());

  // Update locally: refine the description of Alarms.
  core::Database* local = alice.local();
  ObjectId local_alarms = *local->FindObjectByName("Alarms");
  ObjectId desc = *local->CreateSubObject(local_alarms, "Description");
  ASSERT_TRUE(desc.valid());
  ASSERT_TRUE(
      local->SetValue(desc, Value::String("Handles alarms")).ok());

  // The master does not see it yet.
  EXPECT_TRUE(server_->master()
                  ->FindObjectByName("Alarms.Description")
                  .status()
                  .IsNotFound());

  ASSERT_TRUE(alice.Checkin().ok());
  EXPECT_EQ(server_->checkins_applied(), 1u);
  // Now it does, and the locks are gone.
  auto master_desc = server_->master()->FindObjectByName("Alarms.Description");
  ASSERT_TRUE(master_desc.ok());
  EXPECT_EQ(
      (*server_->master()->GetObject(*master_desc))->value.as_string(),
      "Handles alarms");
  EXPECT_FALSE(server_->IsLocked(alarms_));
  EXPECT_TRUE(server_->master()->AuditConsistency().clean());
}

TEST_F(MultiuserTest, NewObjectsUseClientStripe) {
  auto session = ClientSession::Open(server_.get(), "alice");
  ClientSession& alice = **session;
  std::uint64_t stripe = *server_->IdStripeBase(alice.id());
  auto fresh = alice.local()->CreateObject(ids_.action, "Display");
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh->raw(), stripe);
  ASSERT_TRUE(alice.Checkin().ok());
  EXPECT_TRUE(server_->master()->FindObjectByName("Display").ok());
}

TEST_F(MultiuserTest, TwoClientsDisjointWork) {
  auto s1 = ClientSession::Open(server_.get(), "alice");
  auto s2 = ClientSession::Open(server_.get(), "bob");
  ClientSession& alice = **s1;
  ClientSession& bob = **s2;

  ASSERT_TRUE(alice.CheckoutByName({"Alarms"}).ok());
  ASSERT_TRUE(bob.CheckoutByName({"Sensor"}).ok());

  ObjectId a = *alice.local()->FindObjectByName("Alarms");
  ObjectId d1 = *alice.local()->CreateSubObject(a, "Description");
  ASSERT_TRUE(alice.local()->SetValue(d1, Value::String("from alice")).ok());

  ObjectId s = *bob.local()->FindObjectByName("Sensor");
  ObjectId d2 = *bob.local()->CreateSubObject(s, "Description");
  ASSERT_TRUE(bob.local()->SetValue(d2, Value::String("from bob")).ok());

  ASSERT_TRUE(alice.Checkin().ok());
  ASSERT_TRUE(bob.Checkin().ok());
  EXPECT_EQ(server_->checkins_applied(), 2u);
  EXPECT_TRUE(server_->master()->FindObjectByName("Alarms.Description").ok());
  EXPECT_TRUE(server_->master()->FindObjectByName("Sensor.Description").ok());
  EXPECT_TRUE(server_->master()->AuditConsistency().clean());
}

TEST_F(MultiuserTest, CheckinWithoutLockRejected) {
  ClientId alice = *server_->Connect("alice");
  CheckinBundle bundle;
  core::ObjectItem tampered = server_->master()->objects_raw().at(alarms_);
  tampered.name = "Hijacked";
  bundle.objects.push_back(tampered);
  EXPECT_TRUE(server_->Checkin(alice, bundle).IsLockConflict());
  EXPECT_EQ(server_->checkins_rejected(), 1u);
  EXPECT_EQ(server_->master()->objects_raw().at(alarms_).name, "Alarms");
}

TEST_F(MultiuserTest, CheckinOutsideStripeRejected) {
  ClientId alice = *server_->Connect("alice");
  CheckinBundle bundle;
  core::ObjectItem rogue;
  rogue.id = ObjectId(424242);  // master-range id that does not exist
  rogue.cls = ids_.action;
  rogue.name = "Rogue";
  bundle.objects.push_back(rogue);
  EXPECT_TRUE(server_->Checkin(alice, bundle).IsFailedPrecondition());
}

TEST_F(MultiuserTest, InconsistentCheckinRolledBack) {
  auto session = ClientSession::Open(server_.get(), "alice");
  ClientSession& alice = **session;
  std::uint64_t stripe = *server_->IdStripeBase(alice.id());

  // Hand-craft a bundle with a duplicate name: passes locks/stripe checks
  // but fails the master audit.
  CheckinBundle bundle;
  core::ObjectItem dup;
  dup.id = ObjectId(stripe + 1);
  dup.cls = ids_.action;
  dup.name = "Sensor";  // already taken in the master
  bundle.objects.push_back(dup);
  Status s = server_->Checkin(alice.id(), bundle);
  EXPECT_TRUE(s.IsConsistencyViolation());
  EXPECT_EQ(server_->checkins_rejected(), 1u);
  // Master rolled back wholesale.
  EXPECT_EQ(server_->master()->objects_raw().count(ObjectId(stripe + 1)), 0u);
  EXPECT_TRUE(server_->master()->AuditConsistency().clean());
  EXPECT_EQ(server_->master()->ObjectsOfClass(ids_.action).size(), 1u);
}

// A bundle naming an id that neither it nor the master holds is rejected
// before the apply, and the master is left as it was.
TEST_F(MultiuserTest, DanglingIdInBundleRejected) {
  auto session = ClientSession::Open(server_.get(), "alice");
  ClientSession& alice = **session;
  ASSERT_TRUE(alice.CheckoutByName({"Sensor"}).ok());
  const std::uint64_t rejected0 =
      CounterValue("multiuser.checkins.rejected.total");
  const core::ObjectItem before = server_->master()->objects_raw().at(sensor_);

  CheckinBundle dangling_child;
  dangling_child.objects.push_back(before);
  dangling_child.objects.back().children.push_back(ObjectId(999999));
  EXPECT_TRUE(
      server_->Checkin(alice.id(), dangling_child).IsFailedPrecondition());

  CheckinBundle dangling_parent;
  core::ObjectItem orphan;
  orphan.id = ObjectId(*server_->IdStripeBase(alice.id()) + 1);
  orphan.cls = ids_.description;
  orphan.parent_kind = core::ParentKind::kObject;
  orphan.parent_object = ObjectId(999999);
  dangling_parent.objects.push_back(orphan);
  EXPECT_TRUE(
      server_->Checkin(alice.id(), dangling_parent).IsFailedPrecondition());

  CheckinBundle dangling_end;
  dangling_end.relationships.push_back(
      server_->master()->relationships_raw().at(write_));
  dangling_end.relationships.back().ends[0] = ObjectId(999999);
  EXPECT_TRUE(
      server_->Checkin(alice.id(), dangling_end).IsFailedPrecondition());

  EXPECT_EQ(server_->checkins_applied(), 0u);
  EXPECT_EQ(server_->checkins_rejected(), 3u);
  EXPECT_EQ(CounterValue("multiuser.checkins.rejected.total") - rejected0, 3u);
  EXPECT_EQ(server_->master()->objects_raw().at(sensor_).children,
            before.children);
  EXPECT_EQ(server_->master()->objects_raw().count(orphan.id), 0u);
  EXPECT_EQ(server_->master()->relationships_raw().at(write_).ends[0],
            alarms_);
  EXPECT_TRUE(server_->master()->AuditConsistency().clean());
}

TEST_F(MultiuserTest, CheckinPhasesAreTimed) {
  const std::uint64_t apply0 = HistogramCount("server.checkin.apply.ns");
  const std::uint64_t audit0 = HistogramCount("server.checkin.audit.ns");
  const std::uint64_t publish0 = HistogramCount("server.checkin.publish.ns");

  auto session = ClientSession::Open(server_.get(), "alice");
  ClientSession& alice = **session;
  constexpr int kCommits = 3;
  for (int i = 0; i < kCommits; ++i) {
    ASSERT_TRUE(alice.CheckoutByName({"Alarms"}).ok());
    ASSERT_TRUE(alice.local()
                    ->CreateObject(ids_.action, "Step" + std::to_string(i))
                    .ok());
    ASSERT_TRUE(alice.Checkin().ok());
  }
  // One audit rejection (a duplicate name) reaches apply and audit only.
  CheckinBundle bundle;
  core::ObjectItem dup;
  dup.id = ObjectId(*server_->IdStripeBase(alice.id()) + 1000);
  dup.cls = ids_.action;
  dup.name = "Sensor";
  bundle.objects.push_back(dup);
  EXPECT_TRUE(server_->Checkin(alice.id(), bundle).IsConsistencyViolation());
  // A lock rejection reaches none of the phases.
  CheckinBundle unlocked;
  unlocked.objects.push_back(server_->master()->objects_raw().at(sensor_));
  EXPECT_TRUE(server_->Checkin(alice.id(), unlocked).IsLockConflict());

  EXPECT_EQ(HistogramCount("server.checkin.apply.ns") - apply0,
            kCommits + 1u);
  EXPECT_EQ(HistogramCount("server.checkin.audit.ns") - audit0,
            kCommits + 1u);
  EXPECT_EQ(HistogramCount("server.checkin.publish.ns") - publish0,
            kCommits + 0u);
}

TEST_F(MultiuserTest, LockWaitAndLastSnapshotReleaseAreTimed) {
  const char* kWait = "server.checkin.lock_wait.ns";
  const char* kRelease = "server.snapshot.release.ns";
  const std::uint64_t wait0 = HistogramCount(kWait);
  const std::uint64_t release0 = HistogramCount(kRelease);

  // A publish displaces nothing the first time, then an unpinned epoch
  // (its free is timed), then a pinned one (its pin's drop frees it, and
  // that is not a server release).
  server_->PublishSnapshot();
  EXPECT_EQ(HistogramCount(kRelease) - release0, 0u);
  server_->PublishSnapshot();
  EXPECT_EQ(HistogramCount(kRelease) - release0, 1u);
  version::SnapshotPtr pinned = server_->PinSnapshot();
  server_->PublishSnapshot();
  pinned.reset();
  EXPECT_EQ(HistogramCount(kRelease) - release0, 1u);

  // Each commit frees the epoch it displaces. Every check-in that gets
  // to the master mutex waits for it once, a lock rejection included.
  auto session = ClientSession::Open(server_.get(), "alice");
  ClientSession& alice = **session;
  constexpr int kCommits = 3;
  for (int i = 0; i < kCommits; ++i) {
    ASSERT_TRUE(alice.CheckoutByName({"Alarms"}).ok());
    ASSERT_TRUE(alice.local()
                    ->CreateObject(ids_.action, "Step" + std::to_string(i))
                    .ok());
    ASSERT_TRUE(alice.Checkin().ok());
  }
  CheckinBundle unlocked;
  unlocked.objects.push_back(server_->master()->objects_raw().at(sensor_));
  EXPECT_TRUE(server_->Checkin(alice.id(), unlocked).IsLockConflict());
  EXPECT_EQ(HistogramCount(kWait) - wait0, kCommits + 1u);
  EXPECT_EQ(HistogramCount(kRelease) - release0, kCommits + 1u);
}

TEST_F(MultiuserTest, LiveSnapshotGaugeFollowsPins) {
  const obs::Gauge* live =
      obs::MetricsRegistry::Global().GetGauge("server.snapshot.live");
  const std::int64_t base = live->value();

  // The first pin captures epoch 1; a publish displaces it, but the pin
  // keeps it alive until dropped.
  version::SnapshotPtr first = server_->PinSnapshot();
  EXPECT_EQ(live->value(), base + 1);
  server_->PublishSnapshot();
  EXPECT_EQ(live->value(), base + 2);
  first.reset();
  EXPECT_EQ(live->value(), base + 1);
  server_->PublishSnapshot();  // nobody pins the displaced epoch
  EXPECT_EQ(live->value(), base + 1);

  // A session pins its view; the session's own commit publishes the next
  // epoch and re-pins, so the old view dies with the last outside pin.
  auto session = ClientSession::Open(server_.get(), "alice");
  ClientSession& alice = **session;
  {
    auto view = alice.View();
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(live->value(), base + 1);
    ASSERT_TRUE(alice.CheckoutByName({"Alarms"}).ok());
    ASSERT_TRUE(alice.local()->CreateObject(ids_.action, "Fresh").ok());
    ASSERT_TRUE(alice.Checkin().ok());
    EXPECT_EQ(live->value(), base + 2);
  }
  EXPECT_EQ(live->value(), base + 1);
}

TEST_F(MultiuserTest, CommittedItemsStayTrackedForGlobalVersions) {
  auto session = ClientSession::Open(server_.get(), "alice");
  ClientSession& alice = **session;
  ASSERT_TRUE(alice.CheckoutByName({"Alarms"}).ok());
  ObjectId local_alarms = *alice.local()->FindObjectByName("Alarms");
  ASSERT_TRUE(alice.local()->Rename(local_alarms, "Alerts").ok());
  ASSERT_TRUE(alice.Checkin().ok());
  EXPECT_EQ(server_->master()->changed_objects().count(alarms_), 1u);
  auto v = server_->global_versions()->CreateVersion();
  ASSERT_TRUE(v.ok());
  const version::VersionRecord* rec =
      *server_->global_versions()->GetRecord(*v);
  EXPECT_EQ(rec->changes.count(version::ItemKey::Object(alarms_)), 1u);
}

TEST_F(MultiuserTest, AbandonReleasesLocks) {
  auto session = ClientSession::Open(server_.get(), "alice");
  ClientSession& alice = **session;
  ASSERT_TRUE(alice.CheckoutByName({"Alarms"}).ok());
  EXPECT_TRUE(server_->IsLocked(alarms_));
  ASSERT_TRUE(alice.Abandon().ok());
  EXPECT_FALSE(server_->IsLocked(alarms_));
  EXPECT_TRUE(alice.local()->FindObjectByName("Alarms").status().IsNotFound());
}

TEST_F(MultiuserTest, DisconnectReleasesLocks) {
  {
    auto session = ClientSession::Open(server_.get(), "alice");
    ASSERT_TRUE((*session)->CheckoutByName({"Alarms"}).ok());
    EXPECT_TRUE(server_->IsLocked(alarms_));
  }  // destructor disconnects
  EXPECT_FALSE(server_->IsLocked(alarms_));
  EXPECT_EQ(server_->num_clients(), 0u);
}

TEST_F(MultiuserTest, LocalVersionsIndependentOfGlobal) {
  // "Versions are kept both locally and globally under control of the user
  // and the server, respectively."
  auto session = ClientSession::Open(server_.get(), "alice");
  ClientSession& alice = **session;
  ASSERT_TRUE(alice.CheckoutByName({"Alarms"}).ok());
  auto local_v = alice.local_versions()->CreateVersion();
  ASSERT_TRUE(local_v.ok());
  EXPECT_EQ(local_v->ToString(), "1.0");

  auto global_v = server_->global_versions()->CreateVersion();
  ASSERT_TRUE(global_v.ok());
  EXPECT_EQ(server_->global_versions()->num_versions(), 1u);
  EXPECT_EQ(alice.local_versions()->num_versions(), 1u);
}

TEST_F(MultiuserTest, PartialCheckoutIsConsistentButIncomplete) {
  // The payoff of the consistency/completeness split: a checked-out
  // fragment (Alarms without its Write relationship) is consistent, merely
  // incomplete.
  auto session = ClientSession::Open(server_.get(), "alice");
  ClientSession& alice = **session;
  ASSERT_TRUE(alice.CheckoutByName({"Alarms"}).ok());
  EXPECT_TRUE(alice.local()->AuditConsistency().clean());
  EXPECT_FALSE(alice.local()->CheckCompleteness().clean());
}

// A check-in publishes by replaying the commit log onto a released
// snapshot only while the server's own writes are all the master has seen.
// After a direct write, the next check-in's snapshot must still hold it.
TEST_F(MultiuserTest, DirectMasterWritesReachTheNextPublishedSnapshot) {
  const char* kRecycled = "server.snapshot.recycled.total";
  core::Database* master = server_->master();
  ObjectId desc = *master->CreateSubObject(sensor_, "Description");
  ASSERT_TRUE(master->SetValue(desc, Value::String("initial")).ok());
  server_->PublishSnapshot();
  auto session = ClientSession::Open(server_.get(), "alice");
  ClientSession& alice = **session;
  int steps = 0;
  auto commit = [&] {
    ASSERT_TRUE(alice.CheckoutByName({"Alarms"}).ok());
    std::string name = "Step" + std::to_string(steps++);
    ASSERT_TRUE(alice.local()->CreateObject(ids_.action, name).ok());
    ASSERT_TRUE(alice.Checkin().ok());
  };
  // Two commits leave a released epoch the log covers; the second is
  // published from it.
  auto prepare = [&] {
    commit();
    const std::uint64_t recycled = CounterValue(kRecycled);
    commit();
    EXPECT_GT(CounterValue(kRecycled), recycled);
  };
  auto expect_published = [&](const char* write) {
    SCOPED_TRACE(write);
    commit();
    version::SnapshotPtr snap = server_->PinSnapshot();
    const core::Database& published = snap->database();
    std::unique_ptr<core::Database> copy = master->Copy();
    EXPECT_EQ(RawItems(*copy), RawItems(published));
    EXPECT_EQ(DerivedState(*copy), DerivedState(published));
    EXPECT_EQ(copy->schema(), published.schema());
  };

  prepare();
  ASSERT_TRUE(master->SetValue(desc, Value::String("direct")).ok());
  expect_published("SetValue");

  prepare();
  core::ObjectItem item = master->objects_raw().at(desc);
  item.value = Value::String("restored");
  master->RestoreObject(std::move(item));
  master->RebuildIndexes();
  expect_published("RestoreObject");

  prepare();
  ASSERT_TRUE(master->CreateAttributeIndex({ids_.thing, "Description"}).ok());
  expect_published("CreateAttributeIndex");

  prepare();
  auto builder = schema::SchemaBuilder::Evolve(*master->schema());
  schema::Role caller{"caller", ids_.action, schema::Cardinality::Any()};
  schema::Role callee{"callee", ids_.action, schema::Cardinality::Any()};
  builder.AddAssociation("Calls", caller, callee);
  auto evolved = builder.Build();
  ASSERT_TRUE(evolved.ok());
  ASSERT_TRUE(master->MigrateToSchema(*evolved).ok());
  expect_published("MigrateToSchema");
}

// A tombstoned sub-object ships with its parent, so the local copy's rules
// can read every child the parent lists.
TEST_F(MultiuserTest, CheckoutShipsTombstonedChildren) {
  core::Database* master = server_->master();
  ObjectId desc = *master->CreateSubObject(sensor_, "Description");
  ASSERT_TRUE(master->DeleteObject(desc).ok());
  auto session = ClientSession::Open(server_.get(), "alice");
  ClientSession& alice = **session;
  ASSERT_TRUE(alice.CheckoutByName({"Sensor"}).ok());
  ObjectId local_sensor = *alice.local()->FindObjectByName("Sensor");
  auto again = alice.local()->CreateSubObject(local_sensor, "Description");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(alice.Checkin().ok());
}

// A local delete of an item from another client's stripe must not move the
// workspace's id generator into that stripe.
TEST_F(MultiuserTest, LocalDeleteOfForeignItemKeepsOwnStripe) {
  // Alice connects first, so Bob's stripe lies above hers.
  auto alice_session = ClientSession::Open(server_.get(), "alice");
  ClientSession& alice = **alice_session;
  auto bob_session = ClientSession::Open(server_.get(), "bob");
  ClientSession& bob = **bob_session;
  const std::uint64_t bob_stripe = *server_->IdStripeBase(bob.id());
  ASSERT_LT(*server_->IdStripeBase(alice.id()), bob_stripe);

  ASSERT_TRUE(bob.CheckoutByName({"Sensor"}).ok());
  ObjectId bob_sensor = *bob.local()->FindObjectByName("Sensor");
  ASSERT_TRUE(bob.local()->CreateSubObject(bob_sensor, "Description").ok());
  ASSERT_TRUE(bob.Checkin().ok());

  ASSERT_TRUE(alice.CheckoutByName({"Sensor"}).ok());
  ObjectId sensor = *alice.local()->FindObjectByName("Sensor");
  std::vector<ObjectId> descs = alice.local()->SubObjects(sensor);
  ASSERT_EQ(descs.size(), 1u);
  ASSERT_GE(descs[0].raw(), bob_stripe);
  ASSERT_TRUE(alice.local()->DeleteObject(descs[0]).ok());
  auto fresh = alice.local()->CreateSubObject(sensor, "Description");
  ASSERT_TRUE(fresh.ok());
  EXPECT_LT(fresh->raw(), bob_stripe);
  EXPECT_TRUE(alice.Checkin().ok());
}

// A check-in's new ids come from the client's stripe; an item created on
// the master directly afterwards must not take the client's next id.
TEST_F(MultiuserTest, DirectCreateAfterCheckinStaysOutOfClientStripes) {
  auto session = ClientSession::Open(server_.get(), "alice");
  ClientSession& alice = **session;
  const std::uint64_t stripe = *server_->IdStripeBase(alice.id());
  ASSERT_TRUE(alice.CheckoutByName({"Sensor"}).ok());
  ASSERT_TRUE(alice.local()->CreateObject(ids_.action, "Fresh").ok());
  ASSERT_TRUE(alice.Checkin().ok());
  auto direct = server_->master()->CreateObject(ids_.action, "Direct");
  ASSERT_TRUE(direct.ok());
  EXPECT_LT(direct->raw(), stripe);
}

}  // namespace
}  // namespace seed::multiuser
