// Multi-user layer tests: sessions, write locks, checkout bundles,
// transactional check-in with rollback, id stripes, local/global versions.

#include <gtest/gtest.h>

#include "multiuser/client.h"
#include "multiuser/server.h"
#include "obs/metrics.h"
#include "spades/spec_schema.h"

namespace seed::multiuser {
namespace {

using core::Value;
using spades::BuildFig3Schema;

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

TEST_F(MultiuserTest, CheckinPhasesAreTimed) {
  auto count = [](const char* name) -> std::uint64_t {
    const obs::Histogram* hist =
        obs::MetricsRegistry::Global().FindHistogram(name);
    return hist == nullptr ? 0 : hist->count();
  };
  const std::uint64_t apply0 = count("server.checkin.apply.ns");
  const std::uint64_t audit0 = count("server.checkin.audit.ns");
  const std::uint64_t publish0 = count("server.checkin.publish.ns");

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

  EXPECT_EQ(count("server.checkin.apply.ns") - apply0, kCommits + 1u);
  EXPECT_EQ(count("server.checkin.audit.ns") - audit0, kCommits + 1u);
  EXPECT_EQ(count("server.checkin.publish.ns") - publish0, kCommits + 0u);
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

}  // namespace
}  // namespace seed::multiuser
