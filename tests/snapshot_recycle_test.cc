// Differential test of snapshot recycling. A check-in publishes by bringing
// a released snapshot forward through the commit log when it can, and by
// copying the master otherwise. Either way, after every accepted commit the
// published snapshot must be what Database::Copy() of the master gives:
// the same raw items, the same derived state, the same id watermarks, an
// instance id no other epoch had and empty change tracking.
//
// Two sessions check out random subtrees, edit them locally and check them
// in (a local delete that leaves a master relationship dangling gets the
// bundle rejected). A reader pins published epochs for random spans, so
// the spare the server gets back is sometimes one epoch old and sometimes
// many. Manual publishes, session refreshes and direct writes to the
// master are interleaved: the latter two restart the commit log.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "multiuser/client.h"
#include "multiuser/server.h"
#include "obs/metrics.h"
#include "random_edits.h"
#include "spades/spec_schema.h"

namespace seed {
namespace {

using core::Database;
using test_support::DerivedState;
using test_support::RandomEdit;
using test_support::RawItems;

std::uint64_t RecycledTotal() {
  const char* kName = "server.snapshot.recycled.total";
  const obs::Counter* recycled =
      obs::MetricsRegistry::Global().FindCounter(kName);
  return recycled == nullptr ? 0 : recycled->value();
}

/// Expects the published snapshot to equal a fresh copy of the master;
/// its instance id must be new to `instance_ids`, which keeps it.
void ExpectPublishedEqualsMaster(multiuser::Server* server,
                                 std::set<std::uint64_t>* instance_ids) {
  version::SnapshotPtr snap = server->PinSnapshot();
  const Database& published = snap->database();
  std::unique_ptr<Database> copy = server->master()->Copy();
  EXPECT_EQ(RawItems(*copy), RawItems(published));
  EXPECT_EQ(DerivedState(*copy), DerivedState(published));
  EXPECT_EQ(copy->object_ids().next_raw(), published.object_ids().next_raw());
  EXPECT_EQ(copy->relationship_ids().next_raw(),
            published.relationship_ids().next_raw());
  EXPECT_EQ(copy->schema(), published.schema());
  EXPECT_NE(published.instance_id(), server->master()->instance_id());
  EXPECT_TRUE(instance_ids->insert(published.instance_id()).second)
      << "epoch " << snap->epoch() << " reuses an instance id";
  EXPECT_TRUE(published.changed_objects().empty());
  EXPECT_TRUE(published.changed_relationships().empty());
}

TEST(SnapshotRecycleTest, PublishedSnapshotEqualsMasterCopy) {
  auto fig3 = spades::BuildFig3Schema();
  ASSERT_TRUE(fig3.ok());
  const spades::Fig3Ids ids = fig3->ids;
  int accepted = 0;
  int rejected = 0;
  const std::uint64_t recycled0 = RecycledTotal();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    multiuser::Server server(fig3->schema);
    Database* master = server.master();
    ASSERT_TRUE(master->CreateAttributeIndex({ids.thing, "Description"}).ok());
    Random rng(seed);
    int serial = 0;
    for (int i = 0; i < 150; ++i) RandomEdit(ids, &rng, master, &serial);
    master->ClearChangeTracking();
    server.PublishSnapshot();

    auto alice = multiuser::ClientSession::Open(&server, "alice");
    auto bob = multiuser::ClientSession::Open(&server, "bob");
    ASSERT_TRUE(alice.ok() && bob.ok());
    multiuser::ClientSession* sessions[] = {alice->get(), bob->get()};
    std::vector<version::SnapshotPtr> pinned;  // the reader's old epochs
    std::set<std::uint64_t> instance_ids;

    for (int step = 0; step < 120; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      switch (rng.Uniform(16)) {
        case 0:
          server.PublishSnapshot();
          continue;
        case 1:
          ASSERT_TRUE(sessions[rng.Uniform(2)]->Refresh().ok());
          continue;
        case 2:  // a direct write the commit log cannot know of
          RandomEdit(ids, &rng, master, &serial);
          break;
        case 3:
        case 4:
          pinned.push_back(server.PinSnapshot());
          break;
        case 5:
        case 6:
          if (!pinned.empty()) {
            std::swap(pinned[rng.Uniform(pinned.size())], pinned.back());
            pinned.pop_back();
          }
          break;
        default:
          break;
      }

      // One session checks out a few roots, edits its copy and checks in.
      multiuser::ClientSession* session = sessions[rng.Uniform(2)];
      std::vector<ObjectId> roots = master->AllIndependentObjects();
      if (roots.empty()) continue;
      std::vector<ObjectId> picked;
      const std::uint64_t want = 1 + rng.Uniform(4);
      for (std::uint64_t i = 0; i < want; ++i) {
        picked.push_back(rng.Pick(roots));
      }
      std::sort(picked.begin(), picked.end());
      picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
      if (!session->Checkout(picked).ok()) continue;  // the other holds one
      const std::uint64_t edits = 1 + rng.Uniform(5);
      for (std::uint64_t i = 0; i < edits; ++i) {
        RandomEdit(ids, &rng, session->local(), &serial);
      }
      Status status = session->Checkin();
      if (!status.ok()) {
        ASSERT_TRUE(status.IsConsistencyViolation()) << status.ToString();
        ++rejected;
        ASSERT_TRUE(session->Abandon().ok());
        continue;
      }
      ++accepted;
      ExpectPublishedEqualsMaster(&server, &instance_ids);
      if (HasFailure()) FAIL();
    }
  }
  // Both outcomes occur, and replay, not copying, serves most publishes.
  EXPECT_GT(accepted, 200);
  EXPECT_GT(rejected, 0);
  const std::uint64_t recycled = RecycledTotal() - recycled0;
  EXPECT_GT(recycled, static_cast<std::uint64_t>(accepted / 2));
}

}  // namespace
}  // namespace seed
