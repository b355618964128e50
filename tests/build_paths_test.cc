// Differential test of the paths that build a database from another's
// items: snapshot capture, full save + load, version restore and a full
// checkout's import must each reproduce the source they copy, and a
// check-in the audit rejects must leave the master exactly as it was.
// Batches written into a live database must derive what a from-scratch
// RebuildIndexes derives, and a checkout must ship the relationships a
// full scan of the master finds.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "core/item_codec.h"
#include "core/persistence.h"
#include "multiuser/client.h"
#include "multiuser/server.h"
#include "random_edits.h"
#include "schema/schema_builder.h"
#include "spades/spec_schema.h"
#include "storage/kv_store.h"
#include "version/snapshot.h"
#include "version/version_manager.h"

namespace seed {
namespace {

using core::Database;
using core::Value;
using test_support::DerivedState;
using test_support::RawItems;
using test_support::RandomEdit;
using test_support::RebuiltState;
using test_support::TakeChanges;

/// Everything a database derives from its raw items, plus the items.
struct Fingerprint {
  std::map<std::string, std::string> items;  // "o<id>" / "r<id>" -> bytes
  size_t live_objects = 0;
  size_t live_relationships = 0;
  std::vector<size_t> extents;        // class, association, role counters
  std::vector<std::string> listings;  // per index: "<spec> <key> <id>"
  std::map<std::string, std::uint64_t> names;  // full name -> resolved id
};

using Frozen = std::map<version::VersionId, Fingerprint>;

void ExpectSame(const Fingerprint& want, const Fingerprint& got,
                const std::string& path) {
  EXPECT_EQ(want.items, got.items) << path;
  EXPECT_EQ(want.live_objects, got.live_objects) << path;
  EXPECT_EQ(want.live_relationships, got.live_relationships) << path;
  EXPECT_EQ(want.extents, got.extents) << path;
  EXPECT_EQ(want.listings, got.listings) << path;
  EXPECT_EQ(want.names, got.names) << path;
}

/// Next object and relationship ids the database would issue. The
/// generators have no const accessor; reading them changes nothing.
std::pair<std::uint64_t, std::uint64_t> Watermarks(const Database& db) {
  Database& mut = const_cast<Database&>(db);
  return {mut.object_ids().next_raw(), mut.relationship_ids().next_raw()};
}

/// Encoded items of a bundle, in bundle order.
std::vector<std::string> Encoded(const multiuser::CheckoutBundle& bundle) {
  std::vector<std::string> out;
  for (const core::ObjectItem& obj : bundle.objects) {
    out.push_back(core::ItemCodec::EncodeObjectToString(obj));
  }
  for (const core::RelationshipItem& rel : bundle.relationships) {
    out.push_back(core::ItemCodec::EncodeRelationshipToString(rel));
  }
  return out;
}

/// A checkout bundle collected by scanning every relationship of the
/// master: the roots' live subtrees, then each live relationship in id
/// order whose ends are both in the bundle so far, followed into its
/// attribute subtree.
multiuser::CheckoutBundle ScanCheckout(const Database& master,
                                       const std::vector<ObjectId>& roots) {
  multiuser::CheckoutBundle bundle;
  std::unordered_set<ObjectId> in_bundle;
  auto take_subtree = [&](std::vector<ObjectId> work) {
    while (!work.empty()) {
      ObjectId oid = work.back();
      work.pop_back();
      auto it = master.objects_raw().find(oid);
      if (it == master.objects_raw().end() || it->second.deleted) continue;
      if (!in_bundle.insert(oid).second) continue;
      bundle.objects.push_back(it->second);
      work.insert(work.end(), it->second.children.begin(),
                  it->second.children.end());
    }
  };
  for (ObjectId root : roots) take_subtree({root});
  for (const auto& [rid, rel] : master.relationships_raw()) {
    if (rel.deleted || in_bundle.count(rel.ends[0]) == 0 ||
        in_bundle.count(rel.ends[1]) == 0) {
      continue;
    }
    bundle.relationships.push_back(rel);
    take_subtree(rel.children);
  }
  return bundle;
}

class BuildPathsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fig3 = spades::BuildFig3Schema();
    ASSERT_TRUE(fig3.ok());
    ids_ = fig3->ids;
    schema_ = fig3->schema;
    static int counter = 0;
    dir_ = ::testing::TempDir() + "/build_paths." +
           std::to_string(::getpid()) + "." + std::to_string(counter++);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  index::IndexSpec Spec() const { return {ids_.thing, "Description"}; }

  Fingerprint Take(const Database& db, bool with_tombstones) const {
    Fingerprint fp;
    for (const auto& [id, obj] : db.objects_raw()) {
      if (obj.deleted && !with_tombstones) continue;
      fp.items["o" + std::to_string(id.raw())] =
          core::ItemCodec::EncodeObjectToString(obj);
      if (!obj.deleted) fp.names[db.FullName(id)] = 0;
    }
    for (const auto& [id, rel] : db.relationships_raw()) {
      if (rel.deleted && !with_tombstones) continue;
      fp.items["r" + std::to_string(id.raw())] =
          core::ItemCodec::EncodeRelationshipToString(rel);
    }
    for (auto& [name, resolved] : fp.names) {
      auto id = db.FindObjectByName(name);
      resolved = id.ok() ? id->raw() : 0;
    }
    fp.live_objects = db.num_live_objects();
    fp.live_relationships = db.num_live_relationships();
    const core::ExtentCounters& counters = db.extent_counters();
    const std::vector<ClassId> classes = db.schema()->AllClassIds();
    for (ClassId cls : classes) fp.extents.push_back(counters.CountClass(cls));
    for (AssociationId assoc : db.schema()->AllAssociationIds()) {
      fp.extents.push_back(counters.CountAssociation(assoc));
      for (int role = 0; role < 2; ++role) {
        for (ClassId cls : classes) {
          fp.extents.push_back(counters.CountParticipants(assoc, role, cls));
        }
      }
    }
    for (const auto& idx : db.attribute_indexes().indexes()) {
      std::string spec = idx->spec().ToString();
      idx->ForEach([&fp, &spec](const Value& key, ObjectId id) {
        fp.listings.push_back(spec + " " + key.ToString() + " " +
                              std::to_string(id.raw()));
      });
    }
    return fp;
  }

  static Value SomeText(Random* rng) {
    return Value::String("d" + std::to_string(rng->Uniform(5)));
  }

  /// A seeded random mutation history on `db`, freezing versions in `vm`
  /// along the way and once at the end; `frozen` (if set) receives the
  /// fingerprint of each version as it was frozen.
  void RunHistory(std::uint64_t seed, Database* db, version::VersionManager* vm,
                  Frozen* frozen = nullptr) {
    auto freeze = [this, db, vm, frozen] {
      auto id = vm->CreateVersion();
      ASSERT_TRUE(id.ok());
      if (frozen != nullptr) (*frozen)[*id] = Take(*db, true);
    };
    Random rng(seed);
    std::vector<ObjectId> roots;
    std::vector<ObjectId> subs;
    std::vector<RelationshipId> rels;
    int names = 0;
    const std::vector<ClassId> data_classes = {ids_.data, ids_.input_data,
                                               ids_.output_data};
    auto of_class = [db, &roots](ClassId cls) {
      std::vector<ObjectId> out;
      for (ObjectId id : roots) {
        auto obj = db->GetObject(id);
        if (obj.ok() && (*obj)->cls == cls) out.push_back(id);
      }
      return out;
    };
    for (int step = 0; step < 400; ++step) {
      switch (rng.Uniform(10)) {
        case 0: {  // create an independent object
          ClassId cls = rng.Bernoulli(0.4) ? ids_.action
                                           : rng.Pick(data_classes);
          auto id = db->CreateObject(cls, "N" + std::to_string(names++));
          ASSERT_TRUE(id.ok());
          roots.push_back(*id);
          break;
        }
        case 1: {  // describe a root, or give a data root a text body
          if (roots.empty()) break;
          ObjectId root = rng.Pick(roots);
          auto desc = db->CreateSubObject(root, "Description");
          if (desc.ok()) {
            subs.push_back(*desc);
            (void)db->SetValue(*desc, SomeText(&rng));
          }
          auto text = db->CreateSubObject(root, "Text");
          if (!text.ok()) break;
          auto body = db->CreateSubObject(*text, "Body");
          if (!body.ok()) break;
          auto keyword = db->CreateSubObject(*body, "Keywords");
          if (keyword.ok()) {
            subs.push_back(*keyword);
            (void)db->SetValue(*keyword, Value::String("k"));
          }
          break;
        }
        case 2: {  // set or clear a sub-object's value
          if (subs.empty()) break;
          ObjectId sub = rng.Pick(subs);
          if (rng.Bernoulli(0.2)) {
            (void)db->ClearValue(sub);
          } else {
            (void)db->SetValue(sub, SomeText(&rng));
          }
          break;
        }
        case 3: {  // rename a root
          if (roots.empty()) break;
          (void)db->Rename(rng.Pick(roots), "R" + std::to_string(names++));
          break;
        }
        case 4: {  // delete a root or a sub-object
          if (roots.empty() || !rng.Bernoulli(0.4)) break;
          bool sub = rng.Bernoulli(0.5) && !subs.empty();
          (void)db->DeleteObject(sub ? rng.Pick(subs) : rng.Pick(roots));
          break;
        }
        case 5: {  // reclassify a data root within its hierarchy
          if (roots.empty()) break;
          (void)db->Reclassify(rng.Pick(roots), rng.Pick(data_classes));
          break;
        }
        case 6: {  // relate an action to data, or nest two actions
          std::vector<ObjectId> actions = of_class(ids_.action);
          if (actions.empty()) break;
          Result<RelationshipId> rel = Status::NotFound("");
          switch (rng.Uniform(3)) {
            case 0: {
              std::vector<ObjectId> inputs = of_class(ids_.input_data);
              if (inputs.empty()) break;
              rel = db->CreateRelationship(ids_.read, rng.Pick(inputs),
                                           rng.Pick(actions));
              break;
            }
            case 1: {
              std::vector<ObjectId> outputs = of_class(ids_.output_data);
              if (outputs.empty()) break;
              rel = db->CreateRelationship(ids_.write, rng.Pick(outputs),
                                           rng.Pick(actions));
              if (!rel.ok()) break;
              auto count = db->CreateSubObject(*rel, "NumberOfWrites");
              if (count.ok()) {
                (void)db->SetValue(*count, Value::Int(rng.UniformRange(1, 9)));
              }
              break;
            }
            default:
              rel = db->CreateRelationship(ids_.contained, rng.Pick(actions),
                                           rng.Pick(actions));
          }
          if (rel.ok()) rels.push_back(*rel);
          break;
        }
        case 7: {  // delete a relationship
          if (rels.empty() || !rng.Bernoulli(0.5)) break;
          (void)db->DeleteRelationship(rng.Pick(rels));
          break;
        }
        case 8: {  // freeze a version
          if (rng.Bernoulli(0.3)) freeze();
          break;
        }
        default:
          break;
      }
    }
    freeze();
  }

  spades::Fig3Ids ids_;
  schema::SchemaPtr schema_;
  std::string dir_;
};

TEST_F(BuildPathsTest, EveryPathReproducesTheSource) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    multiuser::Server server(schema_);
    Database* master = server.master();
    ASSERT_TRUE(master->CreateAttributeIndex(Spec()).ok());
    version::VersionManager* vm = server.global_versions();
    Frozen frozen;
    RunHistory(seed, master, vm, &frozen);
    ASSERT_TRUE(master->AuditConsistency().clean());
    const Fingerprint source = Take(*master, /*with_tombstones=*/true);
    const auto marks = Watermarks(*master);
    ASSERT_FALSE(source.listings.empty());

    // Snapshot capture.
    version::SnapshotPtr snap = version::Snapshot::Capture(*master, 1);
    ExpectSame(source, Take(snap->database(), true), "capture");
    EXPECT_EQ(marks, Watermarks(snap->database())) << "capture";

    // Full save, then load into a fresh database.
    {
      std::string store = dir_ + "/" + std::to_string(seed);
      std::filesystem::create_directories(store);
      storage::KvStore kv;
      ASSERT_TRUE(kv.Open(store).ok());
      ASSERT_TRUE(core::Persistence::SaveFull(*master, &kv).ok());
      auto loaded = core::Persistence::Load(&kv);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ExpectSame(source, Take(**loaded, true), "load");
      EXPECT_EQ(marks, Watermarks(**loaded)) << "load";
      EXPECT_TRUE((*loaded)->changed_objects().empty());
      ASSERT_TRUE(kv.Close().ok());
    }

    // A full checkout imported into a client workspace: every live item.
    {
      auto session = multiuser::ClientSession::Open(&server, "reader");
      ASSERT_TRUE(session.ok());
      multiuser::ClientSession& client = **session;
      ASSERT_TRUE(client.local()->CreateAttributeIndex(Spec()).ok());
      ASSERT_TRUE(client.Checkout(master->AllIndependentObjects()).ok());
      ExpectSame(Take(*master, /*with_tombstones=*/false),
                 Take(*client.local(), false), "checkout");
      std::uint64_t stripe = *server.IdStripeBase(client.id());
      EXPECT_EQ(Watermarks(*client.local()),
                std::make_pair(stripe + 1, stripe + 1));
      ASSERT_TRUE(client.Abandon().ok());
    }

    // Restore every frozen version, ending on the latest: each equals the
    // state it froze, and no restore lowers an id watermark.
    ASSERT_GE(frozen.size(), 2u);
    for (const auto& [id, state] : frozen) {
      ASSERT_TRUE(vm->SelectVersion(id).ok());
      ExpectSame(state, Take(*master, true), "select " + id.ToString());
      EXPECT_EQ(marks, Watermarks(*master)) << "select " << id.ToString();
      EXPECT_TRUE(master->changed_objects().empty());
    }
    ExpectSame(source, Take(*master, true), "select latest");
  }
}

TEST_F(BuildPathsTest, RejectedCheckinLeavesMasterByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    multiuser::Server server(schema_);
    Database* master = server.master();
    ASSERT_TRUE(master->CreateAttributeIndex(Spec()).ok());
    RunHistory(seed, master, server.global_versions());
    const Fingerprint before = Take(*master, /*with_tombstones=*/true);

    auto session = multiuser::ClientSession::Open(&server, "writer");
    ASSERT_TRUE(session.ok());
    multiuser::ClientSession& client = **session;
    std::vector<ObjectId> roots = master->AllIndependentObjects();
    ASSERT_GE(roots.size(), 2u);
    ASSERT_TRUE(client.Checkout(roots).ok());
    std::uint64_t stripe = *server.IdStripeBase(client.id());

    // Poison: edits of existing items (a rename, a described root, a
    // tombstoned relationship), a new relationship, and a new object whose
    // name is already taken, which the master audit rejects.
    multiuser::CheckinBundle bundle;
    core::ObjectItem renamed = master->objects_raw().at(roots[0]);
    renamed.name = "Renamed";
    bundle.objects.push_back(renamed);
    for (const auto& [id, obj] : master->objects_raw()) {
      if (obj.deleted || obj.cls != ids_.description) continue;
      core::ObjectItem edited = obj;
      edited.value = Value::String("poisoned");
      bundle.objects.push_back(edited);
      break;
    }
    for (const auto& [id, rel] : master->relationships_raw()) {
      if (rel.deleted) continue;
      core::RelationshipItem dropped = rel;
      dropped.deleted = true;
      bundle.relationships.push_back(dropped);
      break;
    }
    core::RelationshipItem fresh;
    fresh.id = RelationshipId(stripe + 1);
    fresh.assoc = ids_.contained;
    fresh.ends[0] = roots[0];
    fresh.ends[1] = roots[1];
    bundle.relationships.push_back(fresh);
    core::ObjectItem dup;
    dup.id = ObjectId(stripe + 1);
    dup.cls = ids_.action;
    dup.name = master->objects_raw().at(roots[1]).name;
    bundle.objects.push_back(dup);

    EXPECT_TRUE(server.Checkin(client.id(), bundle).IsConsistencyViolation());
    ExpectSame(before, Take(*master, true), "rejected check-in");
    EXPECT_TRUE(master->AuditConsistency().clean());
  }
}

TEST_F(BuildPathsTest, CopyHasItsOwnIdentity) {
  Database db(schema_);
  ObjectId action = *db.CreateObject(ids_.action, "A");
  db.AttachProcedure(ids_.description, [](const core::UpdateEvent&) {
    return Status::FailedPrecondition("no descriptions here");
  });
  std::unique_ptr<Database> copy = db.Copy();
  EXPECT_NE(copy->instance_id(), db.instance_id());
  EXPECT_FALSE(db.changed_objects().empty());
  EXPECT_TRUE(copy->changed_objects().empty());
  // Attached procedures stay with the source.
  EXPECT_FALSE(db.CreateSubObject(action, "Description").ok());
  EXPECT_TRUE(copy->CreateSubObject(action, "Description").ok());
}

TEST_F(BuildPathsTest, RebuildDropsLinksOfOverwrittenStates) {
  Database db(schema_);
  ObjectId from = *db.CreateObject(ids_.action, "From");
  ObjectId to = *db.CreateObject(ids_.action, "To");
  ObjectId desc = *db.CreateSubObject(from, "Description");
  EXPECT_EQ(db.ObjectsLinkedTo(from), std::vector<ObjectId>{desc});
  // Moved by a raw write: `from` still lists it, and only `to` is named.
  core::ObjectItem moved = db.objects_raw().at(desc);
  moved.parent_object = to;
  db.RestoreObject(moved);
  db.RebuildIndexes();
  EXPECT_TRUE(db.ObjectsLinkedTo(from).empty());
  EXPECT_EQ(db.ObjectsLinkedTo(to), std::vector<ObjectId>{desc});
  EXPECT_EQ(db.ObjectsLinkedTo(desc), std::vector<ObjectId>{from});
}

// The long randomized cases, run as their own slow ctest entry.
using BuildPathsRandomizedTest = BuildPathsTest;

TEST_F(BuildPathsRandomizedTest, IncrementalWritesDeriveWhatARebuildDerives) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    int serial = 0;
    // `edited` takes random edits through the API; `live` sees them only
    // as batches of changed item states, the way a check-in writes them.
    Database edited(schema_);
    Database live(schema_);
    for (Database* db : {&edited, &live}) {
      ASSERT_TRUE(db->CreateAttributeIndex(Spec()).ok());
      ASSERT_TRUE(db->CreateAttributeIndex({ids_.keywords, ""}).ok());
      ASSERT_TRUE(db->CreateAttributeIndex(index::IndexSpec::ForAssociation(
                                               ids_.write, "NumberOfWrites"))
                      .ok());
    }
    for (int round = 0; round < 80; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const std::uint64_t edits = 1 + rng.Uniform(8);
      for (std::uint64_t i = 0; i < edits; ++i) {
        RandomEdit(ids_, &rng, &edited, &serial);
      }
      core::ItemStates batch = TakeChanges(&edited);
      // The batch's undo: each item's prior state, or its erasure.
      core::ItemStates undo;
      for (const auto& [id, obj] : batch.objects) {
        auto it = live.objects_raw().find(id);
        if (it == live.objects_raw().end()) {
          undo.erased_objects.push_back(id);
        } else {
          undo.objects.emplace(id, it->second);
        }
      }
      for (const auto& [id, rel] : batch.relationships) {
        auto it = live.relationships_raw().find(id);
        if (it == live.relationships_raw().end()) {
          undo.erased_relationships.push_back(id);
        } else {
          undo.relationships.emplace(id, it->second);
        }
      }
      const auto raw_before = RawItems(live);
      const auto derived_before = DerivedState(live);
      core::ItemStates redo = batch;

      live.WriteItemStates(std::move(batch));
      ASSERT_EQ(RawItems(edited), RawItems(live));
      ASSERT_EQ(RebuiltState(live), DerivedState(live));
      EXPECT_EQ(DerivedState(edited), DerivedState(live));
      EXPECT_EQ(Watermarks(edited), Watermarks(live));

      if (round % 4 == 3) {  // undo round trip
        live.WriteItemStates(std::move(undo));
        EXPECT_EQ(raw_before, RawItems(live));
        ASSERT_EQ(derived_before, DerivedState(live));
        live.WriteItemStates(std::move(redo));
        ASSERT_EQ(RebuiltState(live), DerivedState(live));
      }
    }
    ASSERT_TRUE(live.AuditConsistency().clean());

    // A whole-database batch that rewrites every item, some of them
    // changed: every list an item leaves is rewritten at once.
    for (int i = 0; i < 20; ++i) RandomEdit(ids_, &rng, &edited, &serial);
    edited.ClearChangeTracking();
    core::ItemStates all;
    all.objects = edited.objects_raw();
    all.relationships = edited.relationships_raw();
    live.WriteItemStates(std::move(all));
    EXPECT_EQ(RawItems(edited), RawItems(live));
    EXPECT_EQ(RebuiltState(live), DerivedState(live));
    EXPECT_EQ(DerivedState(edited), DerivedState(live));
  }
}

TEST_F(BuildPathsRandomizedTest,
       CheckoutShipsWhatAFullRelationshipScanFinds) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Fig. 3 plus relationships between relationship attributes: a
    // checkout ships one only once both attributes have joined the bundle.
    auto builder = schema::SchemaBuilder::Evolve(*schema_);
    AssociationId cites = builder.AddAssociation(
        "Cites", schema::Role{"count", ids_.number_of_writes,
                              schema::Cardinality::Any()},
        schema::Role{"cited", ids_.number_of_writes,
                     schema::Cardinality::Any()});
    auto schema = builder.Build();
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    multiuser::Server server(*schema);
    Database* master = server.master();
    RunHistory(seed, master, server.global_versions());
    // Pattern items and more relationship kinds on top of the history.
    Random rng(seed);
    int serial = 0;
    for (int i = 0; i < 150; ++i) RandomEdit(ids_, &rng, master, &serial);
    const std::vector<ObjectId> counts =
        master->ObjectsOfClass(ids_.number_of_writes);
    for (int i = 0; i < 20 && !counts.empty(); ++i) {
      (void)master->CreateRelationship(cites, rng.Pick(counts),
                                       rng.Pick(counts));
    }
    ASSERT_TRUE(master->AuditConsistency().clean());
    ASSERT_FALSE(master->RelationshipsOfAssociation(cites).empty());

    auto client = server.Connect("reader");
    ASSERT_TRUE(client.ok());
    std::vector<ObjectId> candidates = master->AllIndependentObjects();
    for (ObjectId id : master->AllPatternRoots()) candidates.push_back(id);
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<ObjectId> roots;
      for (ObjectId id : candidates) {
        if (trial == 0 || rng.Bernoulli(0.3)) roots.push_back(id);
      }
      auto bundle = server.Checkout(*client, roots);
      ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
      EXPECT_EQ(Encoded(ScanCheckout(*master, roots)), Encoded(*bundle))
          << "trial " << trial;
      ASSERT_TRUE(server.ReleaseLocks(*client, roots).ok());
    }
  }
}

}  // namespace
}  // namespace seed
