// Differential test of the paths that build a database from raw item
// states: snapshot capture, full save + load, version restore and a full
// checkout's import must each reproduce the source they copy, and a
// check-in the audit rejects must leave the master exactly as it was.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/item_codec.h"
#include "core/persistence.h"
#include "multiuser/client.h"
#include "multiuser/server.h"
#include "spades/spec_schema.h"
#include "storage/kv_store.h"
#include "version/snapshot.h"
#include "version/version_manager.h"

namespace seed {
namespace {

using core::Database;
using core::Value;

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

}  // namespace
}  // namespace seed
