// Differential test of the check-in audit. The server audits only the
// neighbourhood of a bundle; that must reject exactly the bundles a full
// AuditConsistency of the same post-apply state rejects, with the same
// message, and a rejected bundle must leave the master as it was. Bundles
// are random edits of a copy of the master, most of them poisoned with
// one rule violation each.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "multiuser/server.h"
#include "random_edits.h"
#include "schema/schema_builder.h"
#include "spades/spec_schema.h"

namespace seed {
namespace {

using core::Database;
using core::ItemStates;
using core::ObjectItem;
using core::RelationshipItem;
using core::Value;
using test_support::DerivedState;
using test_support::RawItems;
using test_support::RebuiltState;
using test_support::RandomEdit;
using test_support::TakeChanges;

enum Poison {
  kNone,
  kDuplicateName,     // a new object takes a live root's name
  kRenameClash,       // a root is renamed to another root's name
  kSwapNames,         // two roots swap names: legal
  kSwapThenClash,     // a swap, and a new object takes one of the names
  kDeadParent,        // a root dies, its described sub-object does not
  kDeadRelationship,  // a Write dies and drops its NumberOfWrites, alive
  kMaxCardinality,    // a second Description
  kSecondByRetyping,  // a Revised retyped into a second Description
  kMovedAndRetyped,   // that Revised also moved to another action, its
                      // old parent still listing it
  kRoleMaximum,       // an action contained in two others
  kCycle,             // a Calls edge reclassified into acyclic Contained
  kDeadEnd,           // an action with relationships dies alone
  kDuplicateRelationship,
  kValueType,         // a Description holding an integer
  kPatternEnd,        // a normal relationship to a pattern object
  kNumPoisons,
};

class CheckinAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fig3 = spades::BuildFig3Schema();
    ASSERT_TRUE(fig3.ok());
    ids_ = fig3->ids;
    // Fig. 3 plus a plain action-to-action association, so that an edge
    // can be reclassified into the acyclic Contained family.
    auto builder = schema::SchemaBuilder::Evolve(*fig3->schema);
    calls_ = builder.AddAssociation(
        "Calls",
        schema::Role{"caller", ids_.action, schema::Cardinality::Any()},
        schema::Role{"callee", ids_.action, schema::Cardinality::Any()});
    auto built = builder.Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    schema_ = *built;
  }

  /// A live object of `cls` in `db`, or an invalid id.
  static ObjectId Any(const Database& db, ClassId cls, Random* rng) {
    std::vector<ObjectId> of = db.ObjectsOfClass(cls);
    return of.empty() ? ObjectId() : rng->Pick(of);
  }

  /// Adds one violation of `kind` to `states`, drawn from the edited copy
  /// `scratch`; false when `scratch` offers no target for it.
  bool AddPoison(Poison kind, const Database& scratch, ItemStates* states,
                 std::uint64_t* next_id, Random* rng) const {
    auto object = [&](ObjectId id) -> ObjectItem& {
      auto it = states->objects.find(id);
      if (it != states->objects.end()) return it->second;
      return states->objects[id] = scratch.objects_raw().at(id);
    };
    auto relationship = [&](RelationshipId id) -> RelationshipItem& {
      auto it = states->relationships.find(id);
      if (it != states->relationships.end()) return it->second;
      return states->relationships[id] = scratch.relationships_raw().at(id);
    };
    auto new_object = [&](ClassId cls) -> ObjectItem& {
      ObjectId id((*next_id)++);
      ObjectItem& obj = states->objects[id];
      obj.id = id;
      obj.cls = cls;
      return obj;
    };
    auto new_relationship = [&](AssociationId assoc, ObjectId end0,
                                ObjectId end1) {
      RelationshipId id((*next_id)++);
      RelationshipItem& rel = states->relationships[id];
      rel.id = id;
      rel.assoc = assoc;
      rel.ends[0] = end0;
      rel.ends[1] = end1;
    };
    auto described = [&]() {  // a live Description and its parent
      ObjectId desc = Any(scratch, ids_.description, rng);
      return std::make_pair(
          desc, desc.valid() ? scratch.objects_raw().at(desc).parent_object
                             : ObjectId());
    };
    const std::vector<ObjectId> roots = scratch.AllIndependentObjects();
    ObjectId a = roots.empty() ? ObjectId() : rng->Pick(roots);
    ObjectId b = roots.empty() ? ObjectId() : rng->Pick(roots);
    switch (kind) {
      case kNone:
        return true;
      case kDuplicateName: {
        if (!a.valid()) return false;
        new_object(ids_.action).name = scratch.objects_raw().at(a).name;
        return true;
      }
      case kRenameClash:
      case kSwapNames:
      case kSwapThenClash: {
        if (a == b) return false;
        std::string name_a = object(a).name;
        object(a).name = object(b).name;
        if (kind == kRenameClash) return true;
        object(b).name = name_a;
        if (kind == kSwapThenClash) new_object(ids_.action).name = name_a;
        return true;
      }
      case kDeadParent: {
        auto [desc, parent] = described();
        if (!desc.valid()) return false;
        object(parent).deleted = true;
        return true;
      }
      case kDeadRelationship: {
        ObjectId count = Any(scratch, ids_.number_of_writes, rng);
        if (!count.valid()) return false;
        // The relationship no longer lists its attribute either: the audit
        // must find the attribute through the parent link it still has.
        RelationshipItem& rel =
            relationship(scratch.objects_raw().at(count).parent_relationship);
        rel.deleted = true;
        rel.children.clear();
        return true;
      }
      case kMaxCardinality: {
        auto [desc, parent] = described();
        if (!desc.valid()) return false;
        ObjectItem& second = new_object(ids_.description);
        second.parent_kind = core::ParentKind::kObject;
        second.parent_object = parent;
        second.index = 1;
        second.value = Value::String("second");
        object(parent).children.push_back(second.id);
        return true;
      }
      case kSecondByRetyping: {
        for (ObjectId revised : scratch.ObjectsOfClass(ids_.revised)) {
          ObjectId parent = scratch.objects_raw().at(revised).parent_object;
          if (scratch.SubObjects(parent, "Description").empty()) continue;
          ObjectItem& retyped = object(revised);
          retyped.cls = ids_.description;
          retyped.value = Value::String("retyped");
          return true;
        }
        return false;
      }
      case kMovedAndRetyped: {
        for (ObjectId revised : scratch.ObjectsOfClass(ids_.revised)) {
          ObjectId parent = scratch.objects_raw().at(revised).parent_object;
          if (scratch.SubObjects(parent, "Description").empty()) continue;
          ObjectId other = Any(scratch, ids_.action, rng);
          if (other == parent) return false;
          ObjectItem& moved = object(revised);
          moved.cls = ids_.description;
          moved.value = Value::String("moved");
          moved.parent_object = other;
          return true;
        }
        return false;
      }
      case kRoleMaximum: {
        for (ObjectId action : scratch.ObjectsOfClass(ids_.action)) {
          if (scratch.RelationshipsOf(action, ids_.contained, 0).empty()) {
            continue;
          }
          ObjectId other = Any(scratch, ids_.action, rng);
          if (other == action) return false;
          new_relationship(ids_.contained, action, other);
          return true;
        }
        return false;
      }
      case kCycle: {
        std::vector<RelationshipId> calls =
            scratch.RelationshipsOfAssociation(calls_);
        if (calls.empty()) return false;
        relationship(rng->Pick(calls)).assoc = ids_.contained;
        return true;
      }
      case kDeadEnd: {
        for (ObjectId action : scratch.ObjectsOfClass(ids_.action)) {
          if (scratch.RelationshipsOf(action).empty()) continue;
          object(action).deleted = true;
          return true;
        }
        return false;
      }
      case kDuplicateRelationship: {
        std::vector<RelationshipId> rels =
            scratch.RelationshipsOfAssociation(ids_.access);
        if (rels.empty()) return false;
        const RelationshipItem& twin =
            scratch.relationships_raw().at(rng->Pick(rels));
        new_relationship(twin.assoc, twin.ends[0], twin.ends[1]);
        return true;
      }
      case kValueType: {
        auto [desc, parent] = described();
        if (!desc.valid()) return false;
        object(desc).value = Value::Int(7);
        return true;
      }
      case kPatternEnd: {
        ObjectId action = Any(scratch, ids_.action, rng);
        std::vector<ObjectId> patterns = scratch.AllPatternRoots();
        if (!action.valid() || patterns.empty()) return false;
        ObjectId pattern = rng->Pick(patterns);
        if (scratch.objects_raw().at(pattern).cls == ids_.action) {
          new_relationship(ids_.contained, action, pattern);
        } else {
          new_relationship(ids_.access, pattern, action);
        }
        return true;
      }
      case kNumPoisons:
        break;
    }
    return false;
  }

  /// Checks `states` in as one bundle and expects the verdict and message
  /// of a full audit of the same post-apply state, and an unchanged master
  /// after a rejection. Returns that full audit.
  static core::Report CheckinAsFullAudit(multiuser::Server* server,
                                         ClientId client,
                                         ItemStates states) {
    Database* master = server->master();
    multiuser::CheckinBundle bundle;
    for (const auto& [id, obj] : states.objects) {
      bundle.objects.push_back(obj);
    }
    for (const auto& [id, rel] : states.relationships) {
      bundle.relationships.push_back(rel);
    }
    std::unique_ptr<Database> probe = master->Copy();
    probe->WriteItemStates(std::move(states));
    core::Report full = probe->AuditConsistency();
    const auto raw_before = RawItems(*master);
    const auto derived_before = DerivedState(*master);

    Status status = server->Checkin(client, bundle);
    if (full.clean()) {
      EXPECT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(RawItems(*probe), RawItems(*master));
      EXPECT_EQ(RebuiltState(*master), DerivedState(*master));
      // The published snapshot, replayed or copied, is the master's copy.
      version::SnapshotPtr snap = server->PinSnapshot();
      std::unique_ptr<Database> copy = master->Copy();
      EXPECT_EQ(RawItems(*copy), RawItems(snap->database()));
      EXPECT_EQ(DerivedState(*copy), DerivedState(snap->database()));
      EXPECT_EQ(copy->object_ids().next_raw(),
                snap->database().object_ids().next_raw());
      EXPECT_EQ(copy->relationship_ids().next_raw(),
                snap->database().relationship_ids().next_raw());
      return full;
    }
    EXPECT_TRUE(status.IsConsistencyViolation())
        << status.ToString() << "\nfull audit:\n" << full.ToString();
    EXPECT_EQ(status.message(),
              "check-in rejected: " + full.violations.front().ToString() +
                  (full.size() > 1
                       ? " (and " + std::to_string(full.size() - 1) +
                             " more)"
                       : ""));
    EXPECT_EQ(raw_before, RawItems(*master));
    EXPECT_EQ(derived_before, DerivedState(*master));
    EXPECT_TRUE(master->AuditConsistency().clean());
    return full;
  }

  spades::Fig3Ids ids_;
  AssociationId calls_;
  schema::SchemaPtr schema_;
};

TEST_F(CheckinAuditTest, NeighbourhoodAuditRejectsWhatTheFullAuditRejects) {
  std::map<int, int> applied;   // poison kind -> bundles it went into
  std::map<int, int> rejected;  // poison kind -> bundles rejected
  int cycles = 0;               // rejections that closed a cycle
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    multiuser::Server server(schema_);
    Database* master = server.master();
    ASSERT_TRUE(
        master->CreateAttributeIndex({ids_.thing, "Description"}).ok());
    Random rng(seed);
    int serial = 0;
    for (int i = 0; i < 200; ++i) RandomEdit(ids_, &rng, master, &serial);
    // Revision stamps beside descriptions, for kSecondByRetyping.
    for (ObjectId desc : master->ObjectsOfClass(ids_.description)) {
      ObjectId parent = master->objects_raw().at(desc).parent_object;
      ASSERT_TRUE(master->CreateSubObject(parent, "Revised").ok());
    }
    core::CreateOptions pattern;
    pattern.pattern = true;
    ASSERT_TRUE(master->CreateObject(ids_.action, "PA", pattern).ok());
    ASSERT_TRUE(master->CreateObject(ids_.input_data, "PD", pattern).ok());
    // Call edges against the grain of containment: reclassifying one of
    // them into Contained closes a cycle.
    for (RelationshipId rid : master->RelationshipsOfAssociation(
             ids_.contained)) {
      const RelationshipItem& rel = master->relationships_raw().at(rid);
      if (rel.ends[0] != rel.ends[1]) {
        ASSERT_TRUE(
            master->CreateRelationship(calls_, rel.ends[1], rel.ends[0]).ok());
      }
    }
    master->ClearChangeTracking();
    ASSERT_TRUE(master->AuditConsistency().clean());

    auto client = server.Connect("writer");
    ASSERT_TRUE(client.ok());
    std::uint64_t next_id = *server.IdStripeBase(*client) + 1;
    for (int round = 0; round < 80; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      std::vector<ObjectId> roots = master->AllIndependentObjects();
      for (ObjectId id : master->AllPatternRoots()) roots.push_back(id);
      ASSERT_TRUE(server.Checkout(*client, roots).ok());

      // Random edits of a copy of the master, new ids from the client's
      // stripe, and two bundles in three poisoned.
      std::unique_ptr<Database> scratch = master->Copy();
      scratch->object_ids().ResetTo(next_id);
      scratch->relationship_ids().ResetTo(next_id);
      const std::uint64_t edits = rng.Uniform(6);
      for (std::uint64_t i = 0; i < edits; ++i) {
        RandomEdit(ids_, &rng, scratch.get(), &serial);
      }
      next_id = std::max(scratch->object_ids().next_raw(),
                         scratch->relationship_ids().next_raw());
      ItemStates states = TakeChanges(scratch.get());
      Poison kind = round % 3 == 0
                        ? kNone
                        : static_cast<Poison>(1 + rng.Uniform(kNumPoisons - 1));
      if (!AddPoison(kind, *scratch, &states, &next_id, &rng)) kind = kNone;
      ++applied[kind];

      const core::Report full =
          CheckinAsFullAudit(&server, *client, std::move(states));
      if (HasFailure()) FAIL() << "poison " << kind;
      if (full.clean()) continue;
      ++rejected[kind];
      if (!full.Of(core::Rule::kAcyclic).empty()) ++cycles;
    }
  }
  // Every poison took effect somewhere, and a swap of names alone is legal.
  for (int kind = kDuplicateName; kind < kNumPoisons; ++kind) {
    if (kind == kSwapNames) continue;
    EXPECT_GT(rejected[kind], 0) << "poison " << kind << " never rejected";
  }
  EXPECT_GT(applied[kSwapNames], rejected[kSwapNames]);
  EXPECT_GT(cycles, 0);
}

// The audit must reach every object whose rules read a touched item,
// also when children lists and parent links disagree. Such states pass the
// full audit, so a first bundle commits one; a second bundle then breaks a
// rule of an item only that disagreement links to the bundle.
class LinkedObjectsTest : public CheckinAuditTest {
 protected:
  void SetUp() override {
    CheckinAuditTest::SetUp();
    server_ = std::make_unique<multiuser::Server>(schema_);
    master_ = server_->master();
    auto client = server_->Connect("writer");
    ASSERT_TRUE(client.ok());
    client_ = *client;
    next_id_ = *server_->IdStripeBase(client_) + 1;
  }

  /// Checks out every root, then checks `states` in.
  core::Report Checkin(ItemStates states) {
    std::vector<ObjectId> roots = master_->AllIndependentObjects();
    EXPECT_TRUE(server_->Checkout(client_, roots).ok());
    return CheckinAsFullAudit(server_.get(), client_, std::move(states));
  }

  /// A new sub-object of `cls` that names `parent` without being listed.
  ObjectItem Unlisted(ClassId cls, core::ParentKind kind, std::uint64_t parent,
                      Value value) {
    ObjectItem obj;
    obj.id = ObjectId(next_id_++);
    obj.cls = cls;
    obj.parent_kind = kind;
    if (kind == core::ParentKind::kObject) {
      obj.parent_object = ObjectId(parent);
    } else {
      obj.parent_relationship = RelationshipId(parent);
    }
    obj.value = std::move(value);
    return obj;
  }

  /// `id`'s state in the master, to be edited into a bundle.
  ObjectItem Object(ObjectId id) const { return master_->objects_raw().at(id); }

  std::unique_ptr<multiuser::Server> server_;
  Database* master_ = nullptr;
  ClientId client_;
  std::uint64_t next_id_ = 0;
};

TEST_F(LinkedObjectsTest, AttributeItsRelationshipDoesNotList) {
  ObjectId action = *master_->CreateObject(ids_.action, "A");
  ObjectId data = *master_->CreateObject(ids_.output_data, "D");
  RelationshipId write =
      *master_->CreateRelationship(ids_.write, data, action);
  ObjectId count = *master_->CreateSubObject(write, "NumberOfWrites");
  ASSERT_TRUE(master_->SetValue(count, Value::Int(1)).ok());

  ItemStates add;
  ObjectItem extra = Unlisted(ids_.number_of_writes,
                              core::ParentKind::kRelationship, write.raw(),
                              Value::Int(2));
  add.objects[extra.id] = extra;
  ASSERT_TRUE(Checkin(std::move(add)).clean());

  // The relationship and the attribute it lists die; the other does not.
  ItemStates kill;
  kill.relationships[write] = master_->relationships_raw().at(write);
  kill.relationships[write].deleted = true;
  kill.objects[count] = Object(count);
  kill.objects[count].deleted = true;
  core::Report full = Checkin(std::move(kill));
  ASSERT_EQ(full.size(), 1u) << full.ToString();
  EXPECT_EQ(full.violations.front().object, extra.id);
}

TEST_F(LinkedObjectsTest, ChildSharingItsSiblingsKey) {
  ObjectId parent = *master_->CreateObject(ids_.action, "P");
  ObjectId desc = *master_->CreateSubObject(parent, "Description");
  ASSERT_TRUE(master_->SetValue(desc, Value::String("listed")).ok());

  // Same class and index as the listed Description: the child-key index
  // keeps only one of them.
  ItemStates add;
  ObjectItem twin = Unlisted(ids_.description, core::ParentKind::kObject,
                             parent.raw(), Value::String("unlisted"));
  twin.index = Object(desc).index;
  add.objects[twin.id] = twin;
  ASSERT_TRUE(Checkin(std::move(add)).clean());

  ItemStates kill;
  kill.objects[parent] = Object(parent);
  kill.objects[parent].deleted = true;
  kill.objects[desc] = Object(desc);
  kill.objects[desc].deleted = true;
  core::Report full = Checkin(std::move(kill));
  ASSERT_EQ(full.size(), 1u) << full.ToString();
  EXPECT_EQ(full.violations.front().object, twin.id);
}

TEST_F(LinkedObjectsTest, ChildListedByAnotherObject) {
  ObjectId owner = *master_->CreateObject(ids_.action, "Owner");
  ObjectId stamp = *master_->CreateSubObject(owner, "Revised");
  ObjectId lister = *master_->CreateObject(ids_.action, "Lister");
  ASSERT_TRUE(master_->CreateSubObject(lister, "Description").ok());

  // The lister counts the Revised among its children too.
  ItemStates list;
  list.objects[lister] = Object(lister);
  list.objects[lister].children.push_back(stamp);
  ASSERT_TRUE(Checkin(std::move(list)).clean());

  // Retyped, the stamp is the owner's only Description but the lister's
  // second.
  ItemStates retype;
  retype.objects[stamp] = Object(stamp);
  retype.objects[stamp].cls = ids_.description;
  retype.objects[stamp].value = Value::String("retyped");
  core::Report full = Checkin(std::move(retype));
  ASSERT_EQ(full.size(), 1u) << full.ToString();
  EXPECT_EQ(full.violations.front().object, lister);
  EXPECT_EQ(full.violations.front().rule, core::Rule::kMaxCardinality);
}

}  // namespace
}  // namespace seed
