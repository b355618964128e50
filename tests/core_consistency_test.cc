// Consistency rule tests: every rule the paper classifies as consistency
// information must veto updates immediately — class/association membership,
// maximum cardinalities, ACYCLIC conditions, value types, and attached
// procedures — while the database stays permanently consistent.

#include <gtest/gtest.h>

#include "core/database.h"
#include "spades/spec_schema.h"

namespace seed::core {
namespace {

using spades::BuildFig2Schema;
using spades::Fig2Ids;

class ConsistencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fig2 = BuildFig2Schema();
    ASSERT_TRUE(fig2.ok());
    ids_ = fig2->ids;
    db_ = std::make_unique<Database>(fig2->schema);
  }

  /// After every test, the incremental checks must agree with a full audit.
  void TearDown() override {
    Report audit = db_->AuditConsistency();
    EXPECT_TRUE(audit.clean()) << audit.ToString();
  }

  Fig2Ids ids_;
  std::unique_ptr<Database> db_;
};

// --- Name conflicts ----------------------------------------------------------

TEST_F(ConsistencyTest, DuplicateNameVetoed) {
  ASSERT_TRUE(db_->CreateObject(ids_.data, "Alarms").ok());
  auto dup = db_->CreateObject(ids_.data, "Alarms");
  EXPECT_TRUE(dup.status().IsConsistencyViolation());
  auto dup2 = db_->CreateObject(ids_.action, "Alarms");
  EXPECT_TRUE(dup2.status().IsConsistencyViolation());
  EXPECT_EQ(db_->num_live_objects(), 1u);
}

// --- Maximum cardinalities ---------------------------------------------------

TEST_F(ConsistencyTest, MaxCardinalityOfSubObjectsEnforced) {
  ObjectId alarms = *db_->CreateObject(ids_.data, "Alarms");
  // Data.Text allows 0..16 texts.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(db_->CreateSubObject(alarms, "Text").ok()) << i;
  }
  auto overflow = db_->CreateSubObject(alarms, "Text");
  EXPECT_TRUE(overflow.status().IsConsistencyViolation());
  EXPECT_EQ(db_->SubObjects(alarms, "Text").size(), 16u);
}

TEST_F(ConsistencyTest, SingleValuedRoleEnforced) {
  ObjectId alarms = *db_->CreateObject(ids_.data, "Alarms");
  ObjectId text = *db_->CreateSubObject(alarms, "Text");
  ASSERT_TRUE(db_->CreateSubObject(text, "Body").ok());
  EXPECT_TRUE(
      db_->CreateSubObject(text, "Body").status().IsConsistencyViolation());
}

TEST_F(ConsistencyTest, DeletionFreesCardinalitySlot) {
  ObjectId alarms = *db_->CreateObject(ids_.data, "Alarms");
  ObjectId text = *db_->CreateSubObject(alarms, "Text");
  ObjectId body = *db_->CreateSubObject(text, "Body");
  ASSERT_TRUE(db_->DeleteObject(body).ok());
  EXPECT_TRUE(db_->CreateSubObject(text, "Body").ok());
}

// --- Relationship membership -------------------------------------------------

TEST_F(ConsistencyTest, RoleClassMembershipEnforced) {
  ObjectId alarms = *db_->CreateObject(ids_.data, "Alarms");
  ObjectId handler = *db_->CreateObject(ids_.action, "AlarmHandler");
  // Read wants (Data, Action); swapping the ends must fail.
  auto wrong = db_->CreateRelationship(ids_.read, handler, alarms);
  EXPECT_TRUE(wrong.status().IsConsistencyViolation());
  EXPECT_TRUE(db_->CreateRelationship(ids_.read, alarms, handler).ok());
}

TEST_F(ConsistencyTest, RelationshipNeedsLiveEnds) {
  ObjectId alarms = *db_->CreateObject(ids_.data, "Alarms");
  ObjectId handler = *db_->CreateObject(ids_.action, "AlarmHandler");
  ASSERT_TRUE(db_->DeleteObject(handler).ok());
  EXPECT_TRUE(db_->CreateRelationship(ids_.read, alarms, handler)
                  .status()
                  .IsNotFound());
}

TEST_F(ConsistencyTest, DuplicateRelationshipVetoed) {
  ObjectId alarms = *db_->CreateObject(ids_.data, "Alarms");
  ObjectId handler = *db_->CreateObject(ids_.action, "AlarmHandler");
  ASSERT_TRUE(db_->CreateRelationship(ids_.read, alarms, handler).ok());
  auto dup = db_->CreateRelationship(ids_.read, alarms, handler);
  EXPECT_TRUE(dup.status().IsConsistencyViolation());
  // A Write between the same items is a different association: fine.
  EXPECT_TRUE(db_->CreateRelationship(ids_.write, alarms, handler).ok());
}

// --- Role participation maxima -----------------------------------------------

TEST_F(ConsistencyTest, ContainedInAtMostOneContainer) {
  ObjectId a = *db_->CreateObject(ids_.action, "A");
  ObjectId b = *db_->CreateObject(ids_.action, "B");
  ObjectId c = *db_->CreateObject(ids_.action, "C");
  // 'contained' role has cardinality 0..1: A can sit in only one container.
  ASSERT_TRUE(db_->CreateRelationship(ids_.contained, a, b).ok());
  auto second = db_->CreateRelationship(ids_.contained, a, c);
  EXPECT_TRUE(second.status().IsConsistencyViolation());
  // But B can contain many.
  EXPECT_TRUE(db_->CreateRelationship(ids_.contained, c, b).ok());
}

// --- ACYCLIC -----------------------------------------------------------------

TEST_F(ConsistencyTest, SelfContainmentVetoed) {
  ObjectId a = *db_->CreateObject(ids_.action, "A");
  auto self = db_->CreateRelationship(ids_.contained, a, a);
  EXPECT_TRUE(self.status().IsConsistencyViolation());
}

TEST_F(ConsistencyTest, ContainmentCycleVetoed) {
  ObjectId a = *db_->CreateObject(ids_.action, "A");
  ObjectId b = *db_->CreateObject(ids_.action, "B");
  ObjectId c = *db_->CreateObject(ids_.action, "C");
  ASSERT_TRUE(db_->CreateRelationship(ids_.contained, a, b).ok());
  ASSERT_TRUE(db_->CreateRelationship(ids_.contained, b, c).ok());
  // c -> a would close the cycle a -> b -> c -> a.
  auto cycle = db_->CreateRelationship(ids_.contained, c, a);
  EXPECT_TRUE(cycle.status().IsConsistencyViolation());
  EXPECT_TRUE(cycle.status().message().find("ACYCLIC") != std::string::npos);
}

TEST_F(ConsistencyTest, DeepChainStaysAcyclic) {
  std::vector<ObjectId> actions;
  for (int i = 0; i < 50; ++i) {
    actions.push_back(
        *db_->CreateObject(ids_.action, "A" + std::to_string(i)));
  }
  for (int i = 1; i < 50; ++i) {
    ASSERT_TRUE(
        db_->CreateRelationship(ids_.contained, actions[i], actions[i - 1])
            .ok());
  }
  auto cycle =
      db_->CreateRelationship(ids_.contained, actions[0], actions[49]);
  EXPECT_TRUE(cycle.status().IsConsistencyViolation());
}

TEST_F(ConsistencyTest, NonAcyclicAssociationAllowsCycles) {
  // Read/Write have no ACYCLIC flag and bipartite ends anyway; build a
  // read/write loop Data <-> Action and expect it to be legal.
  ObjectId alarms = *db_->CreateObject(ids_.data, "Alarms");
  ObjectId handler = *db_->CreateObject(ids_.action, "AlarmHandler");
  EXPECT_TRUE(db_->CreateRelationship(ids_.read, alarms, handler).ok());
  EXPECT_TRUE(db_->CreateRelationship(ids_.write, alarms, handler).ok());
}

// --- Value types -------------------------------------------------------------

TEST_F(ConsistencyTest, ValueOnValuelessClassVetoed) {
  ObjectId alarms = *db_->CreateObject(ids_.data, "Alarms");
  EXPECT_TRUE(
      db_->SetValue(alarms, Value::String("x")).IsConsistencyViolation());
  ObjectId text = *db_->CreateSubObject(alarms, "Text");
  EXPECT_TRUE(
      db_->SetValue(text, Value::Int(1)).IsConsistencyViolation());
}

TEST_F(ConsistencyTest, WrongValueTypeVetoed) {
  ObjectId alarms = *db_->CreateObject(ids_.data, "Alarms");
  ObjectId text = *db_->CreateSubObject(alarms, "Text");
  ObjectId selector = *db_->CreateSubObject(text, "Selector");
  EXPECT_TRUE(db_->SetValue(selector, Value::Int(5)).IsConsistencyViolation());
  EXPECT_TRUE(db_->SetValue(selector, Value::Enum("Representation"))
                  .IsConsistencyViolation());
  EXPECT_TRUE(db_->SetValue(selector, Value::String("Representation")).ok());
}

// --- Attached procedures -----------------------------------------------------

TEST_F(ConsistencyTest, AttachedProcedureObservesEvents) {
  std::vector<UpdateKind> seen;
  db_->AttachProcedure(ids_.data, [&](const UpdateEvent& e) {
    seen.push_back(e.kind);
    return Status::OK();
  });
  ObjectId alarms = *db_->CreateObject(ids_.data, "Alarms");
  ASSERT_TRUE(db_->Rename(alarms, "Alarms2").ok());
  ASSERT_TRUE(db_->DeleteObject(alarms).ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], UpdateKind::kCreateObject);
  EXPECT_EQ(seen[1], UpdateKind::kRename);
  EXPECT_EQ(seen[2], UpdateKind::kDeleteObject);
}

TEST_F(ConsistencyTest, ProcedureVetoRollsBackCreation) {
  db_->AttachProcedure(ids_.data, [](const UpdateEvent& e) {
    if (e.kind == UpdateKind::kCreateObject) {
      return Status::InvalidArgument("no new data objects allowed");
    }
    return Status::OK();
  });
  auto id = db_->CreateObject(ids_.data, "Alarms");
  EXPECT_TRUE(id.status().IsConsistencyViolation());
  EXPECT_EQ(db_->num_live_objects(), 0u);
  EXPECT_TRUE(db_->FindObjectByName("Alarms").status().IsNotFound());
  // Actions are not covered by the procedure.
  EXPECT_TRUE(db_->CreateObject(ids_.action, "Handler").ok());
}

TEST_F(ConsistencyTest, ProcedureVetoRollsBackValue) {
  db_->AttachProcedure(ids_.selector, [&](const UpdateEvent& e) {
    if (e.kind != UpdateKind::kSetValue) return Status::OK();
    auto obj = e.db->GetObject(e.object);
    if ((*obj)->value.as_string().size() > 10) {
      return Status::InvalidArgument("selector too long");
    }
    return Status::OK();
  });
  ObjectId alarms = *db_->CreateObject(ids_.data, "Alarms");
  ObjectId text = *db_->CreateSubObject(alarms, "Text");
  ObjectId selector = *db_->CreateSubObject(text, "Selector");
  ASSERT_TRUE(db_->SetValue(selector, Value::String("short")).ok());
  Status veto =
      db_->SetValue(selector, Value::String("definitely too long"));
  EXPECT_TRUE(veto.IsConsistencyViolation());
  // Old value restored.
  EXPECT_EQ((*db_->GetObject(selector))->value.as_string(), "short");
}

TEST_F(ConsistencyTest, ProcedureVetoRollsBackDeletionCascade) {
  ObjectId alarms = *db_->CreateObject(ids_.data, "Alarms");
  ObjectId text = *db_->CreateSubObject(alarms, "Text");
  ObjectId handler = *db_->CreateObject(ids_.action, "Handler");
  RelationshipId rel = *db_->CreateRelationship(ids_.read, alarms, handler);
  db_->AttachProcedure(ids_.data, [](const UpdateEvent& e) {
    if (e.kind == UpdateKind::kDeleteObject) {
      return Status::InvalidArgument("deletion frozen");
    }
    return Status::OK();
  });
  EXPECT_TRUE(db_->DeleteObject(alarms).IsConsistencyViolation());
  // Everything still alive, indexes intact.
  EXPECT_TRUE(db_->GetObject(alarms).ok());
  EXPECT_TRUE(db_->GetObject(text).ok());
  EXPECT_TRUE(db_->GetRelationship(rel).ok());
  EXPECT_EQ(*db_->FindObjectByName("Alarms"), alarms);
  EXPECT_EQ(db_->RelationshipsOf(alarms).size(), 1u);
}

TEST_F(ConsistencyTest, ProcedureOnAssociation) {
  size_t creations = 0;
  db_->AttachProcedure(ids_.read, [&](const UpdateEvent& e) {
    if (e.kind == UpdateKind::kCreateRelationship) ++creations;
    return Status::OK();
  });
  ObjectId alarms = *db_->CreateObject(ids_.data, "Alarms");
  ObjectId handler = *db_->CreateObject(ids_.action, "Handler");
  ASSERT_TRUE(db_->CreateRelationship(ids_.read, alarms, handler).ok());
  ASSERT_TRUE(db_->CreateRelationship(ids_.write, alarms, handler).ok());
  EXPECT_EQ(creations, 1u);  // Write does not trigger Read's procedure
}

TEST_F(ConsistencyTest, ProcedureVetoRollsBackRelationship) {
  db_->AttachProcedure(ids_.read, [](const UpdateEvent& e) {
    if (e.kind == UpdateKind::kCreateRelationship) {
      return Status::InvalidArgument("reads frozen");
    }
    return Status::OK();
  });
  ObjectId alarms = *db_->CreateObject(ids_.data, "Alarms");
  ObjectId handler = *db_->CreateObject(ids_.action, "Handler");
  auto rel = db_->CreateRelationship(ids_.read, alarms, handler);
  EXPECT_TRUE(rel.status().IsConsistencyViolation());
  EXPECT_EQ(db_->num_live_relationships(), 0u);
  EXPECT_TRUE(db_->RelationshipsOf(alarms).empty());
}

TEST_F(ConsistencyTest, DetachProceduresStopsVeto) {
  db_->AttachProcedure(ids_.data, [](const UpdateEvent&) {
    return Status::InvalidArgument("frozen");
  });
  EXPECT_FALSE(db_->CreateObject(ids_.data, "A").ok());
  db_->DetachProcedures(ids_.data);
  EXPECT_TRUE(db_->CreateObject(ids_.data, "A").ok());
}

// --- Audit agrees with incremental checks ------------------------------------

TEST_F(ConsistencyTest, AuditDetectsHandCraftedViolation) {
  // Bypass the API via WriteItemStates to inject a duplicate name, then
  // make sure AuditConsistency sees it (and erase it again for TearDown).
  ObjectId a = *db_->CreateObject(ids_.data, "Alarms");
  ObjectItem rogue;
  rogue.id = ObjectId(9999);
  rogue.cls = ids_.data;
  rogue.name = "Alarms";
  ItemStates inject;
  inject.objects.emplace(rogue.id, rogue);
  db_->WriteItemStates(std::move(inject));
  Report audit = db_->AuditConsistency();
  EXPECT_FALSE(audit.clean());
  EXPECT_FALSE(audit.Of(Rule::kNameConflict).empty());
  ItemStates cleanup;
  cleanup.erased_objects.push_back(rogue.id);
  db_->WriteItemStates(std::move(cleanup));
  (void)a;
}

TEST_F(ConsistencyTest, ReportToStringIsReadable) {
  Report r;
  r.violations.push_back(Violation{Rule::kMaxCardinality, ObjectId(1),
                                   RelationshipId(), "too many"});
  EXPECT_NE(r.ToString().find("maximum cardinality"), std::string::npos);
  EXPECT_EQ(Report{}.ToString(), "clean");
}

}  // namespace
}  // namespace seed::core
