// Tests for the logical-plan IR and the DP join-order optimizer: the
// four textual entry points are thin wrappers over the lowering path, so
// running a query through RunQuery / RunRelationshipQuery / RunJoinQuery
// / RunJoinChainQuery must produce byte-identical results (and EXPLAIN
// strings) to hand-lowering the same query into a LogicalChain and
// executing it through Planner::Run. The DP itself is pinned on shape
// selection: textual left-deep on ties, selective-hop-first reordering,
// and a bushy segment x segment tree on a small-HUGE-small chain.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "query/logical.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "schema/schema_builder.h"
#include "spades/spec_schema.h"

namespace seed::query {
namespace {

using core::Database;
using core::Value;
using spades::BuildFig3Schema;

class LogicalPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fig3 = BuildFig3Schema();
    ASSERT_TRUE(fig3.ok());
    ids_ = fig3->ids;
    db_ = std::make_unique<Database>(fig3->schema);

    alarms_ = *db_->CreateObject(ids_.output_data, "Alarms");
    process_ = *db_->CreateObject(ids_.input_data, "ProcessData");
    sensor_ = *db_->CreateObject(ids_.action, "Sensor");
    display_ = *db_->CreateObject(ids_.action, "Display");
    ASSERT_TRUE(db_->CreateRelationship(ids_.read, process_, sensor_).ok());
    ASSERT_TRUE(db_->CreateRelationship(ids_.write, alarms_, sensor_).ok());
    ASSERT_TRUE(
        db_->CreateRelationship(ids_.contained, sensor_, display_).ok());
    auto writes = db_->RelationshipsOfAssociation(ids_.write);
    ASSERT_EQ(writes.size(), 1u);
    ObjectId n = *db_->CreateSubObject(writes[0], "NumberOfWrites");
    ASSERT_TRUE(db_->SetValue(n, Value::Int(5)).ok());
  }

  spades::Fig3Ids ids_;
  std::unique_ptr<Database> db_;
  ObjectId alarms_, process_, sensor_, display_;
};

// --- Byte-identical lowering regression --------------------------------------

TEST_F(LogicalPlanTest, RunQueryEqualsHandLoweredChain) {
  std::string text_plan;
  auto via_text = RunQuery(*db_, "find Data where name contains Alarm",
                           &text_plan);
  ASSERT_TRUE(via_text.ok()) << via_text.status().ToString();

  LogicalChain chain;
  chain.binders.push_back(
      LogicalSelect::Objects(ids_.data, "x", Predicate::NameContains("Alarm")));
  Planner planner(db_.get());
  Planner::PhysicalPlan plan;
  auto via_ir = planner.Run(chain, &plan);
  ASSERT_TRUE(via_ir.ok()) << via_ir.status().ToString();
  EXPECT_EQ(*via_text, via_ir->ids);
  EXPECT_EQ(text_plan, plan.ToString() + "; actual " +
                           std::to_string(via_ir->ids.size()));
}

TEST_F(LogicalPlanTest, RunRelationshipQueryEqualsHandLoweredChain) {
  std::string text_plan;
  auto via_text = RunRelationshipQuery(
      *db_, "find rel Write where NumberOfWrites > 3", &text_plan);
  ASSERT_TRUE(via_text.ok()) << via_text.status().ToString();

  LogicalChain chain;
  std::vector<RelCondition> conds;
  conds.push_back({"NumberOfWrites", Predicate::IntGreater(3)});
  chain.binders.push_back(
      LogicalSelect::Relationships(ids_.write, "r", std::move(conds)));
  Planner planner(db_.get());
  Planner::PhysicalPlan plan;
  auto via_ir = planner.Run(chain, &plan);
  ASSERT_TRUE(via_ir.ok()) << via_ir.status().ToString();
  EXPECT_EQ(*via_text, via_ir->relationships);
  EXPECT_EQ(text_plan, plan.ToString() + "; actual " +
                           std::to_string(via_ir->relationships.size()));
}

TEST_F(LogicalPlanTest, RunJoinQueryEqualsHandLoweredChain) {
  std::string text_plan;
  auto via_text = RunJoinQuery(
      *db_, "find Data d join via Access to Action a "
            "where d name contains Alarm",
      &text_plan);
  ASSERT_TRUE(via_text.ok()) << via_text.status().ToString();

  LogicalChain chain;
  chain.binders.push_back(LogicalSelect::Objects(
      ids_.data, "d", Predicate::NameContains("Alarm")));
  chain.binders.push_back(LogicalSelect::Objects(ids_.action, "a"));
  chain.hops.push_back({ids_.access, 0});
  Planner planner(db_.get());
  Planner::PhysicalPlan plan;
  auto via_ir = planner.Run(chain, &plan);
  ASSERT_TRUE(via_ir.ok()) << via_ir.status().ToString();
  std::vector<std::pair<ObjectId, ObjectId>> ir_pairs;
  for (const auto& t : via_ir->tuples.tuples) {
    ir_pairs.emplace_back(t[0], t[1]);
  }
  EXPECT_EQ(*via_text, ir_pairs);
  EXPECT_EQ(text_plan, plan.ToString() + "; actual " +
                           std::to_string(ir_pairs.size()));
}

TEST_F(LogicalPlanTest, RunJoinChainQueryEqualsHandLoweredChain) {
  std::string text_plan;
  auto via_text = RunJoinChainQuery(
      *db_, "find Data d join via Access to Action a "
            "join via Contained to Action c",
      &text_plan);
  ASSERT_TRUE(via_text.ok()) << via_text.status().ToString();

  LogicalChain chain;
  chain.binders.push_back(LogicalSelect::Objects(ids_.data, "d"));
  chain.binders.push_back(LogicalSelect::Objects(ids_.action, "a"));
  chain.binders.push_back(LogicalSelect::Objects(ids_.action, "c"));
  chain.hops.push_back({ids_.access, 0});
  chain.hops.push_back({ids_.contained, 0});
  Planner planner(db_.get());
  Planner::PhysicalPlan plan;
  auto via_ir = planner.Run(chain, &plan);
  ASSERT_TRUE(via_ir.ok()) << via_ir.status().ToString();
  EXPECT_EQ(via_text->tuples, via_ir->tuples.tuples);
  EXPECT_EQ(text_plan,
            plan.ToString() + "; actual " +
                std::to_string(via_ir->tuples.tuples.size()));
}

// --- Chain validation --------------------------------------------------------

TEST_F(LogicalPlanTest, ValidateRejectsBadShapes) {
  Planner planner(db_.get());

  LogicalChain empty;
  EXPECT_TRUE(planner.Run(empty).status().IsInvalidArgument());

  // Binder/hop counts must line up.
  LogicalChain dangling;
  dangling.binders.push_back(LogicalSelect::Objects(ids_.data, "d"));
  dangling.hops.push_back({ids_.access, 0});
  EXPECT_TRUE(planner.Run(dangling).status().IsInvalidArgument());

  // Duplicate binder names.
  LogicalChain dup;
  dup.binders.push_back(LogicalSelect::Objects(ids_.data, "d"));
  dup.binders.push_back(LogicalSelect::Objects(ids_.action, "d"));
  dup.hops.push_back({ids_.access, 0});
  Status s = dup.Validate();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("join binders must differ"), std::string::npos);

  // Relationship extents only come in the no-hop form.
  LogicalChain rel_in_chain;
  rel_in_chain.binders.push_back(LogicalSelect::Objects(ids_.data, "d"));
  rel_in_chain.binders.push_back(
      LogicalSelect::Relationships(ids_.write, "r"));
  rel_in_chain.hops.push_back({ids_.access, 0});
  EXPECT_TRUE(rel_in_chain.Validate().IsInvalidArgument());

  // Hop roles are 0 or 1.
  LogicalChain bad_role;
  bad_role.binders.push_back(LogicalSelect::Objects(ids_.data, "d"));
  bad_role.binders.push_back(LogicalSelect::Objects(ids_.action, "a"));
  bad_role.hops.push_back({ids_.access, 2});
  EXPECT_TRUE(bad_role.Validate().IsInvalidArgument());

  // The optimizer's hop ceiling.
  LogicalChain too_long;
  too_long.binders.push_back(LogicalSelect::Objects(ids_.data, "b0"));
  for (size_t i = 0; i < LogicalChain::kMaxHops + 1; ++i) {
    too_long.binders.push_back(LogicalSelect::Objects(
        ids_.action, "b" + std::to_string(i + 1)));
    too_long.hops.push_back({ids_.access, 0});
  }
  s = too_long.Validate();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("at most 6 hops"), std::string::npos);
}

// --- DP shape selection ------------------------------------------------------

TEST_F(LogicalPlanTest, RunSingleBinderIsTheSelectPlan) {
  LogicalChain chain;
  chain.binders.push_back(LogicalSelect::Objects(
      ids_.data, "d", Predicate::NameContains("Alarm")));
  Planner planner(db_.get());
  Planner::PhysicalPlan plan;
  ASSERT_TRUE(planner.Run(chain, &plan).ok());
  ASSERT_EQ(plan.selects.size(), 1u);
  EXPECT_EQ(plan.selects[0].ToString(),
            planner.PlanSelect(ids_.data, Predicate::NameContains("Alarm"))
                .ToString());
  ASSERT_NE(plan.root, nullptr);
  EXPECT_EQ(plan.root->kind, Planner::PhysicalPlan::Node::Kind::kInput);
  EXPECT_FALSE(plan.HasBushyJoin());
}

TEST(LogicalPlanDpTest, ChoosesBushyTreeOnSmallHugeSmallChain) {
  // Tiny end associations around a dense middle: the cheapest way to
  // cross the middle is a hop join of two already-reduced multi-hop
  // segments — a bushy tree no left-deep ordering expresses. The DP
  // must find it, and its modeled cost must beat every left-deep order.
  schema::SchemaBuilder b("BushyDp");
  ClassId a_cls = b.AddIndependentClass("A", schema::ValueType::kNone);
  ClassId b_cls = b.AddIndependentClass("B", schema::ValueType::kNone);
  ClassId c_cls = b.AddIndependentClass("C", schema::ValueType::kNone);
  ClassId d_cls = b.AddIndependentClass("D", schema::ValueType::kNone);
  AssociationId left_tiny = b.AddAssociation(
      "LeftTiny", schema::Role{"a", a_cls, schema::Cardinality::Any()},
      schema::Role{"b", b_cls, schema::Cardinality::Any()});
  AssociationId middle = b.AddAssociation(
      "Middle", schema::Role{"b", b_cls, schema::Cardinality::Any()},
      schema::Role{"c", c_cls, schema::Cardinality::Any()});
  AssociationId right_tiny = b.AddAssociation(
      "RightTiny", schema::Role{"c", c_cls, schema::Cardinality::Any()},
      schema::Role{"d", d_cls, schema::Cardinality::Any()});
  Database db(*b.Build());
  std::vector<ObjectId> as, bs, cs, ds;
  for (int i = 0; i < 100; ++i) {
    as.push_back(*db.CreateObject(a_cls, "A" + std::to_string(i)));
    bs.push_back(*db.CreateObject(b_cls, "B" + std::to_string(i)));
    cs.push_back(*db.CreateObject(c_cls, "C" + std::to_string(i)));
    ds.push_back(*db.CreateObject(d_cls, "D" + std::to_string(i)));
  }
  for (int i = 0; i < 8; ++i) {
    (void)*db.CreateRelationship(left_tiny, as[i], bs[i]);
    (void)*db.CreateRelationship(right_tiny, cs[i], ds[i]);
  }
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 40; ++j) {
      (void)*db.CreateRelationship(middle, bs[i], cs[(i + j * 13) % 100]);
    }
  }
  std::vector<Planner::PipelineHop> hops{{left_tiny, 0, a_cls, b_cls},
                                         {middle, 0, b_cls, c_cls},
                                         {right_tiny, 0, c_cls, d_cls}};
  Planner planner(&db);
  Planner::PhysicalPlan plan = planner.PlanJoinPipeline(hops, {100, 100,
                                                               100, 100});
  ASSERT_NE(plan.root, nullptr);
  EXPECT_TRUE(plan.HasBushyJoin()) << plan.ToString();
  // The bushy root crosses the middle hop with two joined segments.
  EXPECT_EQ(plan.root->kind, Planner::PhysicalPlan::Node::Kind::kHopJoin);
  EXPECT_EQ(plan.root->hop, 1) << plan.ToString();
  EXPECT_NE(plan.root->left->kind,
            Planner::PhysicalPlan::Node::Kind::kInput);
  EXPECT_NE(plan.root->right->kind,
            Planner::PhysicalPlan::Node::Kind::kInput);

  // Cheaper than every left-deep order, as costed by the same model.
  auto extent = [](const std::vector<ObjectId>& ids, const char* attr) {
    QueryRelation rel;
    rel.attributes = {attr};
    for (ObjectId id : ids) rel.tuples.push_back({id});
    return rel;
  };
  std::vector<QueryRelation> inputs{extent(as, "a"), extent(bs, "b"),
                                    extent(cs, "c"), extent(ds, "d")};
  for (const auto& order : Planner::LeftDeepOrders(hops.size())) {
    Planner::PhysicalPlan left_deep;
    auto r = planner.JoinPipelineInOrder(inputs, hops, order, &left_deep);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_LT(plan.est_cost, left_deep.est_cost)
        << "order " << order[0] << order[1] << order[2];
  }
}

TEST(LogicalPlanDpTest, TiesKeepTheTextualLeftDeepTree) {
  // A world with no statistics at all: every candidate costs zero, so
  // the DP must deterministically reconstruct the textual left-deep
  // composition.
  schema::SchemaBuilder b("TieDp");
  ClassId a_cls = b.AddIndependentClass("A", schema::ValueType::kNone);
  ClassId b_cls = b.AddIndependentClass("B", schema::ValueType::kNone);
  ClassId c_cls = b.AddIndependentClass("C", schema::ValueType::kNone);
  ClassId d_cls = b.AddIndependentClass("D", schema::ValueType::kNone);
  AssociationId h0 = b.AddAssociation(
      "H0", schema::Role{"a", a_cls, schema::Cardinality::Any()},
      schema::Role{"b", b_cls, schema::Cardinality::Any()});
  AssociationId h1 = b.AddAssociation(
      "H1", schema::Role{"b", b_cls, schema::Cardinality::Any()},
      schema::Role{"c", c_cls, schema::Cardinality::Any()});
  AssociationId h2 = b.AddAssociation(
      "H2", schema::Role{"c", c_cls, schema::Cardinality::Any()},
      schema::Role{"d", d_cls, schema::Cardinality::Any()});
  Database db(*b.Build());
  std::vector<Planner::PipelineHop> hops{{h0, 0, a_cls, b_cls},
                                         {h1, 0, b_cls, c_cls},
                                         {h2, 0, c_cls, d_cls}};
  Planner planner(&db);
  Planner::PhysicalPlan plan = planner.PlanJoinPipeline(hops, {0, 0, 0, 0});
  ASSERT_NE(plan.root, nullptr);
  EXPECT_EQ(plan.HopOrder(), (std::vector<int>{0, 1, 2})) << plan.ToString();
  EXPECT_FALSE(plan.HasBushyJoin()) << plan.ToString();
}

}  // namespace
}  // namespace seed::query
