// Join planning tests: Planner::PlanJoin must pick the physical strategy
// the cost model predicts from the association population (ExtentCounters)
// and the input relation sizes — index-nested-loop driven from a selective
// side against a big association, hash join with the smaller input as the
// build side otherwise — with deterministic tie-breaks, and the planned
// execution must equal every other strategy's result.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "query/planner.h"
#include "query/stats.h"
#include "schema/schema_builder.h"

namespace seed::query {
namespace {

using core::Database;
using JoinPlan = Planner::JoinPlan;
using Strategy = Planner::JoinPlan::Strategy;

/// A bipartite world: `num_src` Src objects, `num_dst` Dst objects, and
/// `num_rels` Flows relationships laid out so every src has the same
/// degree (num_rels / num_src) and no (src, dst) pair repeats.
struct JoinWorld {
  std::unique_ptr<Database> db;
  ClassId src_cls, dst_cls;
  AssociationId flows;
  std::vector<ObjectId> srcs{};
  std::vector<ObjectId> dsts{};
};

JoinWorld BuildJoinWorld(int num_src, int num_dst, int num_rels) {
  schema::SchemaBuilder b("JoinWorld");
  ClassId src_cls = b.AddIndependentClass("Src", schema::ValueType::kNone);
  ClassId dst_cls = b.AddIndependentClass("Dst", schema::ValueType::kNone);
  AssociationId flows = b.AddAssociation(
      "Flows", schema::Role{"src", src_cls, schema::Cardinality::Any()},
      schema::Role{"dst", dst_cls, schema::Cardinality::Any()});
  JoinWorld w{std::make_unique<Database>(*b.Build()), src_cls, dst_cls,
              flows};
  for (int i = 0; i < num_src; ++i) {
    w.srcs.push_back(*w.db->CreateObject(src_cls, "S" + std::to_string(i)));
  }
  for (int i = 0; i < num_dst; ++i) {
    w.dsts.push_back(*w.db->CreateObject(dst_cls, "D" + std::to_string(i)));
  }
  int degree = num_src == 0 ? 0 : num_rels / num_src;
  for (int i = 0; i < num_src; ++i) {
    for (int j = 0; j < degree; ++j) {
      (void)*w.db->CreateRelationship(flows, w.srcs[i],
                                      w.dsts[(i + j * 13) % num_dst]);
    }
  }
  return w;
}

/// First `n` tuples of the extent as a unary relation named `attr`.
QueryRelation Take(const std::vector<ObjectId>& ids, size_t n,
                   std::string attr) {
  QueryRelation out;
  out.attributes = {std::move(attr)};
  for (size_t i = 0; i < n && i < ids.size(); ++i) {
    out.tuples.push_back({ids[i]});
  }
  return out;
}

TEST(PlannerJoinTest, SelectiveDriverPlansIndexNestedLoop) {
  // 10 driving tuples against a 2000-relationship association: probing
  // RelationshipsOf per driver beats materializing the adjacency.
  JoinWorld w = BuildJoinWorld(100, 100, 2000);
  Planner planner(w.db.get());
  JoinPlan plan = planner.PlanJoin(w.flows, 10, 100);
  EXPECT_EQ(plan.strategy, Strategy::kIndexNestedLoopLeft)
      << plan.ToString();
  EXPECT_EQ(plan.left_role, 0);
  EXPECT_DOUBLE_EQ(plan.assoc_rows, 2000.0);

  // Mirrored: the small side on the right drives from the right.
  JoinPlan mirrored = planner.PlanJoin(w.flows, 100, 10);
  EXPECT_EQ(mirrored.strategy, Strategy::kIndexNestedLoopRight)
      << mirrored.ToString();
}

TEST(PlannerJoinTest, LowDegreeFullExtentsPlanHashJoin) {
  // Degree 1 and both inputs at extent scale: one adjacency pass is
  // cheaper than per-tuple probing.
  JoinWorld w = BuildJoinWorld(1000, 1000, 1000);
  Planner planner(w.db.get());
  JoinPlan plan = planner.PlanJoin(w.flows, 1000, 1000);
  EXPECT_EQ(plan.strategy, Strategy::kHashBuildRight) << plan.ToString();

  // With a clearly smaller left input (and per-tuple probing priced out
  // by the higher degree), the build side flips to the left.
  JoinWorld dense = BuildJoinWorld(1000, 1000, 4000);
  Planner dense_planner(dense.db.get());
  JoinPlan build_left = dense_planner.PlanJoin(dense.flows, 900, 1000);
  EXPECT_EQ(build_left.strategy, Strategy::kHashBuildLeft)
      << build_left.ToString();
}

TEST(PlannerJoinTest, CostsMatchTheModel) {
  JoinWorld w = BuildJoinWorld(100, 50, 600);
  Planner planner(w.db.get());
  JoinPlan plan = planner.PlanJoin(w.flows, 20, 50);
  // est_rows: 600 edges, left covers 20/100 of the src extent, right
  // 50/50 of the dst extent.
  EXPECT_DOUBLE_EQ(plan.est_rows,
                   CostModel::JoinRows(600, 20, 100, 50, 50));
  double inl_left = CostModel::IndexNestedLoopJoinCost(
      20, CostModel::JoinDegree(600, 100), 50, plan.est_rows);
  EXPECT_EQ(plan.strategy, Strategy::kIndexNestedLoopLeft);
  EXPECT_DOUBLE_EQ(plan.est_cost, inl_left);
}

TEST(PlannerJoinTest, ReverseRolesSwapTheExtents) {
  // 40 srcs, 400 dsts: in reverse direction the left side binds role 1
  // (the Dst end), so the degree estimate uses the Dst extent.
  JoinWorld w = BuildJoinWorld(40, 400, 800);
  Planner planner(w.db.get());
  JoinPlan forward = planner.PlanJoin(w.flows, 10, 10, 0);
  JoinPlan reverse = planner.PlanJoin(w.flows, 10, 10, 1);
  EXPECT_EQ(forward.left_role, 0);
  EXPECT_EQ(reverse.left_role, 1);
  // Probing from the Dst-bound side is cheap (degree 800/400 = 2, vs. 20
  // from the Src side). Forward, Dst is the right input; in reverse it is
  // the left — the chosen drive side mirrors with the role binding.
  EXPECT_EQ(forward.strategy, Strategy::kIndexNestedLoopRight)
      << forward.ToString();
  EXPECT_EQ(reverse.strategy, Strategy::kIndexNestedLoopLeft)
      << reverse.ToString();
  EXPECT_DOUBLE_EQ(forward.est_rows, reverse.est_rows);
  EXPECT_DOUBLE_EQ(
      reverse.est_cost,
      CostModel::IndexNestedLoopJoinCost(10, 2.0, 10, reverse.est_rows));
  EXPECT_DOUBLE_EQ(forward.est_cost, reverse.est_cost);
}

TEST(PlannerJoinTest, EmptyStatsTieBreakDeterministically) {
  JoinWorld w = BuildJoinWorld(0, 0, 0);
  Planner planner(w.db.get());
  JoinPlan plan = planner.PlanJoin(w.flows, 0, 0);
  // Everything costs zero on an empty world; the tie-break pins the
  // historical hash-build-right.
  EXPECT_EQ(plan.strategy, Strategy::kHashBuildRight);
  EXPECT_DOUBLE_EQ(plan.est_cost, 0.0);
  EXPECT_DOUBLE_EQ(plan.est_rows, 0.0);
}

TEST(PlannerJoinTest, PlannedJoinExecutesIdenticallyToEveryStrategy) {
  JoinWorld w = BuildJoinWorld(60, 30, 240);
  Planner planner(w.db.get());
  Algebra algebra(w.db.get());
  QueryRelation a = Take(w.srcs, 7, "s");
  QueryRelation b = Take(w.dsts, 30, "d");
  Planner::PhysicalPlan plan;
  auto planned = planner.JoinPipeline({a, b}, {{w.flows, 0, {}, {}}}, &plan);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(plan.root->join.strategy, Strategy::kIndexNestedLoopLeft);
  EXPECT_FALSE(planned->empty());
  for (auto method : {Algebra::JoinOptions::Method::kHash,
                      Algebra::JoinOptions::Method::kIndexNestedLoop}) {
    for (auto side : {Algebra::JoinOptions::Side::kLeft,
                      Algebra::JoinOptions::Side::kRight}) {
      Algebra::JoinOptions options;
      options.method = method;
      options.build_side = side;
      auto direct = algebra.RelationshipJoin(a, "s", w.flows, b, "d",
                                             options);
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ(direct->tuples, planned->tuples);
    }
  }
}

TEST(PlannerJoinTest, JoinPipelineRejectsInvalidRoles) {
  JoinWorld w = BuildJoinWorld(10, 10, 10);
  Planner planner(w.db.get());
  QueryRelation a = Take(w.srcs, 5, "s");
  QueryRelation b = Take(w.dsts, 5, "d");
  EXPECT_TRUE(planner.JoinPipeline({a, b}, {{w.flows, 2, {}, {}}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(planner.JoinPipeline({a, b}, {{w.flows, -1, {}, {}}})
                  .status()
                  .IsInvalidArgument());
}

TEST(PlannerJoinTest, TrackedDegreeStatisticsSeeClassSkew) {
  // Src has a Hot specialization with few edges: 100 plain Srcs carry
  // degree 10 (1000 edges), 10 Hot Srcs carry degree 1 (10 edges). The
  // uniform assoc/extent guess cannot tell the two apart; the tracked
  // per-(assoc, role, class) participation counts can.
  schema::SchemaBuilder b("SkewWorld");
  ClassId src_cls = b.AddIndependentClass("Src", schema::ValueType::kNone);
  ClassId hot_cls = b.AddIndependentClass("Hot", schema::ValueType::kNone);
  b.SetGeneralization(hot_cls, src_cls);
  ClassId dst_cls = b.AddIndependentClass("Dst", schema::ValueType::kNone);
  AssociationId flows = b.AddAssociation(
      "Flows", schema::Role{"src", src_cls, schema::Cardinality::Any()},
      schema::Role{"dst", dst_cls, schema::Cardinality::Any()});
  auto db = std::make_unique<Database>(*b.Build());
  std::vector<ObjectId> dsts;
  for (int i = 0; i < 100; ++i) {
    dsts.push_back(*db->CreateObject(dst_cls, "D" + std::to_string(i)));
  }
  for (int i = 0; i < 100; ++i) {
    ObjectId src = *db->CreateObject(src_cls, "S" + std::to_string(i));
    for (int j = 0; j < 10; ++j) {
      (void)*db->CreateRelationship(flows, src, dsts[(i + j * 7) % 100]);
    }
  }
  for (int i = 0; i < 10; ++i) {
    ObjectId hot = *db->CreateObject(hot_cls, "H" + std::to_string(i));
    (void)*db->CreateRelationship(flows, hot, dsts[i]);
  }

  // The counters saw every create: 1000 Src ends, 10 Hot ends at role 0.
  EXPECT_EQ(db->extent_counters().CountParticipants(flows, 0, src_cls),
            1000u);
  EXPECT_EQ(db->extent_counters().CountParticipants(flows, 0, hot_cls), 10u);

  Planner planner(db.get());
  // Driving 10 tuples drawn from the Hot extent: the tracked degree is
  // 10/10 = 1, so the estimate sees at most the 10 Hot edges.
  JoinPlan hot = planner.PlanJoin(flows, 10, 100, 0, hot_cls, dst_cls);
  EXPECT_DOUBLE_EQ(hot.est_rows, 10.0) << hot.ToString();
  // The same 10 tuples assumed to come from anywhere in the Src family
  // read the family degree (1010/110) and a far larger matchable set.
  JoinPlan uniform = planner.PlanJoin(flows, 10, 100, 0);
  EXPECT_DOUBLE_EQ(uniform.est_rows, 1010.0 * (10.0 / 110.0))
      << uniform.ToString();
  EXPECT_LT(hot.est_cost, uniform.est_cost);
}

TEST(PlannerJoinTest, LeftDeepOrdersEnumerateContiguousPrefixes) {
  using Orders = std::vector<std::vector<int>>;
  EXPECT_EQ(Planner::LeftDeepOrders(1), (Orders{{0}}));
  EXPECT_EQ(Planner::LeftDeepOrders(2), (Orders{{0, 1}, {1, 0}}));
  // Textual order first, then the starts further right; every prefix is
  // a contiguous hop range.
  EXPECT_EQ(Planner::LeftDeepOrders(3),
            (Orders{{0, 1, 2}, {1, 2, 0}, {1, 0, 2}, {2, 1, 0}}));
}

TEST(PlannerJoinTest, PipelineRunsTheSelectiveHopFirst) {
  // A -Big- B -Tiny- C with 2000 Big edges and 4 Tiny ones: the cheap
  // ordering runs Tiny (written last) first, and every ordering computes
  // the same relation.
  schema::SchemaBuilder b("ChainWorld");
  ClassId a_cls = b.AddIndependentClass("A", schema::ValueType::kNone);
  ClassId b_cls = b.AddIndependentClass("B", schema::ValueType::kNone);
  ClassId c_cls = b.AddIndependentClass("C", schema::ValueType::kNone);
  AssociationId big = b.AddAssociation(
      "Big", schema::Role{"a", a_cls, schema::Cardinality::Any()},
      schema::Role{"b", b_cls, schema::Cardinality::Any()});
  AssociationId tiny = b.AddAssociation(
      "Tiny", schema::Role{"b", b_cls, schema::Cardinality::Any()},
      schema::Role{"c", c_cls, schema::Cardinality::Any()});
  auto db = std::make_unique<Database>(*b.Build());
  std::vector<ObjectId> as, bs, cs;
  for (int i = 0; i < 100; ++i) {
    as.push_back(*db->CreateObject(a_cls, "A" + std::to_string(i)));
    bs.push_back(*db->CreateObject(b_cls, "B" + std::to_string(i)));
  }
  for (int i = 0; i < 4; ++i) {
    cs.push_back(*db->CreateObject(c_cls, "C" + std::to_string(i)));
  }
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 20; ++j) {
      (void)*db->CreateRelationship(big, as[i], bs[(i + j * 7) % 100]);
    }
  }
  for (int i = 0; i < 4; ++i) {
    (void)*db->CreateRelationship(tiny, bs[i], cs[i]);
  }

  auto extent = [](const std::vector<ObjectId>& ids, const char* attr) {
    QueryRelation rel;
    rel.attributes = {attr};
    for (ObjectId id : ids) rel.tuples.push_back({id});
    return rel;
  };
  std::vector<QueryRelation> inputs{extent(as, "a"), extent(bs, "b"),
                                    extent(cs, "c")};
  std::vector<Planner::PipelineHop> hops{{big, 0, a_cls, b_cls},
                                         {tiny, 0, b_cls, c_cls}};
  Planner planner(db.get());
  Planner::PhysicalPlan plan =
      planner.PlanJoinPipeline(hops, {as.size(), bs.size(), cs.size()});
  ASSERT_NE(plan.root, nullptr);
  EXPECT_EQ(plan.HopOrder(), (std::vector<int>{1, 0})) << plan.ToString();

  Planner::PhysicalPlan executed;
  auto chosen = planner.JoinPipeline(inputs, hops, &executed);
  ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
  EXPECT_EQ(chosen->attributes,
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_FALSE(chosen->empty());
  // Per-node actuals are filled in after execution.
  ASSERT_NE(executed.root, nullptr);
  EXPECT_GE(executed.root->actual_rows, 0);
  EXPECT_GE(executed.root->left->actual_rows, 0);
  EXPECT_GE(executed.root->right->actual_rows, 0);
  // Every left-deep ordering computes the same relation.
  for (const auto& order : Planner::LeftDeepOrders(hops.size())) {
    auto direct = planner.JoinPipelineInOrder(inputs, hops, order);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(direct->tuples, chosen->tuples);
  }

  // Bad shapes are rejected: a non-left-deep order, a wrong input count
  // and a non-unary input.
  EXPECT_TRUE(planner.JoinPipelineInOrder(inputs, hops, {1})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(planner.JoinPipelineInOrder(inputs, hops, {0, 0})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      planner.JoinPipeline({inputs[0], inputs[1]}, hops)
          .status()
          .IsInvalidArgument());
  std::vector<QueryRelation> wide = inputs;
  wide[1].attributes = {"b", "x"};
  for (auto& tuple : wide[1].tuples) tuple.push_back(tuple[0]);
  EXPECT_TRUE(
      planner.JoinPipeline(wide, hops).status().IsInvalidArgument());
}

TEST(PlannerJoinTest, ToStringReportsStrategyDirectionAndEstimates) {
  JoinWorld w = BuildJoinWorld(100, 100, 2000);
  Planner planner(w.db.get());
  std::string s = planner.PlanJoin(w.flows, 10, 100).ToString();
  EXPECT_NE(s.find("join-index-nested-loop(drive=left)"), std::string::npos)
      << s;
  EXPECT_NE(s.find("forward"), std::string::npos) << s;
  EXPECT_NE(s.find("assoc ~2000"), std::string::npos) << s;
  std::string r = planner.PlanJoin(w.flows, 10, 100, 1).ToString();
  EXPECT_NE(r.find("reverse"), std::string::npos) << r;
}

}  // namespace
}  // namespace seed::query
