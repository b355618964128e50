// Extension benchmark: the ER algebra (Parent & Spaccapietra-style),
// measuring selection, relationship join and pipeline queries over a
// generated specification — plus the attribute-index subsystem, comparing
// planner-driven index probes against the full extent-scan path on
// selective equality and range predicates, the multi-index intersection
// of an AND of two selective predicates against the single-index-plus-
// residual plan, and relationship-attribute filtering through a
// relationship-side index against the RelationshipsOfAssociation scan.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "query/algebra.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "schema/schema_builder.h"
#include "spades/spec_schema.h"

#include "skewed_chain.h"

namespace {

using seed::core::Database;
using seed::ObjectId;
using seed::query::Algebra;
using seed::query::Planner;
using seed::query::Predicate;

seed::spades::Fig3Schema& Fig3() {
  static auto schema = *seed::spades::BuildFig3Schema();
  return schema;
}

std::unique_ptr<Database> BuildWorld(int n) {
  auto db = std::make_unique<Database>(Fig3().schema);
  std::vector<ObjectId> data, actions;
  for (int i = 0; i < n; ++i) {
    data.push_back(*db->CreateObject(Fig3().ids.input_data,
                                     "Data_" + std::to_string(i)));
    actions.push_back(*db->CreateObject(Fig3().ids.action,
                                        "Action_" + std::to_string(i)));
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 4; ++j) {
      (void)db->CreateRelationship(Fig3().ids.read, data[(i + j * 7) % n],
                                   actions[i]);
    }
  }
  return db;
}

void BM_Query_ClassExtent(benchmark::State& state) {
  auto db = BuildWorld(static_cast<int>(state.range(0)));
  Algebra algebra(db.get());
  for (auto _ : state) {
    auto r = algebra.ClassExtent(Fig3().ids.thing, "t");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_Query_ClassExtent)->Arg(100)->Arg(1000);

void BM_Query_Select(benchmark::State& state) {
  auto db = BuildWorld(static_cast<int>(state.range(0)));
  Algebra algebra(db.get());
  auto extent = algebra.ClassExtent(Fig3().ids.data, "d");
  auto pred = Predicate::NameContains("7");
  for (auto _ : state) {
    auto r = algebra.Select(extent, "d", pred);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_Select)->Arg(100)->Arg(1000);

void BM_Query_RelationshipJoin(benchmark::State& state) {
  auto db = BuildWorld(static_cast<int>(state.range(0)));
  Algebra algebra(db.get());
  auto data = algebra.ClassExtent(Fig3().ids.data, "d");
  auto actions = algebra.ClassExtent(Fig3().ids.action, "a");
  for (auto _ : state) {
    auto r = algebra.RelationshipJoin(data, "d", Fig3().ids.access, actions,
                                      "a");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_Query_RelationshipJoin)->Arg(100)->Arg(1000);

void BM_Query_Pipeline(benchmark::State& state) {
  auto db = BuildWorld(static_cast<int>(state.range(0)));
  Algebra algebra(db.get());
  for (auto _ : state) {
    auto data = algebra.ClassExtent(Fig3().ids.data, "d");
    auto actions = algebra.ClassExtent(Fig3().ids.action, "a");
    auto joined = *algebra.RelationshipJoin(data, "d", Fig3().ids.access,
                                            actions, "a");
    auto filtered =
        *algebra.Select(joined, "d", Predicate::NameContains("1"));
    auto result = *algebra.Project(filtered, {"a"});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Query_Pipeline)->Arg(100)->Arg(1000);

void BM_Query_CartesianProduct(benchmark::State& state) {
  auto db = BuildWorld(static_cast<int>(state.range(0)));
  Algebra algebra(db.get());
  auto data = algebra.ClassExtent(Fig3().ids.data, "d");
  auto actions = algebra.ClassExtent(Fig3().ids.action, "a");
  for (auto _ : state) {
    auto r = algebra.CartesianProduct(data, actions);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0));
}
BENCHMARK(BM_Query_CartesianProduct)->Arg(32)->Arg(100);

// --- Index scan vs. full scan ------------------------------------------------

struct ReadingWorld {
  std::unique_ptr<Database> db;
  seed::ClassId reading;
};

/// `n` int-valued readings (values 0..999, so equality selects ~n/1000);
/// every 10th object stays vague (undefined) to keep the paper's
/// incomplete-information semantics in play on both paths.
ReadingWorld BuildReadings(int n, bool with_index) {
  seed::schema::SchemaBuilder b("Telemetry");
  seed::ClassId reading =
      b.AddIndependentClass("Reading", seed::schema::ValueType::kInt);
  ReadingWorld world{std::make_unique<Database>(*b.Build()), reading};
  for (int i = 0; i < n; ++i) {
    auto id = *world.db->CreateObject(reading, "R_" + std::to_string(i));
    if (i % 10 != 9) {
      (void)world.db->SetValue(id, seed::core::Value::Int(i % 1000));
    }
  }
  if (with_index) (void)world.db->CreateAttributeIndex({reading, ""});
  return world;
}

/// Both paths must return identical tuples; run once per benchmark setup.
void CheckPathsAgree(Database* db, seed::ClassId reading,
                     const Predicate& p) {
  Planner planner(db);
  Algebra algebra(db);
  auto extent = algebra.ClassExtent(reading, "r");
  auto scanned = *algebra.Select(extent, "r", p);
  std::vector<std::vector<ObjectId>> planned;
  for (ObjectId id : planner.SelectIds(reading, p)) planned.push_back({id});
  if (scanned.tuples != planned) {
    fprintf(stderr, "index/scan result mismatch: %zu vs %zu tuples\n",
            scanned.size(), planned.size());
    abort();
  }
}

void BM_Query_SelectEqualityScan(benchmark::State& state) {
  auto world = BuildReadings(static_cast<int>(state.range(0)), false);
  Planner planner(world.db.get());
  auto pred = Predicate::ValueEquals(seed::core::Value::Int(137));
  for (auto _ : state) {
    auto r = planner.SelectIds(world.reading, pred);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_SelectEqualityScan)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Query_SelectEqualityIndexed(benchmark::State& state) {
  auto world = BuildReadings(static_cast<int>(state.range(0)), true);
  CheckPathsAgree(world.db.get(), world.reading,
                  Predicate::ValueEquals(seed::core::Value::Int(137)));
  Planner planner(world.db.get());
  auto pred = Predicate::ValueEquals(seed::core::Value::Int(137));
  for (auto _ : state) {
    auto r = planner.SelectIds(world.reading, pred);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_SelectEqualityIndexed)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Query_SelectRangeScan(benchmark::State& state) {
  auto world = BuildReadings(static_cast<int>(state.range(0)), false);
  Planner planner(world.db.get());
  auto pred = Predicate::IntGreater(990);  // ~1% of defined values
  for (auto _ : state) {
    auto r = planner.SelectIds(world.reading, pred);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_SelectRangeScan)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Query_SelectRangeIndexed(benchmark::State& state) {
  auto world = BuildReadings(static_cast<int>(state.range(0)), true);
  CheckPathsAgree(world.db.get(), world.reading, Predicate::IntGreater(990));
  Planner planner(world.db.get());
  auto pred = Predicate::IntGreater(990);
  for (auto _ : state) {
    auto r = planner.SelectIds(world.reading, pred);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_SelectRangeIndexed)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Query_IndexMaintenanceSetValue(benchmark::State& state) {
  auto world = BuildReadings(static_cast<int>(state.range(0)), true);
  auto ids = world.db->ObjectsOfClass(world.reading);
  size_t i = 0;
  for (auto _ : state) {
    ObjectId id = ids[i++ % ids.size()];
    (void)world.db->SetValue(
        id, seed::core::Value::Int(static_cast<int>(i) % 1000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Query_IndexMaintenanceSetValue)->Arg(10000);

// --- AND of two selective predicates: intersection vs. single index ----------

struct ShardedWorld {
  std::unique_ptr<Database> db;
  seed::ClassId reading;
};

/// `n` readings with two independently selective attributes: the own
/// value (i % 211) and a Shard sub-object (i % 101). The conjunction of
/// one equality on each selects ~n / (211*101) rows.
ShardedWorld BuildSharded(int n, bool shard_index) {
  seed::schema::SchemaBuilder b("Telemetry2");
  seed::ClassId reading =
      b.AddIndependentClass("Reading", seed::schema::ValueType::kInt);
  b.AddDependentClass(reading, "Shard", seed::schema::Cardinality(0, 1),
                      seed::schema::ValueType::kInt);
  ShardedWorld world{std::make_unique<Database>(*b.Build()), reading};
  for (int i = 0; i < n; ++i) {
    auto id = *world.db->CreateObject(reading, "R_" + std::to_string(i));
    (void)world.db->SetValue(id, seed::core::Value::Int(i % 211));
    auto shard = *world.db->CreateSubObject(id, "Shard");
    (void)world.db->SetValue(shard, seed::core::Value::Int(i % 101));
  }
  (void)world.db->CreateAttributeIndex({reading, ""});
  if (shard_index) (void)world.db->CreateAttributeIndex({reading, "Shard"});
  return world;
}

Predicate ShardedConjunction() {
  return Predicate::ValueEquals(seed::core::Value::Int(137))
      .And(Predicate::OnSubObject(
          "Shard", Predicate::ValueEquals(seed::core::Value::Int(37))));
}

/// Only the own-value index exists: the planner probes it and residual-
/// evaluates every reading with value 137.
void BM_Query_AndSingleIndexResidual(benchmark::State& state) {
  auto world = BuildSharded(static_cast<int>(state.range(0)), false);
  Planner planner(world.db.get());
  auto pred = ShardedConjunction();
  if (!planner.PlanSelect(world.reading, pred).uses_index()) abort();
  for (auto _ : state) {
    auto r = planner.SelectIds(world.reading, pred);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_AndSingleIndexResidual)->Arg(10000)->Arg(100000);

/// Both indexes exist: the cost model picks the posting-list intersection
/// and the residual only sees the handful of surviving candidates.
void BM_Query_AndMultiIndexIntersection(benchmark::State& state) {
  auto world = BuildSharded(static_cast<int>(state.range(0)), true);
  Planner planner(world.db.get());
  auto pred = ShardedConjunction();
  auto plan = planner.PlanSelect(world.reading, pred);
  if (plan.kind != Planner::Plan::Kind::kIndexIntersect) abort();
  // Identity with the single-index world's results is implied by the
  // planner/scan identity; check against the scan once.
  {
    std::vector<ObjectId> scanned;
    for (ObjectId id : world.db->ObjectsOfClass(world.reading)) {
      if (pred.Eval(*world.db, id)) scanned.push_back(id);
    }
    if (planner.SelectIds(world.reading, pred) != scanned) abort();
  }
  for (auto _ : state) {
    auto r = planner.SelectIds(world.reading, pred);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_AndMultiIndexIntersection)->Arg(10000)->Arg(100000);

// --- Relationship attributes: index vs. RelationshipsOf iteration ------------

struct FlowWorld {
  std::unique_ptr<Database> db;
  seed::AssociationId flows;
};

/// `n` relationships Source -> Sink, each carrying a Weight attribute
/// (values 0..999, every 10th left vague); equality selects ~n/1000.
FlowWorld BuildFlows(int n, bool with_index) {
  seed::schema::SchemaBuilder b("Flows");
  seed::ClassId node =
      b.AddIndependentClass("Node", seed::schema::ValueType::kNone);
  seed::AssociationId flows = b.AddAssociation(
      "Flows", seed::schema::Role{"src", node,
                                  seed::schema::Cardinality::Any()},
      seed::schema::Role{"dst", node, seed::schema::Cardinality::Any()});
  b.AddDependentClass(flows, "Weight", seed::schema::Cardinality(0, 1),
                      seed::schema::ValueType::kInt);
  FlowWorld world{std::make_unique<Database>(*b.Build()), flows};
  // A bipartite (src, dst) grid keeps every relationship pair unique, so
  // creation never trips the duplicate-relationship rule.
  int stripe = std::max(1, static_cast<int>(std::sqrt(n)) + 1);
  std::vector<ObjectId> srcs, dsts;
  for (int i = 0; i < stripe; ++i) {
    srcs.push_back(*world.db->CreateObject(node, "S_" + std::to_string(i)));
    dsts.push_back(*world.db->CreateObject(node, "D_" + std::to_string(i)));
  }
  for (int i = 0; i < n; ++i) {
    auto rel = *world.db->CreateRelationship(world.flows, srcs[i % stripe],
                                             dsts[i / stripe]);
    auto weight = *world.db->CreateSubObject(rel, "Weight");
    if (i % 10 != 9) {
      (void)world.db->SetValue(weight,
                               seed::core::Value::Int(i % 1000));
    }
  }
  if (with_index) {
    (void)world.db->CreateAttributeIndex(
        seed::index::IndexSpec::ForAssociation(world.flows, "Weight"));
  }
  return world;
}

std::vector<Planner::RelCondition> SelectiveWeight() {
  std::vector<Planner::RelCondition> conds;
  conds.push_back(
      {"Weight", Predicate::ValueEquals(seed::core::Value::Int(137))});
  return conds;
}

void BM_Query_RelAttributeScan(benchmark::State& state) {
  auto world = BuildFlows(static_cast<int>(state.range(0)), false);
  Planner planner(world.db.get());
  auto conds = SelectiveWeight();
  if (planner.PlanSelectRelationships(world.flows, conds).uses_index()) {
    abort();
  }
  for (auto _ : state) {
    auto r = planner.SelectRelationshipIds(world.flows, conds);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_RelAttributeScan)->Arg(1000)->Arg(10000);

void BM_Query_RelAttributeIndexed(benchmark::State& state) {
  auto world = BuildFlows(static_cast<int>(state.range(0)), true);
  Planner planner(world.db.get());
  auto conds = SelectiveWeight();
  if (!planner.PlanSelectRelationships(world.flows, conds).uses_index()) {
    abort();
  }
  // Identity with the RelationshipsOfAssociation scan, once per setup.
  {
    std::vector<seed::RelationshipId> scanned;
    for (seed::RelationshipId id :
         world.db->RelationshipsOfAssociation(world.flows)) {
      if (planner.EvalRelConditions(id, conds)) scanned.push_back(id);
    }
    if (planner.SelectRelationshipIds(world.flows, conds) != scanned) {
      abort();
    }
  }
  for (auto _ : state) {
    auto r = planner.SelectRelationshipIds(world.flows, conds);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_RelAttributeIndexed)->Arg(1000)->Arg(10000);

// --- Join strategies: planner-driven vs. always-materialize ------------------

using seed::query::QueryRelation;

struct JoinBenchWorld {
  std::unique_ptr<Database> db;
  seed::ClassId src_cls, dst_cls;
  seed::AssociationId flows;
  QueryRelation all_src, all_dst, small_src, small_dst;
};

/// `n` relationships with uniform per-src `degree` (0 = sqrt(n) layout)
/// over the matching Src/Dst extents, plus 10-tuple driver relations on
/// each side — the shape where a selective Select feeds a join against a
/// big association.
JoinBenchWorld BuildJoinBench(int n, int degree = 0) {
  seed::schema::SchemaBuilder b("JoinBench");
  seed::ClassId src_cls =
      b.AddIndependentClass("Src", seed::schema::ValueType::kNone);
  seed::ClassId dst_cls =
      b.AddIndependentClass("Dst", seed::schema::ValueType::kNone);
  seed::AssociationId flows = b.AddAssociation(
      "Flows",
      seed::schema::Role{"src", src_cls, seed::schema::Cardinality::Any()},
      seed::schema::Role{"dst", dst_cls, seed::schema::Cardinality::Any()});
  JoinBenchWorld world{std::make_unique<Database>(*b.Build()), src_cls,
                       dst_cls, flows, {}, {}, {}, {}};
  int stripe = degree > 0 ? std::max(1, n / degree)
                          : std::max(1, static_cast<int>(std::sqrt(n)));
  degree = std::max(1, n / stripe);
  std::vector<ObjectId> srcs, dsts;
  for (int i = 0; i < stripe; ++i) {
    srcs.push_back(*world.db->CreateObject(src_cls, "S" + std::to_string(i)));
    dsts.push_back(*world.db->CreateObject(dst_cls, "D" + std::to_string(i)));
  }
  for (int i = 0; i < stripe; ++i) {
    for (int j = 0; j < degree; ++j) {
      (void)*world.db->CreateRelationship(flows, srcs[i],
                                          dsts[(i + j) % stripe]);
    }
  }
  world.all_src.attributes = {"s"};
  for (ObjectId id : srcs) world.all_src.tuples.push_back({id});
  world.all_dst.attributes = {"d"};
  for (ObjectId id : dsts) world.all_dst.tuples.push_back({id});
  world.small_src.attributes = {"s"};
  world.small_dst.attributes = {"d"};
  for (int i = 0; i < 10 && i < stripe; ++i) {
    world.small_src.tuples.push_back({srcs[i]});
    world.small_dst.tuples.push_back({dsts[i]});
  }
  return world;
}

seed::query::Algebra::JoinOptions MaterializeOptions(int left_role) {
  // The pre-planner join: hash join, right build side, whatever the
  // input sizes — always materializes the association adjacency.
  seed::query::Algebra::JoinOptions options;
  options.method = seed::query::Algebra::JoinOptions::Method::kHash;
  options.build_side = seed::query::Algebra::JoinOptions::Side::kRight;
  options.left_role = left_role;
  return options;
}

/// Selective driver, old path: materialize all `n` relationships to join
/// 10 tuples.
void BM_Query_JoinSmallDriverMaterialize(benchmark::State& state) {
  auto world = BuildJoinBench(static_cast<int>(state.range(0)), 10);
  Algebra algebra(world.db.get());
  for (auto _ : state) {
    auto r = algebra.RelationshipJoin(world.small_src, "s", world.flows,
                                      world.all_dst, "d",
                                      MaterializeOptions(0));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_JoinSmallDriverMaterialize)->Arg(10000)->Arg(100000);

/// Selective driver, planned: PlanJoin picks the index-nested-loop from
/// the 10-tuple side and never touches the association extent.
void BM_Query_JoinSmallDriverPlanned(benchmark::State& state) {
  auto world = BuildJoinBench(static_cast<int>(state.range(0)), 10);
  Planner planner(world.db.get());
  Algebra algebra(world.db.get());
  auto plan = planner.PlanJoin(world.flows, world.small_src.size(),
                               world.all_dst.size());
  if (plan.strategy !=
      Planner::JoinPlan::Strategy::kIndexNestedLoopLeft) {
    abort();
  }
  const std::vector<QueryRelation> inputs = {world.small_src, world.all_dst};
  const std::vector<Planner::PipelineHop> hops = {{world.flows, 0, {}, {}}};
  // Identity with the materializing path, once per setup.
  {
    auto planned = *planner.JoinPipeline(inputs, hops);
    auto materialized = *algebra.RelationshipJoin(
        world.small_src, "s", world.flows, world.all_dst, "d",
        MaterializeOptions(0));
    if (planned.tuples != materialized.tuples) abort();
  }
  for (auto _ : state) {
    auto r = planner.JoinPipeline(inputs, hops);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_JoinSmallDriverPlanned)->Arg(10000)->Arg(100000);

/// The reverse direction (left side bound to role 1): small Dst driver
/// against the same association, old path vs. planned.
void BM_Query_JoinReverseMaterialize(benchmark::State& state) {
  auto world = BuildJoinBench(static_cast<int>(state.range(0)), 10);
  Algebra algebra(world.db.get());
  for (auto _ : state) {
    auto r = algebra.RelationshipJoin(world.small_dst, "d", world.flows,
                                      world.all_src, "s",
                                      MaterializeOptions(1));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_JoinReverseMaterialize)->Arg(10000)->Arg(100000);

void BM_Query_JoinReversePlanned(benchmark::State& state) {
  auto world = BuildJoinBench(static_cast<int>(state.range(0)), 10);
  Planner planner(world.db.get());
  Algebra algebra(world.db.get());
  auto plan = planner.PlanJoin(world.flows, world.small_dst.size(),
                               world.all_src.size(), 1);
  if (plan.strategy !=
      Planner::JoinPlan::Strategy::kIndexNestedLoopLeft) {
    abort();
  }
  const std::vector<QueryRelation> inputs = {world.small_dst, world.all_src};
  const std::vector<Planner::PipelineHop> hops = {{world.flows, 1, {}, {}}};
  {
    auto planned = *planner.JoinPipeline(inputs, hops);
    auto materialized = *algebra.RelationshipJoin(
        world.small_dst, "d", world.flows, world.all_src, "s",
        MaterializeOptions(1));
    if (planned.tuples != materialized.tuples) abort();
  }
  for (auto _ : state) {
    auto r = planner.JoinPipeline(inputs, hops);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_JoinReversePlanned)->Arg(10000)->Arg(100000);

/// Extent-scale inputs over a sparse (degree-2) association: the planner
/// keeps the hash join — one adjacency pass beats per-tuple probing —
/// guarding against INL being chosen blindly.
void BM_Query_JoinLargeInputsPlanned(benchmark::State& state) {
  auto world = BuildJoinBench(static_cast<int>(state.range(0)), 2);
  Planner planner(world.db.get());
  const std::vector<QueryRelation> inputs = {world.all_src, world.all_dst};
  const std::vector<Planner::PipelineHop> hops = {{world.flows, 0, {}, {}}};
  Planner::PhysicalPlan plan;
  auto r0 = planner.JoinPipeline(inputs, hops, &plan);
  if (!r0.ok() ||
      (plan.root->join.strategy !=
           Planner::JoinPlan::Strategy::kHashBuildRight &&
       plan.root->join.strategy !=
           Planner::JoinPlan::Strategy::kHashBuildLeft)) {
    abort();
  }
  for (auto _ : state) {
    auto r = planner.JoinPipeline(inputs, hops);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_JoinLargeInputsPlanned)->Arg(10000);

// --- Join pipelines: cost-chosen hop ordering vs. textual order --------------

struct PipelineWorld {
  std::unique_ptr<Database> db;
  seed::AssociationId big, tiny;
  std::vector<QueryRelation> inputs;                // a, b, c extents
  std::vector<Planner::PipelineHop> hops;           // A-Big-B, B-Tiny-C
};

/// A skewed 3-class / 2-association chain A -Big- B -Tiny- C: `n` Big
/// edges spread over the full A/B extents, 10 Tiny edges into a 5-object
/// C extent. The selective hop is written LAST, so the textual order
/// materializes all `n` Big edges before Tiny prunes them; the cost
/// ordering runs Tiny first and drives Big from the tiny intermediate.
PipelineWorld BuildPipeline(int n) {
  seed::schema::SchemaBuilder b("PipelineBench");
  seed::ClassId a_cls =
      b.AddIndependentClass("A", seed::schema::ValueType::kNone);
  seed::ClassId b_cls =
      b.AddIndependentClass("B", seed::schema::ValueType::kNone);
  seed::ClassId c_cls =
      b.AddIndependentClass("C", seed::schema::ValueType::kNone);
  seed::AssociationId big = b.AddAssociation(
      "Big", seed::schema::Role{"a", a_cls, seed::schema::Cardinality::Any()},
      seed::schema::Role{"b", b_cls, seed::schema::Cardinality::Any()});
  seed::AssociationId tiny = b.AddAssociation(
      "Tiny", seed::schema::Role{"b", b_cls, seed::schema::Cardinality::Any()},
      seed::schema::Role{"c", c_cls, seed::schema::Cardinality::Any()});
  PipelineWorld world{std::make_unique<Database>(*b.Build()), big, tiny,
                      {}, {}};
  int stripe = std::max(100, n / 10);
  std::vector<ObjectId> as, bs, cs;
  for (int i = 0; i < stripe; ++i) {
    as.push_back(*world.db->CreateObject(a_cls, "A" + std::to_string(i)));
    bs.push_back(*world.db->CreateObject(b_cls, "B" + std::to_string(i)));
  }
  for (int i = 0; i < 5; ++i) {
    cs.push_back(*world.db->CreateObject(c_cls, "C" + std::to_string(i)));
  }
  int degree = std::max(1, n / stripe);
  for (int i = 0; i < stripe; ++i) {
    for (int j = 0; j < degree; ++j) {
      (void)*world.db->CreateRelationship(big, as[i],
                                          bs[(i + j * 7) % stripe]);
    }
  }
  for (int i = 0; i < 10; ++i) {
    (void)*world.db->CreateRelationship(tiny, bs[i], cs[i % 5]);
  }
  auto extent = [](const std::vector<ObjectId>& ids, const char* attr) {
    QueryRelation rel;
    rel.attributes = {attr};
    for (ObjectId id : ids) rel.tuples.push_back({id});
    return rel;
  };
  world.inputs = {extent(as, "a"), extent(bs, "b"), extent(cs, "c")};
  world.hops = {{big, 0, a_cls, b_cls}, {tiny, 0, b_cls, c_cls}};
  return world;
}

/// The chain's ground truth, nested loops over both association extents.
std::vector<std::vector<ObjectId>> NaivePipeline(const PipelineWorld& w) {
  std::vector<std::vector<ObjectId>> out;
  for (seed::RelationshipId r1 :
       w.db->RelationshipsOfAssociation(w.big)) {
    auto big_rel = *w.db->GetRelationship(r1);
    for (seed::RelationshipId r2 :
         w.db->RelationshipsOfAssociation(w.tiny)) {
      auto tiny_rel = *w.db->GetRelationship(r2);
      if (big_rel->ends[1] != tiny_rel->ends[0]) continue;
      out.push_back({big_rel->ends[0], big_rel->ends[1],
                     tiny_rel->ends[1]});
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Textual hop order: Big first, Tiny prunes the n-tuple intermediate.
void BM_Query_PipelineTextualOrder(benchmark::State& state) {
  auto world = BuildPipeline(static_cast<int>(state.range(0)));
  Planner planner(world.db.get());
  {
    auto r = planner.JoinPipelineInOrder(world.inputs, world.hops, {0, 1});
    if (!r.ok() || r->tuples != NaivePipeline(world)) abort();
  }
  for (auto _ : state) {
    auto r = planner.JoinPipelineInOrder(world.inputs, world.hops, {0, 1});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_PipelineTextualOrder)->Arg(10000)->Arg(100000);

/// Cost-chosen order: PlanJoinPipeline must run the selective Tiny hop
/// first even though it is written last.
void BM_Query_PipelineCostOrder(benchmark::State& state) {
  auto world = BuildPipeline(static_cast<int>(state.range(0)));
  Planner planner(world.db.get());
  {
    std::vector<size_t> sizes;
    for (const auto& in : world.inputs) sizes.push_back(in.size());
    auto plan = planner.PlanJoinPipeline(world.hops, sizes);
    if (plan.root == nullptr || plan.HopOrder() != std::vector<int>({1, 0})) {
      abort();
    }
    auto r = planner.JoinPipeline(world.inputs, world.hops);
    if (!r.ok() || r->tuples != NaivePipeline(world)) abort();
  }
  for (auto _ : state) {
    auto r = planner.JoinPipeline(world.inputs, world.hops);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_PipelineCostOrder)->Arg(10000)->Arg(100000);

// --- Long chains: DP plan vs. textual order vs. exhaustive left-deep ---------
//
// The 5-hop skewed chain (beyond the old 3-hop cap) from
// bench/skewed_chain.h — the same world the CI plan-quality smoke gate
// checks. The textual order drags dense intermediates through the whole
// chain; the exhaustive left-deep search (the PR-4 approach, here over
// 16 orders) reduces one side before each dense crossing; the DP can
// additionally reduce BOTH sides of a dense hop via a bushy segment x
// segment join.

using seed::bench::BuildSkewedChain;

/// Textual hop order: dense intermediates survive until the tiny hops
/// finally prune them.
void BM_Query_LongChainTextualOrder(benchmark::State& state) {
  auto world = BuildSkewedChain(static_cast<int>(state.range(0)));
  Planner planner(world.db.get());
  std::vector<int> textual{0, 1, 2, 3, 4};
  Planner::PhysicalPlan plan;
  auto reference =
      planner.JoinPipelineInOrder(world.inputs, world.hops, textual, &plan);
  if (!reference.ok()) abort();
  for (auto _ : state) {
    auto r = planner.JoinPipelineInOrder(world.inputs, world.hops, textual);
    benchmark::DoNotOptimize(r);
  }
  state.counters["rows_visited"] =
      static_cast<double>(plan.RowsVisited());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_LongChainTextualOrder)->Arg(10000)->Arg(100000);

/// PR-4 style exhaustive-on-prefix: enumerate every left-deep ordering
/// (16 for 5 hops), keep the cheapest by modeled cost, execute that.
void BM_Query_LongChainExhaustiveLeftDeep(benchmark::State& state) {
  auto world = BuildSkewedChain(static_cast<int>(state.range(0)));
  Planner planner(world.db.get());
  auto reference = planner.JoinPipelineInOrder(world.inputs, world.hops,
                                               {0, 1, 2, 3, 4});
  if (!reference.ok()) abort();
  std::vector<int> best_order;
  double best_cost = 0.0;
  Planner::PhysicalPlan best_plan;
  for (const auto& order : Planner::LeftDeepOrders(world.hops.size())) {
    Planner::PhysicalPlan plan;
    auto r = planner.JoinPipelineInOrder(world.inputs, world.hops, order,
                                         &plan);
    if (!r.ok() || r->tuples != reference->tuples) abort();
    if (best_order.empty() || plan.est_cost < best_cost) {
      best_order = order;
      best_cost = plan.est_cost;
      best_plan = std::move(plan);
    }
  }
  for (auto _ : state) {
    auto r = planner.JoinPipelineInOrder(world.inputs, world.hops,
                                         best_order);
    benchmark::DoNotOptimize(r);
  }
  state.counters["rows_visited"] =
      static_cast<double>(best_plan.RowsVisited());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_LongChainExhaustiveLeftDeep)->Arg(10000)->Arg(100000);

/// The DP plan (possibly bushy), identity-checked against the textual
/// fold.
void BM_Query_LongChainDP(benchmark::State& state) {
  auto world = BuildSkewedChain(static_cast<int>(state.range(0)));
  Planner planner(world.db.get());
  auto reference = planner.JoinPipelineInOrder(world.inputs, world.hops,
                                               {0, 1, 2, 3, 4});
  Planner::PhysicalPlan plan;
  auto r0 = planner.JoinPipeline(world.inputs, world.hops, &plan);
  if (!reference.ok() || !r0.ok() || r0->tuples != reference->tuples) {
    abort();
  }
  for (auto _ : state) {
    auto r = planner.JoinPipeline(world.inputs, world.hops);
    benchmark::DoNotOptimize(r);
  }
  state.counters["rows_visited"] = static_cast<double>(plan.RowsVisited());
  state.counters["bushy"] = plan.HasBushyJoin() ? 1.0 : 0.0;
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Query_LongChainDP)->Arg(10000)->Arg(100000);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): --metrics-out=<file> dumps the
// engine metrics registry after the run, so a bench invocation leaves the
// same JSON trail the trajectory driver does.
int main(int argc, char** argv) {
  std::string metrics_out;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    out << seed::obs::MetricsRegistry::Global().ToJson() << "\n";
  }
  return 0;
}
