// Differential property test for the cost-based planner: against
// randomized schemas, data, index sets and mutation histories (including
// vague values, sub-object predicates, relationship attributes,
// reclassification both ways and version restores), every generated query
// must return exactly what the brute-force extent scan returns — the
// planner is an optimization, never a semantics change.
//
// The driver runs several seeds; each seed builds its own random schema
// (varying specialization depth, sub-object cardinality and index set),
// then interleaves mutations with planner-vs-scan queries. Well over 500
// queries execute across the run (asserted at the end), covering object
// queries (equality, ranges, OR-of-equalities, conjunctions with opaque
// residuals, negations, sub-object predicates, exact and family extents)
// and relationship-attribute queries.
//
// Name equalities (`name is X`, served by the name index) draw their
// literals from every name the run has used: live names, names of
// deleted, renamed and reclassified objects, names only a pattern holds,
// and names a pattern shares with a normal object. Besides the selects
// feeding joins and chains, name-anchored logical chains run through
// Planner::Run, plan cache included, against the naive fold of
// brute-force binder scans.
//
// Relationship joins are differentialed the same way: the planner-chosen
// strategy AND all four explicit physical variants (hash with either
// build side, index-nested-loop from either side) must equal a naive
// nested-loop reference over RelationshipsOfAssociation, across forward
// and reverse role bindings, joins fed by selections, selections over
// join outputs, empty sides, and post-reclassify/post-restore states —
// with coverage floors per chosen strategy kind.
//
// Join *chains* extend the contract to multi-join plans: for randomized
// 2-5 hop chains (beyond the old 3-hop cap; forward and reverse hops,
// empty intermediates, vague values, post-reclassify/post-restore
// states), the plan tree the DP optimizer chooses from the tracked
// degree statistics AND a sampled set of explicit shapes — left-deep
// orderings plus bushy splits (hop joins of two multi-hop segments and
// tuple-join merges on the shared binder) — must equal a naive fold of
// the nested-loop reference. Coverage floors assert the planner
// exercises at least two distinct hop orders, both physical hop
// strategies, chains longer than 3 hops, dozens of explicit bushy
// shapes, and at least one DP-chosen bushy plan (guaranteed by a
// crafted small-HUGE-small chain, with random worlds adding on top).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "index/index_manager.h"
#include "query/logical.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "schema/schema_builder.h"
#include "version/version_manager.h"

namespace seed {
namespace {

using core::Database;
using core::Value;
using index::IndexSpec;
using query::Planner;
using query::Predicate;

/// One randomized world: Base (INT) with `num_specs` specializations
/// hanging off it in a chain, a Label sub-object (STRING), a Zone
/// sub-object (INT), a Target class and a Link association
/// Base -> Target with a Weight (INT) relationship attribute, plus a
/// FastLink specialization of Link.
struct RandomWorld {
  schema::SchemaPtr schema;
  ClassId base;
  std::vector<ClassId> specs;  // generalization chain under base
  ClassId label, zone, target;
  AssociationId link, fast_link;
  ClassId weight;
  /// Every independent name the run has used, patterns' included; names
  /// stay after their object is deleted or renamed.
  std::vector<std::string> names;

  /// All classes an object of the family may have.
  std::vector<ClassId> family() const {
    std::vector<ClassId> out{base};
    out.insert(out.end(), specs.begin(), specs.end());
    return out;
  }
};

RandomWorld BuildRandomWorld(Random& rng) {
  schema::SchemaBuilder b("DiffWorld");
  RandomWorld w;
  w.base = b.AddIndependentClass("Base", schema::ValueType::kInt);
  size_t num_specs = 1 + rng.Uniform(3);
  ClassId parent = w.base;
  for (size_t i = 0; i < num_specs; ++i) {
    ClassId spec = b.AddIndependentClass("Spec" + std::to_string(i),
                                         schema::ValueType::kInt);
    b.SetGeneralization(spec, parent);
    w.specs.push_back(spec);
    parent = spec;
  }
  w.label = b.AddDependentClass(
      w.base, "Label",
      schema::Cardinality(0, 1 + static_cast<std::uint32_t>(rng.Uniform(4))),
      schema::ValueType::kString);
  w.zone = b.AddDependentClass(w.base, "Zone", schema::Cardinality(0, 1),
                               schema::ValueType::kInt);
  w.target = b.AddIndependentClass("Target", schema::ValueType::kNone);
  w.link = b.AddAssociation(
      "Link", schema::Role{"src", w.base, schema::Cardinality::Any()},
      schema::Role{"dst", w.target, schema::Cardinality::Any()});
  w.weight = b.AddDependentClass(
      w.link, "Weight",
      schema::Cardinality(0, 1 + static_cast<std::uint32_t>(rng.Uniform(2))),
      schema::ValueType::kInt);
  w.fast_link = b.AddAssociation(
      "FastLink", schema::Role{"src", w.base, schema::Cardinality::Any()},
      schema::Role{"dst", w.target, schema::Cardinality::Any()});
  b.SetGeneralization(w.fast_link, w.link);
  auto schema = b.Build();
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  w.schema = *schema;
  return w;
}

/// Creates a random subset of object and relationship indexes.
void CreateRandomIndexes(Database* db, const RandomWorld& w, Random& rng) {
  if (rng.Bernoulli(0.8)) {
    (void)db->CreateAttributeIndex({w.base, "", rng.Bernoulli(0.8)});
  }
  if (rng.Bernoulli(0.6)) {
    (void)db->CreateAttributeIndex({w.base, "Label"});
  }
  if (rng.Bernoulli(0.6)) {
    (void)db->CreateAttributeIndex({w.base, "Zone"});
  }
  if (!w.specs.empty() && rng.Bernoulli(0.5)) {
    (void)db->CreateAttributeIndex(
        {rng.Pick(w.specs), "", rng.Bernoulli(0.5)});
  }
  if (rng.Bernoulli(0.7)) {
    (void)db->CreateAttributeIndex(
        IndexSpec::ForAssociation(w.link, "Weight"));
  }
  if (rng.Bernoulli(0.3)) {
    (void)db->CreateAttributeIndex(
        IndexSpec::ForAssociation(w.fast_link, "Weight", false));
  }
}

Predicate RandomAtom(const RandomWorld& w, Random& rng) {
  switch (rng.Uniform(9)) {
    case 0:
      return Predicate::ValueEquals(Value::Int(rng.UniformRange(0, 9)));
    case 1:
      return Predicate::IntGreater(rng.UniformRange(0, 9));
    case 2:
      return Predicate::IntLess(rng.UniformRange(0, 9));
    case 3:
      return Predicate::ValueEquals(Value::Int(rng.UniformRange(0, 4)))
          .Or(Predicate::ValueEquals(Value::Int(rng.UniformRange(5, 9))));
    case 4:
      return Predicate::OnSubObject(
          "Label", Predicate::ValueEquals(Value::String(
                       "L" + std::to_string(rng.UniformRange(0, 4)))));
    case 5:
      return Predicate::OnSubObject(
          "Zone", rng.Bernoulli(0.5)
                      ? Predicate::IntGreater(rng.UniformRange(0, 9))
                      : Predicate::ValueEquals(
                            Value::Int(rng.UniformRange(0, 9))));
    case 6:
      return Predicate::HasValue();
    case 7:
      return Predicate::NameIs(rng.Pick(w.names));
    default:
      return Predicate::NameContains(std::to_string(rng.Uniform(10)));
  }
}

Predicate RandomPredicate(const RandomWorld& w, Random& rng) {
  Predicate p = RandomAtom(w, rng);
  switch (rng.Uniform(5)) {
    case 0:
      return p.And(RandomAtom(w, rng));
    case 1:
      return p.And(RandomAtom(w, rng)).And(RandomAtom(w, rng));
    case 2:
      return p.Or(RandomAtom(w, rng));
    case 3:
      return p.Not();
    default:
      return p;
  }
}

std::vector<Planner::RelCondition> RandomRelConditions(Random& rng) {
  std::vector<Planner::RelCondition> conds;
  size_t n = 1 + rng.Uniform(2);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.Uniform(4)) {
      case 0:
        conds.push_back({"Weight", Predicate::ValueEquals(
                                       Value::Int(rng.UniformRange(0, 9)))});
        break;
      case 1:
        conds.push_back({"Weight",
                         Predicate::IntGreater(rng.UniformRange(0, 9))});
        break;
      case 2:
        conds.push_back({"Weight",
                         Predicate::IntLess(rng.UniformRange(0, 9))});
        break;
      default:
        conds.push_back({"Weight", Predicate::True()});  // 'has Weight'
        break;
    }
  }
  return conds;
}

/// A crafted small-HUGE-small 3-hop chain: tiny end associations around
/// a dense middle one. Reducing BOTH sides before crossing the middle
/// beats every left-deep order, so the DP must choose a bushy tree (a
/// hop join of two multi-hop segments), and its result still has to
/// equal the naive nested-loop fold. Returns 1 iff a bushy plan was
/// chosen (also asserted), feeding the coverage floor.
size_t RunCraftedBushyChainDifferential() {
  schema::SchemaBuilder b("BushyWorld");
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
  auto db = std::make_unique<Database>(*b.Build());
  std::vector<ObjectId> as, bs, cs, ds;
  for (int i = 0; i < 100; ++i) {
    as.push_back(*db->CreateObject(a_cls, "A" + std::to_string(i)));
    bs.push_back(*db->CreateObject(b_cls, "B" + std::to_string(i)));
    cs.push_back(*db->CreateObject(c_cls, "C" + std::to_string(i)));
    ds.push_back(*db->CreateObject(d_cls, "D" + std::to_string(i)));
  }
  for (int i = 0; i < 8; ++i) {
    (void)*db->CreateRelationship(left_tiny, as[i], bs[i]);
    (void)*db->CreateRelationship(right_tiny, cs[i], ds[i]);
  }
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 40; ++j) {
      (void)*db->CreateRelationship(middle, bs[i], cs[(i + j * 13) % 100]);
    }
  }
  auto extent = [](const std::vector<ObjectId>& ids, const char* attr) {
    query::QueryRelation rel;
    rel.attributes = {attr};
    for (ObjectId id : ids) rel.tuples.push_back({id});
    return rel;
  };
  std::vector<query::QueryRelation> inputs{extent(as, "a"), extent(bs, "b"),
                                           extent(cs, "c"), extent(ds, "d")};
  std::vector<Planner::PipelineHop> hops{{left_tiny, 0, a_cls, b_cls},
                                         {middle, 0, b_cls, c_cls},
                                         {right_tiny, 0, c_cls, d_cls}};

  // Naive fold of the nested-loop reference, textual order.
  std::vector<std::vector<ObjectId>> expected;
  for (const auto& t : inputs[0].tuples) expected.push_back(t);
  for (size_t i = 0; i < hops.size(); ++i) {
    std::vector<std::vector<ObjectId>> next;
    for (RelationshipId rid :
         db->RelationshipsOfAssociation(hops[i].assoc, true)) {
      auto rel = *db->GetRelationship(rid);
      for (const auto& t : expected) {
        if (t[i] != rel->ends[0]) continue;
        std::vector<ObjectId> grown = t;
        grown.push_back(rel->ends[1]);
        next.push_back(std::move(grown));
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    expected = std::move(next);
  }

  Planner planner(db.get());
  Planner::PhysicalPlan plan;
  auto planned = planner.JoinPipeline(inputs, hops, &plan);
  EXPECT_TRUE(planned.ok()) << planned.status().ToString();
  if (!planned.ok()) return 0;
  EXPECT_EQ(planned->tuples, expected)
      << "crafted bushy chain diverged (plan: " << plan.ToString() << ")";
  EXPECT_TRUE(plan.HasBushyJoin()) << plan.ToString();
  return plan.HasBushyJoin() ? 1u : 0u;
}

TEST(PlannerDifferentialTest, PlannerMatchesBruteForceScan) {
  size_t queries_run = 0;
  size_t index_plans = 0;
  size_t intersect_plans = 0;
  size_t name_plans = 0;
  size_t named_chains = 0;            // name-anchored chains through Run
  size_t named_chain_name_plans = 0;  // ... whose anchor used the name leg
  size_t rel_index_plans = 0;
  size_t join_queries = 0;
  size_t join_hash_chosen = 0;
  size_t join_inl_chosen = 0;
  size_t join_reverse = 0;
  size_t join_empty_side = 0;
  size_t chain_queries = 0;
  size_t chain_hash_steps = 0;
  size_t chain_inl_steps = 0;
  size_t chain_reverse_hops = 0;
  size_t chain_empty_intermediate = 0;
  size_t chain_long = 0;           // chains beyond the old 3-hop cap
  size_t chain_bushy_chosen = 0;   // DP picked a bushy tree on its own
  size_t chain_bushy_shapes_run = 0;  // explicit bushy splits differentialed
  std::set<std::string> chain_orders_chosen;

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Random rng(seed * 7919);
    RandomWorld w = BuildRandomWorld(rng);
    auto db = std::make_unique<Database>(w.schema);
    version::VersionManager vm(db.get());
    CreateRandomIndexes(db.get(), w, rng);

    std::vector<ObjectId> objects;
    std::vector<RelationshipId> rels;
    std::vector<version::VersionId> versions;
    std::vector<ClassId> family = w.family();
    int created = 0;

    // Enough targets that the dst-side input sizes vary: small relative
    // to the association (index-nested-loop territory) up to extent scale
    // (hash-join territory).
    std::vector<ObjectId> targets;
    for (int i = 0; i < 24; ++i) {
      w.names.push_back("T" + std::to_string(i));
      targets.push_back(*db->CreateObject(w.target, w.names.back()));
    }

    // Pre-populate so extents are large enough that index plans (and
    // intersections) actually win the cost comparison — otherwise every
    // query would trivially plan as a scan and the differential would
    // only exercise one path.
    for (int i = 0; i < 120; ++i) {
      w.names.push_back("Seed" + std::to_string(created++));
      auto id = db->CreateObject(rng.Pick(family), w.names.back());
      ASSERT_TRUE(id.ok());
      objects.push_back(*id);
      if (rng.Bernoulli(0.85)) {
        (void)db->SetValue(*id, Value::Int(rng.UniformRange(0, 9)));
      }
      if (rng.Bernoulli(0.5)) {
        auto sub = db->CreateSubObject(*id, "Label");
        if (sub.ok()) {
          (void)db->SetValue(*sub, Value::String("L" + std::to_string(
                                       rng.UniformRange(0, 4))));
        }
      }
      if (rng.Bernoulli(0.5)) {
        auto sub = db->CreateSubObject(*id, "Zone");
        if (sub.ok() && rng.Bernoulli(0.9)) {
          (void)db->SetValue(*sub, Value::Int(rng.UniformRange(0, 9)));
        }
      }
      if (rng.Bernoulli(0.6)) {
        auto rel = db->CreateRelationship(
            rng.Bernoulli(0.7) ? w.link : w.fast_link, *id,
            rng.Pick(targets));
        if (rel.ok()) {
          rels.push_back(*rel);
          auto weight = db->CreateSubObject(*rel, "Weight");
          if (weight.ok() && rng.Bernoulli(0.85)) {
            (void)db->SetValue(*weight,
                               Value::Int(rng.UniformRange(0, 9)));
          }
        }
      }
    }

    // Patterns live in a name space of their own and in no extent: some
    // hold names no normal object has, others share a normal object's.
    core::CreateOptions pattern;
    pattern.pattern = true;
    for (int i = 0; i < 6; ++i) {
      std::string name = i % 2 == 0 ? "Pat" + std::to_string(i)
                                    : "Seed" + std::to_string(i);
      ASSERT_TRUE(db->CreateObject(rng.Pick(family), name, pattern).ok());
      if (i % 2 == 0) w.names.push_back(name);
    }

    auto run_object_query = [&] {
      ClassId cls = rng.Bernoulli(0.7) ? w.base : rng.Pick(family);
      bool include_spec = rng.Bernoulli(0.8);
      Predicate p = RandomPredicate(w, rng);
      Planner planner(db.get());
      Planner::Plan plan = planner.PlanSelect(cls, p, include_spec);
      if (plan.uses_index()) ++index_plans;
      if (plan.kind == Planner::Plan::Kind::kIndexIntersect) {
        ++intersect_plans;
      }
      if (plan.kind == Planner::Plan::Kind::kNameEquals) ++name_plans;
      std::vector<ObjectId> scanned;
      for (ObjectId id : db->ObjectsOfClass(cls, include_spec)) {
        if (p.Eval(*db, id)) scanned.push_back(id);
      }
      ASSERT_EQ(planner.SelectIds(cls, p, include_spec, &plan), scanned)
          << "object query diverged at seed " << seed << " (plan: "
          << plan.ToString() << ")";
      ++queries_run;
    };

    auto run_rel_query = [&] {
      AssociationId assoc = rng.Bernoulli(0.7) ? w.link : w.fast_link;
      bool include_spec = rng.Bernoulli(0.8);
      auto conds = RandomRelConditions(rng);
      Planner planner(db.get());
      Planner::Plan plan =
          planner.PlanSelectRelationships(assoc, conds, include_spec);
      if (plan.uses_index()) ++rel_index_plans;
      std::vector<RelationshipId> scanned;
      for (RelationshipId id :
           db->RelationshipsOfAssociation(assoc, include_spec)) {
        if (planner.EvalRelConditions(id, conds)) scanned.push_back(id);
      }
      ASSERT_EQ(
          planner.SelectRelationshipIds(assoc, conds, include_spec, &plan),
          scanned)
          << "relationship query diverged at seed " << seed << " (plan: "
          << plan.ToString() << ")";
      ++queries_run;
    };

    // Naive nested-loop join reference, structurally independent of the
    // hash / index-nested-loop execution paths: walk every relationship
    // of the family and every tuple pair.
    auto naive_join = [&](const query::QueryRelation& a,
                          const query::QueryRelation& b, AssociationId assoc,
                          int left_role) {
      std::vector<std::vector<ObjectId>> out;
      for (RelationshipId rid : db->RelationshipsOfAssociation(assoc, true)) {
        auto rel = db->GetRelationship(rid);
        if (!rel.ok()) continue;
        for (const auto& ta : a.tuples) {
          if (ta[0] != (*rel)->ends[left_role]) continue;
          for (const auto& tb : b.tuples) {
            if (tb[0] != (*rel)->ends[1 - left_role]) continue;
            out.push_back({ta[0], tb[0]});
          }
        }
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    };

    auto run_join_query = [&] {
      AssociationId assoc = rng.Bernoulli(0.7) ? w.link : w.fast_link;
      bool reverse = rng.Bernoulli(0.35);
      // A selection feeds the src-bound side (join below a selection); a
      // random slice of the Target extent feeds the dst side. Either may
      // come up empty.
      Planner planner(db.get());
      query::QueryRelation src_rel;
      src_rel.attributes = {"s"};
      if (!rng.Bernoulli(0.08)) {
        ClassId cls = rng.Bernoulli(0.7) ? w.base : rng.Pick(family);
        Predicate p = rng.Bernoulli(0.6) ? RandomPredicate(w, rng)
                                         : Predicate::True();
        for (ObjectId id : planner.SelectIds(cls, p)) {
          src_rel.tuples.push_back({id});
        }
      }
      query::QueryRelation dst_rel;
      dst_rel.attributes = {"t"};
      if (!rng.Bernoulli(0.08)) {
        double keep = rng.Bernoulli(0.5) ? 1.0 : 0.25;
        for (ObjectId id : db->ObjectsOfClass(w.target)) {
          if (rng.Bernoulli(keep)) dst_rel.tuples.push_back({id});
        }
      }
      const query::QueryRelation& a = reverse ? dst_rel : src_rel;
      const query::QueryRelation& b = reverse ? src_rel : dst_rel;
      int left_role = reverse ? 1 : 0;
      if (reverse) ++join_reverse;
      if (a.empty() || b.empty()) ++join_empty_side;

      auto expected = naive_join(a, b, assoc, left_role);

      // The planner-chosen strategy...
      Planner::PhysicalPlan plan;
      auto planned = planner.JoinPipeline(
          {a, b}, {{assoc, left_role, ClassId(), ClassId()}}, &plan);
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      ASSERT_EQ(planned->tuples, expected)
          << "join diverged at seed " << seed << " (plan: "
          << plan.ToString() << ")";
      using Strategy = Planner::JoinPlan::Strategy;
      if (plan.root->join.strategy == Strategy::kHashBuildLeft ||
          plan.root->join.strategy == Strategy::kHashBuildRight) {
        ++join_hash_chosen;
      } else {
        ++join_inl_chosen;
      }

      // ...and every explicit physical variant agree with the reference.
      query::Algebra algebra(db.get());
      for (auto method : {query::Algebra::JoinOptions::Method::kHash,
                          query::Algebra::JoinOptions::Method::
                              kIndexNestedLoop}) {
        for (auto side : {query::Algebra::JoinOptions::Side::kLeft,
                          query::Algebra::JoinOptions::Side::kRight}) {
          query::Algebra::JoinOptions options;
          options.method = method;
          options.build_side = side;
          options.left_role = left_role;
          auto direct = algebra.RelationshipJoin(a, a.attributes[0], assoc,
                                                 b, b.attributes[0], options);
          ASSERT_TRUE(direct.ok()) << direct.status().ToString();
          ASSERT_EQ(direct->tuples, expected)
              << "strategy diverged at seed " << seed;
        }
      }

      // Selection above the join: filtering the joined relation on the
      // src column must match filtering the reference the same way.
      if (rng.Bernoulli(0.3)) {
        Predicate p = RandomAtom(w, rng);
        int col = reverse ? 1 : 0;  // the "s" column's position
        auto selected = algebra.Select(*planned, "s", p);
        ASSERT_TRUE(selected.ok());
        std::vector<std::vector<ObjectId>> filtered;
        for (const auto& t : expected) {
          if (p.Eval(*db, t[col])) filtered.push_back(t);
        }
        ASSERT_EQ(selected->tuples, filtered)
            << "select-over-join diverged at seed " << seed;
      }
      ++join_queries;
      ++queries_run;
    };

    // Naive reference for a 2-3 hop chain: fold the nested-loop join
    // over the hops in textual order, column i holding binder i.
    auto naive_chain = [&](const std::vector<query::QueryRelation>& inputs,
                           const std::vector<Planner::PipelineHop>& hops) {
      std::vector<std::vector<ObjectId>> tuples;
      for (const auto& t : inputs[0].tuples) tuples.push_back(t);
      for (size_t i = 0; i < hops.size(); ++i) {
        std::vector<std::vector<ObjectId>> next;
        for (RelationshipId rid :
             db->RelationshipsOfAssociation(hops[i].assoc, true)) {
          auto rel = db->GetRelationship(rid);
          if (!rel.ok()) continue;
          ObjectId from = (*rel)->ends[hops[i].left_role];
          ObjectId to = (*rel)->ends[1 - hops[i].left_role];
          for (const auto& t : tuples) {
            if (t[i] != from) continue;
            for (const auto& tb : inputs[i + 1].tuples) {
              if (tb[0] != to) continue;
              std::vector<ObjectId> grown = t;
              grown.push_back(to);
              next.push_back(std::move(grown));
            }
          }
        }
        std::sort(next.begin(), next.end());
        next.erase(std::unique(next.begin(), next.end()), next.end());
        tuples = std::move(next);
      }
      return tuples;
    };

    auto run_chain_query = [&] {
      size_t num_hops = 2 + rng.Uniform(4);  // 2-5 hops, beyond the old cap
      // Binders alternate between the Base family (even positions) and
      // Target (odd positions), so every chain mixes forward hops
      // (left_role 0) with reverse ones (left_role 1).
      Planner planner(db.get());
      std::vector<ClassId> binder_cls;
      for (size_t i = 0; i <= num_hops; ++i) {
        binder_cls.push_back(i % 2 == 0 ? (rng.Bernoulli(0.7)
                                               ? w.base
                                               : rng.Pick(family))
                                        : w.target);
      }
      std::vector<Planner::PipelineHop> hops;
      for (size_t i = 0; i < num_hops; ++i) {
        hops.push_back({rng.Bernoulli(0.7) ? w.link : w.fast_link,
                        i % 2 == 0 ? 0 : 1, binder_cls[i],
                        binder_cls[i + 1]});
        if (hops.back().left_role == 1) ++chain_reverse_hops;
      }
      std::vector<query::QueryRelation> inputs;
      for (size_t i = 0; i <= num_hops; ++i) {
        query::QueryRelation rel;
        rel.attributes = {"b" + std::to_string(i)};
        if (!rng.Bernoulli(0.08)) {
          if (i % 2 == 0) {
            Predicate p = rng.Bernoulli(0.5) ? RandomPredicate(w, rng)
                                             : Predicate::True();
            for (ObjectId id : planner.SelectIds(binder_cls[i], p)) {
              rel.tuples.push_back({id});
            }
          } else {
            double keep = rng.Bernoulli(0.5) ? 1.0 : 0.3;
            for (ObjectId id : db->ObjectsOfClass(w.target)) {
              if (rng.Bernoulli(keep)) rel.tuples.push_back({id});
            }
          }
        }
        inputs.push_back(std::move(rel));
      }

      auto expected = naive_chain(inputs, hops);

      // The planner-chosen plan tree (the DP may pick any left-deep or
      // bushy shape)...
      Planner::PhysicalPlan plan;
      auto planned = planner.JoinPipeline(inputs, hops, &plan);
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      ASSERT_EQ(planned->tuples, expected)
          << "chain diverged at seed " << seed << " (plan: "
          << plan.ToString() << ")";
      std::string order_sig;
      for (int hop : plan.HopOrder()) order_sig += std::to_string(hop);
      chain_orders_chosen.insert(std::to_string(num_hops) + ":" + order_sig);
      if (plan.HasBushyJoin()) ++chain_bushy_chosen;
      if (num_hops > 3) ++chain_long;
      auto count_steps = [&](auto&& self,
                             const Planner::PhysicalPlan::Node* node)
          -> void {
        if (node == nullptr) return;
        self(self, node->left.get());
        self(self, node->right.get());
        if (node->kind == Planner::PhysicalPlan::Node::Kind::kHopJoin) {
          using Strategy = Planner::JoinPlan::Strategy;
          if (node->join.strategy == Strategy::kHashBuildLeft ||
              node->join.strategy == Strategy::kHashBuildRight) {
            ++chain_hash_steps;
          } else {
            ++chain_inl_steps;
          }
        }
        if (node->kind != Planner::PhysicalPlan::Node::Kind::kInput &&
            node->actual_rows == 0) {
          ++chain_empty_intermediate;
        }
      };
      count_steps(count_steps, plan.root.get());

      // ...a sample of explicit left-deep orderings (all of them for
      // short chains, the textual / fully-reversed / two mixed ones for
      // long chains)...
      auto orders = Planner::LeftDeepOrders(hops.size());
      if (num_hops > 3) {
        decltype(orders) sampled{orders.front(), orders.back(),
                                 orders[orders.size() / 3],
                                 orders[(2 * orders.size()) / 3]};
        orders = std::move(sampled);
      }
      for (const auto& order : orders) {
        auto direct = planner.JoinPipelineInOrder(inputs, hops, order);
        ASSERT_TRUE(direct.ok()) << direct.status().ToString();
        ASSERT_EQ(direct->tuples, expected)
            << "ordering diverged at seed " << seed;
      }

      // ...and explicit bushy shapes: both the relationship split (hop
      // join of two multi-hop segments) and the tuple-join merge on the
      // shared middle binder must equal the naive fold.
      int mid = static_cast<int>(num_hops) / 2;
      for (bool tuple : {false, true}) {
        if (tuple && (mid <= 0 || mid >= static_cast<int>(num_hops))) {
          continue;
        }
        Planner::PhysicalPlan bushy;
        auto split =
            planner.JoinPipelineSplit(inputs, hops, mid, tuple, &bushy);
        ASSERT_TRUE(split.ok()) << split.status().ToString();
        ASSERT_EQ(split->tuples, expected)
            << "bushy split diverged at seed " << seed << " (plan: "
            << bushy.ToString() << ")";
        // Tuple splits are bushy by construction; a hop split is bushy
        // when both sides carry at least one hop.
        if (tuple ||
            (mid >= 1 && mid + 1 < static_cast<int>(num_hops))) {
          ASSERT_TRUE(bushy.HasBushyJoin()) << bushy.ToString();
          ++chain_bushy_shapes_run;
        }
      }
      ++chain_queries;
      ++queries_run;
    };

    // Name-anchored logical chains of 0-3 hops through Planner::Run,
    // plan cache included: binder 0 is `name is X` (sometimes with a
    // second conjunct), later binders alternate Target and the Base
    // family as in run_chain_query. The reference is the naive fold of
    // brute-force binder scans.
    auto run_named_chain_query = [&] {
      size_t num_hops = rng.Uniform(4);
      query::LogicalChain chain;
      for (size_t i = 0; i <= num_hops; ++i) {
        const bool base_side = i % 2 == 0;
        ClassId cls = base_side ? (rng.Bernoulli(0.7) ? w.base
                                                      : rng.Pick(family))
                                : w.target;
        Predicate p = Predicate::True();
        if (i == 0) {
          p = Predicate::NameIs(rng.Pick(w.names));
          if (rng.Bernoulli(0.3)) p = p.And(RandomAtom(w, rng));
        } else if (base_side && rng.Bernoulli(0.5)) {
          p = RandomPredicate(w, rng);
        } else if (!base_side && rng.Bernoulli(0.2)) {
          p = Predicate::NameIs(rng.Pick(w.names));
        }
        chain.binders.push_back(query::LogicalSelect::Objects(
            cls, "b" + std::to_string(i), p, rng.Bernoulli(0.85)));
      }
      std::vector<Planner::PipelineHop> hops;
      for (size_t i = 0; i < num_hops; ++i) {
        AssociationId assoc = rng.Bernoulli(0.7) ? w.link : w.fast_link;
        const int left_role = i % 2 == 0 ? 0 : 1;
        chain.hops.push_back({assoc, left_role});
        hops.push_back({assoc, left_role, chain.binders[i].cls,
                        chain.binders[i + 1].cls});
      }
      std::vector<query::QueryRelation> scanned;
      for (const query::LogicalSelect& b : chain.binders) {
        query::QueryRelation rel;
        rel.attributes = {b.binder};
        for (ObjectId id :
             db->ObjectsOfClass(b.cls, b.include_specializations)) {
          if (b.pred.Eval(*db, id)) rel.tuples.push_back({id});
        }
        scanned.push_back(std::move(rel));
      }
      Planner planner(db.get());
      Planner::PhysicalPlan plan;
      auto result = planner.Run(chain, &plan);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (plan.selects[0].kind == Planner::Plan::Kind::kNameEquals) {
        ++named_chain_name_plans;
      }
      if (num_hops == 0) {
        std::vector<ObjectId> expected;
        for (const auto& t : scanned[0].tuples) expected.push_back(t[0]);
        ASSERT_EQ(result->ids, expected)
            << "named select diverged at seed " << seed
            << " (plan: " << plan.ToString() << ")";
      } else {
        ASSERT_EQ(result->tuples.tuples, naive_chain(scanned, hops))
            << "named chain diverged at seed " << seed
            << " (plan: " << plan.ToString() << ")";
      }
      ++named_chains;
      ++queries_run;
    };

    for (int step = 0; step < 150; ++step) {
      switch (rng.Uniform(11)) {
        case 0: {  // create an object somewhere in the family
          w.names.push_back("Obj" + std::to_string(created++));
          auto id = db->CreateObject(rng.Pick(family), w.names.back());
          ASSERT_TRUE(id.ok());
          if (rng.Bernoulli(0.8)) {  // some objects stay vague
            (void)db->SetValue(*id, Value::Int(rng.UniformRange(0, 9)));
          }
          objects.push_back(*id);
          break;
        }
        case 1: {  // set / clear own value
          if (objects.empty()) break;
          ObjectId id = rng.Pick(objects);
          if (rng.Bernoulli(0.25)) {
            (void)db->ClearValue(id);
          } else {
            (void)db->SetValue(id, Value::Int(rng.UniformRange(0, 9)));
          }
          break;
        }
        case 2: {  // add or update a Label / Zone sub-object
          if (objects.empty()) break;
          ObjectId parent = rng.Pick(objects);
          const char* role = rng.Bernoulli(0.5) ? "Label" : "Zone";
          auto subs = db->SubObjects(parent, role);
          ObjectId sub;
          if (subs.empty() || rng.Bernoulli(0.4)) {
            auto created_sub = db->CreateSubObject(parent, role);
            if (!created_sub.ok()) break;
            sub = *created_sub;
          } else {
            sub = rng.Pick(subs);
          }
          if (rng.Bernoulli(0.85)) {
            (void)db->SetValue(
                sub, role == std::string("Label")
                         ? Value::String(
                               "L" + std::to_string(rng.UniformRange(0, 4)))
                         : Value::Int(rng.UniformRange(0, 9)));
          } else {
            (void)db->ClearValue(sub);
          }
          break;
        }
        case 3: {  // delete an object (or one of its sub-objects)
          if (objects.empty()) break;
          ObjectId victim = rng.Pick(objects);
          if (rng.Bernoulli(0.4)) {
            auto subs = db->SubObjects(victim);
            if (!subs.empty()) victim = rng.Pick(subs);
          }
          (void)db->DeleteObject(victim);
          break;
        }
        case 4: {  // reclassify along the chain (down or up)
          if (objects.empty()) break;
          ObjectId id = rng.Pick(objects);
          auto obj = db->GetObject(id);
          if (!obj.ok()) break;
          (void)db->Reclassify(id, rng.Pick(family));
          break;
        }
        case 5: {  // create a relationship, sometimes with a Weight
          if (objects.empty()) break;
          ObjectId src = rng.Pick(objects);
          auto rel = db->CreateRelationship(
              rng.Bernoulli(0.7) ? w.link : w.fast_link, src,
              rng.Pick(targets));
          if (!rel.ok()) break;
          rels.push_back(*rel);
          if (rng.Bernoulli(0.8)) {
            auto weight = db->CreateSubObject(*rel, "Weight");
            if (weight.ok() && rng.Bernoulli(0.85)) {
              (void)db->SetValue(*weight,
                                 Value::Int(rng.UniformRange(0, 9)));
            }
          }
          break;
        }
        case 6: {  // mutate or clear a relationship attribute
          if (rels.empty()) break;
          RelationshipId rel = rng.Pick(rels);
          auto subs = db->SubObjects(rel, "Weight");
          if (subs.empty()) {
            auto weight = db->CreateSubObject(rel, "Weight");
            if (weight.ok()) {
              (void)db->SetValue(*weight,
                                 Value::Int(rng.UniformRange(0, 9)));
            }
            break;
          }
          ObjectId sub = rng.Pick(subs);
          if (rng.Bernoulli(0.2)) {
            (void)db->ClearValue(sub);
          } else if (rng.Bernoulli(0.2)) {
            (void)db->DeleteObject(sub);
          } else {
            (void)db->SetValue(sub, Value::Int(rng.UniformRange(0, 9)));
          }
          break;
        }
        case 7: {  // delete or reclassify a relationship
          if (rels.empty()) break;
          RelationshipId rel = rng.Pick(rels);
          auto item = db->GetRelationship(rel);
          if (!item.ok()) break;
          if (rng.Bernoulli(0.5)) {
            (void)db->DeleteRelationship(rel);
          } else {
            (void)db->ReclassifyRelationship(
                rel, (*item)->assoc == w.link ? w.fast_link : w.link);
          }
          break;
        }
        case 8: {  // freeze a version
          auto v = vm.CreateVersion();
          if (v.ok()) versions.push_back(*v);
          break;
        }
        case 9: {  // restore a historical version, then query immediately
          if (versions.empty()) break;
          ASSERT_TRUE(vm.SelectVersion(rng.Pick(versions)).ok());
          run_object_query();
          run_rel_query();
          run_join_query();
          run_chain_query();
          run_named_chain_query();
          break;
        }
        case 10: {  // rename an object; its old name stays in the pool
          if (objects.empty()) break;
          std::string name = "Ren" + std::to_string(created++);
          if (db->Rename(rng.Pick(objects), name).ok()) {
            w.names.push_back(std::move(name));
          }
          break;
        }
      }
      // Every step ends with at least one differential check.
      run_object_query();
      if (rng.Bernoulli(0.5)) run_rel_query();
      if (rng.Bernoulli(0.4)) run_join_query();
      if (rng.Bernoulli(0.25)) run_chain_query();
      if (rng.Bernoulli(0.3)) run_named_chain_query();
    }
  }
  // The acceptance bar: at least 500 random queries with planner/scan
  // identity. (5 seeds x 150 steps x >=1 query.)
  EXPECT_GE(queries_run, 500u);
  // The differential is only meaningful if both access paths actually
  // ran: require a healthy share of index plans, including intersections
  // and relationship-side probes.
  EXPECT_GE(index_plans, 50u);
  EXPECT_GE(intersect_plans, 5u);
  EXPECT_GE(rel_index_plans, 20u);
  // Name coverage floors: the name leg served plain selects and the
  // anchors of chains run through Planner::Run.
  EXPECT_GE(name_plans, 20u);
  EXPECT_GE(named_chains, 150u);
  EXPECT_GE(named_chain_name_plans, 100u);
  // Join coverage floors: every differential join also ran all four
  // explicit physical variants against the nested-loop reference, and
  // the planner's own choices must exercise both strategy kinds, the
  // reverse direction and empty inputs.
  EXPECT_GE(join_queries, 100u);
  EXPECT_GE(join_hash_chosen, 10u);
  EXPECT_GE(join_inl_chosen, 10u);
  EXPECT_GE(join_reverse, 25u);
  EXPECT_GE(join_empty_side, 10u);
  // Chain coverage floors: every differential chain also ran a sampled
  // set of explicit left-deep orderings AND explicit bushy splits (hop
  // and tuple-join) against the naive fold; the planner's own picks must
  // span at least two distinct orderings and both physical hop
  // strategies, some chains must exceed the old 3-hop cap, and some
  // intermediates must have come up empty.
  EXPECT_GE(chain_queries, 60u);
  EXPECT_GE(chain_orders_chosen.size(), 2u);
  EXPECT_GE(chain_hash_steps, 10u);
  EXPECT_GE(chain_inl_steps, 10u);
  EXPECT_GE(chain_reverse_hops, 60u);
  EXPECT_GE(chain_empty_intermediate, 10u);
  EXPECT_GE(chain_long, 10u);
  EXPECT_GE(chain_bushy_shapes_run, 60u);
  // The DP must select at least one bushy plan that matches the naive
  // reference. Random worlds may or may not skew hard enough, so a
  // crafted small-HUGE-small chain (below) guarantees the floor; random
  // picks add on top.
  chain_bushy_chosen += RunCraftedBushyChainDifferential();
  EXPECT_GE(chain_bushy_chosen, 1u);
}

}  // namespace
}  // namespace seed
