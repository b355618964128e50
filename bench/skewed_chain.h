// The skewed 5-hop chain workload shared by bench_query's long-chain
// benchmarks and the count gates (tests/count_gate_test.cc). Both must
// model the IDENTICAL world for the gates' 2x rows-visited guardrails to
// track what the bench reports, so the builder lives in one place.
//
// Shape: classes C0..C5 connected by 5 associations, hops 0/2/4 tiny
// and selective (10 edges), hops 1/3 dense (~n edges, bounded degree).
// The textual order drags dense intermediates through the whole chain;
// the DP can reduce BOTH sides of a dense hop via a bushy segment x
// segment join.

#ifndef SEED_BENCH_SKEWED_CHAIN_H_
#define SEED_BENCH_SKEWED_CHAIN_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "query/planner.h"
#include "schema/schema_builder.h"

namespace seed::bench {

struct SkewedChainWorld {
  std::unique_ptr<core::Database> db;
  std::vector<query::QueryRelation> inputs;       // 6 binder extents
  std::vector<query::Planner::PipelineHop> hops;  // 5 hops
};

inline SkewedChainWorld BuildSkewedChain(int n) {
  schema::SchemaBuilder b("SkewedChain");
  std::vector<ClassId> cls;
  for (int i = 0; i < 6; ++i) {
    cls.push_back(b.AddIndependentClass("C" + std::to_string(i),
                                        schema::ValueType::kNone));
  }
  std::vector<AssociationId> assocs;
  for (int i = 0; i < 5; ++i) {
    assocs.push_back(b.AddAssociation(
        "H" + std::to_string(i),
        schema::Role{"l", cls[i], schema::Cardinality::Any()},
        schema::Role{"r", cls[i + 1], schema::Cardinality::Any()}));
  }
  SkewedChainWorld world{std::make_unique<core::Database>(*b.Build()),
                         {},
                         {}};
  int stripe = std::max(50, n / 100);
  std::vector<std::vector<ObjectId>> objs(6);
  for (int c = 0; c < 6; ++c) {
    for (int i = 0; i < stripe; ++i) {
      objs[c].push_back(*world.db->CreateObject(
          cls[c], "C" + std::to_string(c) + "_" + std::to_string(i)));
    }
  }
  // The degree cap keeps every (src, dst) pair unique, so relationship
  // creation never trips the duplicate rule.
  int degree = std::min(stripe, std::max(1, n / stripe));
  for (int h = 0; h < 5; ++h) {
    if (h % 2 == 1) {  // dense hop
      for (int i = 0; i < stripe; ++i) {
        for (int j = 0; j < degree; ++j) {
          (void)world.db->CreateRelationship(
              assocs[h], objs[h][i], objs[h + 1][(i + j * 13) % stripe]);
        }
      }
    } else {  // tiny selective hop
      for (int i = 0; i < 10; ++i) {
        (void)world.db->CreateRelationship(assocs[h], objs[h][i],
                                           objs[h + 1][i]);
      }
    }
  }
  for (int c = 0; c < 6; ++c) {
    query::QueryRelation rel;
    rel.attributes = {"b" + std::to_string(c)};
    for (ObjectId id : objs[c]) rel.tuples.push_back({id});
    world.inputs.push_back(std::move(rel));
  }
  for (int h = 0; h < 5; ++h) {
    world.hops.push_back({assocs[h], 0, cls[h], cls[h + 1]});
  }
  return world;
}

}  // namespace seed::bench

#endif  // SEED_BENCH_SKEWED_CHAIN_H_
