// Plan cache and plan-execution tests (statistics v2).
//
// The contract under test: the plan cache is an optimization, never a
// semantics or even an EXPLAIN-surface change. A cache-hit query must
// return exactly what the fresh-planned query returns AND print a
// byte-identical plan while the statistics are unchanged; past the
// drift ratio the entry is invalidated and the query plans fresh, again
// byte-identically to a cold cache. A chain query runs one join DP and
// executes its tree exactly as planned, even when an intermediate misses
// its estimate badly: the result still equals the brute-force reference,
// and the miss shows in the planner.estimate.qerror histogram.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "exec/exec_policy.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "query/plan_cache.h"
#include "query/planner.h"
#include "schema/schema_builder.h"

namespace seed::query {
namespace {

using core::Database;
using core::Value;

std::uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

/// Items with an indexed INT value linked to plain targets — enough for
/// index-served selections, join chains, and statistics drift.
class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema::SchemaBuilder b("CacheWorld");
    item_ = b.AddIndependentClass("Item", schema::ValueType::kInt);
    target_ = b.AddIndependentClass("Target", schema::ValueType::kNone);
    link_ = b.AddAssociation(
        "Link", schema::Role{"src", item_, schema::Cardinality::Any()},
        schema::Role{"dst", target_, schema::Cardinality::Any()});
    auto schema = b.Build();
    ASSERT_TRUE(schema.ok());
    db_ = std::make_unique<Database>(*schema);
    ASSERT_TRUE(db_->CreateAttributeIndex({item_, ""}).ok());
    for (int i = 0; i < 120; ++i) {
      ObjectId id = *db_->CreateObject(item_, "I" + std::to_string(i));
      ASSERT_TRUE(db_->SetValue(id, Value::Int(i % 10)).ok());
      items_.push_back(id);
      if (i < 24) {
        targets_.push_back(
            *db_->CreateObject(target_, "T" + std::to_string(i)));
      }
      if (i % 3 == 0) {
        ASSERT_TRUE(
            db_->CreateRelationship(link_, id, targets_[i % 24 / 3]).ok());
      }
    }
    PlanCache::Global().Clear();
  }

  void TearDown() override { PlanCache::Global().Clear(); }

  ClassId item_, target_;
  AssociationId link_;
  std::unique_ptr<Database> db_;
  std::vector<ObjectId> items_;
  std::vector<ObjectId> targets_;
};

TEST_F(PlanCacheTest, HitExecutesAndPrintsByteIdenticallyToFresh) {
  const std::string q = "find Item where value is 3";
  std::uint64_t hits = CounterValue("planner.cache.hits.total");
  std::uint64_t misses = CounterValue("planner.cache.misses.total");

  std::string fresh_plan;
  auto fresh = RunQuery(*db_, q, &fresh_plan);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(CounterValue("planner.cache.misses.total"), misses + 1);
  EXPECT_NE(fresh_plan.find("index-equals"), std::string::npos)
      << fresh_plan;

  std::string cached_plan;
  auto cached = RunQuery(*db_, q, &cached_plan);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(CounterValue("planner.cache.hits.total"), hits + 1);
  EXPECT_EQ(*cached, *fresh);
  // Unchanged statistics: the rebound plan is byte-identical, estimates
  // included — the EXPLAIN surface cannot tell a hit from a miss.
  EXPECT_EQ(cached_plan, fresh_plan);
}

TEST_F(PlanCacheTest, HitRebindsLiveLiterals) {
  // Same shape, different literals: the second query must hit the first
  // one's skeleton and still probe for ITS literal.
  auto fresh = RunQuery(*db_, "find Item where value is 3");
  ASSERT_TRUE(fresh.ok());
  std::uint64_t hits = CounterValue("planner.cache.hits.total");
  auto rebound = RunQuery(*db_, "find Item where value is 7");
  ASSERT_TRUE(rebound.ok());
  EXPECT_EQ(CounterValue("planner.cache.hits.total"), hits + 1);
  std::vector<ObjectId> expected;
  for (ObjectId id : db_->ObjectsOfClass(item_)) {
    auto obj = db_->GetObject(id);
    ASSERT_TRUE(obj.ok());
    const Value& v = (*obj)->value;
    if (v.is_int() && v.as_int() == 7) expected.push_back(id);
  }
  EXPECT_EQ(*rebound, expected);
}

TEST_F(PlanCacheTest, JoinChainHitMatchesFreshByteForByte) {
  const std::string q =
      "find Item x join via Link to Target y where x value is 3";
  std::string fresh_plan;
  auto fresh = RunJoinChainQuery(*db_, q, &fresh_plan);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  std::uint64_t hits = CounterValue("planner.cache.hits.total");
  std::string cached_plan;
  auto cached = RunJoinChainQuery(*db_, q, &cached_plan);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(CounterValue("planner.cache.hits.total"), hits + 1);
  EXPECT_EQ(cached->tuples, fresh->tuples);
  EXPECT_EQ(cached_plan, fresh_plan);
}

TEST_F(PlanCacheTest, ExplainAnalyzeSurfacesTheHit) {
  ASSERT_TRUE(RunQuery(*db_, "find Item where value is 3").ok());
  QueryTrace trace;
  ASSERT_TRUE(
      RunQuery(*db_, "find Item where value is 3", nullptr, &trace).ok());
  EXPECT_TRUE(trace.plan.from_cache);
  EXPECT_NE(trace.Render(/*mask_times=*/true).find("plan-cache: hit"),
            std::string::npos);
}

TEST_F(PlanCacheTest, DriftPastRatioInvalidatesAndReplansFresh) {
  const std::string q = "find Item where value is 3";
  ASSERT_TRUE(RunQuery(*db_, q).ok());  // warm the cache

  // Triple the extent (and the index): every fingerprint drifts ~3x,
  // past the default 2x ratio.
  for (int i = 0; i < 260; ++i) {
    ObjectId id = *db_->CreateObject(item_, "D" + std::to_string(i));
    ASSERT_TRUE(db_->SetValue(id, Value::Int(i % 10)).ok());
  }

  std::uint64_t invalidations =
      CounterValue("planner.cache.invalidations.total");
  std::uint64_t hits = CounterValue("planner.cache.hits.total");
  std::string replanned_plan;
  auto replanned = RunQuery(*db_, q, &replanned_plan);
  ASSERT_TRUE(replanned.ok());
  EXPECT_EQ(CounterValue("planner.cache.invalidations.total"),
            invalidations + 1);
  EXPECT_EQ(CounterValue("planner.cache.hits.total"), hits);

  // The invalidated query planned fresh: byte-identical to a cold run.
  PlanCache::Global().Clear();
  std::string cold_plan;
  auto cold = RunQuery(*db_, q, &cold_plan);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(*replanned, *cold);
  EXPECT_EQ(replanned_plan, cold_plan);
}

TEST_F(PlanCacheTest, DriftWithinRatioKeepsEntryAlive) {
  const std::string q = "find Item where value is 3";
  ASSERT_TRUE(RunQuery(*db_, q).ok());
  // Grow the extent (and the index) by half: every fingerprint drifts
  // ~1.5x, within the 2x ratio.
  for (int i = 0; i < 60; ++i) {
    ObjectId id = *db_->CreateObject(item_, "D" + std::to_string(i));
    ASSERT_TRUE(db_->SetValue(id, Value::Int(i % 10)).ok());
  }
  std::uint64_t hits = CounterValue("planner.cache.hits.total");
  std::string plan;
  auto hit = RunQuery(*db_, q, &plan);
  ASSERT_TRUE(hit.ok());
  // Soft staleness: the skeleton is reused (a hit), but the printed
  // estimates come from live statistics, never the stale capture.
  EXPECT_EQ(CounterValue("planner.cache.hits.total"), hits + 1);
  PlanCache::Global().Clear();
  std::string cold_plan;
  ASSERT_TRUE(RunQuery(*db_, q, &cold_plan).ok());
  EXPECT_EQ(plan, cold_plan);
}

TEST_F(PlanCacheTest, ChainQueryRunsOneJoinDpColdOrWarm) {
  // The cache holds access paths only, so a hit and a miss both leave
  // the join tree to exactly one DP over the actual binder sizes.
  const std::string q =
      "find Item x join via Link to Target y join via Link to Item z "
      "where x value is 3";
  for (const char* temperature : {"cold", "warm"}) {
    std::uint64_t dp_runs = CounterValue("planner.dp.runs.total");
    QueryTrace trace;
    ASSERT_TRUE(RunJoinChainQuery(*db_, q, nullptr, &trace).ok());
    EXPECT_EQ(trace.plan.from_cache, std::string(temperature) == "warm");
    EXPECT_EQ(CounterValue("planner.dp.runs.total"), dp_runs + 1)
        << temperature;
  }
}

TEST_F(PlanCacheTest, NameAnchoredChainHitLooksTheNewNameUp) {
  // The skeleton holds the name leg by its conjunct, never the literal:
  // a warm hit on another name looks that name up and returns its tuples.
  const std::string q =
      "find Item x join via Link to Target y join reverse via Link to Item "
      "z where x name is ";
  std::string cold_plan;
  auto cold = RunJoinChainQuery(*db_, q + "I3", &cold_plan);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold_plan.rfind("x: name-equals, est ~1 of 120 rows; ", 0), 0u)
      << cold_plan;
  ASSERT_FALSE(cold->tuples.empty());
  EXPECT_EQ(cold->tuples[0][0], items_[3]);

  std::uint64_t hits = CounterValue("planner.cache.hits.total");
  QueryTrace trace;
  auto warm = RunJoinChainQuery(*db_, q + "I6", nullptr, &trace);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(CounterValue("planner.cache.hits.total"), hits + 1);
  EXPECT_TRUE(trace.plan.from_cache);
  // I6 links to one target; z is every item linking to that target.
  std::vector<std::vector<ObjectId>> expected;
  for (RelationshipId x_link : db_->RelationshipsOf(items_[6], link_, 0)) {
    ObjectId y = (*db_->GetRelationship(x_link))->ends[1];
    for (RelationshipId z_link : db_->RelationshipsOf(y, link_, 1)) {
      expected.push_back(
          {items_[6], y, (*db_->GetRelationship(z_link))->ends[0]});
    }
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(expected.size(), 5u);
  EXPECT_EQ(warm->tuples, expected);
}

/// Samples of `hist` in buckets holding values >= `floor`.
std::uint64_t SamplesAtLeast(const obs::Histogram& hist, std::uint64_t floor) {
  std::uint64_t n = 0;
  for (std::size_t i = obs::Histogram::BucketIndex(floor);
       i < obs::Histogram::kNumBuckets; ++i) {
    n += hist.bucket(i);
  }
  return n;
}

/// A world built to mis-estimate: one hub A holds every AB edge, so a
/// selection down to the hub estimates ~assoc/extent joined rows while
/// actually producing the association's whole population.
TEST(MisestimatedChainTest, RunsAsPlannedAndRecordsQError) {
  schema::SchemaBuilder b("SkewWorld");
  ClassId a_cls = b.AddIndependentClass("A", schema::ValueType::kInt);
  ClassId b_cls = b.AddIndependentClass("B", schema::ValueType::kNone);
  ClassId c_cls = b.AddIndependentClass("C", schema::ValueType::kNone);
  AssociationId ab = b.AddAssociation(
      "AB", schema::Role{"a", a_cls, schema::Cardinality::Any()},
      schema::Role{"b", b_cls, schema::Cardinality::Any()});
  AssociationId bc = b.AddAssociation(
      "BC", schema::Role{"b", b_cls, schema::Cardinality::Any()},
      schema::Role{"c", c_cls, schema::Cardinality::Any()});
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  Database db(*schema);

  std::vector<ObjectId> as, bs, cs;
  for (int i = 0; i < 100; ++i) {
    as.push_back(*db.CreateObject(a_cls, "A" + std::to_string(i)));
    cs.push_back(*db.CreateObject(c_cls, "C" + std::to_string(i)));
  }
  for (int i = 0; i < 200; ++i) {
    bs.push_back(*db.CreateObject(b_cls, "B" + std::to_string(i)));
  }
  // Only the hub carries value 7; every AB edge hangs off it. The
  // uniform coverage model sees 1-of-100 selectivity over 200 edges and
  // estimates ~2 joined rows; execution produces all 200, a q-error
  // far past 8, and the chain still runs the tree the DP chose.
  ASSERT_TRUE(db.SetValue(as[0], Value::Int(7)).ok());
  for (int i = 1; i < 100; ++i) {
    ASSERT_TRUE(db.SetValue(as[i], Value::Int(i % 5)).ok());
  }
  std::vector<std::vector<ObjectId>> expected;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.CreateRelationship(ab, as[0], bs[i]).ok());
    ASSERT_TRUE(db.CreateRelationship(bc, bs[i], cs[i % 100]).ok());
    expected.push_back({as[0], bs[i], cs[i % 100]});
  }
  std::sort(expected.begin(), expected.end());

  // The one DP's tree, run as planned at every thread count: both hops
  // drive index-nested-loop from an estimated ~2 rows and each produces
  // 200 (q-error 67).
  const std::string golden =
      "x: scan, est ~100 rows, actual 1, t=<t>; "
      "y: scan, est ~200 rows, actual 200, t=<t>; "
      "z: scan, est ~100 rows, actual 100, t=<t>; "
      "(hop2: (hop1: x[1] * y[200] | join-index-nested-loop(drive=left), "
      "forward, 1 x 200 inputs, est ~2 rows (assoc ~200), actual 200, "
      "in 1+200, t=<t>) * z[100] | join-index-nested-loop(drive=left), "
      "forward, 2 x 100 inputs, est ~2 rows (assoc ~200), actual 200, "
      "in 200+100, t=<t>); "
      "phases: parse <t>, lower <t>, optimize <t>, execute <t>";
  const obs::Histogram& qerror =
      *obs::MetricsRegistry::Global().GetHistogram("planner.estimate.qerror");
  const int prior_threads = exec::DefaultThreads();
  for (int threads : {1, 8}) {
    exec::SetDefaultThreads(threads);
    PlanCache::Global().Clear();
    std::uint64_t dp_runs = CounterValue("planner.dp.runs.total");
    std::uint64_t samples = qerror.count();
    std::uint64_t high = SamplesAtLeast(qerror, 8);
    QueryTrace trace;
    auto r = RunJoinChainQuery(db,
                               "find A x join via AB to B y "
                               "join via BC to C z where x value is 7",
                               nullptr, &trace);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->tuples, expected);
    EXPECT_EQ(CounterValue("planner.dp.runs.total"), dp_runs + 1);
    // One q-error sample per join node of the 2-hop tree, and the
    // mis-estimated one lands at 8 or more.
    EXPECT_EQ(qerror.count(), samples + 2);
    EXPECT_GE(SamplesAtLeast(qerror, 8), high + 1);
    EXPECT_EQ(trace.Render(/*mask_times=*/true), golden)
        << "threads=" << threads;
  }
  exec::SetDefaultThreads(prior_threads);
  PlanCache::Global().Clear();
}

}  // namespace
}  // namespace seed::query
