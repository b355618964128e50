// Count gates: fixed workloads whose work is a deterministic count, each
// held to a bound. They catch plan and cache regressions that tests of
// result correctness cannot, and they hold on any host.
//
//  * Rows visited. Five scenarios run at scale 1000 and read the delta of
//    the registry's `query.rows.visited.total`, the figure EXPLAIN
//    ANALYZE and the shell report. Each may visit at most 2x its
//    reference count below.
//  * Plan cache. The 6-hop hot loop must hit the cache on >= 90% of its
//    warm queries, run exactly one join DP per query cold and warm, and
//    visit identical rows cold and warm.
//  * Parallelism. The skewed chain visits identical rows at 1 and 8
//    execution threads.
//  * Plan quality. On the skewed 5-hop chain, every left-deep ordering
//    returns the DP plan's tuples, the registry agrees with the plan
//    tree's own count, and the DP plan visits at most 2x the rows of the
//    best ordering.
//
// MetricsOverheadTest is the one timed check: the metrics layer may slow
// the join chain by at most 5%. CMakeLists.txt runs it as its own ctest
// entry, metrics_overhead_test, labelled `timing` and run serially.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "../bench/skewed_chain.h"
#include "core/database.h"
#include "exec/exec_policy.h"
#include "multiuser/client.h"
#include "multiuser/server.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "query/plan_cache.h"
#include "query/planner.h"
#include "schema/schema_builder.h"
#include "spades/spec_schema.h"

namespace seed {
namespace {

using bench::BuildSkewedChain;
using core::Database;
using core::Value;
using query::Planner;

/// The workload size every reference count below was taken at.
constexpr int kScale = 1000;

/// Rows visited at kScale when the gates were set.
constexpr std::uint64_t kMutateQueryMixRows = 5500;
constexpr std::uint64_t kMultiuserConcurrentRows = 831600;
constexpr std::uint64_t kJoinChain5HopRows = 4290;
constexpr std::uint64_t kPlanCacheHotLoopRows = 268000;
constexpr std::uint64_t kParallelJoinSkewedRows = 18255;

/// The textual queries of the mutate+query mix and of the concurrent
/// readers.
constexpr std::string_view kMixQuery =
    "find Data where name contains \"Data_1\"";
constexpr std::string_view kReaderQuery =
    "find Action where name contains \"Action_1\"";

std::uint64_t Count(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

std::uint64_t RowsVisited() { return Count("query.rows.visited.total"); }

/// Fails when `rows` exceeds twice `reference`.
void GateRows(const char* scenario, std::uint64_t rows,
              std::uint64_t reference) {
  std::printf("%s: %llu rows visited, reference %llu\n", scenario,
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(reference));
  EXPECT_LE(rows, 2 * reference)
      << scenario << " visits more than 2x its reference rows";
}

class CountGateTest : public ::testing::Test {
 protected:
  // The gates read counters, which SEED_METRICS=off would freeze.
  void SetUp() override { obs::SetMetricsEnabled(true); }
};

/// Alternating SetValue and textual queries over a Fig. 3 population.
TEST_F(CountGateTest, MutateQueryMix) {
  auto fig3 = spades::BuildFig3Schema();
  ASSERT_TRUE(fig3.ok());
  Database db(fig3->schema);
  const int n = kScale / 10;
  std::vector<ObjectId> descs;
  for (int i = 0; i < n; ++i) {
    auto obj = db.CreateObject(fig3->ids.data, "Data_" + std::to_string(i));
    ASSERT_TRUE(obj.ok());
    auto desc = db.CreateSubObject(*obj, "Description");
    ASSERT_TRUE(desc.ok());
    const Value item = Value::String("item " + std::to_string(i));
    ASSERT_TRUE(db.SetValue(*desc, item).ok());
    descs.push_back(*desc);
  }
  const std::uint64_t rows0 = RowsVisited();
  for (int i = 0; i < kScale; ++i) {
    if (i % 2 == 0) {
      const Value rev = Value::String("rev " + std::to_string(i));
      ASSERT_TRUE(db.SetValue(descs[(i / 2) % n], rev).ok());
    } else {
      ASSERT_TRUE(query::RunQuery(db, kMixQuery).ok());
    }
  }
  GateRows("mutate_query_mix", RowsVisited() - rows0, kMutateQueryMixRows);
}

/// One run of snapshot reads under write contention: `readers` sessions
/// each run a fixed count of textual queries against their pinned
/// snapshot while `writers` threads push checkout/edit/check-in cycles
/// over disjoint root slices. Writers change attribute values only, never
/// the Action extent, so the rows the reads visit do not depend on the
/// interleaving.
void RunReadersAndWriters(const spades::Fig3Schema& fig3, int readers,
                          int writers) {
  constexpr int kRoots = 64;
  constexpr int kReadsPerReader = 400;
  constexpr int kCommitsPerWriter = 2;
  multiuser::Server server(fig3.schema);
  Database* master = server.master();
  for (int i = 0; i < kRoots; ++i) {
    const std::string name = "Action_" + std::to_string(i);
    auto a = master->CreateObject(fig3.ids.action, name);
    ASSERT_TRUE(a.ok());
    auto d = master->CreateSubObject(*a, "Description");
    ASSERT_TRUE(d.ok());
    const Value step = Value::String("step " + std::to_string(i));
    ASSERT_TRUE(master->SetValue(*d, step).ok());
  }
  master->ClearChangeTracking();
  server.PublishSnapshot();

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&server, &go, w] {
      auto session = multiuser::ClientSession::Open(
          &server, "writer-" + std::to_string(w));
      ASSERT_TRUE(session.ok());
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int j = 0; j < kCommitsPerWriter; ++j) {
        // Disjoint slice per writer: stripes never conflict.
        const int root = (w * 16 + j) % kRoots;
        const std::string target = "Action_" + std::to_string(root);
        ASSERT_TRUE((*session)->CheckoutByName({target}).ok());
        Database* local = (*session)->local();
        auto action = local->FindObjectByName(target);
        ASSERT_TRUE(action.ok());
        ObjectId d = local->SubObjects(*action, "Description")[0];
        const Value edit = Value::String("edit " + std::to_string(j));
        ASSERT_TRUE(local->SetValue(d, edit).ok());
        ASSERT_TRUE((*session)->Checkin().ok());
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&server, r] {
      auto session = multiuser::ClientSession::Open(
          &server, "reader-" + std::to_string(r));
      ASSERT_TRUE(session.ok());
      for (int i = 0; i < kReadsPerReader; ++i) {
        // Re-pin periodically: pin churn against concurrent publishes.
        if (i % 8 == 7) {
          ASSERT_TRUE((*session)->Refresh().ok());
        }
        ASSERT_TRUE(server.Query((*session)->id(), kReaderQuery).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Every reader/writer mix from 1 to 16 readers and 0 to 4 writers,
/// three runs each.
TEST_F(CountGateTest, MultiuserConcurrent) {
  auto fig3 = spades::BuildFig3Schema();
  ASSERT_TRUE(fig3.ok());
  const std::uint64_t rows0 = RowsVisited();
  for (int readers : {1, 4, 16}) {
    for (int writers : {0, 1, 4}) {
      for (int rep = 0; rep < 3; ++rep) {
        RunReadersAndWriters(*fig3, readers, writers);
      }
    }
  }
  GateRows("multiuser_concurrent", RowsVisited() - rows0,
           kMultiuserConcurrentRows);
}

/// The DP-planned skewed 5-hop chain, three runs.
TEST_F(CountGateTest, JoinChain5Hop) {
  auto world = BuildSkewedChain(kScale * 5);
  Planner planner(world.db.get());
  const std::uint64_t rows0 = RowsVisited();
  for (int rep = 0; rep < 3; ++rep) {
    ASSERT_TRUE(planner.JoinPipeline(world.inputs, world.hops).ok());
  }
  GateRows("join_chain_5hop", RowsVisited() - rows0, kJoinChain5HopRows);
}

/// One parameterized 6-hop join-chain shape run cold (cache cleared
/// before every query) and warm (only the literal varies). The cache
/// holds access paths; the join tree is always planned from the actual
/// binder sizes, so a cached plan never changes the work.
TEST_F(CountGateTest, PlanCacheHotLoop) {
  constexpr int kChainHops = 6;
  schema::SchemaBuilder builder("PlanCacheWorld");
  std::vector<ClassId> classes;
  for (int i = 0; i <= kChainHops; ++i) {
    classes.push_back(builder.AddIndependentClass(
        "C" + std::to_string(i),
        i == 0 ? schema::ValueType::kInt : schema::ValueType::kNone));
  }
  std::vector<AssociationId> assocs;
  for (int i = 0; i < kChainHops; ++i) {
    assocs.push_back(builder.AddAssociation(
        "H" + std::to_string(i + 1),
        schema::Role{"from", classes[i], schema::Cardinality::Any()},
        schema::Role{"to", classes[i + 1], schema::Cardinality::Any()}));
  }
  auto schema = builder.Build();
  ASSERT_TRUE(schema.ok());
  Database db(*schema);
  ASSERT_TRUE(db.CreateAttributeIndex({classes[0], ""}).ok());
  const int n = kScale / 10;
  std::vector<std::vector<ObjectId>> objs(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (int i = 0; i < n; ++i) {
      const std::string name =
          "C" + std::to_string(c) + "_" + std::to_string(i);
      auto obj = db.CreateObject(classes[c], name);
      ASSERT_TRUE(obj.ok());
      objs[c].push_back(*obj);
      if (c == 0) {
        ASSERT_TRUE(db.SetValue(*obj, Value::Int(i % 10)).ok());
      }
    }
  }
  for (int h = 0; h < kChainHops; ++h) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(
          db.CreateRelationship(assocs[h], objs[h][i], objs[h + 1][i]).ok());
    }
  }
  std::string query_prefix = "find C0 b0";
  for (int i = 1; i <= kChainHops; ++i) {
    query_prefix += " join via H" + std::to_string(i) + " to C" +
                    std::to_string(i) + " b" + std::to_string(i);
  }

  constexpr std::uint64_t kQueries = 200;
  struct Loop {
    std::uint64_t rows = 0;
    std::uint64_t dps = 0;
    std::uint64_t hits = 0;
  };
  auto run_loop = [&](bool cold) {
    const Loop before{RowsVisited(), Count("planner.dp.runs.total"),
                      Count("planner.cache.hits.total")};
    for (std::uint64_t q = 0; q < kQueries; ++q) {
      if (cold) query::PlanCache::Global().Clear();
      const std::string text =
          query_prefix + " where b0 value is " + std::to_string(q % 10);
      EXPECT_TRUE(query::RunJoinChainQuery(db, text).ok());
    }
    return Loop{RowsVisited() - before.rows,
                Count("planner.dp.runs.total") - before.dps,
                Count("planner.cache.hits.total") - before.hits};
  };
  query::PlanCache::Global().Clear();
  const Loop cold = run_loop(/*cold=*/true);
  // The cold loop's last query left its entry behind, so every warm
  // lookup can hit.
  const Loop warm = run_loop(/*cold=*/false);
  query::PlanCache::Global().Clear();

  EXPECT_GE(static_cast<double>(warm.hits) / kQueries, 0.9);
  EXPECT_EQ(cold.dps, kQueries);
  EXPECT_EQ(warm.dps, kQueries);
  EXPECT_EQ(cold.rows, warm.rows);
  GateRows("plan_cache_hot_loop", cold.rows + warm.rows,
           kPlanCacheHotLoopRows);
}

/// The skewed chain at 100x scale, run at 1, 1 and 8 execution threads.
/// Parallelism partitions the work; it never changes it.
TEST_F(CountGateTest, ParallelJoinSkewed) {
  auto world = BuildSkewedChain(kScale * 100);
  auto rows_at = [&](int threads) -> std::uint64_t {
    Planner planner(world.db.get());
    exec::ExecPolicy policy = planner.exec_policy();
    policy.threads = threads;
    planner.set_exec_policy(policy);
    const std::uint64_t rows0 = RowsVisited();
    EXPECT_TRUE(planner.JoinPipeline(world.inputs, world.hops).ok());
    return RowsVisited() - rows0;
  };
  const std::uint64_t first = rows_at(1);
  const std::uint64_t serial = rows_at(1);
  const std::uint64_t parallel = rows_at(8);
  EXPECT_EQ(serial, parallel);
  GateRows("parallel_join_skewed", first + serial + parallel,
           kParallelJoinSkewedRows);
}

/// The DP plan against every explicit left-deep ordering of the skewed
/// 5-hop chain: it may tie the best ordering or beat it with a bushy tree,
/// but never visit more than 2x its rows.
TEST_F(CountGateTest, PlanQuality) {
  auto world = BuildSkewedChain(kScale * 5);
  Planner planner(world.db.get());
  Planner::PhysicalPlan dp_plan;
  const std::uint64_t rows0 = RowsVisited();
  auto dp = planner.JoinPipeline(world.inputs, world.hops, &dp_plan);
  ASSERT_TRUE(dp.ok());
  const auto dp_rows = static_cast<long long>(RowsVisited() - rows0);
  EXPECT_EQ(dp_rows, dp_plan.RowsVisited());

  long long best_rows = -1;
  for (const auto& order : Planner::LeftDeepOrders(world.hops.size())) {
    Planner::PhysicalPlan plan;
    auto r =
        planner.JoinPipelineInOrder(world.inputs, world.hops, order, &plan);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->tuples, dp->tuples);
    if (best_rows < 0 || plan.RowsVisited() < best_rows) {
      best_rows = plan.RowsVisited();
    }
  }
  std::printf("plan quality: DP %lld rows (%s), best left-deep %lld\n",
              dp_rows, dp_plan.ToString().c_str(), best_rows);
  EXPECT_LE(dp_rows, 2 * best_rows);
}

/// Times the join chain with metrics enabled and disabled. One sample
/// runs the pipeline often enough to last about 25 ms, so timer and
/// scheduler jitter average out inside it. Enabled and disabled samples
/// alternate in 21 pairs, each pair with the other side first, and the
/// gate reads the median of the per-pair ratios: a drift in machine
/// speed or a stall on one side moves it little.
TEST(MetricsOverheadTest, WithinFivePercent) {
  constexpr std::uint64_t kSampleNs = 25'000'000;
  constexpr int kPairs = 21;
  auto world = BuildSkewedChain(kScale * 5);
  Planner planner(world.db.get());
  auto time_runs = [&](bool on, std::uint64_t runs) -> std::uint64_t {
    obs::SetMetricsEnabled(on);
    const std::uint64_t t0 = obs::NowNanos();
    for (std::uint64_t i = 0; i < runs; ++i) {
      EXPECT_TRUE(planner.JoinPipeline(world.inputs, world.hops).ok());
    }
    return std::max<std::uint64_t>(obs::NowNanos() - t0, 1);
  };
  // Warm up both variants; the warm disabled run sizes a sample.
  (void)time_runs(true, 1);
  const std::uint64_t runs =
      std::max<std::uint64_t>(1, kSampleNs / time_runs(false, 1));
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    const bool enabled_first = pair % 2 == 0;
    const std::uint64_t first = time_runs(enabled_first, runs);
    const std::uint64_t second = time_runs(!enabled_first, runs);
    const std::uint64_t on = enabled_first ? first : second;
    const std::uint64_t off = enabled_first ? second : first;
    ratios.push_back(static_cast<double>(on) / static_cast<double>(off));
  }
  obs::SetMetricsEnabled(true);
  std::sort(ratios.begin(), ratios.end());
  const double overhead = ratios[ratios.size() / 2] - 1.0;
  std::printf("metrics overhead: %d pairs of %llu runs, median pair %+.1f%% "
              "(pairs %+.1f%% .. %+.1f%%)\n",
              kPairs, static_cast<unsigned long long>(runs), overhead * 100.0,
              (ratios.front() - 1.0) * 100.0, (ratios.back() - 1.0) * 100.0);
  EXPECT_LE(overhead, 0.05) << "metrics overhead exceeds the 5% budget";
}

}  // namespace
}  // namespace seed
