// The tracked perf trajectory driver (no google-benchmark dependency —
// built unconditionally, CI runs it on every push). Replays a fixed mix
// of engine scenarios seeded from the spades workload and the skewed
// 5-hop join chain, and emits one BENCH_*.json with per-scenario op
// counts and rows visited. The rows-visited figures come from the
// metrics registry ("query.rows.visited.total"), the same source
// EXPLAIN ANALYZE and the shell report — so the committed baseline
// gates the planner, not the harness. Wall-clock performance is
// perfbench's job (BENCHMARK.json); this driver keeps only gates that
// hold on any host: rows visited, the in-driver plan-cache and
// parallel-identity checks, and the metrics overhead budget.
//
//   bench_trajectory [--scale=N] [--out=FILE] [--metrics-out=FILE]
//                    [--check=BASELINE.json] [--overhead-check]
//
//   --scale=N         workload size knob (default 1000)
//   --out=FILE        write the trajectory JSON to FILE (default stdout)
//   --metrics-out=FILE  also dump the full metrics registry JSON
//   --check=BASELINE  run at the baseline's scale and exit 1 when any
//                     scenario visits more than 2x the baseline's rows
//   --overhead-check  measure the join chain with metrics on vs. off and
//                     exit 1 when the enabled path is more than 5% slower

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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
#include "spades/spec_tool.h"
#include "spades/workload.h"
#include "version/version_manager.h"

#include "skewed_chain.h"

namespace {

using seed::core::Database;
using seed::core::Value;
using seed::ObjectId;
using seed::query::Planner;
using seed::version::VersionId;
using seed::version::VersionManager;

constexpr int kSchemaVersion = 2;
constexpr int kPr = 10;

[[noreturn]] void Die(const std::string& what, const seed::Status& s) {
  std::fprintf(stderr, "bench_trajectory: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(1);
}

void Check(const seed::Status& s, const char* what) {
  if (!s.ok()) Die(what, s);
}

std::uint64_t RowsVisitedCounter() {
  const seed::obs::Counter* c =
      seed::obs::MetricsRegistry::Global().FindCounter(
          "query.rows.visited.total");
  return c == nullptr ? 0 : c->value();
}

struct ScenarioResult {
  std::string name;
  std::uint64_t ops = 0;
  std::uint64_t rows_visited = 0;
  /// Extra `"key": value` pairs appended to the scenario's JSON object
  /// (informational only — the rows-visited gate never reads them).
  std::string extra_json;
};

/// Runs `fn` (which returns its op count) and attributes the registry's
/// rows-visited delta to the scenario.
template <typename Fn>
ScenarioResult RunScenario(const std::string& name, Fn&& fn) {
  ScenarioResult result;
  result.name = name;
  std::uint64_t rows_before = RowsVisitedCounter();
  result.ops = fn();
  result.rows_visited = RowsVisitedCounter() - rows_before;
  std::fprintf(stderr, "  %-28s %8" PRIu64 " ops %12" PRIu64 " rows visited\n",
               result.name.c_str(), result.ops, result.rows_visited);
  return result;
}

// --- Scenarios -------------------------------------------------------------

/// The spades specification session: vague entry, refinement, dataflows,
/// nesting, interleaved retrieval.
std::uint64_t BulkLoad(int scale) {
  auto tool = seed::spades::SeedSpecTool::Create();
  if (!tool.ok()) Die("SeedSpecTool::Create", tool.status());
  seed::spades::SessionParams params;
  params.num_actions = static_cast<std::size_t>(scale) / 10;
  params.num_data = static_cast<std::size_t>(scale) / 10;
  params.num_queries = static_cast<std::size_t>(scale) / 10;
  auto stats = seed::spades::RunSession(tool->get(), params);
  if (!stats.ok()) Die("RunSession", stats.status());
  return stats->mutations + stats->queries;
}

/// Alternating SetValue and textual queries over a Fig. 3 population.
std::uint64_t MutateQueryMix(int scale) {
  auto fig3 = seed::spades::BuildFig3Schema();
  if (!fig3.ok()) Die("BuildFig3Schema", fig3.status());
  Database db(fig3->schema);
  int n = std::max(10, scale / 10);
  std::vector<ObjectId> descs;
  for (int i = 0; i < n; ++i) {
    auto obj = db.CreateObject(fig3->ids.data, "Data_" + std::to_string(i));
    if (!obj.ok()) Die("CreateObject", obj.status());
    auto desc = db.CreateSubObject(*obj, "Description");
    if (!desc.ok()) Die("CreateSubObject", desc.status());
    Check(db.SetValue(*desc, Value::String("item " + std::to_string(i))),
          "SetValue");
    descs.push_back(*desc);
  }
  std::uint64_t ops = 0;
  for (int i = 0; i < scale; ++i) {
    if (i % 2 == 0) {
      Check(db.SetValue(descs[static_cast<std::size_t>(i / 2) % descs.size()],
                        Value::String("rev " + std::to_string(i))),
            "SetValue");
    } else {
      auto r = seed::query::RunQuery(
          db, "find Data where name contains \"Data_1\"");
      if (!r.ok()) Die("RunQuery", r.status());
    }
    ++ops;
  }
  return ops;
}

/// Objects oscillating along the generalization path Thing <-> Data.
std::uint64_t ReclassifyStorm(int scale) {
  auto fig3 = seed::spades::BuildFig3Schema();
  if (!fig3.ok()) Die("BuildFig3Schema", fig3.status());
  Database db(fig3->schema);
  int n = std::max(4, scale / 4);
  std::vector<ObjectId> objs;
  for (int i = 0; i < n; ++i) {
    auto obj = db.CreateObject(fig3->ids.thing, "T_" + std::to_string(i));
    if (!obj.ok()) Die("CreateObject", obj.status());
    objs.push_back(*obj);
  }
  std::uint64_t ops = 0;
  for (int round = 0; round < 2; ++round) {
    for (ObjectId obj : objs) {
      Check(db.Reclassify(obj, fig3->ids.data), "Reclassify to Data");
      ++ops;
      Check(db.Reclassify(obj, fig3->ids.thing), "Reclassify to Thing");
      ++ops;
    }
  }
  return ops;
}

/// A version chain built from batched mutations, then repeated restores.
std::uint64_t VersionRestore(int scale) {
  auto fig3 = seed::spades::BuildFig3Schema();
  if (!fig3.ok()) Die("BuildFig3Schema", fig3.status());
  Database db(fig3->schema);
  VersionManager vm(&db);
  const int kVersions = 8;
  int per_version = std::max(1, scale / (10 * kVersions));
  std::uint64_t ops = 0;
  std::vector<VersionId> versions;
  for (int v = 0; v < kVersions; ++v) {
    for (int i = 0; i < per_version; ++i) {
      auto obj = db.CreateObject(
          fig3->ids.action,
          "A_" + std::to_string(v) + "_" + std::to_string(i));
      if (!obj.ok()) Die("CreateObject", obj.status());
      ++ops;
    }
    auto id = vm.CreateVersion();
    if (!id.ok()) Die("CreateVersion", id.status());
    versions.push_back(*id);
    ++ops;
  }
  int restores = std::max(4, std::min(scale / 10, 64));
  for (int r = 0; r < restores; ++r) {
    Check(vm.SelectVersion(
              versions[static_cast<std::size_t>(r) % versions.size()]),
          "SelectVersion");
    ++ops;
  }
  return ops;
}

/// Full checkout/edit/check-in cycles against a central server.
std::uint64_t MultiuserCheckoutCheckin(int scale) {
  auto fig3 = seed::spades::BuildFig3Schema();
  if (!fig3.ok()) Die("BuildFig3Schema", fig3.status());
  seed::multiuser::Server server(fig3->schema);
  int n = std::max(4, scale / 20);
  for (int i = 0; i < n; ++i) {
    auto a = server.master()->CreateObject(fig3->ids.action,
                                           "Action_" + std::to_string(i));
    if (!a.ok()) Die("CreateObject", a.status());
    auto d = server.master()->CreateSubObject(*a, "Description");
    if (!d.ok()) Die("CreateSubObject", d.status());
    Check(server.master()->SetValue(
              *d, Value::String("step " + std::to_string(i))),
          "SetValue");
  }
  server.master()->ClearChangeTracking();
  int rounds = std::max(1, scale / 10);
  for (int r = 0; r < rounds; ++r) {
    auto session = seed::multiuser::ClientSession::Open(&server, "bench");
    if (!session.ok()) Die("ClientSession::Open", session.status());
    std::string target = "Action_" + std::to_string(r % n);
    Check((*session)->CheckoutByName({target}), "CheckoutByName");
    auto local = (*session)->local()->FindObjectByName(target);
    if (!local.ok()) Die("FindObjectByName", local.status());
    ObjectId d = (*session)->local()->SubObjects(*local, "Description")[0];
    Check((*session)->local()->SetValue(
              d, Value::String("edited " + std::to_string(r))),
          "SetValue");
    Check((*session)->Checkin(), "Checkin");
  }
  return static_cast<std::uint64_t>(rounds);
}

/// Snapshot reads under write contention: N reader sessions each run a
/// fixed count of textual queries against their pinned snapshot while W
/// writer threads push checkout/edit/check-in cycles over disjoint root
/// slices. The population and per-reader read count are fixed, so rows
/// visited are deterministic regardless of thread interleaving (reads
/// scan the Action extent; writers only change attribute values, never
/// the extent).
std::uint64_t MultiuserConcurrent() {
  static constexpr int kRoots = 64;
  static constexpr int kReadsPerReader = 400;
  static constexpr int kCommitsPerWriter = 2;
  struct Config {
    int readers;
    int writers;
  };
  constexpr Config kConfigs[] = {{1, 0},  {1, 1},  {1, 4},
                                 {4, 0},  {4, 1},  {4, 4},
                                 {16, 0}, {16, 1}, {16, 4}};
  // Three runs per configuration, the work the BENCH_10.json baseline's
  // rows visited count.
  constexpr int kRepsPerConfig = 3;

  auto fig3 = seed::spades::BuildFig3Schema();
  if (!fig3.ok()) Die("BuildFig3Schema", fig3.status());

  std::uint64_t total_reads = 0;
  /// One run: fresh server, cfg.writers commit threads over disjoint
  /// root slices, cfg.readers query threads.
  auto run_once = [&](const Config& cfg) {
    seed::multiuser::Server server(fig3->schema);
    for (int i = 0; i < kRoots; ++i) {
      auto a = server.master()->CreateObject(fig3->ids.action,
                                             "Action_" + std::to_string(i));
      if (!a.ok()) Die("CreateObject", a.status());
      auto d = server.master()->CreateSubObject(*a, "Description");
      if (!d.ok()) Die("CreateSubObject", d.status());
      Check(server.master()->SetValue(
                *d, Value::String("step " + std::to_string(i))),
            "SetValue");
    }
    server.master()->ClearChangeTracking();
    server.PublishSnapshot();

    std::atomic<bool> go{false};
    std::vector<std::thread> writers;
    writers.reserve(static_cast<std::size_t>(cfg.writers));
    for (int w = 0; w < cfg.writers; ++w) {
      writers.emplace_back([&server, &go, w] {
        auto session = seed::multiuser::ClientSession::Open(
            &server, "writer-" + std::to_string(w));
        if (!session.ok()) Die("ClientSession::Open", session.status());
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        for (int j = 0; j < kCommitsPerWriter; ++j) {
          // Disjoint slice per writer: stripes never conflict, so every
          // cycle exercises the parallel-commit path, not retry loops.
          std::string target =
              "Action_" + std::to_string((w * 16 + j) % kRoots);
          Check((*session)->CheckoutByName({target}), "CheckoutByName");
          auto local = (*session)->local()->FindObjectByName(target);
          if (!local.ok()) Die("FindObjectByName", local.status());
          ObjectId d =
              (*session)->local()->SubObjects(*local, "Description")[0];
          Check((*session)->local()->SetValue(
                    d, Value::String("edit " + std::to_string(j))),
                "SetValue");
          Check((*session)->Checkin(), "Checkin");
        }
      });
    }
    std::vector<std::thread> readers;
    readers.reserve(static_cast<std::size_t>(cfg.readers));
    std::atomic<std::uint64_t> reads_done{0};
    go.store(true, std::memory_order_release);
    for (int r = 0; r < cfg.readers; ++r) {
      readers.emplace_back([&server, &reads_done, r] {
        auto session = seed::multiuser::ClientSession::Open(
            &server, "reader-" + std::to_string(r));
        if (!session.ok()) Die("ClientSession::Open", session.status());
        for (int i = 0; i < kReadsPerReader; ++i) {
          // Re-pin periodically so the run also exercises pin churn
          // against concurrent publishes.
          if (i % 8 == 7) Check((*session)->Refresh(), "Refresh");
          auto result = server.Query(
              (*session)->id(),
              "find Action where name contains \"Action_1\"");
          if (!result.ok()) Die("Query", result.status());
          reads_done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : readers) t.join();
    for (std::thread& t : writers) t.join();
    total_reads += reads_done.load(std::memory_order_relaxed);
  };

  for (const Config& cfg : kConfigs) {
    for (int rep = 0; rep < kRepsPerConfig; ++rep) run_once(cfg);
  }
  return total_reads;
}

/// The textual plan-cache hot loop: one parameterized 6-hop join-chain
/// shape, run cold (cache cleared before every query) and warm (cache
/// retained, only the literal varies). The loop hard-gates the cache
/// contract in-driver, like ParallelJoinSkewed gates its rows identity:
/// warm hit rate must be >= 90%, both loops must run exactly one join DP
/// per query (the cache holds access paths; the join tree is always
/// planned from the actual binder sizes), and both loops must visit
/// identical rows (a cached plan never changes the work). Counters, not
/// the clock, so the gates hold at any scale and on any host. The hit
/// rate lands in the JSON.
std::uint64_t PlanCacheHotLoop(int scale, std::string* extra_json) {
  constexpr int kChainHops = 6;
  seed::schema::SchemaBuilder builder("PlanCacheWorld");
  std::vector<seed::ClassId> classes;
  for (int i = 0; i <= kChainHops; ++i) {
    classes.push_back(builder.AddIndependentClass(
        "C" + std::to_string(i),
        i == 0 ? seed::schema::ValueType::kInt
               : seed::schema::ValueType::kNone));
  }
  std::vector<seed::AssociationId> assocs;
  for (int i = 0; i < kChainHops; ++i) {
    assocs.push_back(builder.AddAssociation(
        "H" + std::to_string(i + 1),
        seed::schema::Role{"from", classes[static_cast<std::size_t>(i)],
                           seed::schema::Cardinality::Any()},
        seed::schema::Role{"to", classes[static_cast<std::size_t>(i) + 1],
                           seed::schema::Cardinality::Any()}));
  }
  auto schema = builder.Build();
  if (!schema.ok()) Die("SchemaBuilder::Build", schema.status());
  Database db(*schema);
  Check(db.CreateAttributeIndex({classes[0], ""}), "CreateAttributeIndex");
  int n = std::max(20, scale / 10);
  std::vector<std::vector<ObjectId>> objs(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (int i = 0; i < n; ++i) {
      auto obj = db.CreateObject(
          classes[c], "C" + std::to_string(c) + "_" + std::to_string(i));
      if (!obj.ok()) Die("CreateObject", obj.status());
      objs[c].push_back(*obj);
      if (c == 0) Check(db.SetValue(*obj, Value::Int(i % 10)), "SetValue");
    }
  }
  for (int h = 0; h < kChainHops; ++h) {
    for (int i = 0; i < n; ++i) {
      std::size_t hs = static_cast<std::size_t>(h);
      std::size_t is = static_cast<std::size_t>(i);
      Check(db.CreateRelationship(assocs[hs], objs[hs][is],
                                  objs[hs + 1][is])
                .status(),
            "CreateRelationship");
    }
  }

  std::string query_prefix = "find C0 b0";
  for (int i = 0; i < kChainHops; ++i) {
    query_prefix += " join via H" + std::to_string(i + 1) + " to C" +
                    std::to_string(i + 1) + " b" + std::to_string(i + 1);
  }
  constexpr int kQueries = 200;
  seed::obs::Counter* dp_runs =
      seed::obs::MetricsRegistry::Global().GetCounter("planner.dp.runs.total");
  auto run_loop = [&](bool cold, std::uint64_t* rows, std::uint64_t* dps) {
    std::uint64_t rows_before = RowsVisitedCounter();
    std::uint64_t dps_before = dp_runs->value();
    for (int q = 0; q < kQueries; ++q) {
      if (cold) seed::query::PlanCache::Global().Clear();
      auto r = seed::query::RunJoinChainQuery(
          db, query_prefix + " where b0 value is " + std::to_string(q % 10));
      if (!r.ok()) Die("RunJoinChainQuery", r.status());
    }
    *rows = RowsVisitedCounter() - rows_before;
    *dps = dp_runs->value() - dps_before;
  };

  seed::query::PlanCache::Global().Clear();
  std::uint64_t cold_rows = 0, cold_dps = 0;
  run_loop(/*cold=*/true, &cold_rows, &cold_dps);
  // The cold loop's final query left its entry behind, so the warm loop
  // starts hot: every one of its lookups can hit.
  std::uint64_t hits_before = seed::obs::MetricsRegistry::Global()
                                  .GetCounter("planner.cache.hits.total")
                                  ->value();
  std::uint64_t warm_rows = 0, warm_dps = 0;
  run_loop(/*cold=*/false, &warm_rows, &warm_dps);
  std::uint64_t hits = seed::obs::MetricsRegistry::Global()
                           .GetCounter("planner.cache.hits.total")
                           ->value() -
                       hits_before;
  seed::query::PlanCache::Global().Clear();

  double hit_rate = static_cast<double>(hits) / kQueries;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"warm_hit_rate\": %.3f", hit_rate);
  *extra_json = buf;
  std::fprintf(stderr, "  %-28s warm hit rate %.1f%%\n", "plan_cache_hot_loop",
               hit_rate * 100.0);
  if (hit_rate < 0.9) {
    std::fprintf(stderr, "bench_trajectory: plan_cache_hot_loop warm hit "
                         "rate %.1f%% below the 90%% gate\n",
                 hit_rate * 100.0);
    std::exit(1);
  }
  if (cold_dps != kQueries || warm_dps != kQueries) {
    std::fprintf(stderr,
                 "bench_trajectory: plan_cache_hot_loop ran %" PRIu64
                 " join DPs cold and %" PRIu64 " warm for %d queries each "
                 "(gate: exactly one per query)\n",
                 cold_dps, warm_dps, kQueries);
    std::exit(1);
  }
  if (cold_rows != warm_rows) {
    std::fprintf(stderr,
                 "bench_trajectory: plan_cache_hot_loop visited %" PRIu64
                 " rows warm vs %" PRIu64 " cold — the cache changed the "
                 "work\n",
                 warm_rows, cold_rows);
    std::exit(1);
  }
  return 2 * kQueries;
}

/// The DP-planned skewed 5-hop chain shared with bench_query and the
/// plan-quality smoke gate.
std::uint64_t JoinChain5Hop(int scale) {
  auto world = seed::bench::BuildSkewedChain(scale * 5);
  Planner planner(world.db.get());
  const int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    auto r = planner.JoinPipeline(world.inputs, world.hops);
    if (!r.ok()) Die("JoinPipeline", r.status());
  }
  return kReps;
}

/// The skewed chain at 100x scale (~100k relationships at the default
/// scale) executed at 1 and at 8 execution threads. Rows visited MUST
/// be identical — parallelism partitions the work, it never changes the
/// plan or the operators' semantics — and the sum over the scenario's
/// three runs (1, 1 and 8 threads) is what the baseline gate tracks.
std::uint64_t ParallelJoinSkewed(int scale) {
  auto world = seed::bench::BuildSkewedChain(scale * 100);
  auto rows_at = [&](int threads) -> std::uint64_t {
    Planner planner(world.db.get());
    seed::exec::ExecPolicy policy = planner.exec_policy();
    policy.threads = threads;
    planner.set_exec_policy(policy);
    std::uint64_t rows_before = RowsVisitedCounter();
    auto r = planner.JoinPipeline(world.inputs, world.hops);
    if (!r.ok()) Die("JoinPipeline", r.status());
    return RowsVisitedCounter() - rows_before;
  };
  (void)rows_at(1);  // first of the three counted runs
  std::uint64_t rows_serial = rows_at(1);
  std::uint64_t rows_parallel = rows_at(8);
  if (rows_serial != rows_parallel) {
    std::fprintf(stderr,
                 "bench_trajectory: parallel_join_skewed visited %" PRIu64
                 " rows at 8 threads vs %" PRIu64 " at 1 — parallel "
                 "execution changed the work\n",
                 rows_parallel, rows_serial);
    std::exit(1);
  }
  return 2;
}

// --- Baseline comparison ---------------------------------------------------

/// Pulls an integer field "key": N out of a JSON blob we wrote ourselves
/// (flat, known shape — no general parser needed).
bool ExtractUint(const std::string& json, const std::string& key,
                 std::size_t from, std::uint64_t* out) {
  std::size_t at = json.find("\"" + key + "\":", from);
  if (at == std::string::npos) return false;
  at = json.find(':', at);
  *out = std::strtoull(json.c_str() + at + 1, nullptr, 10);
  return true;
}

struct Baseline {
  std::uint64_t scale = 0;
  std::vector<std::pair<std::string, std::uint64_t>> rows;  // name -> rows
};

bool LoadBaseline(const std::string& path, Baseline* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  std::string json = buf.str();
  if (!ExtractUint(json, "scale", 0, &out->scale)) return false;
  std::size_t at = 0;
  while ((at = json.find("\"name\":", at)) != std::string::npos) {
    std::size_t q0 = json.find('"', at + 7);
    std::size_t q1 = json.find('"', q0 + 1);
    if (q0 == std::string::npos || q1 == std::string::npos) break;
    std::string name = json.substr(q0 + 1, q1 - q0 - 1);
    std::uint64_t rows = 0;
    if (!ExtractUint(json, "rows_visited", q1, &rows)) break;
    out->rows.emplace_back(name, rows);
    at = q1;
  }
  return !out->rows.empty();
}

// --- Output ----------------------------------------------------------------

void WriteTrajectory(FILE* out, int scale,
                     const std::vector<ScenarioResult>& results) {
  std::fprintf(out, "{\n  \"schema_version\": %d,\n  \"pr\": %d,\n"
                    "  \"scale\": %d,\n  \"scenarios\": [\n",
               kSchemaVersion, kPr, scale);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"ops\": %" PRIu64
                 ", \"rows_visited\": %" PRIu64 "%s%s}%s\n",
                 r.name.c_str(), r.ops, r.rows_visited,
                 r.extra_json.empty() ? "" : ", ", r.extra_json.c_str(),
                 i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
}

/// Times the join chain with metrics enabled vs. disabled and fails past
/// 5% slowdown. One sample runs the pipeline often enough to last about
/// `kSampleNs`, so timer and scheduler jitter average out inside it.
/// Enabled and disabled samples alternate in `kPairs` pairs, each pair
/// with the other side first, and the gate reads the median of the
/// per-pair ratios: a drift in machine speed or a stall on one side moves
/// it little.
int OverheadCheck(int scale) {
  constexpr std::uint64_t kSampleNs = 25'000'000;
  constexpr int kPairs = 21;
  auto world = seed::bench::BuildSkewedChain(scale * 5);
  Planner planner(world.db.get());
  auto time_runs = [&](bool on, std::uint64_t runs) -> std::uint64_t {
    seed::obs::SetMetricsEnabled(on);
    std::uint64_t t0 = seed::obs::NowNanos();
    for (std::uint64_t i = 0; i < runs; ++i) {
      auto r = planner.JoinPipeline(world.inputs, world.hops);
      if (!r.ok()) Die("JoinPipeline", r.status());
    }
    return std::max<std::uint64_t>(seed::obs::NowNanos() - t0, 1);
  };
  // Warm up both variants; the warm disabled run sizes a sample.
  (void)time_runs(true, 1);
  const std::uint64_t one_run = time_runs(false, 1);
  const std::uint64_t runs = std::max<std::uint64_t>(1, kSampleNs / one_run);
  std::vector<double> ratios;
  std::uint64_t enabled = 0;
  std::uint64_t disabled = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    const bool enabled_first = pair % 2 == 0;
    const std::uint64_t first = time_runs(enabled_first, runs);
    const std::uint64_t second = time_runs(!enabled_first, runs);
    const std::uint64_t on = enabled_first ? first : second;
    const std::uint64_t off = enabled_first ? second : first;
    enabled += on;
    disabled += off;
    ratios.push_back(static_cast<double>(on) / static_cast<double>(off));
  }
  seed::obs::SetMetricsEnabled(true);
  std::sort(ratios.begin(), ratios.end());
  const double overhead = ratios[ratios.size() / 2] - 1.0;
  const double per_run = static_cast<double>(kPairs * runs) * 1e6;
  std::printf("metrics overhead: %d pairs of %" PRIu64 " runs, enabled "
              "%.3fms, disabled %.3fms per run, median pair %+.1f%% "
              "(pairs %+.1f%% .. %+.1f%%)\n",
              kPairs, runs, static_cast<double>(enabled) / per_run,
              static_cast<double>(disabled) / per_run, overhead * 100.0,
              (ratios.front() - 1.0) * 100.0, (ratios.back() - 1.0) * 100.0);
  if (overhead > 0.05) {
    std::fprintf(stderr, "FAIL: metrics overhead %.1f%% exceeds the 5%% "
                         "budget\n",
                 overhead * 100.0);
    return 1;
  }
  std::printf("OK: metrics overhead within the 5%% budget\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int scale = 1000;
  std::string out_path;
  std::string metrics_out;
  std::string check_path;
  bool overhead_check = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--scale=")) {
      scale = std::atoi(v);
    } else if (const char* out_v = value("--out=")) {
      out_path = out_v;
    } else if (const char* metrics_v = value("--metrics-out=")) {
      metrics_out = metrics_v;
    } else if (const char* check_v = value("--check=")) {
      check_path = check_v;
    } else if (arg == "--overhead-check") {
      overhead_check = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_trajectory [--scale=N] [--out=FILE] "
                   "[--metrics-out=FILE] [--check=BASELINE.json] "
                   "[--overhead-check]\n");
      return 1;
    }
  }
  if (scale < 100) scale = 100;

  Baseline baseline;
  if (!check_path.empty()) {
    if (!LoadBaseline(check_path, &baseline)) {
      std::fprintf(stderr, "bench_trajectory: cannot read baseline %s\n",
                   check_path.c_str());
      return 1;
    }
    // Rows visited only compare like-for-like at the same workload size.
    scale = static_cast<int>(baseline.scale);
    std::fprintf(stderr, "checking against %s (scale %d)\n",
                 check_path.c_str(), scale);
  }

  std::fprintf(stderr, "trajectory at scale %d:\n", scale);
  std::vector<ScenarioResult> results;
  results.push_back(
      RunScenario("bulk_load", [&] { return BulkLoad(scale); }));
  results.push_back(
      RunScenario("mutate_query_mix", [&] { return MutateQueryMix(scale); }));
  results.push_back(
      RunScenario("reclassify_storm", [&] { return ReclassifyStorm(scale); }));
  results.push_back(
      RunScenario("version_restore", [&] { return VersionRestore(scale); }));
  results.push_back(RunScenario("multiuser_checkout_checkin", [&] {
    return MultiuserCheckoutCheckin(scale);
  }));
  results.push_back(RunScenario("multiuser_concurrent", MultiuserConcurrent));
  results.push_back(
      RunScenario("join_chain_5hop", [&] { return JoinChain5Hop(scale); }));
  std::string cache_extra;
  results.push_back(RunScenario("plan_cache_hot_loop", [&] {
    return PlanCacheHotLoop(scale, &cache_extra);
  }));
  results.back().extra_json = cache_extra;
  results.push_back(RunScenario("parallel_join_skewed", [&] {
    return ParallelJoinSkewed(scale);
  }));

  FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_trajectory: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
  }
  WriteTrajectory(out, scale, results);
  if (out != stdout) std::fclose(out);

  if (!metrics_out.empty()) {
    std::ofstream m(metrics_out);
    if (!m) {
      std::fprintf(stderr, "bench_trajectory: cannot write %s\n",
                   metrics_out.c_str());
      return 1;
    }
    m << seed::obs::MetricsRegistry::Global().ToJson() << "\n";
  }

  int exit_code = 0;
  if (!check_path.empty()) {
    for (const auto& [name, base_rows] : baseline.rows) {
      if (base_rows == 0) continue;
      for (const ScenarioResult& r : results) {
        if (r.name != name) continue;
        double ratio = static_cast<double>(r.rows_visited) /
                       static_cast<double>(base_rows);
        std::printf("%s: %" PRIu64 " rows visited vs. baseline %" PRIu64
                    " (%.2fx)\n",
                    name.c_str(), r.rows_visited, base_rows, ratio);
        if (ratio > 2.0) {
          std::fprintf(stderr, "FAIL: %s visits %.2fx the baseline's rows "
                               "(gate: 2x)\n",
                       name.c_str(), ratio);
          exit_code = 1;
        }
      }
    }
    if (exit_code == 0) {
      std::printf("OK: every scenario within 2x of the baseline's rows "
                  "visited\n");
    }
  }
  if (overhead_check && exit_code == 0) exit_code = OverheadCheck(scale);
  return exit_code;
}
