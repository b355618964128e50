// Concurrency test for the process-global PlanCache: the multiuser
// server plans textual queries from many reader sessions at once, so
// Lookup / Insert / Invalidate / Clear and the planner's full hit path
// must be safe under real contention. Runs under the `parallel` ctest
// label, which the TSan CI job selects — the assertions here pin
// results-correctness, the sanitizer pins the memory model.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "query/parser.h"
#include "query/plan_cache.h"
#include "schema/schema_builder.h"

namespace seed::query {
namespace {

using core::Database;
using core::Value;

TEST(PlanCacheConcurrencyTest, ConcurrentQueriesAndInvalidations) {
  schema::SchemaBuilder b("ConcurrentCacheWorld");
  ClassId item = b.AddIndependentClass("Item", schema::ValueType::kInt);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto db = std::make_unique<Database>(*schema);
  ASSERT_TRUE(db->CreateAttributeIndex({item, ""}).ok());
  std::vector<std::vector<ObjectId>> by_value(10);
  for (int i = 0; i < 200; ++i) {
    ObjectId id = *db->CreateObject(item, "I" + std::to_string(i));
    ASSERT_TRUE(db->SetValue(id, Value::Int(i % 10)).ok());
    by_value[static_cast<size_t>(i % 10)].push_back(id);
  }
  PlanCache::Global().Clear();

  constexpr int kReaders = 6;
  constexpr int kItersPerReader = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  // Readers hammer the same handful of query shapes: every iteration is
  // a lookup, and most are hits re-binding a different literal.
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerReader; ++i) {
        int v = (t + i) % 10;
        auto r = RunQuery(*db,
                          "find Item where value is " + std::to_string(v));
        if (!r.ok() || *r != by_value[static_cast<size_t>(v)]) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  // One antagonist inserts, invalidates, clears and looks up while the
  // readers run — every cache mutation a server session can make.
  threads.emplace_back([&] {
    PlanCache& cache = PlanCache::Global();
    for (int i = 0; i < 300; ++i) {
      switch (i % 4) {
        case 0:
          cache.Insert("antagonist-" + std::to_string(i), CachedPlan{});
          break;
        case 1:
          cache.Invalidate("antagonist-" + std::to_string(i - 1));
          break;
        default:
          if (i % 40 == 3) {
            cache.Clear();
          } else {
            (void)cache.Lookup("antagonist-" + std::to_string(i));
          }
          break;
      }
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // The cache survived and still serves: one more warm/cold round trip.
  PlanCache::Global().Clear();
  auto cold = RunQuery(*db, "find Item where value is 4");
  ASSERT_TRUE(cold.ok());
  auto warm = RunQuery(*db, "find Item where value is 4");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(*cold, *warm);
  EXPECT_EQ(*warm, by_value[4]);
  PlanCache::Global().Clear();
}

}  // namespace
}  // namespace seed::query
