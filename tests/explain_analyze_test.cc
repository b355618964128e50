// EXPLAIN ANALYZE golden tests: QueryTrace::Render(mask_times=true)
// replaces every duration with "<t>", so the goldens pin the analyzed
// plan's structure and actual row counts without flaking on wall-clock.

#include <gtest/gtest.h>

#include <string>

#include "query/parser.h"
#include "spades/spec_schema.h"

namespace seed::query {
namespace {

using core::Database;
using core::Value;
using spades::BuildFig3Schema;

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fig3 = BuildFig3Schema();
    ASSERT_TRUE(fig3.ok());
    ids_ = fig3->ids;
    db_ = std::make_unique<Database>(fig3->schema);

    alarms_ = *db_->CreateObject(ids_.output_data, "Alarms");
    process_ = *db_->CreateObject(ids_.input_data, "ProcessData");
    sensor_ = *db_->CreateObject(ids_.action, "Sensor");
    logger_ = *db_->CreateObject(ids_.action, "Logger");
    ASSERT_TRUE(db_->CreateRelationship(ids_.access, alarms_, sensor_).ok());
    ASSERT_TRUE(
        db_->CreateRelationship(ids_.access, process_, logger_).ok());
    ASSERT_TRUE(
        db_->CreateRelationship(ids_.contained, sensor_, logger_).ok());
  }

  spades::Fig3Ids ids_;
  std::unique_ptr<Database> db_;
  ObjectId alarms_, process_, sensor_, logger_;
};

TEST_F(ExplainAnalyzeTest, SingleBinderGolden) {
  QueryTrace trace;
  auto r = RunQuery(*db_, "find Data where name contains Alarm", nullptr,
                    &trace);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(trace.Render(/*mask_times=*/true),
            "scan, est ~2 rows, actual 1, t=<t>; "
            "phases: parse <t>, lower <t>, optimize <t>, execute <t>");
}

TEST_F(ExplainAnalyzeTest, JoinChainGolden) {
  QueryTrace trace;
  auto r = RunJoinChainQuery(*db_,
                             "find Data d join via Access to Action a "
                             "join via Contained to Action c",
                             nullptr, &trace);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->tuples.size(), 1u);  // Alarms -- Sensor -- Logger
  // The DP picks the right-deep tree: the selective Contained hop joins
  // first, then Access reduces against its one-row result.
  EXPECT_EQ(
      trace.Render(/*mask_times=*/true),
      "d: scan, est ~2 rows, actual 2, t=<t>; "
      "a: scan, est ~2 rows, actual 2, t=<t>; "
      "c: scan, est ~2 rows, actual 2, t=<t>; "
      "(hop1: d[2] * (hop2: a[2] * c[2] | join-hash(build=right), forward, "
      "2 x 2 inputs, est ~1 rows (assoc ~1), actual 1, in 2+2, t=<t>) | "
      "join-hash(build=right), forward, 2 x 1 inputs, est ~1 rows "
      "(assoc ~2), actual 1, in 2+1, t=<t>); "
      "phases: parse <t>, lower <t>, optimize <t>, execute <t>");
}

TEST_F(ExplainAnalyzeTest, NameAnchoredChainGolden) {
  // `name is` resolves through the name index with an exact estimate,
  // and the hop is driven from its one-row side. On the fixture's two
  // actions a scan is cheaper than the probe, so add a few.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        db_->CreateObject(ids_.action, "Spare" + std::to_string(i)).ok());
  }
  std::string plan;
  ASSERT_TRUE(RunQuery(*db_, "find Action where name is Sensor", &plan).ok());
  EXPECT_EQ(plan, "name-equals, est ~1 of 6 rows; actual 1");
  QueryTrace trace;
  auto r = RunJoinChainQuery(*db_,
                             "find Action c join via Contained to Action p "
                             "where c name is Sensor",
                             nullptr, &trace);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->tuples.size(), 1u);  // Sensor -- Logger
  EXPECT_EQ(trace.Render(/*mask_times=*/true),
            "c: name-equals, est ~1 of 6 rows, actual 1, t=<t>; "
            "p: scan, est ~6 rows, actual 6, t=<t>; "
            "(hop1: c[1] * p[6] | join-hash(build=left), forward, 1 x 6 "
            "inputs, est ~0 rows (assoc ~1), actual 1, in 1+6, t=<t>); "
            "phases: parse <t>, lower <t>, optimize <t>, execute <t>");
}

TEST_F(ExplainAnalyzeTest, UnmaskedRenderCarriesRealTimings) {
  QueryTrace trace;
  auto r = RunQuery(*db_, "find Action", nullptr, &trace);
  ASSERT_TRUE(r.ok());
  std::string rendered = trace.Render(/*mask_times=*/false);
  EXPECT_EQ(rendered.find("<t>"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("t="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("phases: parse "), std::string::npos) << rendered;
  // Four phases were timed.
  for (int p = 0; p < obs::kNumQueryPhases; ++p) {
    EXPECT_GT(trace.ctx.phase_ns[p], 0u) << obs::QueryPhaseName(
        static_cast<obs::QueryPhase>(p));
  }
}

TEST_F(ExplainAnalyzeTest, TracingLeavesExplainOutputUnchanged) {
  std::string plain_plan;
  auto r1 = RunQuery(*db_, "find Data", &plain_plan);
  ASSERT_TRUE(r1.ok());
  std::string traced_plan;
  QueryTrace trace;
  auto r2 = RunQuery(*db_, "find Data", &traced_plan, &trace);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
  // The EXPLAIN golden surface (plan_out) is identical with tracing on.
  EXPECT_EQ(plain_plan, traced_plan);
}

}  // namespace
}  // namespace seed::query
