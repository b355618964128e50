#include "layers.h"

#include <map>
#include <string>

#include "version/snapshot.h"

namespace perfbench {

bool ProbeDatabase(seed::core::Database* db, LayerStats* stats) {
  bool clean = true;
  for (int round = 0; round < 3; ++round) {
    std::uint64_t t0 = NowNs();
    db->RebuildIndexes();
    std::uint64_t t1 = NowNs();
    clean = db->AuditConsistency().clean() && clean;
    std::uint64_t t2 = NowNs();
    seed::version::SnapshotPtr snap = seed::version::Snapshot::Capture(*db, 0);
    std::uint64_t t3 = NowNs();
    stats->rebuild.Add(t1 - t0);
    stats->audit.Add(t2 - t1);
    stats->capture.Add(t3 - t2);
  }
  return clean;
}

void FinishTraced(const Options& opt, const LayerStats& s, RunResult* r) {
  const std::string spans = opt.work_dir + "/spans-" + opt.workload + "-" +
                            std::to_string(opt.seed) + ".csv";
  r->CheckEnd(WriteSpans(spans, s.tracers), "cannot write " + spans);
  r->env["spans_file"] = spans;
  auto delta = [&s](const char* name) {
    return static_cast<double>(s.counted.Get(name));
  };
  auto per_query_us = [&s](int phase) {
    return Ratio(static_cast<double>(s.phases.ns[phase]),
                 static_cast<double>(s.phases.queries)) /
           1e3;
  };
  const double pages = static_cast<double>(s.pages);
  const double saves = static_cast<double>(s.saves);
  const double commits = static_cast<double>(s.commits);

  // query (parser, planner, plan cache, algebra, stats), index, exec
  r->Put("query.parse_us", per_query_us(0), "us");
  r->Put("query.lower_us", per_query_us(1), "us");
  r->Put("query.optimize_us", per_query_us(2), "us");
  r->Put("query.execute_us", per_query_us(3), "us");
  r->Put("query.rows_visited_per_result",
         Ratio(delta("query.rows.visited.total"),
               static_cast<double>(s.phases.result_rows)),
         "ratio");
  double scans = delta("query.plans.scan.total");
  r->Put("query.scan_plan_share",
         Ratio(scans, scans + delta("query.plans.index.total")), "ratio");
  r->Put("index.probes_per_page", Ratio(delta("index.probes.total"), pages),
         "count");
  double hits = delta("planner.cache.hits.total");
  r->Put("planner.cache_hit_ratio",
         Ratio(hits, hits + delta("planner.cache.misses.total")), "ratio");
  r->Put("planner.replans_per_page",
         Ratio(delta("planner.adaptive.replans.total"), pages), "count");
  r->Put("stats.histogram_builds_per_page",
         Ratio(delta("stats.histogram.builds.total"), pages), "count");
  r->Put("query.first_after_publish_us", s.first_query.MeanMs() * 1e3, "us");

  // spades
  r->Put("spades.nav_us", s.spades_nav.MeanMs() * 1e3, "us");

  // core, index
  r->Put("core.edit_us", s.core_edit.MeanMs() * 1e3, "us");
  r->Put("index.refreshes_per_edit",
         Ratio(static_cast<double>(s.edit_refreshes),
               static_cast<double>(s.edits)),
         "count");
  r->Put("core.save_us", s.core_save.MeanMs() * 1e3, "us");
  r->Put("core.load_ms", s.core_load.MeanMs(), "ms");

  // storage
  r->Put("storage.checkpoint_ms", s.storage_checkpoint.MeanMs(), "ms");
  double wal = delta("storage.wal.appended.bytes");
  r->Put("storage.wal_bytes_per_save", Ratio(wal, saves), "B");
  r->Put("storage.write_amplification",
         Ratio(wal, static_cast<double>(s.encoded_changed_bytes)), "ratio");
  double pool_hits = delta("storage.bufferpool.hits.total");
  r->Put("storage.bufferpool_hit_ratio",
         Ratio(pool_hits,
               pool_hits + delta("storage.bufferpool.misses.total")),
         "ratio");
  r->Put("storage.evictions_per_save",
         Ratio(delta("storage.bufferpool.evictions.total"), saves), "count");
  r->Put("storage.bytes_per_live_item", s.bytes_per_live_item, "B");

  // version
  r->Put("version.create_us", s.version_create.MeanMs() * 1e3, "us");
  r->Put("version.stored_bytes_per_version", s.stored_bytes_per_version, "B");
  r->Put("version.select_us", s.version_select.MeanMs() * 1e3, "us");

  // multiuser
  r->Put("multiuser.checkout_us", s.checkout.MeanMs() * 1e3, "us");
  r->Put("multiuser.view_us", s.view.MeanMs() * 1e3, "us");
  r->Put("multiuser.lock_conflicts_per_commit",
         Ratio(delta("multiuser.lock_conflicts.total"), commits), "count");
  r->Put("server.publishes_per_commit",
         Ratio(delta("server.snapshot.publishes.total"), commits), "count");
  r->Put("core.rebuild_ms", s.rebuild.QuantileMs(0.5), "ms");
  r->Put("core.audit_ms", s.audit.QuantileMs(0.5), "ms");
  r->Put("version.capture_ms", s.capture.QuantileMs(0.5), "ms");
  r->Put("multiuser.checkin_growth", s.checkin_growth, "ratio");

  // Self time per user-visible operation, by layer, from the spans.
  std::map<std::string, std::uint64_t> self = SelfTimeByLayer(s.tracers);
  const double ops = static_cast<double>(s.ops);
  for (const char* layer : {"bench", "spades", "query", "core", "storage",
                            "version", "multiuser"}) {
    auto it = self.find(layer);
    double ns = it == self.end() ? 0 : static_cast<double>(it->second);
    r->Put(std::string("self.") + layer + "_us_per_op", Ratio(ns, ops) / 1e3,
           "us");
  }

  r->Put("trace.op_p50_ms", s.op_p50_ms, "ms");
  r->Put("trace.ops_per_s", s.ops_per_s, "1/s");
}

}  // namespace perfbench
