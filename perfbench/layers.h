// The traced run's per-layer numbers. Every workload fills the parts of
// LayerStats its layers produce and leaves the rest empty; Emit reports
// the full, fixed list, so a layer a workload never reaches reads 0 there
// (the prediction for such a layer is "no change").

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "bench.h"

namespace perfbench {

struct LayerStats {
  // query, index, exec
  QueryPhases phases;
  std::uint64_t pages = 0;
  Samples first_query;  // first query on a database nobody queried yet
  // spades, core, index
  Samples spades_nav;
  Samples core_edit;
  std::uint64_t edits = 0;
  /// Index refreshes counted around single-threaded edit bursts only.
  std::uint64_t edit_refreshes = 0;
  Samples core_save;
  std::uint64_t saves = 0;
  Samples core_load;
  // storage
  Samples storage_checkpoint;
  std::uint64_t encoded_changed_bytes = 0;
  double bytes_per_live_item = 0;
  // version
  Samples version_create;
  double stored_bytes_per_version = 0;
  Samples version_select;
  // multiuser
  Samples checkout;
  Samples view;
  std::uint64_t commits = 0;
  double checkin_growth = 0;
  // O(database) probes run on the workload's database after the loop
  Samples rebuild;
  Samples audit;
  Samples capture;
  // the traced run's own end-to-end numbers (tracing overhead)
  double op_p50_ms = 0;
  double ops_per_s = 0;
  std::uint64_t ops = 0;

  /// Registry counter deltas, summed over the timed segments.
  CounterSnapshot counted;
  std::vector<const Tracer*> tracers;
};

/// Times RebuildIndexes, AuditConsistency and Snapshot::Capture on `db`
/// (three rounds each) into `stats`. Returns false if the audit is not
/// clean.
bool ProbeDatabase(seed::core::Database* db, LayerStats* stats);

/// Appends every per-layer metric to `result` and writes the spans to
/// <work_dir>/spans-<workload>-<seed>.csv.
void FinishTraced(const Options& options, const LayerStats& stats,
                  RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
