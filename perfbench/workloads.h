// The three closed-loop workloads. Each returns the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) of one run.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

/// One tool user opening action and data pages on an in-memory spec.
RunResult RunSpecQuery(const Options& options);

/// One tool user editing and saving to an on-disk store, with milestone
/// versions, version restores and reopens.
RunResult RunSpecEdit(const Options& options);

/// Two team members checking out, editing and checking in against one
/// shared server, then reading their own commit back.
RunResult RunTeamCheckin(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
