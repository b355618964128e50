// Per-query execution tracing: the ExecContext threaded through the
// query stack (parser -> logical lowering -> Planner -> Algebra) that
// accumulates per-phase wall-clock and drives EXPLAIN ANALYZE.
//
// The context is deliberately tiny and optional: a null ExecContext*
// anywhere in the stack means "no tracing", and the per-node operator
// timings it requests add two steady_clock reads per *plan node* (never
// per row). Phase timings always also feed the global MetricsRegistry
// histograms (query.phase.<phase>.ns), so the shell's `stats` and the
// bench trajectory see aggregate latency without any query opting in.

#ifndef SEED_OBS_TRACE_H_
#define SEED_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace seed::obs {

/// The phases every textual query passes through.
enum class QueryPhase : int {
  kParse = 0,     // tokenizing + grammar
  kLower = 1,     // building the logical chain
  kOptimize = 2,  // access-path planning (or plan-cache re-bind)
  kExecute = 3,   // selections, join-order DP, join tree, projection
};
inline constexpr int kNumQueryPhases = 4;

const char* QueryPhaseName(QueryPhase phase);

/// The per-query trace sink. Created by an EXPLAIN ANALYZE entry point
/// (or any caller wanting phase timings) and threaded through the stack.
///
/// Threading: phase totals are atomic, so concurrent plan-subtree tasks
/// may AddPhase into one shared context without tearing — relaxed adds
/// commute, so the totals stay exact. Per-node stamps in the plan tree
/// are not in here: each node is written only by the one task executing
/// its subtree, published at the worker pool's Await barrier. Copying a
/// context (it travels inside QueryTrace) snapshots the totals and is
/// only done after execution has quiesced.
struct ExecContext {
  /// When true, plan execution also stamps per-node wall-clock into the
  /// PhysicalPlan tree (Planner::ExecuteNode).
  bool time_nodes = true;

  std::atomic<std::uint64_t> phase_ns[kNumQueryPhases] = {};

  ExecContext() = default;
  ExecContext(const ExecContext& other) { *this = other; }
  ExecContext& operator=(const ExecContext& other) {
    time_nodes = other.time_nodes;
    for (int i = 0; i < kNumQueryPhases; ++i) {
      phase_ns[i].store(other.phase_ns[i].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    }
    return *this;
  }

  void AddPhase(QueryPhase phase, std::uint64_t ns);

  /// "parse 12.3us, lower 1.1us, optimize 45.6us, execute 1.2ms" —
  /// `mask_times` replaces every duration with "<t>" so golden tests can
  /// pin the structure without the wall-clock.
  std::string PhaseSummary(bool mask_times = false) const;
};

/// Adds `ns` to `ctx` (null ok) and the phase's registry histogram —
/// the manual form for code whose phases do not nest as scopes.
void RecordPhase(ExecContext* ctx, QueryPhase phase, std::uint64_t ns);

/// Times one phase into `ctx` (null ok) and the matching registry
/// histogram. Usage:
///   { PhaseTimer t(ctx, QueryPhase::kOptimize); ... }
class PhaseTimer {
 public:
  PhaseTimer(ExecContext* ctx, QueryPhase phase);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  ExecContext* ctx_;
  QueryPhase phase_;
  std::uint64_t start_;
};

}  // namespace seed::obs

#endif  // SEED_OBS_TRACE_H_
