// Shared pieces of the SEED benchmark program: run options, latency
// samples, the outside-in span tracer, the result record, and the
// correctness helpers the workloads' oracles use.
//
// The program reaches the engine only through its public headers. Spans
// are recorded by the benchmark around its own calls into each layer;
// nothing inside the engine is instrumented for the benchmark.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/database.h"
#include "query/parser.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for on-disk stores and the span file.
  std::string work_dir;
  /// Deliberate defect injected to prove an oracle fires (tests only).
  std::string fault;
};

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Latency samples in nanoseconds.
class Samples {
 public:
  void Add(std::uint64_t ns) { ns_.push_back(ns); }
  std::size_t size() const { return ns_.size(); }
  /// Linear-interpolated quantile in milliseconds (0 when empty).
  double QuantileMs(double q) const;
  double MeanMs() const;
  double TotalMs() const {
    return MeanMs() * static_cast<double>(ns_.size());
  }
  void Append(const Samples& other) {
    ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
  }

 private:
  std::vector<std::uint64_t> ns_;
};

// --- Tracing ---------------------------------------------------------------

/// One span: a benchmark call into a layer's public function.
struct SpanRecord {
  const char* layer;
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int32_t parent;  // index in the same tracer, -1 for an op's root
  std::uint32_t op;     // id of the user-visible operation it belongs to
};

/// Per-thread span buffer. Spans stay in memory and are written once,
/// when the run ends.
class Tracer {
 public:
  explicit Tracer(int thread) : thread_(thread) { spans_.reserve(1 << 16); }
  int thread() const { return thread_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  friend class Span;
  int thread_;
  std::vector<SpanRecord> spans_;
  std::int32_t open_ = -1;
  std::uint32_t next_op_ = 0;
  std::uint32_t op_ = 0;
};

/// RAII span; inert when the tracer is null (untraced runs). A span
/// opened with no enclosing span starts a new operation id.
class Span {
 public:
  Span(Tracer* tracer, const char* layer, const char* name);
  ~Span() { End(); }
  /// Closes the span early; later calls do nothing.
  void End();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_ = -1;
};

/// Per-layer self time (span time minus child spans), summed over
/// `tracers`, in nanoseconds.
std::map<std::string, std::uint64_t> SelfTimeByLayer(
    const std::vector<const Tracer*>& tracers);

/// Writes every span as CSV (thread, op, span, parent, layer, name,
/// start_ns, end_ns).
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

// --- Results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-state checks (steady size, final audit) that are not per-op.
  bool end_checks_ok = true;
  std::vector<Metric> metrics;
  /// Run environment printed next to the numbers.
  std::map<std::string, std::string> env;
  /// First oracle failures, for stderr.
  std::vector<std::string> failures;

  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  /// Records an end-state check.
  void CheckEnd(bool ok, const std::string& what) {
    if (ok) return;
    end_checks_ok = false;
    failures.push_back(what);
  }
  void Put(const std::string& name, double value, const char* unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

/// Puts the end-to-end metrics every workload reports: the median setup,
/// peak RSS, the p50 and p90 of the workload's main operation, its
/// throughput, and the p50 of its second operation.
void PutEndToEnd(RunResult* result, const std::vector<double>& setup_s,
                 const Samples& op, const Samples& aux, double ops_per_s);

// --- Engine-facing helpers -------------------------------------------------

/// Item count plus an FNV-1a hash over the encoded raw items (tombstones
/// included), in id order: equal fingerprints mean byte-identical state.
struct Fingerprint {
  std::size_t objects = 0;
  std::size_t relationships = 0;
  std::uint64_t hash = 0;
  bool operator==(const Fingerprint&) const = default;
};
Fingerprint FingerprintOf(const seed::core::Database& db);

/// Live object + relationship count.
inline std::size_t LiveItems(const seed::core::Database& db) {
  return db.num_live_objects() + db.num_live_relationships();
}

/// Sorted full names of `ids` in `db`.
std::vector<std::string> NamesOf(const seed::core::Database& db,
                                 const std::vector<seed::ObjectId>& ids);

/// Current value of a registry counter (0 if never registered).
std::uint64_t CounterValue(const char* name);

/// Values of the registry counters the per-layer metrics use.
struct CounterSnapshot {
  std::map<std::string, std::uint64_t> values;
  static CounterSnapshot Take();
  /// Adds `after - before` of every counter to this one.
  void AddDelta(const CounterSnapshot& before, const CounterSnapshot& after);
  std::uint64_t Get(const std::string& name) const;
};

/// Accumulated QueryTrace phase times.
struct QueryPhases {
  std::uint64_t queries = 0;
  std::uint64_t ns[4] = {0, 0, 0, 0};
  std::uint64_t result_rows = 0;
  void Add(const seed::query::QueryTrace& trace, std::size_t rows);
  void Merge(const QueryPhases& other);
};

/// Peak resident set size of this process, MiB.
double PeakRssMiB();

/// Median of a small vector of doubles.
double Median(std::vector<double> v);

/// Ratio that reads 0 instead of NaN when the base is 0.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
