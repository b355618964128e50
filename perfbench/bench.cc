#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/item_codec.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

double QuantileOf(std::vector<std::uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  double ns = static_cast<double>(v[lo]) * (1 - frac) +
              static_cast<double>(v[hi]) * frac;
  return ns / 1e6;
}

}  // namespace

double Samples::QuantileMs(double q) const {
  return ns_.empty() ? 0 : QuantileOf(ns_, q);
}

double Samples::MeanMs() const {
  if (ns_.empty()) return 0;
  double sum = 0;
  for (std::uint64_t ns : ns_) sum += static_cast<double>(ns);
  return sum / static_cast<double>(ns_.size()) / 1e6;
}

// --- Tracing ---------------------------------------------------------------

Span::Span(Tracer* tracer, const char* layer, const char* name)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  if (tracer_->open_ < 0) tracer_->op_ = tracer_->next_op_++;
  index_ = static_cast<std::int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(
      SpanRecord{layer, name, NowNs(), 0, tracer_->open_, tracer_->op_});
  tracer_->open_ = index_;
}

void Span::End() {
  if (tracer_ == nullptr) return;
  SpanRecord& rec = tracer_->spans_[static_cast<std::size_t>(index_)];
  rec.end_ns = NowNs();
  tracer_->open_ = rec.parent;
  tracer_ = nullptr;
}

std::map<std::string, std::uint64_t> SelfTimeByLayer(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, std::uint64_t> self;
  for (const Tracer* t : tracers) {
    const std::vector<SpanRecord>& spans = t->spans();
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::uint64_t total = spans[i].end_ns - spans[i].start_ns;
      self[spans[i].layer] += total - std::min(total, child_ns[i]);
    }
  }
  return self;
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread,op,span,parent,layer,name,start_ns,end_ns\n";
  for (const Tracer* t : tracers) {
    const std::vector<SpanRecord>& spans = t->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      out << t->thread() << ',' << s.op << ',' << i << ',' << s.parent << ','
          << s.layer << ',' << s.name << ',' << s.start_ns << ',' << s.end_ns
          << '\n';
    }
  }
  return static_cast<bool>(out);
}

// --- Engine-facing helpers -------------------------------------------------

namespace {

void Mix(std::uint64_t* h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    *h ^= c;
    *h *= 0x100000001B3ull;
  }
}

}  // namespace

Fingerprint FingerprintOf(const seed::core::Database& db) {
  Fingerprint fp;
  fp.hash = 0xCBF29CE484222325ull;
  for (const auto& [id, obj] : db.objects_raw()) {
    Mix(&fp.hash, seed::core::ItemCodec::EncodeObjectToString(obj));
    ++fp.objects;
  }
  for (const auto& [id, rel] : db.relationships_raw()) {
    Mix(&fp.hash, seed::core::ItemCodec::EncodeRelationshipToString(rel));
    ++fp.relationships;
  }
  return fp;
}

std::vector<std::string> NamesOf(const seed::core::Database& db,
                                 const std::vector<seed::ObjectId>& ids) {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (seed::ObjectId id : ids) out.push_back(db.FullName(id));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::uint64_t CounterValue(const char* name) {
  const seed::obs::Counter* c =
      seed::obs::MetricsRegistry::Global().FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

namespace {

const char* const kCounters[] = {
    "query.rows.visited.total",
    "query.queries.total",
    "query.plans.scan.total",
    "query.plans.index.total",
    "index.probes.total",
    "index.refreshes.total",
    "planner.cache.hits.total",
    "planner.cache.misses.total",
    "planner.adaptive.replans.total",
    "stats.histogram.builds.total",
    "storage.wal.appended.bytes",
    "storage.bufferpool.hits.total",
    "storage.bufferpool.misses.total",
    "storage.bufferpool.evictions.total",
    "multiuser.lock_conflicts.total",
    "server.snapshot.publishes.total",
};

}  // namespace

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot snap;
  for (const char* name : kCounters) snap.values[name] = CounterValue(name);
  return snap;
}

void CounterSnapshot::AddDelta(const CounterSnapshot& before,
                               const CounterSnapshot& after) {
  for (const auto& [name, value] : after.values) {
    values[name] += value - before.Get(name);
  }
}

std::uint64_t CounterSnapshot::Get(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

void QueryPhases::Add(const seed::query::QueryTrace& trace, std::size_t rows) {
  ++queries;
  for (int i = 0; i < 4; ++i) {
    ns[i] += trace.ctx.phase_ns[i].load(std::memory_order_relaxed);
  }
  result_rows += rows;
}

void QueryPhases::Merge(const QueryPhases& other) {
  queries += other.queries;
  for (int i = 0; i < 4; ++i) ns[i] += other.ns[i];
  result_rows += other.result_rows;
}

double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void PutEndToEnd(RunResult* r, const std::vector<double>& setup_s,
                 const Samples& op, const Samples& aux, double ops_per_s) {
  r->Put("setup_s", Median(setup_s), "s");
  r->Put("peak_rss_mb", PeakRssMiB(), "MiB");
  r->Put("op_p50_ms", op.QuantileMs(0.5), "ms");
  r->Put("op_p90_ms", op.QuantileMs(0.9), "ms");
  r->Put("ops_per_s", ops_per_s, "1/s");
  r->Put("aux_p50_ms", aux.QuantileMs(0.5), "ms");
  std::string setups;
  for (double s : setup_s) {
    setups += (setups.empty() ? "" : " ") + std::to_string(s);
  }
  r->env["setup_s_each"] = setups;
  r->env["op_samples"] = std::to_string(op.size());
  r->env["aux_samples"] = std::to_string(aux.size());
}

}  // namespace perfbench
