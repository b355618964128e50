// spec_query: one tool user opens pages of an in-memory spec, closed loop.
//
// An action page is the fixed batch of retrievals the SPADES tool shows
// for one action; a data page the batch for one data item. The query,
// index and exec layers do almost all the work, with a warm plan cache;
// storage, version and multiuser do none. A planner or index change must
// show here, and a check-in change must not.

#include <string>
#include <vector>

#include "common/random.h"
#include "layers.h"
#include "pages.h"
#include "spec.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kActions = 2000;
constexpr int kSetups = 11;
// Page pairs opened untimed after each set-up, so that every query shape
// is in the plan cache before the clock starts.
constexpr int kWarmupPages = 20;

struct Pager {
  Spec* spec;
  Tracer* tracer;  // null during warm-up and in untraced runs
  LayerStats* stats;

  template <typename Fn>
  auto Spades(const char* name, Fn&& fn) {
    Span span(tracer, "spades", name);
    std::uint64_t t0 = NowNs();
    auto result = fn();
    if (tracer != nullptr) stats->spades_nav.Add(NowNs() - t0);
    return result;
  }

  /// Opens the page of action `k`; returns false if an answer is wrong.
  /// `probe` shifts the reads join to another action (fault injection).
  bool ActionPage(std::size_t k, std::size_t probe, Samples* samples) {
    const seed::core::Database& db = *spec->db();
    const std::string name = ActionName(k);
    std::uint64_t t0 = NowNs();
    Span page(tracer, "bench", "action_page");
    ActionPageAnswers q =
        QueryActionPage(db, name, DescriptionText(k, 0), ActionName(probe),
                        tracer, &stats->phases);
    auto tool_reads =
        Spades("DataReadBy", [&] { return spec->tool->DataReadBy(name); });
    auto tool_desc = Spades("GetDescription",
                            [&] { return spec->tool->GetDescription(name); });
    page.End();
    samples->Add(NowNs() - t0);

    if (!q.ok() || !tool_reads.ok() || !tool_desc.ok()) return false;
    auto id = db.FindObjectByName(name);
    if (!id.ok() || *q.by_name != std::vector<seed::ObjectId>{*id} ||
        *q.by_description != *q.by_name ||
        *tool_desc != DescriptionText(k, 0)) {
      return false;
    }
    // Oracle: the textual join answers what the spades tool answers.
    std::vector<seed::ObjectId> read_data;
    for (const auto& [d, a] : *q.reads) read_data.push_back(d);
    if (NamesOf(db, read_data) != *tool_reads) return false;
    // Parent of action a is (a - 1) / 2; a grandparent exists from a = 3.
    const auto& tuples = q.chain->tuples;
    if (k < 3) return tuples.empty();
    std::size_t p = (k - 1) / 2;
    std::size_t g = (p - 1) / 2;
    return tuples.size() == 1 && db.FullName(tuples[0][1]) == ActionName(p) &&
           db.FullName(tuples[0][2]) == ActionName(g);
  }

  /// Opens the page of (even, hence input) data item `j`. `probe` shifts
  /// the readers join to another data item (fault injection).
  bool DataPage(std::size_t j, std::size_t probe, Samples* samples) {
    using seed::query::QueryTrace;
    const seed::core::Database& db = *spec->db();
    const std::string name = DataName(j);
    QueryPhases* phases = &stats->phases;
    std::uint64_t t0 = NowNs();
    Span page(tracer, "bench", "data_page");
    auto by_name = TracedQuery(tracer, phases, "by_name", [&](QueryTrace* t) {
      return seed::query::RunQuery(db, "find InputData where name is " + name,
                                   nullptr, t);
    });
    auto readers =
        TracedQuery(tracer, phases, "readers_join", [&](QueryTrace* t) {
          return seed::query::RunJoinQuery(
              db,
              "find Action a join via Read to InputData d where d name is " +
                  DataName(probe),
              nullptr, t);
        });
    auto chain =
        TracedQuery(tracer, phases, "reader_parents", [&](QueryTrace* t) {
          return seed::query::RunJoinChainQuery(
              db,
              "find InputData d join via Read to Action a join via "
              "Contained to Action p where d name is " +
                  name,
              nullptr, t);
        });
    auto accessing = Spades("ActionsAccessing", [&] {
      return spec->tool->ActionsAccessing(name);
    });
    page.End();
    samples->Add(NowNs() - t0);

    if (!by_name.ok() || !readers.ok() || !chain.ok() || !accessing.ok()) {
      return false;
    }
    auto id = db.FindObjectByName(name);
    if (!id.ok() || *by_name != std::vector<seed::ObjectId>{*id}) {
      return false;
    }
    std::vector<seed::ObjectId> reading;
    for (const auto& [a, d] : *readers) reading.push_back(a);
    if (NamesOf(db, reading) != *accessing) return false;
    std::size_t with_parent = 0;
    for (const std::string& a : *accessing) {
      if (IndexOfName(a) != 0) ++with_parent;
    }
    return chain->tuples.size() == with_parent;
  }
};

}  // namespace

RunResult RunSpecQuery(const Options& opt) {
  RunResult r;
  LayerStats ls;
  Tracer tracer(0);
  Tracer* tr = opt.trace ? &tracer : nullptr;
  r.env["spec_actions"] = std::to_string(kActions);
  r.env["setups_per_run"] = std::to_string(kSetups);

  seed::Random rng(opt.seed);
  Samples action_pages, data_pages;
  std::vector<double> setup_s;
  // The run is kSetups sessions of equal length, each opening the
  // project afresh, so the set-ups are spread over the run like the pages.
  for (int session = 0; session < kSetups; ++session) {
    Spec spec;
    std::uint64_t t0 = NowNs();
    seed::Status st = GenerateSpec(kActions, opt.seed, &spec);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    ++r.attempted;
    if (!st.ok()) {
      r.Fail("setup: " + st.ToString());
      return r;
    }
    // The first query on a database nobody has queried yet (cold plan
    // cache, lazy statistics).
    std::uint64_t q0 = NowNs();
    auto first = seed::query::RunQuery(*spec.db(),
                                       "find Action where name is Action_1");
    ls.first_query.Add(NowNs() - q0);
    if (!first.ok() || first->size() != 1) r.Fail("first query");
    const std::size_t live_at_start = LiveItems(*spec.db());

    Pager pager{&spec, nullptr, &ls};
    Samples scratch;
    for (int i = 0; i < kWarmupPages; ++i) {
      std::size_t k = rng.Uniform(kActions);
      std::size_t j = 2 * rng.Uniform(kActions / 2);
      if (!pager.ActionPage(k, k, &scratch)) r.Fail("warmup action page");
      if (!pager.DataPage(j, j, &scratch)) r.Fail("warmup data page");
    }

    pager.tracer = tr;
    const CounterSnapshot before = CounterSnapshot::Take();
    const std::uint64_t deadline =
        NowNs() + static_cast<std::uint64_t>(opt.seconds / kSetups * 1e9);
    while (NowNs() < deadline) {
      const bool first_page = action_pages.size() == 0;
      std::size_t k = rng.Uniform(kActions);
      std::size_t probe =
          opt.fault == "join-other-action" && first_page ? (k + 1) % kActions
                                                         : k;
      r.attempted += 2;
      if (!pager.ActionPage(k, probe, &action_pages)) {
        r.Fail("action page " + ActionName(k));
      }
      std::size_t j = 2 * rng.Uniform(kActions / 2);
      std::size_t other =
          opt.fault == "join-other-data" && first_page ? (j + 2) % kActions : j;
      if (!pager.DataPage(j, other, &data_pages)) {
        r.Fail("data page " + DataName(j));
      }
    }
    ls.counted.AddDelta(before, CounterSnapshot::Take());

    r.CheckEnd(LiveItems(*spec.db()) == live_at_start,
               "live item count changed");
    if (opt.trace && session == kSetups - 1) {
      r.CheckEnd(ProbeDatabase(spec.db(), &ls),
                 "audit after the loop is not clean");
    }
  }

  const double pages_per_s =
      Ratio(static_cast<double>(action_pages.size() + data_pages.size()),
            (action_pages.TotalMs() + data_pages.TotalMs()) / 1e3);
  if (!opt.trace) {
    PutEndToEnd(&r, setup_s, action_pages, data_pages, pages_per_s);
    return r;
  }
  ls.pages = action_pages.size() + data_pages.size();
  ls.ops = ls.pages;
  ls.op_p50_ms = action_pages.QuantileMs(0.5);
  ls.ops_per_s = pages_per_s;
  ls.tracers = {&tracer};
  FinishTraced(opt, ls, &r);
  return r;
}

}  // namespace perfbench
