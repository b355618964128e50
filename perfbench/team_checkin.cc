// team_checkin: two team members share one multiuser::Server, each on its
// own thread, closed loop.
//
// A cycle checks out an action and a data item it reads (each member
// owns disjoint roots, so no lock ever conflicts), rewrites the action's
// description, flips that flow between Read and Access, and checks in.
// It then runs the page's textual queries on its own freshly published
// snapshot (read-your-writes). Each check-in rebuilds, audits and
// captures the whole master under the server's master mutex, so
// multiuser, version::Snapshot and the core checks dominate; every page
// runs on a brand-new database instance, so the plan cache misses and
// statistics are cold.

#include <atomic>
#include <barrier>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "layers.h"
#include "multiuser/client.h"
#include "multiuser/server.h"
#include "pages.h"
#include "spec.h"
#include "version/snapshot.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kActions = 1500;
constexpr int kSetups = 9;
constexpr int kWriters = 2;
// Untimed cycles per member after each set-up.
constexpr int kWarmupCycles = 5;
// checkin_growth compares against a master this many times smaller.
constexpr std::size_t kGrowthDivisor = 4;
constexpr double kGrowthSeconds = 2.0;

struct Team {
  Spec spec;
  std::unique_ptr<seed::multiuser::Server> server;
  /// Per writer: (action, data) pairs joined by a Read flow whose roots
  /// belong to that writer alone.
  std::vector<std::pair<std::size_t, std::size_t>> pairs[kWriters];
};

/// Generates the spec and copies it into a fresh server's master through
/// the public restore calls.
seed::Status OpenTeam(std::size_t actions, std::uint64_t seed, Team* t) {
  SEED_RETURN_IF_ERROR(GenerateSpec(actions, seed, &t->spec));
  const seed::core::Database& src = *t->spec.db();
  t->server = std::make_unique<seed::multiuser::Server>(src.schema());
  seed::core::Database* master = t->server->master();
  CopyDatabase(src, master);
  for (const auto& idx : src.attribute_indexes().indexes()) {
    SEED_RETURN_IF_ERROR(master->CreateAttributeIndex(idx->spec()));
  }
  master->ClearChangeTracking();
  t->server->PublishSnapshot();
  return seed::Status::OK();
}

seed::Status SplitPairs(Team* t) {
  auto reads = ReadFlows(&t->spec);
  if (!reads.ok()) return reads.status();
  for (const auto& [a, d] : *reads) {
    int w = static_cast<int>(a % kWriters);
    if (static_cast<int>((d / 2) % kWriters) == w) {
      t->pairs[w].emplace_back(a, d);
    }
  }
  for (const auto& p : t->pairs) {
    if (p.empty()) return seed::Status::Internal("a writer has no flows");
  }
  return seed::Status::OK();
}

struct WriterStats {
  Samples checkins;
  Samples pages;
  Samples first_query;
  Samples checkout;
  Samples view;
  Samples edits;
  QueryPhases phases;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  std::uint64_t failed = 0;

  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 4) failures.push_back(what);
  }
  void Merge(const WriterStats& other) {
    checkins.Append(other.checkins);
    pages.Append(other.pages);
    first_query.Append(other.first_query);
    checkout.Append(other.checkout);
    view.Append(other.view);
    edits.Append(other.edits);
    phases.Merge(other.phases);
    attempted += other.attempted;
    failed += other.failed;
    failures.insert(failures.end(), other.failures.begin(),
                    other.failures.end());
  }
};

struct Writer {
  Team* team;
  int index;
  std::uint64_t seed;
  Tracer* tracer;  // null during warm-up and in untraced runs
  std::string fault;
  WriterStats stats;

  /// One cycle; returns false when an operation or the oracle fails.
  bool Cycle(std::size_t a, std::size_t d, std::uint64_t rev,
             seed::multiuser::ClientSession* session, bool timed) {
    const seed::spades::Fig3Ids& ids = team->spec.ids();
    const std::string action = ActionName(a);
    const std::string text = DescriptionText(a, rev);
    seed::version::SnapshotPtr before;
    if (fault == "stale-snapshot") {
      auto v = session->View();
      if (v.ok()) before = *v;
    }

    std::uint64_t t0 = NowNs();
    {
      Span span(tracer, "multiuser", "Checkout");
      if (!session->CheckoutByName({action, DataName(d)}).ok()) return false;
    }
    std::uint64_t t1 = NowNs();
    seed::core::Database* local = session->local();
    auto aid = local->FindObjectByName(action);
    auto did = local->FindObjectByName(DataName(d));
    if (!aid.ok() || !did.ok()) return false;
    {
      Span span(tracer, "core", "SetValue");
      std::vector<seed::ObjectId> desc =
          local->SubObjects(*aid, "Description");
      if (desc.empty() ||
          !local->SetValue(desc[0], seed::core::Value::String(text)).ok()) {
        return false;
      }
    }
    std::uint64_t t1b = NowNs();
    {
      Span span(tracer, "core", "ReclassifyRelationship");
      seed::RelationshipId flow = FindFlow(*local, ids, *did, *aid);
      if (!flow.valid() || !ToggleFlow(local, ids, flow).ok()) return false;
    }
    std::uint64_t t2 = NowNs();
    {
      Span span(tracer, "multiuser", "Checkin");
      if (!session->Checkin().ok()) return false;
    }
    std::uint64_t t3 = NowNs();

    // The page, on this member's freshly published snapshot.
    Span page(tracer, "bench", "page");
    seed::version::SnapshotPtr snap;
    {
      Span span(tracer, "multiuser", "View");
      auto v = session->View();
      if (!v.ok()) return false;
      snap = before != nullptr ? before : *v;
    }
    std::uint64_t t4 = NowNs();
    ActionPageAnswers q = QueryActionPage(
        seed::version::PinDatabase(snap), action, text, action, tracer,
        &stats.phases, tracer != nullptr ? &stats.first_query : nullptr);
    page.End();
    std::uint64_t t5 = NowNs();
    if (timed) {
      stats.checkout.Add(t1 - t0);
      stats.edits.Add(t1b - t1);
      stats.edits.Add(t2 - t1b);
      stats.checkins.Add(t3 - t2);
      stats.view.Add(t4 - t3);
      stats.pages.Add(t5 - t3);
    }
    // Oracle: the page finds the description this member just wrote.
    return q.ok() && q.by_name->size() == 1 &&
           *q.by_description == *q.by_name;
  }

  /// Warms up, waits for the other member at `sync` (whose completion
  /// sets `deadline`), then cycles until the deadline.
  template <typename Barrier>
  void Run(Barrier* sync, const std::atomic<std::uint64_t>* deadline) {
    auto session = seed::multiuser::ClientSession::Open(
        team->server.get(), "member-" + std::to_string(index));
    if (!session.ok()) {
      stats.Fail("connect: " + session.status().ToString());
      sync->arrive_and_drop();
      return;
    }
    seed::Random rng(seed * 7919 + static_cast<std::uint64_t>(index));
    const auto& pairs = team->pairs[index];
    // Description revisions stay unique across members: member w writes
    // w + 2, w + 4, ...
    std::uint64_t rev = static_cast<std::uint64_t>(index);
    Tracer* traced = tracer;
    tracer = nullptr;
    for (int i = 0; i < kWarmupCycles; ++i) {
      const auto& [a, d] = pairs[rng.Uniform(pairs.size())];
      rev += kWriters;
      if (!Cycle(a, d, rev, session->get(), false)) stats.Fail("warmup cycle");
    }
    sync->arrive_and_wait();
    tracer = traced;
    while (NowNs() < deadline->load()) {
      const auto& [a, d] = pairs[rng.Uniform(pairs.size())];
      rev += kWriters;
      ++stats.attempted;
      if (!Cycle(a, d, rev, session->get(), true)) {
        stats.Fail("cycle on " + ActionName(a));
      }
    }
  }
};

/// Runs the two members until `seconds` have passed since their warm-up;
/// returns the merged stats, the loop's wall time, and the registry
/// counters at the moment the clock started.
WriterStats RunMembers(Team* team, const Options& opt, double seconds,
                       std::vector<std::unique_ptr<Tracer>>* tracers,
                       double* wall_s, CounterSnapshot* at_start) {
  std::vector<Writer> writers;
  for (int w = 0; w < kWriters; ++w) {
    Tracer* t = nullptr;
    if (opt.trace) {
      tracers->push_back(
          std::make_unique<Tracer>(static_cast<int>(tracers->size())));
      t = tracers->back().get();
    }
    writers.push_back(Writer{team, w, opt.seed, t, opt.fault, {}});
  }
  // The clock starts once both members have finished their warm-up.
  std::atomic<std::uint64_t> start{0};
  std::atomic<std::uint64_t> deadline{0};
  auto start_clock = [&start, &deadline, at_start, seconds]() noexcept {
    *at_start = CounterSnapshot::Take();
    start = NowNs();
    deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  };
  std::barrier sync(kWriters, start_clock);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back(
        [&writers, &sync, &deadline, w] { writers[w].Run(&sync, &deadline); });
  }
  for (std::thread& t : threads) t.join();
  *wall_s = static_cast<double>(NowNs() - start) / 1e9;

  WriterStats all;
  for (const Writer& w : writers) all.Merge(w.stats);
  return all;
}

}  // namespace

RunResult RunTeamCheckin(const Options& opt) {
  RunResult r;
  LayerStats ls;
  r.env["spec_actions"] = std::to_string(kActions);
  r.env["setups_per_run"] = std::to_string(kSetups);
  r.env["writers"] = std::to_string(kWriters);

  std::vector<double> setup_s;
  std::vector<std::unique_ptr<Tracer>> tracers;
  WriterStats all;
  double wall_s = 0;
  std::unique_ptr<Team> team;
  // The run is kSetups sessions of equal length, each opening the
  // project afresh, so the set-ups are spread over the run like the
  // check-ins.
  for (int i = 0; i < kSetups; ++i) {
    team.reset();
    team = std::make_unique<Team>();
    std::uint64_t t0 = NowNs();
    seed::Status st = OpenTeam(kActions, opt.seed, team.get());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    ++r.attempted;
    if (st.ok()) st = SplitPairs(team.get());
    if (!st.ok()) {
      r.Fail("setup: " + st.ToString());
      return r;
    }
    seed::core::Database* master = team->server->master();
    const std::size_t live_at_start = LiveItems(*master);

    double session_s = 0;
    CounterSnapshot before;
    WriterStats s = RunMembers(team.get(), opt, opt.seconds / kSetups,
                               &tracers, &session_s, &before);
    ls.counted.AddDelta(before, CounterSnapshot::Take());
    wall_s += session_s;
    all.Merge(s);

    if (opt.fault == "corrupt-master") {
      // A master write that bypasses the checks: the audit must fire.
      auto id = master->FindObjectByName(ActionName(1));
      if (id.ok()) {
        seed::core::ObjectItem item = master->objects_raw().at(*id);
        item.name = ActionName(0);
        master->RestoreObject(item);
      }
    }
    // End state: same size, consistent master.
    r.CheckEnd(LiveItems(*master) == live_at_start,
               "live item count changed");
    r.CheckEnd(master->AuditConsistency().clean(),
               "master audit is not clean");
  }

  r.attempted += all.attempted;
  r.failed += all.failed;
  for (const std::string& f : all.failures) r.failures.push_back(f);
  const double commits_per_s =
      Ratio(static_cast<double>(all.checkins.size()), wall_s);
  if (!opt.trace) {
    PutEndToEnd(&r, setup_s, all.checkins, all.pages, commits_per_s);
    return r;
  }
  ls.phases = all.phases;
  ls.pages = all.pages.size();
  ls.first_query = all.first_query;
  ls.checkout = all.checkout;
  ls.view = all.view;
  ls.core_edit = all.edits;
  ls.edits = all.edits.size();
  ls.commits = all.checkins.size();
  ls.ops = all.checkins.size();
  ls.op_p50_ms = all.checkins.QuantileMs(0.5);
  ls.ops_per_s = commits_per_s;
  r.CheckEnd(ProbeDatabase(team->server->master(), &ls),
             "audit after the loop is not clean");
  for (const auto& t : tracers) ls.tracers.push_back(t.get());

  // The same cycle on a master a quarter of the size.
  Team small;
  seed::Status st = OpenTeam(kActions / kGrowthDivisor, opt.seed, &small);
  if (st.ok()) st = SplitPairs(&small);
  if (!st.ok()) {
    r.Fail("small team: " + st.ToString());
  } else {
    std::vector<std::unique_ptr<Tracer>> discard;
    double small_wall = 0;
    CounterSnapshot unused;
    WriterStats s = RunMembers(&small, opt, kGrowthSeconds, &discard,
                               &small_wall, &unused);
    r.attempted += s.attempted;
    r.failed += s.failed;
    ls.checkin_growth =
        Ratio(all.checkins.QuantileMs(0.5), s.checkins.QuantileMs(0.5));
  }
  FinishTraced(opt, ls, &r);
  return r;
}

}  // namespace perfbench
