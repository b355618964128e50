// spec_edit: one tool user edits a spec and saves it to an on-disk
// KvStore, closed loop.
//
// A save is a burst of spades edits (description updates, and flow
// refinements flipped between vague Access and precise Read) followed by
// Persistence::SaveChanges. No edit creates or deletes an item, so the
// spec keeps its size and no tombstones pile up. Every 5th save is a
// milestone: it also checkpoints the store and freezes a version. Every
// kCycleSaves saves the user reopens the store, and every other time
// first steps one version back and forward. core mutation, index
// maintenance, storage and version do the work; the planner does none.
//
// The store is about twice the buffer pool (default 256 pages, 2 MiB)
// and is opened with the default sync_on_append = false: the WAL is not
// fsynced per save, checkpoints fsync the data file.
//
// Versions live in a history database beside the working copy. Both
// VersionManager and Persistence::SaveChanges consume and clear a
// Database's change tracking, so one database cannot feed both: the tool
// collects each save's changed ids and, at a milestone, copies those
// items into the history database (RestoreObject/RestoreRelationship)
// before CreateVersion.

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/item_codec.h"
#include "core/persistence.h"
#include "layers.h"
#include "spec.h"
#include "storage/kv_store.h"
#include "version/version_manager.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kActions = 8000;
constexpr int kSetups = 5;
constexpr int kDescriptionEdits = 36;
constexpr int kFlowEdits = 12;
constexpr int kMilestoneEvery = 5;
// Saves between reopens (a multiple of kMilestoneEvery); every
// kRestoreEvery-th reopen is preceded by a version step back and forward.
constexpr int kCycleSaves = 200;
constexpr int kRestoreEvery = 2;
constexpr std::size_t kFlowPool = 2000;

seed::storage::KvStoreOptions StoreOptions() {
  seed::storage::KvStoreOptions options;  // 256 pages, no sync per append
  return options;
}

/// The milestone history: a copy of the working spec under version
/// control.
struct History {
  std::unique_ptr<seed::core::Database> db;
  std::unique_ptr<seed::version::VersionManager> versions;
  std::vector<seed::version::VersionId> milestones;
  std::uint64_t base_bytes = 0;

  seed::Status Reset(const seed::core::Database& working) {
    versions.reset();
    db = std::make_unique<seed::core::Database>(working.schema());
    CopyDatabase(working, db.get());
    versions = std::make_unique<seed::version::VersionManager>(db.get());
    milestones.clear();
    auto base = versions->CreateVersion();
    if (!base.ok()) return base.status();
    milestones.push_back(*base);
    base_bytes = versions->StoredBytes();
    return seed::Status::OK();
  }
};

struct Session {
  Spec spec;
  std::string dir;
  seed::storage::KvStore kv;
};

/// Opens the project: generate, SaveFull, then reopen with Load.
seed::Status OpenProject(std::uint64_t seed, const std::string& dir,
                         Session* s) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return seed::Status::IoError("cannot create " + dir);
  s->dir = dir;
  SEED_RETURN_IF_ERROR(GenerateSpec(kActions, seed, &s->spec));
  SEED_RETURN_IF_ERROR(s->kv.Open(dir, StoreOptions()));
  SEED_RETURN_IF_ERROR(
      seed::core::Persistence::SaveFull(*s->spec.db(), &s->kv));
  s->spec.db()->ClearChangeTracking();
  SEED_RETURN_IF_ERROR(s->kv.Close());
  SEED_RETURN_IF_ERROR(s->kv.Open(dir, StoreOptions()));
  auto loaded = seed::core::Persistence::Load(&s->kv);
  if (!loaded.ok()) return loaded.status();
  if (FingerprintOf(**loaded) != FingerprintOf(*s->spec.db())) {
    return seed::Status::Internal("reopened project differs from the spec");
  }
  return seed::Status::OK();
}

std::uint64_t EncodedBytesOfChanges(const seed::core::Database& db) {
  std::uint64_t bytes = 0;
  for (seed::ObjectId id : db.changed_objects()) {
    auto it = db.objects_raw().find(id);
    if (it != db.objects_raw().end()) {
      bytes += seed::core::ItemCodec::EncodeObjectToString(it->second).size();
    }
  }
  for (seed::RelationshipId id : db.changed_relationships()) {
    auto it = db.relationships_raw().find(id);
    if (it != db.relationships_raw().end()) {
      bytes +=
          seed::core::ItemCodec::EncodeRelationshipToString(it->second).size();
    }
  }
  return bytes;
}

struct Flow {
  std::size_t action, data;
  seed::RelationshipId id;
};

/// A seeded sample of kFlowPool distinct Read flows of the spec: the
/// flows the user refines.
seed::Status SampleFlows(Spec* spec, seed::Random* rng,
                         std::vector<Flow>* flows) {
  auto reads = ReadFlows(spec);
  if (!reads.ok()) return reads.status();
  seed::core::Database* db = spec->db();
  // Partial Fisher-Yates shuffle.
  std::vector<std::pair<std::size_t, std::size_t>>& pool = *reads;
  flows->clear();
  for (std::size_t i = 0; i < pool.size() && flows->size() < kFlowPool; ++i) {
    std::swap(pool[i], pool[i + rng->Uniform(pool.size() - i)]);
    const auto& [a, d] = pool[i];
    auto aid = db->FindObjectByName(ActionName(a));
    auto did = db->FindObjectByName(DataName(d));
    if (!aid.ok() || !did.ok()) break;
    flows->push_back(Flow{a, d, FindFlow(*db, spec->ids(), *did, *aid)});
    if (!flows->back().id.valid()) break;
  }
  if (flows->size() < kFlowPool || !flows->back().id.valid()) {
    return seed::Status::Internal("not enough read flows to refine");
  }
  return seed::Status::OK();
}

/// The tool user's edit loop; its samples and totals run across sessions.
struct Editor {
  const Options& opt;
  Tracer* tr;  // null in untraced runs
  LayerStats* ls;
  RunResult* r;
  seed::Random rng;
  Samples saves, loads;
  std::uint64_t edits = 0;
  std::uint64_t next_rev = 1;
  std::uint64_t delta_bytes = 0;  // milestone versions' stored bytes
  std::size_t delta_versions = 0;
  bool drop_next_save;

  Editor(const Options& o, Tracer* t, LayerStats* l, RunResult* res)
      : opt(o),
        tr(t),
        ls(l),
        r(res),
        rng(o.seed),
        drop_next_save(o.fault == "drop-save") {}

  /// Edits and saves `session` for `seconds`, then on to the end of the
  /// restore cycle under way.
  void Work(Session* session, const std::vector<Flow>& flows,
            double seconds) {
    Spec& spec = session->spec;
    seed::core::Database* db = spec.db();
    const seed::spades::Fig3Ids& ids = spec.ids();
    const std::size_t live_at_start = LiveItems(*db);
    History history;
    if (seed::Status st = history.Reset(*db); !st.ok()) {
      r->Fail("history: " + st.ToString());
      return;
    }
    std::set<seed::ObjectId> pending_objects;
    std::set<seed::RelationshipId> pending_relationships;

    const CounterSnapshot before = CounterSnapshot::Take();
    const std::uint64_t deadline =
        NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    for (int s = 0;
         NowNs() < deadline || s % (kCycleSaves * kRestoreEvery) != 0; ++s) {
      const bool milestone = s % kMilestoneEvery == kMilestoneEvery - 1;
      ++r->attempted;
      bool ok = true;
      // --- the save: a burst of edits, SaveChanges, and at a milestone a
      // checkpoint and a version ---
      std::uint64_t t0 = NowNs();
      {
        Span save(tr, "bench", milestone ? "milestone_save" : "save");
        const std::uint64_t refreshes = CounterValue("index.refreshes.total");
        for (int e = 0; e < kDescriptionEdits; ++e) {
          std::size_t a = rng.Uniform(kActions);
          std::string text = DescriptionText(a, next_rev++);
          Span span(tr, "spades", "SetDescription");
          std::uint64_t e0 = NowNs();
          ok = spec.tool->SetDescription(ActionName(a), text).ok() && ok;
          if (tr) ls->core_edit.Add(NowNs() - e0);
        }
        for (int e = 0; e < kFlowEdits; ++e) {
          const Flow& f = flows[rng.Uniform(flows.size())];
          auto rel = db->GetRelationship(f.id);
          std::uint64_t e0 = NowNs();
          if (rel.ok() && (*rel)->assoc == ids.read) {
            Span span(tr, "core", "ReclassifyRelationship");
            ok = db->ReclassifyRelationship(f.id, ids.access).ok() && ok;
          } else {
            Span span(tr, "spades", "RefineFlow");
            ok = spec.tool
                     ->RefineFlow(ActionName(f.action), DataName(f.data),
                                  seed::spades::FlowKind::kRead)
                     .ok() &&
                 ok;
          }
          if (tr) ls->core_edit.Add(NowNs() - e0);
        }
        if (opt.fault == "grow" && s == 0) {
          // An edit that adds an item: the steady-size check must fire.
          ok = spec.tool->AddThing("Unplanned_note").ok() && ok;
        }
        edits += kDescriptionEdits + kFlowEdits;
        ls->edit_refreshes +=
            CounterValue("index.refreshes.total") - refreshes;
        pending_objects.insert(db->changed_objects().begin(),
                               db->changed_objects().end());
        pending_relationships.insert(db->changed_relationships().begin(),
                                     db->changed_relationships().end());
        if (tr) ls->encoded_changed_bytes += EncodedBytesOfChanges(*db);
        if (drop_next_save) {
          // A save that silently loses its writes.
          db->ClearChangeTracking();
          drop_next_save = false;
        } else {
          Span span(tr, "core", "SaveChanges");
          std::uint64_t c0 = NowNs();
          ok = seed::core::Persistence::SaveChanges(db, &session->kv).ok() &&
               ok;
          if (tr) ls->core_save.Add(NowNs() - c0);
        }
        if (milestone) {
          {
            Span span(tr, "storage", "Checkpoint");
            std::uint64_t c0 = NowNs();
            ok = session->kv.Checkpoint().ok() && ok;
            if (tr) ls->storage_checkpoint.Add(NowNs() - c0);
          }
          Span span(tr, "version", "CreateVersion");
          std::uint64_t v0 = NowNs();
          for (seed::ObjectId id : pending_objects) {
            history.db->RestoreObject(db->objects_raw().at(id));
          }
          for (seed::RelationshipId id : pending_relationships) {
            history.db->RestoreRelationship(db->relationships_raw().at(id));
          }
          auto v = history.versions->CreateVersion();
          ok = v.ok() && ok;
          if (v.ok()) history.milestones.push_back(*v);
          if (tr) ls->version_create.Add(NowNs() - v0);
          pending_objects.clear();
          pending_relationships.clear();
        }
      }
      saves.Add(NowNs() - t0);
      if (!ok) r->Fail("save " + std::to_string(s));
      if (s % kCycleSaves != kCycleSaves - 1) continue;
      const Fingerprint working = FingerprintOf(*db);

      // --- one version back and forward: the history must come back to
      // the milestone it left, which is the working copy ---
      if ((s / kCycleSaves) % kRestoreEvery == kRestoreEvery - 1) {
        ++r->attempted;
        const Fingerprint at_milestone = FingerprintOf(*history.db);
        bool restore_ok = at_milestone == working;
        const std::size_t n = history.milestones.size();
        for (const seed::version::VersionId& v :
             {history.milestones[n - 2], history.milestones[n - 1]}) {
          if (opt.fault == "restore-stays-back" &&
              v == history.milestones[n - 1]) {
            continue;
          }
          Span span(tr, "version", "SelectVersion");
          std::uint64_t v0 = NowNs();
          restore_ok = history.versions->SelectVersion(v).ok() && restore_ok;
          if (tr) ls->version_select.Add(NowNs() - v0);
        }
        if (!restore_ok || FingerprintOf(*history.db) != at_milestone) {
          r->Fail("version step back and forward changed the state");
        }
        delta_bytes += history.versions->StoredBytes() - history.base_bytes;
        delta_versions += history.versions->num_versions() - 1;
        // A fresh history keeps the version chain, and so the cost of a
        // restore, from growing with the run's length.
        if (seed::Status st = history.Reset(*db); !st.ok()) {
          r->Fail("history: " + st.ToString());
        }
      }

      // --- reopen: the store must give back exactly the working copy ---
      ++r->attempted;
      std::uint64_t l0 = NowNs();
      Span reopen(tr, "bench", "reopen");
      bool reopen_ok;
      {
        Span span(tr, "storage", "Reopen");
        reopen_ok = session->kv.Close().ok() &&
                    session->kv.Open(session->dir, StoreOptions()).ok();
      }
      std::uint64_t c0 = NowNs();
      Span load_span(tr, "core", "Load");
      auto loaded = seed::core::Persistence::Load(&session->kv);
      load_span.End();
      reopen.End();
      if (tr) ls->core_load.Add(NowNs() - c0);
      loads.Add(NowNs() - l0);
      if (!reopen_ok || !loaded.ok() || FingerprintOf(**loaded) != working ||
          LiveItems(**loaded) != LiveItems(*db)) {
        r->Fail("reopened store differs from the working copy");
      }
    }
    ls->counted.AddDelta(before, CounterSnapshot::Take());
    r->CheckEnd(LiveItems(*db) == live_at_start, "live item count changed");
  }
};

}  // namespace

RunResult RunSpecEdit(const Options& opt) {
  RunResult r;
  LayerStats ls;
  Tracer tracer(0);
  Tracer* tr = opt.trace ? &tracer : nullptr;
  r.env["spec_actions"] = std::to_string(kActions);
  r.env["setups_per_run"] = std::to_string(kSetups);
  r.env["buffer_pool_pages"] = std::to_string(StoreOptions().buffer_pool_pages);
  r.env["flush_policy"] = StoreOptions().sync_on_append
                              ? "fsync every WAL append"
                              : "no fsync per WAL append; fsync at checkpoint";

  Editor editor(opt, tr, &ls, &r);
  std::vector<double> setup_s;
  std::unique_ptr<Session> session;
  // The run is kSetups sessions of equal length, each opening the
  // project afresh, so the set-ups are spread over the run like the saves.
  for (int i = 0; i < kSetups; ++i) {
    session.reset();  // closes the store before its directory is recreated
    session = std::make_unique<Session>();
    std::uint64_t t0 = NowNs();
    seed::Status st =
        OpenProject(opt.seed, opt.work_dir + "/project", session.get());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    ++r.attempted;
    std::vector<Flow> flows;
    if (st.ok()) st = SampleFlows(&session->spec, &editor.rng, &flows);
    if (!st.ok()) {
      r.Fail("setup: " + st.ToString());
      return r;
    }
    editor.Work(session.get(), flows, opt.seconds / kSetups);
  }

  const Samples& saves = editor.saves;
  const double edits_per_s =
      Ratio(static_cast<double>(editor.edits), saves.TotalMs() / 1e3);
  if (!opt.trace) {
    PutEndToEnd(&r, setup_s, saves, editor.loads, edits_per_s);
    return r;
  }
  seed::core::Database* db = session->spec.db();
  ls.saves = saves.size();
  ls.edits = editor.edits;
  ls.ops = saves.size();
  ls.op_p50_ms = saves.QuantileMs(0.5);
  ls.ops_per_s = edits_per_s;
  std::error_code ec;
  double store_bytes =
      static_cast<double>(
          std::filesystem::file_size(session->dir + "/seed.db", ec)) +
      static_cast<double>(
          std::filesystem::file_size(session->dir + "/seed.wal", ec));
  ls.bytes_per_live_item =
      Ratio(store_bytes, static_cast<double>(LiveItems(*db)));
  // Milestone deltas only; the base version holds the whole spec.
  ls.stored_bytes_per_version =
      Ratio(static_cast<double>(editor.delta_bytes),
            static_cast<double>(editor.delta_versions));
  r.CheckEnd(ProbeDatabase(db, &ls), "audit after the loop is not clean");
  ls.tracers = {&tracer};
  FinishTraced(opt, ls, &r);
  return r;
}

}  // namespace perfbench
