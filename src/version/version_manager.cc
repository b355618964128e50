#include "version/version_manager.h"

#include <algorithm>

#include "common/macros.h"
#include "core/item_codec.h"
#include "obs/metrics.h"
#include "schema/schema_io.h"

namespace seed::version {

using core::ItemCodec;

VersionManager::VersionManager(core::Database* db) : db_(db) {}

void VersionManager::AddTransitionRule(std::string name,
                                       TransitionRule rule) {
  transition_rules_.emplace_back(std::move(name), std::move(rule));
}

void VersionManager::RemoveTransitionRule(const std::string& name) {
  transition_rules_.erase(
      std::remove_if(transition_rules_.begin(), transition_rules_.end(),
                     [&name](const auto& entry) {
                       return entry.first == name;
                     }),
      transition_rules_.end());
}

Status VersionManager::FreezeAs(const VersionId& id) {
  if (!id.valid()) return Status::InvalidArgument("invalid version id");
  if (records_.count(id) != 0) {
    return Status::AlreadyExists("version " + id.ToString());
  }

  // History-sensitive consistency: rules constrain the transition from the
  // predecessor version to the state being frozen.
  if (!transition_rules_.empty()) {
    std::unique_ptr<core::Database> predecessor;
    if (basis_.valid()) {
      SEED_ASSIGN_OR_RETURN(predecessor, MaterializeView(basis_));
    } else {
      predecessor = std::make_unique<core::Database>(db_->schema());
    }
    for (const auto& [name, rule] : transition_rules_) {
      Status s = rule(*predecessor, *db_);
      if (!s.ok()) {
        return Status::ConsistencyViolation(
            "transition rule '" + name + "' vetoed version " +
            id.ToString() + ": " + s.message());
      }
    }
  }
  VersionRecord rec;
  rec.id = id;
  rec.parent = basis_;
  rec.sequence = next_sequence_++;
  rec.schema_version = db_->schema()->version();

  if (schema_blobs_.find(rec.schema_version) == schema_blobs_.end()) {
    Encoder enc;
    schema::SchemaCodec::Encode(*db_->schema(), &enc);
    schema_blobs_[rec.schema_version] = std::string(
        reinterpret_cast<const char*>(enc.bytes().data()), enc.size());
  }

  const auto& objects = db_->objects_raw();
  for (ObjectId oid : db_->changed_objects()) {
    auto it = objects.find(oid);
    if (it == objects.end()) continue;  // vetoed creation
    rec.changes[ItemKey::Object(oid)] =
        ItemCodec::EncodeObjectToString(it->second);
  }
  const auto& rels = db_->relationships_raw();
  for (RelationshipId rid : db_->changed_relationships()) {
    auto it = rels.find(rid);
    if (it == rels.end()) continue;
    rec.changes[ItemKey::Relationship(rid)] =
        ItemCodec::EncodeRelationshipToString(it->second);
  }

  records_[id] = std::move(rec);
  db_->ClearChangeTracking();
  basis_ = id;
  static obs::Counter* created = obs::MetricsRegistry::Global().GetCounter(
      "version.versions.created.total");
  created->Increment();
  return Status::OK();
}

Result<VersionId> VersionManager::CreateVersion() {
  VersionId candidate =
      basis_.valid() ? basis_.IncrementLast() : VersionId({1, 0});
  if (records_.count(candidate) != 0) {
    // The successor already exists (we branched off a historical version):
    // find the first free child of the basis.
    std::uint32_t n = 1;
    do {
      candidate = basis_.Child(n++);
    } while (records_.count(candidate) != 0);
  }
  SEED_RETURN_IF_ERROR(FreezeAs(candidate));
  return candidate;
}

Status VersionManager::CreateVersion(const VersionId& id) {
  return FreezeAs(id);
}

std::vector<VersionId> VersionManager::AllVersions() const {
  std::vector<VersionId> out;
  out.reserve(records_.size());
  for (const auto& [id, rec] : records_) out.push_back(id);
  return out;
}

bool VersionManager::HasVersion(const VersionId& id) const {
  return records_.count(id) != 0;
}

Result<const VersionRecord*> VersionManager::GetRecord(
    const VersionId& id) const {
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("version " + id.ToString());
  }
  return &it->second;
}

Result<VersionId> VersionManager::ParentOf(const VersionId& id) const {
  SEED_ASSIGN_OR_RETURN(const VersionRecord* rec, GetRecord(id));
  return rec->parent;
}

std::vector<VersionId> VersionManager::ChildrenOf(const VersionId& id) const {
  std::vector<VersionId> out;
  for (const auto& [vid, rec] : records_) {
    if (rec.parent == id) out.push_back(vid);
  }
  return out;
}

std::uint64_t VersionManager::StoredBytes() const {
  std::uint64_t total = 0;
  for (const auto& [id, rec] : records_) {
    for (const auto& [key, payload] : rec.changes) {
      total += payload.size();
    }
  }
  return total;
}

Result<std::vector<const VersionRecord*>> VersionManager::PathTo(
    const VersionId& id) const {
  std::vector<const VersionRecord*> path;
  VersionId cur = id;
  while (cur.valid()) {
    auto it = records_.find(cur);
    if (it == records_.end()) {
      return Status::NotFound("version " + cur.ToString() +
                              " missing from history");
    }
    path.push_back(&it->second);
    cur = it->second.parent;
    if (path.size() > records_.size()) {
      return Status::Internal("cycle in version history");
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Result<core::ItemStates> VersionManager::DecodeVersion(
    const VersionId& id) const {
  SEED_ASSIGN_OR_RETURN(auto path, PathTo(id));

  // Resolve the effective payload of every item along the path.
  std::map<ItemKey, const std::string*> effective;
  for (const VersionRecord* rec : path) {
    for (const auto& [key, payload] : rec->changes) {
      effective[key] = &payload;
    }
  }

  // Decode under the schema the version was created with.
  std::uint64_t schema_version = path.back()->schema_version;
  auto blob_it = schema_blobs_.find(schema_version);
  if (blob_it == schema_blobs_.end()) {
    return Status::Corruption("schema version " +
                              std::to_string(schema_version) +
                              " missing from version store");
  }
  Decoder schema_dec(blob_it->second.data(), blob_it->second.size());
  core::ItemStates states;
  SEED_ASSIGN_OR_RETURN(states.schema,
                        schema::SchemaCodec::Decode(&schema_dec));

  for (const auto& [key, payload] : effective) {
    if (key.kind() == ItemKey::kObject) {
      SEED_ASSIGN_OR_RETURN(core::ObjectItem obj,
                            ItemCodec::DecodeObjectFromString(*payload));
      states.objects[obj.id] = std::move(obj);
    } else {
      SEED_ASSIGN_OR_RETURN(
          core::RelationshipItem rel,
          ItemCodec::DecodeRelationshipFromString(*payload));
      states.relationships[rel.id] = std::move(rel);
    }
  }
  return states;
}

Result<std::unique_ptr<core::Database>> VersionManager::MaterializeView(
    const VersionId& id) const {
  SEED_ASSIGN_OR_RETURN(core::ItemStates states, DecodeVersion(id));
  auto view = std::make_unique<core::Database>(states.schema);
  view->WriteItemStates(std::move(states));
  view->ClearChangeTracking();
  return view;
}

Result<std::shared_ptr<const core::Database>> VersionManager::PinView(
    const VersionId& id) const {
  auto it = pinned_views_.find(id);
  if (it != pinned_views_.end()) {
    if (auto live = it->second.lock()) {
      static obs::Counter* hits = obs::MetricsRegistry::Global().GetCounter(
          "version.view_pins.cached.total");
      hits->Increment();
      return live;
    }
  }
  SEED_ASSIGN_OR_RETURN(auto view, MaterializeView(id));
  std::shared_ptr<const core::Database> shared = std::move(view);
  pinned_views_[id] = shared;
  static obs::Counter* pins = obs::MetricsRegistry::Global().GetCounter(
      "version.view_pins.total");
  pins->Increment();
  return shared;
}

Status VersionManager::SelectVersion(const VersionId& id) {
  // Decode straight into the working state: drop the working items the
  // version lacks and overwrite the rest. Id generators only ever move
  // forward, so versions never collide on item ids.
  SEED_ASSIGN_OR_RETURN(core::ItemStates states, DecodeVersion(id));
  for (const auto& [oid, obj] : db_->objects_raw()) {
    if (states.objects.count(oid) == 0) states.erased_objects.push_back(oid);
  }
  for (const auto& [rid, rel] : db_->relationships_raw()) {
    if (states.relationships.count(rid) == 0) {
      states.erased_relationships.push_back(rid);
    }
  }
  db_->WriteItemStates(std::move(states));
  db_->ClearChangeTracking();
  basis_ = id;
  static obs::Counter* restores = obs::MetricsRegistry::Global().GetCounter(
      "version.restores.total");
  restores->Increment();
  return Status::OK();
}

Result<std::vector<HistoryHit>> VersionManager::VersionsOfObject(
    ObjectId id, const VersionId& from) const {
  std::vector<HistoryHit> out;
  ItemKey key = ItemKey::Object(id);
  for (const auto& [vid, rec] : records_) {
    if (from.valid() && vid < from) continue;
    auto it = rec.changes.find(key);
    if (it == rec.changes.end()) continue;
    auto obj = ItemCodec::DecodeObjectFromString(it->second);
    if (!obj.ok()) return obj.status();
    out.push_back(HistoryHit{vid, obj->deleted});
  }
  return out;
}

Result<std::vector<HistoryHit>> VersionManager::VersionsOfObject(
    std::string_view name, const VersionId& from) const {
  // Resolve the name in the current working state first; if the object no
  // longer exists there, search the newest state of each version.
  auto id = db_->FindObjectByName(name);
  if (id.ok()) return VersionsOfObject(*id, from);

  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    auto view = MaterializeView(it->first);
    if (!view.ok()) return view.status();
    auto vid = (*view)->FindObjectByName(name);
    if (vid.ok()) return VersionsOfObject(*vid, from);
  }
  return Status::NotFound("object '" + std::string(name) +
                          "' not found in any version");
}

Status VersionManager::DeleteVersion(const VersionId& id) {
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("version " + id.ToString());
  }
  if (id == basis_) {
    return Status::FailedPrecondition(
        "version " + id.ToString() +
        " is the basis of the current working state");
  }
  if (!ChildrenOf(id).empty()) {
    return Status::FailedPrecondition(
        "version " + id.ToString() +
        " has successors; delete them first");
  }
  records_.erase(it);
  pinned_views_.erase(id);
  return Status::OK();
}

}  // namespace seed::version
