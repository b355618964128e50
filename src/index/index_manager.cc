#include "index/index_manager.h"

#include <algorithm>

#include "common/macros.h"
#include "obs/metrics.h"

namespace seed::index {

namespace {

/// Marks a v2 (extent-tagged) spec catalog. v1 catalogs start with their
/// spec count instead; any real count stays far below this sentinel, so
/// the first varint disambiguates the two layouts.
constexpr std::uint64_t kSpecCatalogV2Marker = 0x5EEDCA7A0002ull;

/// One key per live defined-valued child in `children` whose class name
/// is `role` — the shared derivation for object sub-object roles and
/// relationship attribute roles (matching Database::SubObjects /
/// Predicate::OnSubObject semantics; undefined children stay out, per
/// the paper).
std::vector<core::Value> CollectRoleKeys(
    const schema::Schema& schema, const IndexManager::ObjectMap& objects,
    const std::vector<ObjectId>& children, const std::string& role) {
  std::vector<core::Value> keys;
  for (ObjectId child_id : children) {
    auto child_it = objects.find(child_id);
    if (child_it == objects.end()) continue;
    const core::ObjectItem& child = child_it->second;
    if (child.deleted || !child.value.defined()) continue;
    auto child_cls = schema.GetClass(child.cls);
    if (!child_cls.ok() || (*child_cls)->name != role) continue;
    keys.push_back(child.value);
  }
  return keys;
}

}  // namespace

Status IndexManager::ValidateSpec(const schema::Schema& schema,
                                  const IndexSpec& spec) {
  if (spec.on_relationships()) {
    SEED_ASSIGN_OR_RETURN(const schema::Association* assoc,
                          schema.GetAssociation(spec.assoc));
    if (spec.role.empty()) {
      return Status::InvalidArgument(
          "relationship index on '" + assoc->name +
          "' needs an attribute role (relationships carry no own value)");
    }
    auto dep = schema.ResolveSubObjectRole(spec.assoc, spec.role);
    if (!dep.ok()) {
      return Status::InvalidArgument("cannot index '" + assoc->name + "." +
                                     spec.role + "': " +
                                     std::string(dep.status().message()));
    }
    return Status::OK();
  }
  SEED_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                        schema.GetClass(spec.cls));
  if (!spec.role.empty()) {
    auto dep = schema.ResolveSubObjectRole(spec.cls, spec.role);
    if (!dep.ok()) {
      return Status::InvalidArgument("cannot index '" + cls->full_name + "." +
                                     spec.role + "': " +
                                     std::string(dep.status().message()));
    }
  }
  return Status::OK();
}

Status IndexManager::CreateIndex(const schema::Schema& schema,
                                 IndexSpec spec) {
  SEED_RETURN_IF_ERROR(ValidateSpec(schema, spec));
  for (const auto& idx : indexes_) {
    if (idx->spec() == spec) {
      return Status::AlreadyExists("index on " + spec.ToString() +
                                   " already exists");
    }
  }
  if (spec.on_relationships()) ++num_rel_indexes_;
  indexes_.push_back(std::make_unique<AttributeIndex>(std::move(spec)));
  specs_dirty_ = true;
  return Status::OK();
}

void IndexManager::BackfillIndex(const schema::Schema& schema,
                                 const ObjectMap& objects,
                                 const RelationshipMap& relationships,
                                 const IndexSpec& spec) {
  for (const auto& idx : indexes_) {
    if (idx->spec() != spec) continue;
    if (spec.on_relationships()) {
      for (const auto& [id, rel] : relationships) {
        if (rel.deleted || rel.is_pattern) continue;
        idx->Set(id, DesiredRelationshipKeys(schema, objects, relationships,
                                             spec, id));
      }
    } else {
      for (const auto& [id, obj] : objects) {
        if (obj.deleted || obj.is_pattern) continue;
        idx->Set(id, DesiredKeys(schema, objects, spec, id));
      }
    }
    return;
  }
}

size_t IndexManager::PruneInvalidSpecs(const schema::Schema& schema) {
  size_t before = indexes_.size();
  indexes_.erase(
      std::remove_if(indexes_.begin(), indexes_.end(),
                     [&schema](const std::unique_ptr<AttributeIndex>& idx) {
                       return !ValidateSpec(schema, idx->spec()).ok();
                     }),
      indexes_.end());
  size_t dropped = before - indexes_.size();
  if (dropped != 0) specs_dirty_ = true;
  num_rel_indexes_ = 0;
  for (const auto& idx : indexes_) {
    if (idx->spec().on_relationships()) ++num_rel_indexes_;
  }
  return dropped;
}

Status IndexManager::DropIndex(ClassId cls, std::string_view role) {
  size_t before = indexes_.size();
  indexes_.erase(
      std::remove_if(indexes_.begin(), indexes_.end(),
                     [&](const std::unique_ptr<AttributeIndex>& idx) {
                       return !idx->spec().on_relationships() &&
                              idx->spec().cls == cls &&
                              idx->spec().role == role;
                     }),
      indexes_.end());
  if (indexes_.size() == before) {
    return Status::NotFound("no index on class#" + std::to_string(cls.raw()) +
                            (role.empty() ? "" : "." + std::string(role)));
  }
  specs_dirty_ = true;
  return Status::OK();
}

Status IndexManager::DropIndex(AssociationId assoc, std::string_view role) {
  size_t before = indexes_.size();
  indexes_.erase(
      std::remove_if(indexes_.begin(), indexes_.end(),
                     [&](const std::unique_ptr<AttributeIndex>& idx) {
                       return idx->spec().on_relationships() &&
                              idx->spec().assoc == assoc &&
                              (role.empty() || idx->spec().role == role);
                     }),
      indexes_.end());
  if (indexes_.size() == before) {
    return Status::NotFound("no index on assoc#" +
                            std::to_string(assoc.raw()) +
                            (role.empty() ? "" : "." + std::string(role)));
  }
  num_rel_indexes_ -= before - indexes_.size();
  specs_dirty_ = true;
  return Status::OK();
}

const AttributeIndex* IndexManager::Find(const IndexSpec& spec) const {
  for (const auto& idx : indexes_) {
    if (idx->spec() == spec) return idx.get();
  }
  return nullptr;
}

const AttributeIndex* IndexManager::BestFor(const schema::Schema& schema,
                                            ClassId cls,
                                            bool include_specializations,
                                            std::string_view role) const {
  const AttributeIndex* broader = nullptr;
  for (const auto& idx : indexes_) {
    const IndexSpec& spec = idx->spec();
    if (spec.on_relationships() || spec.role != role) continue;
    if (spec.cls == cls && spec.include_specializations ==
                               include_specializations) {
      return idx.get();  // exact: covers the query extent precisely
    }
    // A usable broader index covers a superset of the query extent: either
    // a family index rooted at `cls` or at an ancestor of it, or an exact
    // index when the query itself is exact on the same class.
    bool covers =
        spec.include_specializations
            ? schema.IsSameOrSpecializationOf(cls, spec.cls)
            : (!include_specializations && spec.cls == cls);
    if (covers && broader == nullptr) broader = idx.get();
  }
  return broader;
}

const AttributeIndex* IndexManager::BestForRelationships(
    const schema::Schema& schema, AssociationId assoc,
    bool include_specializations, std::string_view role) const {
  const AttributeIndex* broader = nullptr;
  for (const auto& idx : indexes_) {
    const IndexSpec& spec = idx->spec();
    if (!spec.on_relationships() || spec.role != role) continue;
    if (spec.assoc == assoc &&
        spec.include_specializations == include_specializations) {
      return idx.get();
    }
    bool covers =
        spec.include_specializations
            ? schema.IsSameOrSpecializationOf(assoc, spec.assoc)
            : (!include_specializations && spec.assoc == assoc);
    if (covers && broader == nullptr) broader = idx.get();
  }
  return broader;
}

std::vector<core::Value> IndexManager::DesiredKeys(
    const schema::Schema& schema, const ObjectMap& objects,
    const IndexSpec& spec, ObjectId id) {
  if (spec.on_relationships()) return {};
  auto it = objects.find(id);
  if (it == objects.end()) return {};
  const core::ObjectItem& obj = it->second;
  if (obj.deleted || obj.is_pattern) return {};
  bool covered = spec.include_specializations
                     ? schema.IsSameOrSpecializationOf(obj.cls, spec.cls)
                     : obj.cls == spec.cls;
  if (!covered) return {};

  if (spec.role.empty()) {
    std::vector<core::Value> keys;
    if (obj.value.defined()) keys.push_back(obj.value);
    return keys;
  }
  return CollectRoleKeys(schema, objects, obj.children, spec.role);
}

std::vector<core::Value> IndexManager::DesiredRelationshipKeys(
    const schema::Schema& schema, const ObjectMap& objects,
    const RelationshipMap& relationships, const IndexSpec& spec,
    RelationshipId id) {
  if (!spec.on_relationships()) return {};
  auto it = relationships.find(id);
  if (it == relationships.end()) return {};
  const core::RelationshipItem& rel = it->second;
  if (rel.deleted || rel.is_pattern) return {};
  bool covered = spec.include_specializations
                     ? schema.IsSameOrSpecializationOf(rel.assoc, spec.assoc)
                     : rel.assoc == spec.assoc;
  if (!covered) return {};
  return CollectRoleKeys(schema, objects, rel.children, spec.role);
}

namespace {

/// One incremental entry refresh (object or relationship) across the
/// registered indexes.
void CountRefresh() {
  static obs::Counter* refreshes =
      obs::MetricsRegistry::Global().GetCounter("index.refreshes.total");
  refreshes->Increment();
}

}  // namespace

void IndexManager::RefreshObject(const schema::Schema& schema,
                                 const ObjectMap& objects, ObjectId id) {
  CountRefresh();
  for (const auto& idx : indexes_) {
    if (idx->spec().on_relationships()) continue;
    idx->Set(id, DesiredKeys(schema, objects, idx->spec(), id));
  }
}

void IndexManager::RefreshRelationship(const schema::Schema& schema,
                                       const ObjectMap& objects,
                                       const RelationshipMap& relationships,
                                       RelationshipId id) {
  CountRefresh();
  for (const auto& idx : indexes_) {
    if (!idx->spec().on_relationships()) continue;
    idx->Set(id, DesiredRelationshipKeys(schema, objects, relationships,
                                         idx->spec(), id));
  }
}

void IndexManager::ClearEntries() {
  for (const auto& idx : indexes_) idx->Clear();
}

void IndexManager::EncodeSpecs(Encoder* enc) const {
  // Catalog format v2: a leading marker, then a per-spec extent tag that
  // distinguishes object from relationship indexes. v1 catalogs (class
  // specs only, no marker, no tags) are still decoded below.
  enc->PutVarint(kSpecCatalogV2Marker);
  enc->PutVarint(indexes_.size());
  for (const auto& idx : indexes_) {
    const IndexSpec& spec = idx->spec();
    enc->PutVarint(spec.on_relationships() ? 1 : 0);
    enc->PutVarint(spec.on_relationships() ? spec.assoc.raw()
                                           : spec.cls.raw());
    enc->PutString(spec.role);
    enc->PutBool(spec.include_specializations);
  }
}

Result<std::vector<IndexSpec>> IndexManager::DecodeSpecs(Decoder* dec) {
  SEED_ASSIGN_OR_RETURN(std::uint64_t first, dec->GetVarint());
  bool v2 = first == kSpecCatalogV2Marker;
  std::uint64_t count = first;
  if (v2) {
    SEED_ASSIGN_OR_RETURN(count, dec->GetVarint());
  }
  std::vector<IndexSpec> specs;
  // Do not trust a corrupt count for the allocation; the vector grows as
  // entries actually decode.
  specs.reserve(std::min<std::uint64_t>(count, 1024));
  for (std::uint64_t i = 0; i < count; ++i) {
    IndexSpec spec;
    std::uint64_t kind = 0;
    if (v2) {
      SEED_ASSIGN_OR_RETURN(kind, dec->GetVarint());
      if (kind > 1) {
        return Status::Corruption("unknown index-spec extent tag " +
                                  std::to_string(kind));
      }
    }
    SEED_ASSIGN_OR_RETURN(std::uint64_t id_raw, dec->GetVarint());
    if (kind == 1) {
      spec.assoc = AssociationId(id_raw);
    } else {
      spec.cls = ClassId(id_raw);
    }
    SEED_ASSIGN_OR_RETURN(spec.role, dec->GetString());
    SEED_ASSIGN_OR_RETURN(spec.include_specializations, dec->GetBool());
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace seed::index
