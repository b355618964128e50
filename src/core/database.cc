#include "core/database.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <iterator>

#include "common/macros.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace seed::core {

namespace {

template <typename T>
void EraseFrom(std::vector<T>& v, const T& value) {
  v.erase(std::remove(v.begin(), v.end(), value), v.end());
}

/// Removes the links from `key` to `id`.
template <typename Map, typename Key>
void Unlink(Map& map, const Key& key, ObjectId id) {
  auto [it, end] = map.equal_range(key);
  while (it != end) it = it->second == id ? map.erase(it) : std::next(it);
}

// Mutation counters fire on the success path only — after attached
// procedures had their chance to veto — so the registry reflects durable
// changes, not attempts.
void CountObjectCreated() {
  static obs::Counter* created = obs::MetricsRegistry::Global().GetCounter(
      "core.objects.created.total");
  created->Increment();
}

void CountRelationshipCreated() {
  static obs::Counter* created = obs::MetricsRegistry::Global().GetCounter(
      "core.relationships.created.total");
  created->Increment();
}

void CountMutation() {
  static obs::Counter* mutations =
      obs::MetricsRegistry::Global().GetCounter("core.mutations.total");
  mutations->Increment();
}

/// One delete operation whose closure tombstoned `cascade_items` items
/// (objects plus relationships, including the root itself).
void CountDelete(std::size_t cascade_items) {
  static obs::Counter* deletes =
      obs::MetricsRegistry::Global().GetCounter("core.deletes.total");
  static obs::Counter* cascade = obs::MetricsRegistry::Global().GetCounter(
      "core.cascade.items.total");
  deletes->Increment();
  cascade->Increment(cascade_items);
}

void CountReclassify() {
  static obs::Counter* reclassifies =
      obs::MetricsRegistry::Global().GetCounter("core.reclassifies.total");
  reclassifies->Increment();
}

/// Writes `states` over `table` in id order, replacing same-id items; new
/// ids' nodes move across instead of being copied. Returns the written
/// positions in id order.
template <typename Map>
std::vector<typename Map::iterator> OverwriteItems(Map& table, Map& states) {
  std::vector<typename Map::iterator> written;
  written.reserve(states.size());
  while (!states.empty()) {
    auto result = table.insert(states.extract(states.begin()));
    if (!result.inserted) {
      result.position->second = std::move(result.node.mapped());
    }
    written.push_back(result.position);
  }
  return written;
}

std::uint64_t NextInstanceId() {
  static std::atomic<std::uint64_t> next_instance_id{1};
  return next_instance_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Database::Database(schema::SchemaPtr schema)
    : schema_(std::move(schema)), instance_id_(NextInstanceId()) {
  assert(schema_ != nullptr);
}

std::unique_ptr<Database> Database::Copy() const {
  std::unique_ptr<Database> copy(new Database(*this));
  copy->instance_id_ = NextInstanceId();
  copy->ClearChangeTracking();
  copy->class_procedures_.clear();
  copy->assoc_procedures_.clear();
  return copy;
}

ObjectItem* Database::MutableObject(ObjectId id) {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : &it->second;
}

RelationshipItem* Database::MutableRelationship(RelationshipId id) {
  auto it = relationships_.find(id);
  return it == relationships_.end() ? nullptr : &it->second;
}

Result<const ObjectItem*> Database::GetObject(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end() || it->second.deleted) {
    return Status::NotFound("object " + std::to_string(id.raw()));
  }
  return &it->second;
}

Result<const RelationshipItem*> Database::GetRelationship(
    RelationshipId id) const {
  auto it = relationships_.find(id);
  if (it == relationships_.end() || it->second.deleted) {
    return Status::NotFound("relationship " + std::to_string(id.raw()));
  }
  return &it->second;
}

// --- Index maintenance -------------------------------------------------------

void Database::IndexObject(const ObjectItem& obj) {
  if (obj.deleted) return;
  // A name or child key already held by a live item stays with it: only a
  // rejected check-in ever indexes a clash, and its rollback then leaves
  // the holder's entry in place (UnindexObject erases only its own).
  if (obj.is_independent()) {
    (obj.is_pattern ? pattern_name_index_ : name_index_)
        .try_emplace(obj.name, obj.id);
  }
  if (obj.parent_kind == ParentKind::kObject) {
    children_by_key_[obj.parent_object].try_emplace(
        {obj.cls.raw(), obj.index}, obj.id);
    linked_objects_.emplace(obj.parent_object, obj.id);
  } else if (obj.parent_kind == ParentKind::kRelationship) {
    attributes_of_.emplace(obj.parent_relationship, obj.id);
  }
  for (ObjectId child : obj.children) linked_objects_.emplace(child, obj.id);
  by_class_[obj.cls].push_back(obj.id);
  if (!obj.is_pattern) extent_counters_.AddObject(obj.cls);
  ++live_objects_;
}

/// Ids leaving by_class_, by_assoc_, rels_by_object_ and the link indexes
/// in one bulk write, erased with one pass over each list (or each key's
/// links) they sit in: one EraseFrom per id would be quadratic for a
/// whole-database batch.
struct Database::ListRemovals {
  std::unordered_set<ObjectId> objects;
  std::unordered_set<RelationshipId> relationships;
  std::unordered_set<ClassId> classes;
  std::unordered_set<AssociationId> assocs;
  std::unordered_set<ObjectId> ends;
  std::unordered_set<ObjectId> linked;
  std::unordered_set<RelationshipId> owners;
};

void Database::UnindexObject(const ObjectItem& obj, ListRemovals* deferred) {
  if (obj.is_independent()) {
    auto& idx = obj.is_pattern ? pattern_name_index_ : name_index_;
    auto it = idx.find(obj.name);
    if (it != idx.end() && it->second == obj.id) idx.erase(it);
  }
  if (obj.parent_kind == ParentKind::kObject) {
    auto it = children_by_key_.find(obj.parent_object);
    if (it != children_by_key_.end()) {
      auto entry = it->second.find({obj.cls.raw(), obj.index});
      if (entry != it->second.end() && entry->second == obj.id) {
        it->second.erase(entry);
      }
      if (it->second.empty()) children_by_key_.erase(it);
    }
  }
  if (deferred != nullptr) {
    deferred->objects.insert(obj.id);
    deferred->classes.insert(obj.cls);
    if (obj.parent_kind == ParentKind::kObject) {
      deferred->linked.insert(obj.parent_object);
    } else if (obj.parent_kind == ParentKind::kRelationship) {
      deferred->owners.insert(obj.parent_relationship);
    }
    deferred->linked.insert(obj.children.begin(), obj.children.end());
  } else {
    EraseFrom(by_class_[obj.cls], obj.id);
    if (obj.parent_kind == ParentKind::kObject) {
      Unlink(linked_objects_, obj.parent_object, obj.id);
    } else if (obj.parent_kind == ParentKind::kRelationship) {
      Unlink(attributes_of_, obj.parent_relationship, obj.id);
    }
    for (ObjectId child : obj.children) Unlink(linked_objects_, child, obj.id);
  }
  if (!obj.is_pattern) extent_counters_.RemoveObject(obj.cls);
  --live_objects_;
}

ObjectId Database::FindChildByKey(ObjectId parent, ClassId dep_cls,
                                  std::uint32_t index) const {
  auto it = children_by_key_.find(parent);
  if (it == children_by_key_.end()) return ObjectId();
  auto entry = it->second.find({dep_cls.raw(), index});
  return entry == it->second.end() ? ObjectId() : entry->second;
}

ClassId Database::EndClass(ObjectId id) const {
  auto it = objects_.find(id);
  return it == objects_.end() ? ClassId() : it->second.cls;
}

void Database::MoveParticipantCounts(ObjectId obj, ClassId from_cls,
                                     ClassId to_cls) {
  auto it = rels_by_object_.find(obj);
  if (it == rels_by_object_.end()) return;
  for (RelationshipId rid : it->second) {
    const RelationshipItem& rel = relationships_.at(rid);
    if (rel.is_pattern) continue;
    for (int role = 0; role < 2; ++role) {
      if (rel.ends[role] != obj) continue;
      extent_counters_.RemoveParticipant(rel.assoc, role, from_cls, obj);
      extent_counters_.AddParticipant(rel.assoc, role, to_cls, obj);
    }
  }
}

void Database::MoveParticipantCounts(const RelationshipItem& rel,
                                     AssociationId from_assoc,
                                     AssociationId to_assoc) {
  if (rel.is_pattern) return;
  for (int role = 0; role < 2; ++role) {
    ClassId cls = EndClass(rel.ends[role]);
    extent_counters_.RemoveParticipant(from_assoc, role, cls, rel.ends[role]);
    extent_counters_.AddParticipant(to_assoc, role, cls, rel.ends[role]);
  }
}

void Database::IndexRelationship(const RelationshipItem& rel) {
  if (rel.deleted) return;
  by_assoc_[rel.assoc].push_back(rel.id);
  rels_by_object_[rel.ends[0]].push_back(rel.id);
  if (rel.ends[1] != rel.ends[0]) {
    rels_by_object_[rel.ends[1]].push_back(rel.id);
  }
  if (!rel.is_pattern) {
    extent_counters_.AddRelationship(rel.assoc);
    for (int role = 0; role < 2; ++role) {
      extent_counters_.AddParticipant(rel.assoc, role,
                                      EndClass(rel.ends[role]),
                                      rel.ends[role]);
    }
  }
  ++live_relationships_;
}

void Database::UnindexRelationship(const RelationshipItem& rel,
                                   ListRemovals* deferred) {
  if (deferred != nullptr) {
    deferred->relationships.insert(rel.id);
    deferred->assocs.insert(rel.assoc);
    deferred->ends.insert(rel.ends[0]);
    deferred->ends.insert(rel.ends[1]);
  } else {
    EraseFrom(by_assoc_[rel.assoc], rel.id);
    EraseFrom(rels_by_object_[rel.ends[0]], rel.id);
    if (rel.ends[1] != rel.ends[0]) {
      EraseFrom(rels_by_object_[rel.ends[1]], rel.id);
    }
  }
  if (!rel.is_pattern) {
    extent_counters_.RemoveRelationship(rel.assoc);
    for (int role = 0; role < 2; ++role) {
      extent_counters_.RemoveParticipant(rel.assoc, role,
                                         EndClass(rel.ends[role]),
                                         rel.ends[role]);
    }
  }
  --live_relationships_;
}

void Database::RebuildIndexes() {
  name_index_.clear();
  pattern_name_index_.clear();
  by_class_.clear();
  by_assoc_.clear();
  rels_by_object_.clear();
  children_by_key_.clear();
  linked_objects_.clear();
  attributes_of_.clear();
  extent_counters_.Clear();
  live_objects_ = 0;
  live_relationships_ = 0;
  attr_indexes_.ClearEntries();
  for (const auto& [id, obj] : objects_) {
    if (!obj.deleted) {
      IndexObject(obj);
      if (!obj.is_pattern) RefreshAttrIndexes(id);
    }
    object_ids_.ReserveThrough(id);
  }
  for (const auto& [id, rel] : relationships_) {
    if (!rel.deleted) {
      IndexRelationship(rel);
      if (!rel.is_pattern) RefreshRelAttrIndexes(id);
    }
    relationship_ids_.ReserveThrough(id);
  }
}

void Database::EraseListed(const ListRemovals& gone) {
  auto erase_gone = [](auto& list, const auto& ids) {
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&ids](auto id) { return ids.count(id) != 0; }),
               list.end());
  };
  for (ClassId cls : gone.classes) erase_gone(by_class_[cls], gone.objects);
  for (AssociationId assoc : gone.assocs) {
    erase_gone(by_assoc_[assoc], gone.relationships);
  }
  for (ObjectId end : gone.ends) {
    erase_gone(rels_by_object_[end], gone.relationships);
  }
  auto unlink_gone = [&gone](auto& map, const auto& keys) {
    for (const auto& key : keys) {
      auto [it, end] = map.equal_range(key);
      while (it != end) {
        it = gone.objects.count(it->second) != 0 ? map.erase(it)
                                                 : std::next(it);
      }
    }
  };
  unlink_gone(linked_objects_, gone.linked);
  unlink_gone(attributes_of_, gone.owners);
}

void Database::WriteItemStates(ItemStates states) {
  // A different schema can move every class family, role and index
  // coverage, so such a batch derives everything, as MigrateToSchema does.
  const bool rederive = states.schema != nullptr && states.schema != schema_;
  if (states.schema != nullptr) schema_ = std::move(states.schema);

  // Items besides the written live ones whose attribute-index entries may
  // change: written items that existed before (their old entries go if
  // they left the index), and the owners of written sub-objects before
  // and after the write (role-keyed entries derive from sub-object values).
  const bool refresh = !rederive && !attr_indexes_.empty();
  std::vector<ObjectId> refresh_objects;
  std::vector<RelationshipId> refresh_relationships;
  auto note_owner = [&](const ObjectItem& obj) {
    if (!refresh) return;
    if (obj.parent_kind == ParentKind::kObject &&
        states.objects.count(obj.parent_object) == 0) {
      refresh_objects.push_back(obj.parent_object);
    } else if (obj.parent_kind == ParentKind::kRelationship &&
               states.relationships.count(obj.parent_relationship) == 0) {
      refresh_relationships.push_back(obj.parent_relationship);
    }
  };

  if (!rederive) {
    // Old live states leave the derived structures first; relationships
    // before objects, while their ends still have the classes the degree
    // counts were filed under.
    ListRemovals gone;
    auto unindex_rel = [&](RelationshipId id) {
      auto it = relationships_.find(id);
      if (it == relationships_.end()) return;
      if (refresh) refresh_relationships.push_back(id);
      if (!it->second.deleted) UnindexRelationship(it->second, &gone);
    };
    for (const auto& [id, rel] : states.relationships) unindex_rel(id);
    for (RelationshipId id : states.erased_relationships) unindex_rel(id);
    auto unindex_obj = [&](ObjectId id) {
      auto it = objects_.find(id);
      if (it == objects_.end()) return;
      if (refresh) refresh_objects.push_back(id);
      note_owner(it->second);
      if (!it->second.deleted) UnindexObject(it->second, &gone);
    };
    for (const auto& [id, obj] : states.objects) {
      unindex_obj(id);
      note_owner(obj);
    }
    for (ObjectId id : states.erased_objects) unindex_obj(id);
    EraseListed(gone);
    // Live relationships outside the batch keep their ends' degree counts
    // under the class each end has after the write.
    auto move_ends = [this](ObjectId id, ClassId to) {
      auto it = rels_by_object_.find(id);
      if (it == rels_by_object_.end() || it->second.empty()) return;
      ClassId from = EndClass(id);
      if (from != to) MoveParticipantCounts(id, from, to);
    };
    for (const auto& [id, obj] : states.objects) move_ends(id, obj.cls);
    for (ObjectId id : states.erased_objects) move_ends(id, ClassId());
  }

  for (ObjectId id : states.erased_objects) objects_.erase(id);
  for (RelationshipId id : states.erased_relationships) {
    relationships_.erase(id);
  }
  const auto objects = OverwriteItems(objects_, states.objects);
  const auto relationships =
      OverwriteItems(relationships_, states.relationships);
  for (auto it : objects) Touch(it->first);
  for (auto it : relationships) Touch(it->first);
  if (rederive) {
    RebuildIndexes();
    return;
  }

  // New states enter in id order: on an empty database this is exactly
  // the RebuildIndexes pass.
  for (auto it : objects) {
    IndexObject(it->second);
    object_ids_.ReserveThrough(it->first);
  }
  for (auto it : relationships) {
    IndexRelationship(it->second);
    relationship_ids_.ReserveThrough(it->first);
  }
  if (!refresh) return;
  for (auto it : objects) {
    if (!it->second.deleted && !it->second.is_pattern) {
      RefreshAttrIndexes(it->first);
    }
  }
  for (auto it : relationships) {
    if (!it->second.deleted && !it->second.is_pattern) {
      RefreshRelAttrIndexes(it->first);
    }
  }
  std::sort(refresh_objects.begin(), refresh_objects.end());
  refresh_objects.erase(
      std::unique(refresh_objects.begin(), refresh_objects.end()),
      refresh_objects.end());
  for (ObjectId id : refresh_objects) RefreshAttrIndexes(id);
  std::sort(refresh_relationships.begin(), refresh_relationships.end());
  refresh_relationships.erase(
      std::unique(refresh_relationships.begin(), refresh_relationships.end()),
      refresh_relationships.end());
  for (RelationshipId id : refresh_relationships) RefreshRelAttrIndexes(id);
}

void Database::RestoreObject(ObjectItem item) {
  ObjectId id = item.id;
  objects_[id] = std::move(item);
  object_ids_.ReserveThrough(id);
  Touch(id);
}

void Database::RestoreRelationship(RelationshipItem item) {
  RelationshipId id = item.id;
  relationships_[id] = std::move(item);
  relationship_ids_.ReserveThrough(id);
  Touch(id);
}

// --- Secondary attribute indexes ---------------------------------------------

Status Database::CreateAttributeIndex(index::IndexSpec spec) {
  SEED_RETURN_IF_ERROR(attr_indexes_.CreateIndex(*schema_, spec));
  attr_indexes_.BackfillIndex(*schema_, objects_, relationships_, spec);
  return Status::OK();
}

Status Database::DropAttributeIndex(ClassId cls, std::string_view role) {
  return attr_indexes_.DropIndex(cls, role);
}

Status Database::DropAttributeIndex(AssociationId assoc,
                                    std::string_view role) {
  return attr_indexes_.DropIndex(assoc, role);
}

void Database::RefreshAttrIndexes(ObjectId id) {
  if (attr_indexes_.empty()) return;
  attr_indexes_.RefreshObject(*schema_, objects_, id);
}

void Database::RefreshAttrIndexesWithParent(ObjectId id) {
  if (attr_indexes_.empty()) return;
  attr_indexes_.RefreshObject(*schema_, objects_, id);
  RefreshAttrIndexParentOf(id);
}

void Database::RefreshAttrIndexParentOf(ObjectId id) {
  if (attr_indexes_.empty()) return;
  auto it = objects_.find(id);
  if (it == objects_.end()) return;
  if (it->second.parent_kind == ParentKind::kObject) {
    attr_indexes_.RefreshObject(*schema_, objects_,
                                it->second.parent_object);
  } else if (it->second.parent_kind == ParentKind::kRelationship) {
    // Relationship attribute: the owning relationship's index entries
    // derive from this sub-object's value.
    RefreshRelAttrIndexes(it->second.parent_relationship);
  }
}

void Database::RefreshRelAttrIndexes(RelationshipId id) {
  if (!attr_indexes_.has_relationship_indexes()) return;
  attr_indexes_.RefreshRelationship(*schema_, objects_, relationships_, id);
}

// --- Object creation ---------------------------------------------------------

Result<ObjectId> Database::CreateObject(ClassId cls, std::string name,
                                        const CreateOptions& opts) {
  SEED_ASSIGN_OR_RETURN(const schema::ObjectClass* c, schema_->GetClass(cls));
  if (c->is_dependent()) {
    return Status::InvalidArgument(
        "class '" + c->full_name +
        "' is dependent; use CreateSubObject on a parent item");
  }
  if (!strings::IsIdentifier(name)) {
    return Status::InvalidArgument("object name '" + name +
                                   "' is not an identifier");
  }
  SEED_RETURN_IF_ERROR(CheckIndependentName(name, opts.pattern, ObjectId()));

  ObjectItem obj;
  obj.id = object_ids_.Next();
  obj.cls = cls;
  obj.name = std::move(name);
  obj.is_pattern = opts.pattern;
  ObjectId id = obj.id;
  objects_[id] = std::move(obj);
  IndexObject(objects_[id]);
  Touch(id);

  if (!opts.pattern) {
    UpdateEvent event{UpdateKind::kCreateObject, this, id, RelationshipId()};
    Status veto = RunProcedures(cls, event);
    if (!veto.ok()) {
      UnindexObject(objects_[id]);
      objects_.erase(id);
      changed_objects_.erase(id);
      return veto;
    }
  }
  CountObjectCreated();
  return id;
}

Result<ObjectId> Database::CreateSubObjectImpl(ParentKind kind,
                                               ObjectId pobj,
                                               RelationshipId prel,
                                               std::string_view role) {
  ClassId dep_cls;
  std::vector<ObjectId>* siblings = nullptr;
  bool parent_is_pattern = false;
  ClassId procedure_cls;

  if (kind == ParentKind::kObject) {
    ObjectItem* parent = MutableObject(pobj);
    if (parent == nullptr || parent->deleted) {
      return Status::NotFound("parent object " + std::to_string(pobj.raw()));
    }
    SEED_ASSIGN_OR_RETURN(dep_cls,
                          schema_->ResolveSubObjectRole(parent->cls, role));
    siblings = &parent->children;
    parent_is_pattern = parent->is_pattern;
  } else {
    RelationshipItem* parent = MutableRelationship(prel);
    if (parent == nullptr || parent->deleted) {
      return Status::NotFound("parent relationship " +
                              std::to_string(prel.raw()));
    }
    SEED_ASSIGN_OR_RETURN(
        dep_cls, schema_->ResolveSubObjectRole(parent->assoc, role));
    siblings = &parent->children;
    parent_is_pattern = parent->is_pattern;
  }
  procedure_cls = dep_cls;
  SEED_ASSIGN_OR_RETURN(const schema::ObjectClass* dep,
                        schema_->GetClass(dep_cls));

  // Consistency: maximum cardinality of the role (skipped for patterns;
  // they are checked at inheritance time).
  if (!parent_is_pattern && !dep->cardinality.unlimited_max()) {
    size_t count = CountChildrenOfClass(*siblings, dep_cls);
    if (count + 1 > dep->cardinality.max) {
      return Status::ConsistencyViolation(
          "maximum cardinality: role '" + dep->full_name + "' allows " +
          dep->cardinality.ToString() + " sub-objects");
    }
  }

  ObjectItem obj;
  obj.id = object_ids_.Next();
  obj.cls = dep_cls;
  obj.parent_kind = kind;
  obj.parent_object = pobj;
  obj.parent_relationship = prel;
  obj.index = NextChildIndex(*siblings, dep_cls);
  obj.is_pattern = parent_is_pattern;
  ObjectId id = obj.id;
  objects_[id] = std::move(obj);
  siblings->push_back(id);
  if (kind == ParentKind::kObject) linked_objects_.emplace(id, pobj);
  IndexObject(objects_[id]);
  Touch(id);
  if (kind == ParentKind::kObject) {
    Touch(pobj);
  } else {
    Touch(prel);
  }

  if (!parent_is_pattern) {
    UpdateEvent event{UpdateKind::kCreateSubObject, this, id,
                      RelationshipId()};
    Status veto = RunProcedures(procedure_cls, event);
    if (!veto.ok()) {
      UnindexObject(objects_[id]);
      EraseFrom(*siblings, id);
      if (kind == ParentKind::kObject) Unlink(linked_objects_, id, pobj);
      objects_.erase(id);
      changed_objects_.erase(id);
      return veto;
    }
  }
  CountObjectCreated();
  return id;
}

Result<ObjectId> Database::CreateSubObject(ObjectId parent,
                                           std::string_view role) {
  return CreateSubObjectImpl(ParentKind::kObject, parent, RelationshipId(),
                             role);
}

Result<ObjectId> Database::CreateSubObject(RelationshipId parent,
                                           std::string_view role) {
  return CreateSubObjectImpl(ParentKind::kRelationship, ObjectId(), parent,
                             role);
}

// --- Value updates -----------------------------------------------------------

Status Database::SetValue(ObjectId obj_id, Value value) {
  ObjectItem* obj = MutableObject(obj_id);
  if (obj == nullptr || obj->deleted) {
    return Status::NotFound("object " + std::to_string(obj_id.raw()));
  }
  if (!value.defined()) {
    return Status::InvalidArgument(
        "SetValue with an undefined value; use ClearValue");
  }
  SEED_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                        schema_->GetClass(obj->cls));
  if (!obj->is_pattern) {
    SEED_RETURN_IF_ERROR(CheckValueConforms(*cls, value));
  }
  Value old = obj->value;
  obj->value = std::move(value);
  Touch(obj_id);
  RefreshAttrIndexesWithParent(obj_id);

  if (!obj->is_pattern) {
    UpdateEvent event{UpdateKind::kSetValue, this, obj_id, RelationshipId()};
    Status veto = RunProcedures(obj->cls, event);
    if (!veto.ok()) {
      obj->value = std::move(old);
      RefreshAttrIndexesWithParent(obj_id);
      return veto;
    }
  }
  CountMutation();
  return Status::OK();
}

Status Database::ClearValue(ObjectId obj_id) {
  ObjectItem* obj = MutableObject(obj_id);
  if (obj == nullptr || obj->deleted) {
    return Status::NotFound("object " + std::to_string(obj_id.raw()));
  }
  Value old = obj->value;
  obj->value = Value();
  Touch(obj_id);
  RefreshAttrIndexesWithParent(obj_id);
  if (!obj->is_pattern) {
    UpdateEvent event{UpdateKind::kClearValue, this, obj_id,
                      RelationshipId()};
    Status veto = RunProcedures(obj->cls, event);
    if (!veto.ok()) {
      obj->value = std::move(old);
      RefreshAttrIndexesWithParent(obj_id);
      return veto;
    }
  }
  CountMutation();
  return Status::OK();
}

Status Database::Rename(ObjectId obj_id, std::string new_name) {
  ObjectItem* obj = MutableObject(obj_id);
  if (obj == nullptr || obj->deleted) {
    return Status::NotFound("object " + std::to_string(obj_id.raw()));
  }
  if (!obj->is_independent()) {
    return Status::FailedPrecondition(
        "dependent objects are named by their role and cannot be renamed");
  }
  if (!strings::IsIdentifier(new_name)) {
    return Status::InvalidArgument("object name '" + new_name +
                                   "' is not an identifier");
  }
  if (new_name == obj->name) return Status::OK();
  SEED_RETURN_IF_ERROR(
      CheckIndependentName(new_name, obj->is_pattern, obj_id));

  auto& idx = obj->is_pattern ? pattern_name_index_ : name_index_;
  std::string old_name = obj->name;
  idx.erase(old_name);
  obj->name = std::move(new_name);
  idx[obj->name] = obj_id;
  Touch(obj_id);

  if (!obj->is_pattern) {
    UpdateEvent event{UpdateKind::kRename, this, obj_id, RelationshipId()};
    Status veto = RunProcedures(obj->cls, event);
    if (!veto.ok()) {
      idx.erase(obj->name);
      obj->name = std::move(old_name);
      idx[obj->name] = obj_id;
      return veto;
    }
  }
  CountMutation();
  return Status::OK();
}

// --- Deletion ----------------------------------------------------------------

Status Database::DeleteObject(ObjectId root_id) {
  ObjectItem* root = MutableObject(root_id);
  if (root == nullptr || root->deleted) {
    return Status::NotFound("object " + std::to_string(root_id.raw()));
  }

  // Collect the closure: the subtree under root, every relationship
  // touching it, those relationships' attribute subtrees, and so on.
  std::vector<ObjectId> objs;
  std::vector<RelationshipId> rels;
  std::unordered_set<ObjectId> obj_seen;
  std::unordered_set<RelationshipId> rel_seen;
  std::vector<ObjectId> work{root_id};
  obj_seen.insert(root_id);
  while (!work.empty()) {
    ObjectId oid = work.back();
    work.pop_back();
    objs.push_back(oid);
    const ObjectItem& obj = objects_.at(oid);
    for (ObjectId child : obj.children) {
      if (!objects_.at(child).deleted && obj_seen.insert(child).second) {
        work.push_back(child);
      }
    }
    auto it = rels_by_object_.find(oid);
    if (it == rels_by_object_.end()) continue;
    for (RelationshipId rid : it->second) {
      if (!rel_seen.insert(rid).second) continue;
      rels.push_back(rid);
      for (ObjectId attr : relationships_.at(rid).children) {
        if (!objects_.at(attr).deleted && obj_seen.insert(attr).second) {
          work.push_back(attr);
        }
      }
    }
  }

  // Tombstone everything (unindex first, while indexes are intact).
  for (RelationshipId rid : rels) {
    RelationshipItem& rel = relationships_.at(rid);
    UnindexRelationship(rel);
    rel.deleted = true;
    Touch(rid);
  }
  for (ObjectId oid : objs) {
    ObjectItem& obj = objects_.at(oid);
    UnindexObject(obj);
    obj.deleted = true;
    Touch(oid);
  }
  // Every deleted object's parent is inside the closure except the root's.
  for (ObjectId oid : objs) RefreshAttrIndexes(oid);
  for (RelationshipId rid : rels) RefreshRelAttrIndexes(rid);
  RefreshAttrIndexParentOf(root_id);
  bool was_pattern = objects_.at(root_id).is_pattern;
  if (!was_pattern) {
    UpdateEvent event{UpdateKind::kDeleteObject, this, root_id,
                      RelationshipId()};
    Status veto = RunProcedures(objects_.at(root_id).cls, event);
    if (!veto.ok()) {
      for (ObjectId oid : objs) {
        ObjectItem& obj = objects_.at(oid);
        obj.deleted = false;
        IndexObject(obj);
      }
      for (RelationshipId rid : rels) {
        RelationshipItem& rel = relationships_.at(rid);
        rel.deleted = false;
        IndexRelationship(rel);
      }
      for (ObjectId oid : objs) RefreshAttrIndexes(oid);
      for (RelationshipId rid : rels) RefreshRelAttrIndexes(rid);
      RefreshAttrIndexParentOf(root_id);
      return veto;
    }
  }
  CountDelete(objs.size() + rels.size());
  return Status::OK();
}

Status Database::DeleteRelationship(RelationshipId rel_id) {
  RelationshipItem* rel = MutableRelationship(rel_id);
  if (rel == nullptr || rel->deleted) {
    return Status::NotFound("relationship " + std::to_string(rel_id.raw()));
  }
  // Attribute subtrees die with the relationship.
  std::vector<ObjectId> objs;
  std::vector<ObjectId> work(rel->children.begin(), rel->children.end());
  while (!work.empty()) {
    ObjectId oid = work.back();
    work.pop_back();
    const ObjectItem& obj = objects_.at(oid);
    if (obj.deleted) continue;
    objs.push_back(oid);
    work.insert(work.end(), obj.children.begin(), obj.children.end());
  }
  for (ObjectId oid : objs) {
    ObjectItem& obj = objects_.at(oid);
    UnindexObject(obj);
    obj.deleted = true;
    Touch(oid);
  }
  for (ObjectId oid : objs) RefreshAttrIndexes(oid);
  UnindexRelationship(*rel);
  rel->deleted = true;
  Touch(rel_id);
  RefreshRelAttrIndexes(rel_id);

  if (!rel->is_pattern) {
    UpdateEvent event{UpdateKind::kDeleteRelationship, this, ObjectId(),
                      rel_id};
    Status veto = RunProcedures(rel->assoc, event);
    if (!veto.ok()) {
      rel->deleted = false;
      IndexRelationship(*rel);
      for (ObjectId oid : objs) {
        ObjectItem& obj = objects_.at(oid);
        obj.deleted = false;
        IndexObject(obj);
      }
      for (ObjectId oid : objs) RefreshAttrIndexes(oid);
      RefreshRelAttrIndexes(rel_id);
      return veto;
    }
  }
  CountDelete(1 + objs.size());
  return Status::OK();
}

// --- Re-classification -------------------------------------------------------

Status Database::Reclassify(ObjectId obj_id, ClassId new_cls) {
  ObjectItem* obj = MutableObject(obj_id);
  if (obj == nullptr || obj->deleted) {
    return Status::NotFound("object " + std::to_string(obj_id.raw()));
  }
  SEED_ASSIGN_OR_RETURN(const schema::ObjectClass* target,
                        schema_->GetClass(new_cls));
  if (new_cls == obj->cls) {
    return Status::InvalidArgument("object already has this class");
  }
  if (!obj->is_independent()) {
    return Status::FailedPrecondition(
        "only independent objects can be re-classified (dependent classes "
        "do not participate in generalization)");
  }
  if (target->is_dependent()) {
    return Status::FailedPrecondition("cannot re-classify into dependent "
                                      "class '" + target->full_name + "'");
  }
  if (!schema_->OnSameGeneralizationPath(obj->cls, new_cls)) {
    auto cur = schema_->GetClass(obj->cls);
    return Status::FailedPrecondition(
        "re-classification must move along the generalization hierarchy; '" +
        (cur.ok() ? (*cur)->full_name : "?") + "' and '" + target->full_name +
        "' are not on one path");
  }

  if (!obj->is_pattern) {
    // Sub-objects must keep a resolvable role: each child's class must be
    // declared on the new class or one of its generalization ancestors.
    auto new_chain = schema_->GeneralizationChain(new_cls);
    std::unordered_set<std::uint64_t> chain_set;
    for (ClassId c : new_chain) chain_set.insert(c.raw());
    for (ObjectId child_id : obj->children) {
      const ObjectItem& child = objects_.at(child_id);
      if (child.deleted) continue;
      auto child_cls = schema_->GetClass(child.cls);
      if (!child_cls.ok()) continue;
      if ((*child_cls)->owner.kind != schema::OwnerKind::kClass ||
          chain_set.count((*child_cls)->owner.class_id().raw()) == 0) {
        return Status::ConsistencyViolation(
            "class membership: sub-object role '" + (*child_cls)->full_name +
            "' does not exist on class '" + target->full_name + "'");
      }
    }
    // Relationships must keep conforming participants.
    auto it = rels_by_object_.find(obj_id);
    if (it != rels_by_object_.end()) {
      for (RelationshipId rid : it->second) {
        const RelationshipItem& rel = relationships_.at(rid);
        auto assoc = schema_->GetAssociation(rel.assoc);
        if (!assoc.ok()) continue;
        for (int i = 0; i < 2; ++i) {
          if (rel.ends[i] != obj_id) continue;
          if (!schema_->IsSameOrSpecializationOf(new_cls,
                                                 (*assoc)->roles[i].target)) {
            return Status::ConsistencyViolation(
                "class membership: object would no longer conform to role "
                "'" + (*assoc)->roles[i].name + "' of association '" +
                (*assoc)->name + "'");
          }
        }
      }
    }
    // Value must conform to the new class.
    if (obj->value.defined()) {
      SEED_RETURN_IF_ERROR(CheckValueConforms(*target, obj->value));
    }
  }

  ClassId old_cls = obj->cls;
  EraseFrom(by_class_[old_cls], obj_id);
  obj->cls = new_cls;
  by_class_[new_cls].push_back(obj_id);
  if (!obj->is_pattern) {
    extent_counters_.RemoveObject(old_cls);
    extent_counters_.AddObject(new_cls);
    MoveParticipantCounts(obj_id, old_cls, new_cls);
  }
  Touch(obj_id);
  // Migrates attribute-index entries between class extents: the refresh
  // clears the object from indexes that no longer cover its class and
  // inserts it into those that now do.
  RefreshAttrIndexes(obj_id);

  if (!obj->is_pattern) {
    UpdateEvent event{UpdateKind::kReclassifyObject, this, obj_id,
                      RelationshipId()};
    Status veto = RunProcedures(new_cls, event);
    if (!veto.ok()) {
      EraseFrom(by_class_[new_cls], obj_id);
      obj->cls = old_cls;
      by_class_[old_cls].push_back(obj_id);
      extent_counters_.RemoveObject(new_cls);
      extent_counters_.AddObject(old_cls);
      MoveParticipantCounts(obj_id, new_cls, old_cls);
      RefreshAttrIndexes(obj_id);
      return veto;
    }
  }
  CountReclassify();
  return Status::OK();
}

// --- Relationships -----------------------------------------------------------

Result<RelationshipId> Database::CreateRelationship(
    AssociationId assoc_id, ObjectId end0, ObjectId end1,
    const CreateOptions& opts) {
  SEED_ASSIGN_OR_RETURN(const schema::Association* assoc,
                        schema_->GetAssociation(assoc_id));
  const ObjectItem* ends[2];
  {
    SEED_ASSIGN_OR_RETURN(ends[0], GetObject(end0));
    SEED_ASSIGN_OR_RETURN(ends[1], GetObject(end1));
  }
  bool pattern = opts.pattern || ends[0]->is_pattern || ends[1]->is_pattern;
  if (!opts.pattern && pattern) {
    return Status::ConsistencyViolation(
        "pattern separation: a normal relationship cannot connect pattern "
        "objects; create it as a pattern");
  }

  if (!pattern) {
    ObjectId end_ids[2] = {end0, end1};
    for (int i = 0; i < 2; ++i) {
      if (!schema_->IsSameOrSpecializationOf(ends[i]->cls,
                                             assoc->roles[i].target)) {
        auto cls = schema_->GetClass(ends[i]->cls);
        auto want = schema_->GetClass(assoc->roles[i].target);
        return Status::ConsistencyViolation(
            "class membership: object '" + FullName(end_ids[i]) +
            "' of class '" + (cls.ok() ? (*cls)->full_name : "?") +
            "' cannot fill role '" + assoc->roles[i].name +
            "' of association '" + assoc->name + "' (wants '" +
            (want.ok() ? (*want)->full_name : "?") + "')");
      }
    }
    if (DuplicateExists(assoc_id, end0, end1, RelationshipId())) {
      return Status::ConsistencyViolation(
          "duplicate relationship: " + assoc->name + "(" + FullName(end0) +
          ", " + FullName(end1) + ") already exists");
    }
    SEED_RETURN_IF_ERROR(CheckParticipationMaxima(assoc_id, end0, end1));
    SEED_RETURN_IF_ERROR(
        CheckAcyclicity(assoc_id, end0, end1, RelationshipId()));
  }

  RelationshipItem rel;
  rel.id = relationship_ids_.Next();
  rel.assoc = assoc_id;
  rel.ends[0] = end0;
  rel.ends[1] = end1;
  rel.is_pattern = pattern;
  RelationshipId id = rel.id;
  relationships_[id] = std::move(rel);
  IndexRelationship(relationships_[id]);
  Touch(id);

  if (!pattern) {
    UpdateEvent event{UpdateKind::kCreateRelationship, this, ObjectId(), id};
    Status veto = RunProcedures(assoc_id, event);
    if (!veto.ok()) {
      UnindexRelationship(relationships_[id]);
      relationships_.erase(id);
      changed_relationships_.erase(id);
      return veto;
    }
  }
  CountRelationshipCreated();
  return id;
}

Status Database::ReclassifyRelationship(RelationshipId rel_id,
                                        AssociationId new_assoc_id) {
  RelationshipItem* rel = MutableRelationship(rel_id);
  if (rel == nullptr || rel->deleted) {
    return Status::NotFound("relationship " + std::to_string(rel_id.raw()));
  }
  SEED_ASSIGN_OR_RETURN(const schema::Association* new_assoc,
                        schema_->GetAssociation(new_assoc_id));
  if (new_assoc_id == rel->assoc) {
    return Status::InvalidArgument("relationship already has this "
                                   "association");
  }
  if (!schema_->OnSameGeneralizationPath(rel->assoc, new_assoc_id)) {
    auto cur = schema_->GetAssociation(rel->assoc);
    return Status::FailedPrecondition(
        "re-classification must move along the generalization hierarchy; '" +
        (cur.ok() ? (*cur)->name : "?") + "' and '" + new_assoc->name +
        "' are not on one path");
  }

  if (!rel->is_pattern) {
    // Participants must conform to the new roles.
    for (int i = 0; i < 2; ++i) {
      const ObjectItem& end = objects_.at(rel->ends[i]);
      if (!schema_->IsSameOrSpecializationOf(end.cls,
                                             new_assoc->roles[i].target)) {
        return Status::ConsistencyViolation(
            "class membership: participant '" + FullName(rel->ends[i]) +
            "' does not conform to role '" + new_assoc->roles[i].name +
            "' of association '" + new_assoc->name + "'");
      }
    }
    if (DuplicateExists(new_assoc_id, rel->ends[0], rel->ends[1], rel_id)) {
      return Status::ConsistencyViolation(
          "duplicate relationship: " + new_assoc->name + " between these "
          "participants already exists");
    }
    // Attribute children must keep a resolvable role on the new chain.
    auto new_chain = schema_->GeneralizationChain(new_assoc_id);
    std::unordered_set<std::uint64_t> chain_set;
    for (AssociationId a : new_chain) chain_set.insert(a.raw());
    for (ObjectId child_id : rel->children) {
      const ObjectItem& child = objects_.at(child_id);
      if (child.deleted) continue;
      auto child_cls = schema_->GetClass(child.cls);
      if (!child_cls.ok()) continue;
      if ((*child_cls)->owner.kind != schema::OwnerKind::kAssociation ||
          chain_set.count((*child_cls)->owner.association_id().raw()) == 0) {
        return Status::ConsistencyViolation(
            "class membership: attribute role '" + (*child_cls)->full_name +
            "' does not exist on association '" + new_assoc->name + "'");
      }
    }
    // New memberships (associations on the new chain but not the old one)
    // must respect maximum participation; temporarily unindex so the
    // relationship does not count against itself.
    UnindexRelationship(*rel);
    std::unordered_set<std::uint64_t> old_chain;
    for (AssociationId a : schema_->GeneralizationChain(rel->assoc)) {
      old_chain.insert(a.raw());
    }
    Status s = Status::OK();
    for (AssociationId a : new_chain) {
      if (old_chain.count(a.raw()) != 0) continue;
      auto info = schema_->GetAssociation(a);
      for (int i = 0; i < 2 && s.ok(); ++i) {
        const schema::Role& role = (*info)->roles[i];
        if (role.cardinality.unlimited_max()) continue;
        size_t count = CountParticipation(rel->ends[i], a, i);
        if (count + 1 > role.cardinality.max) {
          s = Status::ConsistencyViolation(
              "maximum role participation: '" + FullName(rel->ends[i]) +
              "' already takes part in " + std::to_string(count) +
              " relationships of '" + (*info)->name + "' as '" + role.name +
              "' (max " + role.cardinality.ToString() + ")");
        }
      }
      if (!s.ok()) break;
    }
    if (s.ok()) {
      s = CheckAcyclicity(new_assoc_id, rel->ends[0], rel->ends[1], rel_id);
    }
    if (!s.ok()) {
      IndexRelationship(*rel);
      return s;
    }
    IndexRelationship(*rel);
  }

  AssociationId old_assoc = rel->assoc;
  EraseFrom(by_assoc_[old_assoc], rel_id);
  rel->assoc = new_assoc_id;
  by_assoc_[new_assoc_id].push_back(rel_id);
  if (!rel->is_pattern) {
    extent_counters_.RemoveRelationship(old_assoc);
    extent_counters_.AddRelationship(new_assoc_id);
    MoveParticipantCounts(*rel, old_assoc, new_assoc_id);
  }
  Touch(rel_id);
  // Migrates relationship-index entries between association extents.
  RefreshRelAttrIndexes(rel_id);

  if (!rel->is_pattern) {
    UpdateEvent event{UpdateKind::kReclassifyRelationship, this, ObjectId(),
                      rel_id};
    Status veto = RunProcedures(new_assoc_id, event);
    if (!veto.ok()) {
      EraseFrom(by_assoc_[new_assoc_id], rel_id);
      rel->assoc = old_assoc;
      by_assoc_[old_assoc].push_back(rel_id);
      extent_counters_.RemoveRelationship(new_assoc_id);
      extent_counters_.AddRelationship(old_assoc);
      MoveParticipantCounts(*rel, new_assoc_id, old_assoc);
      RefreshRelAttrIndexes(rel_id);
      return veto;
    }
  }
  CountReclassify();
  return Status::OK();
}

// --- Attached procedures -----------------------------------------------------

void Database::AttachProcedure(ClassId cls, AttachedProcedure proc) {
  class_procedures_[cls].push_back(std::move(proc));
}

void Database::AttachProcedure(AssociationId assoc, AttachedProcedure proc) {
  assoc_procedures_[assoc].push_back(std::move(proc));
}

void Database::DetachProcedures(ClassId cls) { class_procedures_.erase(cls); }

void Database::DetachProcedures(AssociationId assoc) {
  assoc_procedures_.erase(assoc);
}

// --- Change tracking ---------------------------------------------------------

void Database::ClearChangeTracking() {
  changed_objects_.clear();
  changed_relationships_.clear();
}

// --- Schema evolution --------------------------------------------------------

Status Database::MigrateToSchema(schema::SchemaPtr new_schema) {
  if (new_schema == nullptr) {
    return Status::InvalidArgument("null schema");
  }
  schema::SchemaPtr old = schema_;
  schema_ = std::move(new_schema);
  Report report = AuditConsistency();
  if (!report.clean()) {
    schema_ = std::move(old);
    return Status::ConsistencyViolation(
        "existing data violates the new schema: " +
        report.violations.front().ToString() + " (and " +
        std::to_string(report.size() - 1) + " more)");
  }
  // Drop indexes whose class/role no longer exists (a pruned spec could
  // otherwise make every future Load() fail), then re-derive coverage —
  // generalization families may have changed.
  attr_indexes_.PruneInvalidSpecs(*schema_);
  RebuildIndexes();
  return Status::OK();
}

}  // namespace seed::core
