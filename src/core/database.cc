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
/// ids' nodes move across instead of being copied, and `ids` reserves
/// through them. An id the table already held is not reserved again: a
/// client workspace pins its generator below the foreign ids it imported.
/// Returns the written positions in id order.
template <typename Map, typename Id>
std::vector<typename Map::iterator> OverwriteItems(Map& table, Map& states,
                                                   IdGenerator<Id>* ids) {
  std::vector<typename Map::iterator> written;
  written.reserve(states.size());
  while (!states.empty()) {
    auto result = table.insert(states.extract(states.begin()));
    if (result.inserted) {
      ids->ReserveThrough(result.position->first);
    } else {
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
  copy->TakeFreshIdentity();
  return copy;
}

void Database::TakeFreshIdentity() {
  instance_id_ = NextInstanceId();
  ClearChangeTracking();
  class_procedures_.clear();
  assoc_procedures_.clear();
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

void Database::UnindexObject(const ObjectItem& obj, ListRemovals* gone) {
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
  gone->objects.insert(obj.id);
  gone->classes.insert(obj.cls);
  if (obj.parent_kind == ParentKind::kObject) {
    gone->linked.insert(obj.parent_object);
  } else if (obj.parent_kind == ParentKind::kRelationship) {
    gone->owners.insert(obj.parent_relationship);
  }
  gone->linked.insert(obj.children.begin(), obj.children.end());
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
                                   ListRemovals* gone) {
  gone->relationships.insert(rel.id);
  gone->assocs.insert(rel.assoc);
  gone->ends.insert(rel.ends[0]);
  gone->ends.insert(rel.ends[1]);
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
  // Written items bump the sequence through Touch; erasures and a schema
  // adoption through this.
  ++write_seq_;
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

  for (ObjectId id : states.erased_objects) {
    objects_.erase(id);
    changed_objects_.erase(id);
  }
  for (RelationshipId id : states.erased_relationships) {
    relationships_.erase(id);
    changed_relationships_.erase(id);
  }
  const auto objects = OverwriteItems(objects_, states.objects, &object_ids_);
  const auto relationships =
      OverwriteItems(relationships_, states.relationships, &relationship_ids_);
  for (auto it : objects) Touch(it->first);
  for (auto it : relationships) Touch(it->first);
  if (rederive) {
    RebuildIndexes();
    return;
  }

  // New states enter in id order: on an empty database this is exactly
  // the RebuildIndexes pass.
  for (auto it : objects) IndexObject(it->second);
  for (auto it : relationships) IndexRelationship(it->second);
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
  ++write_seq_;
  SEED_RETURN_IF_ERROR(attr_indexes_.CreateIndex(*schema_, spec));
  attr_indexes_.BackfillIndex(*schema_, objects_, relationships_, spec);
  return Status::OK();
}

Status Database::DropAttributeIndex(ClassId cls, std::string_view role) {
  ++write_seq_;
  return attr_indexes_.DropIndex(cls, role);
}

Status Database::DropAttributeIndex(AssociationId assoc,
                                    std::string_view role) {
  ++write_seq_;
  return attr_indexes_.DropIndex(assoc, role);
}

void Database::RefreshAttrIndexes(ObjectId id) {
  if (attr_indexes_.empty()) return;
  attr_indexes_.RefreshObject(*schema_, objects_, id);
}

void Database::RefreshAttrIndexesWithParent(ObjectId id) {
  if (attr_indexes_.empty()) return;
  attr_indexes_.RefreshObject(*schema_, objects_, id);
  const ObjectItem& obj = objects_.at(id);
  if (obj.parent_kind == ParentKind::kObject) {
    attr_indexes_.RefreshObject(*schema_, objects_, obj.parent_object);
  } else if (obj.parent_kind == ParentKind::kRelationship) {
    // Relationship attribute: the owning relationship's index entries
    // derive from this sub-object's value.
    RefreshRelAttrIndexes(obj.parent_relationship);
  }
}

void Database::RefreshRelAttrIndexes(RelationshipId id) {
  if (!attr_indexes_.has_relationship_indexes()) return;
  attr_indexes_.RefreshRelationship(*schema_, objects_, relationships_, id);
}

// --- Veto rollback -----------------------------------------------------------

Database::Undo Database::UndoOf(ItemStates prior) const {
  Undo undo;
  for (const auto& [id, obj] : prior.objects) {
    if (changed_objects_.count(id) == 0) undo.unchanged_objects.push_back(id);
  }
  for (const auto& [id, rel] : prior.relationships) {
    if (changed_relationships_.count(id) == 0) {
      undo.unchanged_relationships.push_back(id);
    }
  }
  undo.prior = std::move(prior);
  return undo;
}

Database::Undo Database::Prior(ObjectId id) const {
  if (!CanVeto()) return Undo();
  ItemStates prior;
  prior.objects.emplace(id, objects_.at(id));
  return UndoOf(std::move(prior));
}

Database::Undo Database::Prior(RelationshipId id) const {
  if (!CanVeto()) return Undo();
  ItemStates prior;
  prior.relationships.emplace(id, relationships_.at(id));
  return UndoOf(std::move(prior));
}

Status Database::UndoIfVetoed(Status veto, Undo undo) {
  if (veto.ok()) return veto;
  // The write touches every item it restores; the ones the update found
  // unchanged leave the change sets again (created ones leave as erased).
  WriteItemStates(std::move(undo.prior));
  for (ObjectId id : undo.unchanged_objects) changed_objects_.erase(id);
  for (RelationshipId id : undo.unchanged_relationships) {
    changed_relationships_.erase(id);
  }
  return veto;
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
    Undo undo;
    undo.prior.erased_objects.push_back(id);
    UpdateEvent event{UpdateKind::kCreateObject, this, id, RelationshipId()};
    SEED_RETURN_IF_ERROR(
        UndoIfVetoed(RunProcedures(cls, event), std::move(undo)));
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
  // A veto restores the parent's child list and erases the new object.
  Undo undo = kind == ParentKind::kObject ? Prior(pobj) : Prior(prel);
  undo.prior.erased_objects.push_back(id);
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
    SEED_RETURN_IF_ERROR(
        UndoIfVetoed(RunProcedures(dep_cls, event), std::move(undo)));
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
  Undo undo = Prior(obj_id);
  obj->value = std::move(value);
  Touch(obj_id);
  RefreshAttrIndexesWithParent(obj_id);

  if (!obj->is_pattern) {
    UpdateEvent event{UpdateKind::kSetValue, this, obj_id, RelationshipId()};
    SEED_RETURN_IF_ERROR(
        UndoIfVetoed(RunProcedures(obj->cls, event), std::move(undo)));
  }
  CountMutation();
  return Status::OK();
}

Status Database::ClearValue(ObjectId obj_id) {
  ObjectItem* obj = MutableObject(obj_id);
  if (obj == nullptr || obj->deleted) {
    return Status::NotFound("object " + std::to_string(obj_id.raw()));
  }
  Undo undo = Prior(obj_id);
  obj->value = Value();
  Touch(obj_id);
  RefreshAttrIndexesWithParent(obj_id);
  if (!obj->is_pattern) {
    UpdateEvent event{UpdateKind::kClearValue, this, obj_id,
                      RelationshipId()};
    SEED_RETURN_IF_ERROR(
        UndoIfVetoed(RunProcedures(obj->cls, event), std::move(undo)));
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

  Undo undo = Prior(obj_id);
  auto& idx = obj->is_pattern ? pattern_name_index_ : name_index_;
  idx.erase(obj->name);
  obj->name = std::move(new_name);
  idx[obj->name] = obj_id;
  Touch(obj_id);

  if (!obj->is_pattern) {
    UpdateEvent event{UpdateKind::kRename, this, obj_id, RelationshipId()};
    SEED_RETURN_IF_ERROR(
        UndoIfVetoed(RunProcedures(obj->cls, event), std::move(undo)));
  }
  CountMutation();
  return Status::OK();
}

// --- Deletion ----------------------------------------------------------------

Database::Undo Database::TombstoneClosure(ObjectId obj, RelationshipId rel) {
  // The closure: the root, the live sub-object trees of every collected
  // item, and every live relationship of a collected object, transitively,
  // so that no live relationship ends at a tombstone.
  ItemStates prior;
  std::vector<ObjectId> work;
  auto take_relationship = [&](RelationshipId id) {
    auto [it, taken] =
        prior.relationships.try_emplace(id, relationships_.at(id));
    if (taken) {
      work.insert(work.end(), it->second.children.begin(),
                  it->second.children.end());
    }
  };
  if (obj.valid()) {
    work.push_back(obj);
  } else {
    take_relationship(rel);
  }
  while (!work.empty()) {
    const ObjectItem& item = objects_.at(work.back());
    work.pop_back();
    if (item.deleted || !prior.objects.try_emplace(item.id, item).second) {
      continue;
    }
    work.insert(work.end(), item.children.begin(), item.children.end());
    auto it = rels_by_object_.find(item.id);
    if (it == rels_by_object_.end()) continue;
    for (RelationshipId rid : it->second) take_relationship(rid);
  }
  ItemStates tombstones = prior;
  for (auto& [id, item] : tombstones.objects) item.deleted = true;
  for (auto& [id, item] : tombstones.relationships) item.deleted = true;
  Undo undo = UndoOf(std::move(prior));
  WriteItemStates(std::move(tombstones));
  return undo;
}

Status Database::DeleteObject(ObjectId root_id) {
  SEED_ASSIGN_OR_RETURN(const ObjectItem* root, GetObject(root_id));
  Undo undo = TombstoneClosure(root_id, RelationshipId());
  const size_t items =
      undo.prior.objects.size() + undo.prior.relationships.size();
  if (!root->is_pattern) {
    UpdateEvent event{UpdateKind::kDeleteObject, this, root_id,
                      RelationshipId()};
    SEED_RETURN_IF_ERROR(
        UndoIfVetoed(RunProcedures(root->cls, event), std::move(undo)));
  }
  CountDelete(items);
  return Status::OK();
}

Status Database::DeleteRelationship(RelationshipId rel_id) {
  SEED_ASSIGN_OR_RETURN(const RelationshipItem* rel, GetRelationship(rel_id));
  Undo undo = TombstoneClosure(ObjectId(), rel_id);
  const size_t items =
      undo.prior.objects.size() + undo.prior.relationships.size();
  if (!rel->is_pattern) {
    UpdateEvent event{UpdateKind::kDeleteRelationship, this, ObjectId(),
                      rel_id};
    SEED_RETURN_IF_ERROR(
        UndoIfVetoed(RunProcedures(rel->assoc, event), std::move(undo)));
  }
  CountDelete(items);
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

  Undo undo = Prior(obj_id);
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
    SEED_RETURN_IF_ERROR(
        UndoIfVetoed(RunProcedures(new_cls, event), std::move(undo)));
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
    Undo undo;
    undo.prior.erased_relationships.push_back(id);
    UpdateEvent event{UpdateKind::kCreateRelationship, this, ObjectId(), id};
    SEED_RETURN_IF_ERROR(
        UndoIfVetoed(RunProcedures(assoc_id, event), std::move(undo)));
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
    // must respect maximum participation. The relationship never counts
    // against itself there: an association off its old chain has no
    // family containing the old association.
    std::unordered_set<std::uint64_t> old_chain;
    for (AssociationId a : schema_->GeneralizationChain(rel->assoc)) {
      old_chain.insert(a.raw());
    }
    for (AssociationId a : new_chain) {
      if (old_chain.count(a.raw()) != 0) continue;
      auto info = schema_->GetAssociation(a);
      for (int i = 0; i < 2; ++i) {
        const schema::Role& role = (*info)->roles[i];
        if (role.cardinality.unlimited_max()) continue;
        size_t count = CountParticipation(rel->ends[i], a, i);
        if (count + 1 > role.cardinality.max) {
          return Status::ConsistencyViolation(
              "maximum role participation: '" + FullName(rel->ends[i]) +
              "' already takes part in " + std::to_string(count) +
              " relationships of '" + (*info)->name + "' as '" + role.name +
              "' (max " + role.cardinality.ToString() + ")");
        }
      }
    }
    SEED_RETURN_IF_ERROR(
        CheckAcyclicity(new_assoc_id, rel->ends[0], rel->ends[1], rel_id));
  }

  Undo undo = Prior(rel_id);
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
    SEED_RETURN_IF_ERROR(
        UndoIfVetoed(RunProcedures(new_assoc_id, event), std::move(undo)));
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
  ++write_seq_;
  return Status::OK();
}

}  // namespace seed::core
