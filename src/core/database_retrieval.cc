// Retrieval operations: name resolution, class/association queries,
// sub-object navigation. The SEED prototype supports "data creation,
// update, and simple retrieval by name"; complex queries live in
// seed_query.

#include <algorithm>

#include "common/macros.h"
#include "common/strings.h"
#include "core/database.h"

namespace seed::core {

Result<ObjectId> Database::FindObjectByName(std::string_view path) const {
  SEED_ASSIGN_OR_RETURN(auto segments, strings::ParsePath(path));
  auto root_it = name_index_.find(segments[0].name);
  if (root_it == name_index_.end()) {
    return Status::NotFound("no object named '" + segments[0].name + "'");
  }
  ObjectId cur = root_it->second;
  for (size_t i = 1; i < segments.size(); ++i) {
    const ObjectItem& parent = objects_.at(cur);
    auto dep_cls = schema_->ResolveSubObjectRole(parent.cls,
                                                 segments[i].name);
    if (!dep_cls.ok()) return dep_cls.status();
    std::uint32_t index = segments[i].index.value_or(0);
    ObjectId child = FindChildByKey(cur, *dep_cls, index);
    if (!child.valid()) {
      return Status::NotFound("object '" + std::string(path) +
                              "': no sub-object '" +
                              segments[i].ToString() + "'");
    }
    cur = child;
  }
  return cur;
}

Result<ObjectId> Database::FindPatternByName(std::string_view path) const {
  SEED_ASSIGN_OR_RETURN(auto segments, strings::ParsePath(path));
  auto root_it = pattern_name_index_.find(segments[0].name);
  if (root_it == pattern_name_index_.end()) {
    return Status::NotFound("no pattern named '" + segments[0].name + "'");
  }
  ObjectId cur = root_it->second;
  for (size_t i = 1; i < segments.size(); ++i) {
    const ObjectItem& parent = objects_.at(cur);
    auto dep_cls = schema_->ResolveSubObjectRole(parent.cls,
                                                 segments[i].name);
    if (!dep_cls.ok()) return dep_cls.status();
    std::uint32_t index = segments[i].index.value_or(0);
    ObjectId child = FindChildByKey(cur, *dep_cls, index);
    if (!child.valid()) {
      return Status::NotFound("pattern '" + std::string(path) +
                              "': no sub-object '" +
                              segments[i].ToString() + "'");
    }
    cur = child;
  }
  return cur;
}

std::string Database::FullName(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) return "<unknown>";
  const ObjectItem& obj = it->second;
  std::string segment;
  if (obj.is_independent()) return obj.name;

  auto cls = schema_->GetClass(obj.cls);
  if (cls.ok()) {
    segment = (*cls)->name;
    if ((*cls)->cardinality.max != 1) {
      segment += "[" + std::to_string(obj.index) + "]";
    }
  } else {
    segment = "<class" + std::to_string(obj.cls.raw()) + ">";
  }
  if (obj.parent_kind == ParentKind::kObject) {
    return FullName(obj.parent_object) + "." + segment;
  }
  // Relationship attribute: relationships have no user names; render as
  // "<AssocName>#<relid>.role".
  auto rel_it = relationships_.find(obj.parent_relationship);
  std::string prefix = "<rel>";
  if (rel_it != relationships_.end()) {
    auto assoc = schema_->GetAssociation(rel_it->second.assoc);
    prefix = (assoc.ok() ? (*assoc)->name : "<assoc>") + "#" +
             std::to_string(obj.parent_relationship.raw());
  }
  return prefix + "." + segment;
}

std::vector<ObjectId> Database::ObjectsOfClass(
    ClassId cls, bool include_specializations) const {
  std::vector<ObjectId> out;
  std::vector<ClassId> family =
      include_specializations ? schema_->ClassFamily(cls)
                              : std::vector<ClassId>{cls};
  for (ClassId c : family) {
    auto it = by_class_.find(c);
    if (it == by_class_.end()) continue;
    for (ObjectId id : it->second) {
      if (!objects_.at(id).is_pattern) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<RelationshipId> Database::RelationshipsOfAssociation(
    AssociationId assoc, bool include_specializations) const {
  std::vector<RelationshipId> out;
  std::vector<AssociationId> family =
      include_specializations ? schema_->AssociationFamily(assoc)
                              : std::vector<AssociationId>{assoc};
  for (AssociationId a : family) {
    auto it = by_assoc_.find(a);
    if (it == by_assoc_.end()) continue;
    for (RelationshipId id : it->second) {
      if (!relationships_.at(id).is_pattern) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<RelationshipId> Database::RelationshipsOf(ObjectId obj,
                                                      AssociationId assoc,
                                                      int role) const {
  std::vector<RelationshipId> out;
  auto it = rels_by_object_.find(obj);
  if (it == rels_by_object_.end()) return out;
  std::unordered_set<std::uint64_t> family_set;
  if (assoc.valid()) {
    for (AssociationId a : schema_->AssociationFamily(assoc)) {
      family_set.insert(a.raw());
    }
  }
  for (RelationshipId rid : it->second) {
    const RelationshipItem& rel = relationships_.at(rid);
    if (rel.is_pattern) continue;
    if (assoc.valid() && family_set.count(rel.assoc.raw()) == 0) continue;
    if (role >= 0 && rel.ends[role] != obj) continue;
    out.push_back(rid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<RelationshipId> Database::PatternRelationshipsOf(
    ObjectId obj, AssociationId assoc) const {
  std::vector<RelationshipId> out;
  auto it = rels_by_object_.find(obj);
  if (it == rels_by_object_.end()) return out;
  std::unordered_set<std::uint64_t> family_set;
  if (assoc.valid()) {
    for (AssociationId a : schema_->AssociationFamily(assoc)) {
      family_set.insert(a.raw());
    }
  }
  for (RelationshipId rid : it->second) {
    const RelationshipItem& rel = relationships_.at(rid);
    if (!rel.is_pattern) continue;
    if (assoc.valid() && family_set.count(rel.assoc.raw()) == 0) continue;
    out.push_back(rid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

std::vector<ObjectId> CollectSubObjects(
    const std::map<ObjectId, ObjectItem>& objects,
    const schema::Schema& schema, const std::vector<ObjectId>& children,
    std::string_view role) {
  std::vector<ObjectId> out;
  for (ObjectId child_id : children) {
    const ObjectItem& child = objects.at(child_id);
    if (child.deleted) continue;
    if (!role.empty()) {
      auto cls = schema.GetClass(child.cls);
      if (!cls.ok() || (*cls)->name != role) continue;
    }
    out.push_back(child_id);
  }
  std::stable_sort(out.begin(), out.end(),
                   [&objects](ObjectId a, ObjectId b) {
                     return objects.at(a).index < objects.at(b).index;
                   });
  return out;
}

template <typename Map, typename Key>
std::vector<ObjectId> SortedLinks(const Map& map, const Key& key) {
  std::vector<ObjectId> out;
  auto [begin, end] = map.equal_range(key);
  for (auto it = begin; it != end; ++it) out.push_back(it->second);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

std::vector<ObjectId> Database::SubObjects(ObjectId parent,
                                           std::string_view role) const {
  auto it = objects_.find(parent);
  if (it == objects_.end()) return {};
  return CollectSubObjects(objects_, *schema_, it->second.children, role);
}

std::vector<ObjectId> Database::SubObjects(RelationshipId parent,
                                           std::string_view role) const {
  auto it = relationships_.find(parent);
  if (it == relationships_.end()) return {};
  return CollectSubObjects(objects_, *schema_, it->second.children, role);
}

std::vector<ObjectId> Database::ObjectsLinkedTo(ObjectId id) const {
  return SortedLinks(linked_objects_, id);
}

std::vector<ObjectId> Database::ObjectsLinkedTo(RelationshipId id) const {
  return SortedLinks(attributes_of_, id);
}

std::vector<ObjectId> Database::AllIndependentObjects() const {
  std::vector<ObjectId> out;
  for (const auto& [name, id] : name_index_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ObjectId> Database::AllPatternRoots() const {
  std::vector<ObjectId> out;
  for (const auto& [name, id] : pattern_name_index_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

void Database::ForEachObject(
    const std::function<void(const ObjectItem&)>& fn) const {
  for (const auto& [id, obj] : objects_) {
    if (!obj.deleted) fn(obj);
  }
}

void Database::ForEachRelationship(
    const std::function<void(const RelationshipItem&)>& fn) const {
  for (const auto& [id, rel] : relationships_) {
    if (!rel.deleted) fn(rel);
  }
}

}  // namespace seed::core
