// Consistency and completeness checking.
//
// Consistency rules (class membership, maximum cardinalities, ACYCLIC,
// attached procedures, value types, duplicates, names) run incrementally
// inside every mutating operation; AuditConsistency() re-derives all of
// them from scratch for tests, recovery and schema migration, and
// AuditNeighbourhood() re-checks only what a bulk write touched (the
// multiuser check-in).
//
// Completeness rules (minimum cardinalities, covering conditions,
// undefined values) are evaluated only by the explicit CheckCompleteness()
// operations and never veto an update.

#include <algorithm>
#include <set>

#include "common/macros.h"
#include "core/database.h"

namespace seed::core {

// --- Incremental consistency helpers -----------------------------------------

Status Database::CheckIndependentName(const std::string& name, bool pattern,
                                      ObjectId ignore) const {
  const auto& idx = pattern ? pattern_name_index_ : name_index_;
  auto it = idx.find(name);
  if (it != idx.end() && it->second != ignore) {
    return Status::ConsistencyViolation(
        "name conflict: " + std::string(pattern ? "pattern" : "object") +
        " '" + name + "' already exists");
  }
  return Status::OK();
}

Status Database::CheckValueConforms(const schema::ObjectClass& cls,
                                    const Value& value) const {
  using schema::ValueType;
  if (!value.defined()) return Status::OK();
  if (cls.value_type == ValueType::kNone) {
    return Status::ConsistencyViolation(
        "value type: class '" + cls.full_name + "' carries no value");
  }
  if (value.type() != cls.value_type) {
    return Status::ConsistencyViolation(
        "value type: class '" + cls.full_name + "' wants " +
        std::string(schema::ValueTypeToString(cls.value_type)) + ", got " +
        std::string(schema::ValueTypeToString(value.type())));
  }
  if (cls.value_type == ValueType::kEnum) {
    const std::string& v = value.as_enum();
    if (std::find(cls.enum_values.begin(), cls.enum_values.end(), v) ==
        cls.enum_values.end()) {
      return Status::ConsistencyViolation(
          "value type: '" + v + "' is not an allowed value of enum class '" +
          cls.full_name + "'");
    }
  }
  return Status::OK();
}

size_t Database::CountChildrenOfClass(const std::vector<ObjectId>& children,
                                      ClassId cls) const {
  size_t n = 0;
  for (ObjectId id : children) {
    const ObjectItem& child = objects_.at(id);
    if (!child.deleted && child.cls == cls) ++n;
  }
  return n;
}

std::uint32_t Database::NextChildIndex(const std::vector<ObjectId>& children,
                                       ClassId cls) const {
  std::uint32_t next = 0;
  for (ObjectId id : children) {
    const ObjectItem& child = objects_.at(id);
    if (!child.deleted && child.cls == cls && child.index >= next) {
      next = child.index + 1;
    }
  }
  return next;
}

size_t Database::CountParticipation(ObjectId obj, AssociationId assoc,
                                    int role) const {
  auto it = rels_by_object_.find(obj);
  if (it == rels_by_object_.end()) return 0;
  std::unordered_set<std::uint64_t> family;
  for (AssociationId a : schema_->AssociationFamily(assoc)) {
    family.insert(a.raw());
  }
  size_t n = 0;
  for (RelationshipId rid : it->second) {
    const RelationshipItem& rel = relationships_.at(rid);
    if (rel.is_pattern) continue;
    if (family.count(rel.assoc.raw()) == 0) continue;
    if (rel.ends[role] == obj) ++n;
  }
  return n;
}

Status Database::CheckParticipationMaxima(AssociationId assoc, ObjectId end0,
                                          ObjectId end1) const {
  // A relationship of `assoc` also counts as a relationship of every
  // generalization ancestor (paper Fig. 3: a Read is an Access), so the
  // maxima of the whole chain apply.
  ObjectId ends[2] = {end0, end1};
  for (AssociationId a : schema_->GeneralizationChain(assoc)) {
    SEED_ASSIGN_OR_RETURN(const schema::Association* info,
                          schema_->GetAssociation(a));
    for (int i = 0; i < 2; ++i) {
      const schema::Role& role = info->roles[i];
      if (role.cardinality.unlimited_max()) continue;
      size_t count = CountParticipation(ends[i], a, i);
      if (count + 1 > role.cardinality.max) {
        return Status::ConsistencyViolation(
            "maximum role participation: '" + FullName(ends[i]) +
            "' already takes part in " + std::to_string(count) +
            " relationships of '" + info->name + "' as '" + role.name +
            "' (max " + role.cardinality.ToString() + ")");
      }
    }
  }
  return Status::OK();
}

bool Database::DuplicateExists(AssociationId assoc, ObjectId end0,
                               ObjectId end1, RelationshipId ignore) const {
  // Scan end0's own relationship list, not the association extent: an
  // object's degree stays small while an association can hold the whole
  // database (creating n relationships used to cost O(n^2) through this
  // check).
  auto it = rels_by_object_.find(end0);
  if (it == rels_by_object_.end()) return false;
  for (RelationshipId rid : it->second) {
    if (rid == ignore) continue;
    const RelationshipItem& rel = relationships_.at(rid);
    if (!rel.is_pattern && rel.assoc == assoc && rel.ends[0] == end0 &&
        rel.ends[1] == end1) {
      return true;
    }
  }
  return false;
}

bool Database::WouldCreateCycle(AssociationId root, ObjectId from,
                                ObjectId to, RelationshipId ignore) const {
  // Adding edge to->... wait: the new edge is from->to (role0 -> role1).
  // A cycle appears iff `from` is reachable from `to` via existing edges.
  if (from == to) return true;
  std::unordered_set<std::uint64_t> family;
  for (AssociationId a : schema_->AssociationFamily(root)) {
    family.insert(a.raw());
  }
  std::vector<ObjectId> stack{to};
  std::unordered_set<ObjectId> seen{to};
  while (!stack.empty()) {
    ObjectId cur = stack.back();
    stack.pop_back();
    auto it = rels_by_object_.find(cur);
    if (it == rels_by_object_.end()) continue;
    for (RelationshipId rid : it->second) {
      if (rid == ignore) continue;
      const RelationshipItem& rel = relationships_.at(rid);
      if (rel.is_pattern) continue;
      if (family.count(rel.assoc.raw()) == 0) continue;
      if (rel.ends[0] != cur) continue;
      ObjectId next = rel.ends[1];
      if (next == from) return true;
      if (seen.insert(next).second) stack.push_back(next);
    }
  }
  return false;
}

Status Database::CheckAcyclicity(AssociationId assoc, ObjectId end0,
                                 ObjectId end1,
                                 RelationshipId ignore) const {
  for (AssociationId a : schema_->GeneralizationChain(assoc)) {
    SEED_ASSIGN_OR_RETURN(const schema::Association* info,
                          schema_->GetAssociation(a));
    if (!info->acyclic) continue;
    if (WouldCreateCycle(a, end0, end1, ignore)) {
      return Status::ConsistencyViolation(
          "ACYCLIC: relationship would close a cycle in association '" +
          info->name + "'");
    }
  }
  return Status::OK();
}

Status Database::RunProcedures(ClassId cls, const UpdateEvent& event) const {
  for (ClassId c : schema_->GeneralizationChain(cls)) {
    auto it = class_procedures_.find(c);
    if (it == class_procedures_.end()) continue;
    for (const AttachedProcedure& proc : it->second) {
      Status s = proc(event);
      if (!s.ok()) {
        return Status::ConsistencyViolation(
            "attached procedure vetoed the update: " + s.message());
      }
    }
  }
  return Status::OK();
}

Status Database::RunProcedures(AssociationId assoc,
                               const UpdateEvent& event) const {
  for (AssociationId a : schema_->GeneralizationChain(assoc)) {
    auto it = assoc_procedures_.find(a);
    if (it == assoc_procedures_.end()) continue;
    for (const AttachedProcedure& proc : it->second) {
      Status s = proc(event);
      if (!s.ok()) {
        return Status::ConsistencyViolation(
            "attached procedure vetoed the update: " + s.message());
      }
    }
  }
  return Status::OK();
}

// --- Consistency audits ------------------------------------------------------

// Each rule is written once, as a check of one item, and shared by the
// full audit and the neighbourhood audit; they differ only in which items
// they visit (and in where the name rule finds a name's holder).

void Database::AuditObject(const ObjectItem& obj, NameHolders* names,
                           Report* report) const {
  auto add = [report, &obj](Rule rule, std::string detail) {
    report->violations.push_back(
        Violation{rule, obj.id, RelationshipId(), std::move(detail)});
  };
  const ObjectId id = obj.id;
  auto cls = schema_->GetClass(obj.cls);
  if (!cls.ok()) {
    add(Rule::kClassMembership, "object '" + FullName(id) +
                                    "' has unknown class id " +
                                    std::to_string(obj.cls.raw()));
    return;
  }
  if (obj.is_independent()) {
    if ((*cls)->is_dependent()) {
      add(Rule::kClassMembership, "independent object '" + obj.name +
                                      "' has dependent class '" +
                                      (*cls)->full_name + "'");
    }
    ObjectId holder = id;
    if (names != nullptr) {
      holder = names->emplace(obj.name, id).first->second;
    } else if (auto it = name_index_.find(obj.name); it != name_index_.end()) {
      holder = it->second;
    }
    if (holder != id) {
      add(Rule::kNameConflict,
          "duplicate independent name '" + obj.name + "'");
    }
  } else if (obj.parent_kind == ParentKind::kObject) {
    auto parent_it = objects_.find(obj.parent_object);
    if (parent_it == objects_.end() || parent_it->second.deleted) {
      add(Rule::kClassMembership,
          "sub-object '" + FullName(id) + "' has no live parent");
    } else {
      auto resolved =
          schema_->ResolveSubObjectRole(parent_it->second.cls, (*cls)->name);
      if (!resolved.ok() || *resolved != obj.cls) {
        add(Rule::kClassMembership,
            "sub-object '" + FullName(id) +
                "' is not a legal role of its parent's class");
      }
    }
  } else {
    auto parent_it = relationships_.find(obj.parent_relationship);
    if (parent_it == relationships_.end() || parent_it->second.deleted) {
      add(Rule::kClassMembership,
          "attribute '" + FullName(id) + "' has no live relationship");
    } else {
      auto resolved = schema_->ResolveSubObjectRole(parent_it->second.assoc,
                                                    (*cls)->name);
      if (!resolved.ok() || *resolved != obj.cls) {
        add(Rule::kClassMembership,
            "attribute '" + FullName(id) +
                "' is not a legal role of its relationship's association");
      }
    }
  }
  // Maximum cardinality over each dependent role.
  for (ClassId dep : schema_->EffectiveDependentClassesOf(obj.cls)) {
    auto dep_cls = schema_->GetClass(dep);
    if (!(*dep_cls)->cardinality.unlimited_max()) {
      size_t count = CountChildrenOfClass(obj.children, dep);
      if (count > (*dep_cls)->cardinality.max) {
        add(Rule::kMaxCardinality,
            "object '" + FullName(id) + "' has " + std::to_string(count) +
                " sub-objects in role '" + (*dep_cls)->full_name +
                "' (max " + (*dep_cls)->cardinality.ToString() + ")");
      }
    }
  }
  Status vs = CheckValueConforms(**cls, obj.value);
  if (!vs.ok()) add(Rule::kValueType, vs.message());
}

void Database::AuditRelationship(const RelationshipItem& rel,
                                 Report* report) const {
  auto add = [report, &rel](Rule rule, std::string detail) {
    report->violations.push_back(
        Violation{rule, ObjectId(), rel.id, std::move(detail)});
  };
  auto assoc = schema_->GetAssociation(rel.assoc);
  if (!assoc.ok()) {
    add(Rule::kClassMembership, "relationship has unknown association id " +
                                    std::to_string(rel.assoc.raw()));
    return;
  }
  for (int i = 0; i < 2; ++i) {
    auto end_it = objects_.find(rel.ends[i]);
    if (end_it == objects_.end() || end_it->second.deleted) {
      add(Rule::kClassMembership,
          "relationship of '" + (*assoc)->name + "' has a dead end");
      continue;
    }
    if (end_it->second.is_pattern) {
      add(Rule::kPatternSeparation, "normal relationship of '" +
                                        (*assoc)->name +
                                        "' connects a pattern object");
    }
    if (!schema_->IsSameOrSpecializationOf(end_it->second.cls,
                                           (*assoc)->roles[i].target)) {
      add(Rule::kClassMembership,
          "participant '" + FullName(rel.ends[i]) +
              "' does not conform to role '" + (*assoc)->roles[i].name +
              "' of '" + (*assoc)->name + "'");
    }
  }
  if (DuplicateExists(rel.assoc, rel.ends[0], rel.ends[1], rel.id)) {
    add(Rule::kDuplicateRelationship,
        "duplicate relationship of '" + (*assoc)->name + "'");
  }
}

void Database::AuditRoleMaximum(const schema::Association& info,
                                AssociationId assoc, int role, ObjectId obj,
                                Report* report) const {
  const schema::Role& r = info.roles[role];
  size_t count = CountParticipation(obj, assoc, role);
  if (count > r.cardinality.max) {
    report->violations.push_back(Violation{
        Rule::kRoleMaxParticipation, obj, RelationshipId(),
        "object '" + FullName(obj) + "' takes part in " +
            std::to_string(count) + " relationships of '" + info.name +
            "' as '" + r.name + "' (max " + r.cardinality.ToString() + ")"});
  }
}

void Database::AddCycleViolation(const schema::Association& info,
                                 Report* report) {
  report->violations.push_back(
      Violation{Rule::kAcyclic, ObjectId(), RelationshipId(),
                "association '" + info.name + "' contains a cycle"});
}

Report Database::AuditConsistency() const {
  Report report;
  NameHolders names;
  for (const auto& [id, obj] : objects_) {
    if (obj.deleted || obj.is_pattern) continue;
    AuditObject(obj, &names, &report);
  }
  for (const auto& [id, rel] : relationships_) {
    if (rel.deleted || rel.is_pattern) continue;
    AuditRelationship(rel, &report);
  }

  // Maximum role participation, per association and live object.
  for (AssociationId a : schema_->AllAssociationIds()) {
    auto info = schema_->GetAssociation(a);
    for (int i = 0; i < 2; ++i) {
      const schema::Role& role = (*info)->roles[i];
      if (role.cardinality.unlimited_max()) continue;
      for (ObjectId obj : ObjectsOfClass(role.target, true)) {
        AuditRoleMaximum(**info, a, i, obj, &report);
      }
    }
  }

  // ACYCLIC conditions: full graph check per acyclic association family.
  for (AssociationId a : schema_->AllAssociationIds()) {
    auto info = schema_->GetAssociation(a);
    if (!(*info)->acyclic) continue;
    // Kahn's algorithm over the family graph.
    std::unordered_set<std::uint64_t> family;
    for (AssociationId f : schema_->AssociationFamily(a)) {
      family.insert(f.raw());
    }
    std::unordered_map<ObjectId, size_t> indegree;
    std::unordered_map<ObjectId, std::vector<ObjectId>> adj;
    size_t num_edges = 0;
    for (const auto& [rid, rel] : relationships_) {
      if (rel.deleted || rel.is_pattern) continue;
      if (family.count(rel.assoc.raw()) == 0) continue;
      adj[rel.ends[0]].push_back(rel.ends[1]);
      ++indegree[rel.ends[1]];
      indegree.emplace(rel.ends[0], indegree[rel.ends[0]]);
      ++num_edges;
    }
    std::vector<ObjectId> queue;
    for (const auto& [node, deg] : indegree) {
      if (deg == 0) queue.push_back(node);
    }
    size_t visited_edges = 0;
    while (!queue.empty()) {
      ObjectId cur = queue.back();
      queue.pop_back();
      auto it = adj.find(cur);
      if (it == adj.end()) continue;
      for (ObjectId next : it->second) {
        ++visited_edges;
        if (--indegree[next] == 0) queue.push_back(next);
      }
    }
    if (visited_edges != num_edges) AddCycleViolation(**info, &report);
  }
  return report;
}

Report Database::AuditNeighbourhood(
    const std::vector<ObjectId>& objects,
    const std::vector<RelationshipId>& relationships) const {
  // Items whose object rules, relationship rules or role maxima read a
  // touched item. Ordered sets keep the report in id order.
  std::set<ObjectId> objs;
  std::set<RelationshipId> rels;
  std::set<ObjectId> participants;
  for (ObjectId id : objects) {
    objs.insert(id);
    participants.insert(id);
    for (ObjectId linked : ObjectsLinkedTo(id)) objs.insert(linked);
    if (auto it = rels_by_object_.find(id); it != rels_by_object_.end()) {
      rels.insert(it->second.begin(), it->second.end());
    }
  }
  for (RelationshipId id : relationships) {
    rels.insert(id);
    for (ObjectId attr : ObjectsLinkedTo(id)) objs.insert(attr);
    if (auto it = relationships_.find(id); it != relationships_.end()) {
      participants.insert(it->second.ends[0]);
      participants.insert(it->second.ends[1]);
    }
  }

  auto live = [](const auto& table, auto id) {
    auto it = table.find(id);
    return it == table.end() || it->second.deleted || it->second.is_pattern
               ? nullptr
               : &it->second;
  };
  Report report;
  for (ObjectId id : objs) {
    if (const ObjectItem* obj = live(objects_, id)) {
      AuditObject(*obj, nullptr, &report);
    }
  }
  for (RelationshipId id : rels) {
    if (const RelationshipItem* rel = live(relationships_, id)) {
      AuditRelationship(*rel, &report);
    }
  }
  const std::vector<AssociationId> assocs = schema_->AllAssociationIds();
  for (ObjectId id : participants) {
    const ObjectItem* obj = live(objects_, id);
    if (obj == nullptr) continue;
    for (AssociationId a : assocs) {
      auto info = schema_->GetAssociation(a);
      for (int i = 0; i < 2; ++i) {
        const schema::Role& role = (*info)->roles[i];
        if (role.cardinality.unlimited_max() ||
            !schema_->IsSameOrSpecializationOf(obj->cls, role.target)) {
          continue;
        }
        AuditRoleMaximum(**info, a, i, id, &report);
      }
    }
  }
  // The database was acyclic before, so any cycle runs through a touched
  // edge: search from each one, once per acyclic family.
  std::set<AssociationId> cyclic;
  for (RelationshipId id : relationships) {
    const RelationshipItem* rel = live(relationships_, id);
    if (rel == nullptr) continue;
    for (AssociationId a : schema_->GeneralizationChain(rel->assoc)) {
      auto info = schema_->GetAssociation(a);
      if (!info.ok() || !(*info)->acyclic || cyclic.count(a) != 0) continue;
      if (WouldCreateCycle(a, rel->ends[0], rel->ends[1], id)) {
        cyclic.insert(a);
        AddCycleViolation(**info, &report);
      }
    }
  }
  return report;
}

// --- Completeness ------------------------------------------------------------

void Database::CheckObjectCompleteness(const ObjectItem& obj,
                                       Report* report) const {
  auto cls = schema_->GetClass(obj.cls);
  if (!cls.ok()) return;
  // Minimum cardinalities of every effective dependent role.
  for (ClassId dep : schema_->EffectiveDependentClassesOf(obj.cls)) {
    auto dep_cls = schema_->GetClass(dep);
    if ((*dep_cls)->cardinality.min == 0) continue;
    size_t count = CountChildrenOfClass(obj.children, dep);
    if (count < (*dep_cls)->cardinality.min) {
      report->violations.push_back(Violation{
          Rule::kMinCardinality, obj.id, RelationshipId(),
          "object '" + FullName(obj.id) + "' has " + std::to_string(count) +
              " sub-objects in role '" + (*dep_cls)->full_name + "' (min " +
              (*dep_cls)->cardinality.ToString() + ")"});
    }
  }
  // Covering condition: the instance must finally be specialized.
  if ((*cls)->covering) {
    report->violations.push_back(Violation{
        Rule::kCovering, obj.id, RelationshipId(),
        "object '" + FullName(obj.id) + "' still sits at covering class '" +
            (*cls)->full_name + "' and must be specialized"});
  }
  // Undefined value.
  if ((*cls)->value_type != schema::ValueType::kNone &&
      !obj.value.defined()) {
    report->violations.push_back(Violation{
        Rule::kUndefinedValue, obj.id, RelationshipId(),
        "object '" + FullName(obj.id) + "' of class '" + (*cls)->full_name +
            "' has no value"});
  }
  // Minimum role participation over every association whose role this
  // object's class conforms to.
  for (AssociationId a : schema_->AllAssociationIds()) {
    auto info = schema_->GetAssociation(a);
    for (int i = 0; i < 2; ++i) {
      const schema::Role& role = (*info)->roles[i];
      if (role.cardinality.min == 0) continue;
      if (!schema_->IsSameOrSpecializationOf(obj.cls, role.target)) continue;
      size_t count = CountParticipation(obj.id, a, i);
      if (count < role.cardinality.min) {
        report->violations.push_back(Violation{
            Rule::kRoleMinParticipation, obj.id, RelationshipId(),
            "object '" + FullName(obj.id) + "' takes part in " +
                std::to_string(count) + " relationships of '" +
                (*info)->name + "' as '" + role.name + "' (min " +
                role.cardinality.ToString() + ")"});
      }
    }
  }
}

void Database::CheckRelationshipCompleteness(const RelationshipItem& rel,
                                             Report* report) const {
  auto assoc = schema_->GetAssociation(rel.assoc);
  if (!assoc.ok()) return;
  if ((*assoc)->covering) {
    report->violations.push_back(Violation{
        Rule::kCovering, ObjectId(), rel.id,
        "relationship of covering association '" + (*assoc)->name +
            "' must be specialized"});
  }
  // Minimum cardinalities of attribute roles, over the generalization
  // chain of the association.
  for (AssociationId a : schema_->GeneralizationChain(rel.assoc)) {
    for (ClassId dep : schema_->DependentClassesOf(
             schema::StructuralOwner::OfAssociation(a))) {
      auto dep_cls = schema_->GetClass(dep);
      if ((*dep_cls)->cardinality.min == 0) continue;
      size_t count = CountChildrenOfClass(rel.children, dep);
      if (count < (*dep_cls)->cardinality.min) {
        report->violations.push_back(Violation{
            Rule::kMinCardinality, ObjectId(), rel.id,
            "relationship of '" + (*assoc)->name + "' has " +
                std::to_string(count) + " attributes in role '" +
                (*dep_cls)->full_name + "' (min " +
                (*dep_cls)->cardinality.ToString() + ")"});
      }
    }
  }
}

Report Database::CheckCompleteness() const {
  Report report;
  for (const auto& [id, obj] : objects_) {
    if (obj.deleted || obj.is_pattern) continue;
    CheckObjectCompleteness(obj, &report);
  }
  for (const auto& [id, rel] : relationships_) {
    if (rel.deleted || rel.is_pattern) continue;
    CheckRelationshipCompleteness(rel, &report);
  }
  return report;
}

Report Database::CheckCompleteness(ObjectId root) const {
  Report report;
  auto root_it = objects_.find(root);
  if (root_it == objects_.end() || root_it->second.deleted) return report;
  std::vector<ObjectId> work{root};
  while (!work.empty()) {
    ObjectId oid = work.back();
    work.pop_back();
    const ObjectItem& obj = objects_.at(oid);
    if (obj.deleted || obj.is_pattern) continue;
    CheckObjectCompleteness(obj, &report);
    work.insert(work.end(), obj.children.begin(), obj.children.end());
  }
  return report;
}

}  // namespace seed::core
