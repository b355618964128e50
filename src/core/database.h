// Database: SEED's operational interface.
//
// The paper describes a procedural interface providing data creation,
// update, and simple retrieval by name. Every mutating operation runs the
// *consistency* rules derivable from the schema (class/association
// membership, maximum cardinalities, ACYCLIC conditions, attached
// procedures) and is vetoed on violation, so the database is permanently
// consistent. *Completeness* rules (minimum cardinalities, covering
// conditions) are only evaluated by the explicit CheckCompleteness()
// operation and never veto anything — this split is what lets SEED accept
// vague and incomplete information.
//
// Items flagged as patterns bypass consistency checking at creation and are
// invisible to normal retrieval; the pattern layer (seed_pattern) validates
// them when they are inherited.

#ifndef SEED_CORE_DATABASE_H_
#define SEED_CORE_DATABASE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "core/extent_counters.h"
#include "core/items.h"
#include "core/value.h"
#include "core/violation.h"
#include "index/index_manager.h"
#include "schema/schema.h"

namespace seed::core {

/// Mutation kinds, passed to attached procedures.
enum class UpdateKind {
  kCreateObject,
  kCreateSubObject,
  kSetValue,
  kClearValue,
  kRename,
  kDeleteObject,
  kReclassifyObject,
  kCreateRelationship,
  kDeleteRelationship,
  kReclassifyRelationship,
};

class Database;

/// Event handed to attached procedures after the tentative update has been
/// applied; returning a non-OK status vetoes (rolls back) the update.
struct UpdateEvent {
  UpdateKind kind;
  const Database* db;
  ObjectId object;            // primary object, if any
  RelationshipId relationship;  // primary relationship, if any
};

/// Attached procedure (paper: "executed when an item of the corresponding
/// schema element is updated; used to express complex integrity
/// constraints"). Part of the consistency information.
using AttachedProcedure = std::function<Status(const UpdateEvent&)>;

/// Options for item creation.
struct CreateOptions {
  /// Create the item as a pattern: exempt from consistency checks and
  /// invisible to retrieval until inherited.
  bool pattern = false;
};

/// A batch of raw item states, tombstones included, keyed like the raw
/// tables: what version views and restores, Load, checkout import,
/// check-in, deletes and vetoed updates write through
/// Database::WriteItemStates.
struct ItemStates {
  std::map<ObjectId, ObjectItem> objects;
  std::map<RelationshipId, RelationshipItem> relationships;
  /// Items removed outright: a version restore drops the working items
  /// the version lacks, a rejected check-in or a vetoed update the items
  /// it created.
  std::vector<ObjectId> erased_objects;
  std::vector<RelationshipId> erased_relationships;
  /// When set, the database adopts this schema before deriving: a version
  /// decodes under the schema it was frozen with.
  schema::SchemaPtr schema;
};

class Database {
 public:
  explicit Database(schema::SchemaPtr schema);

  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  const schema::SchemaPtr& schema() const { return schema_; }

  /// Process-unique id assigned at construction and carried through
  /// moves. The plan cache keys on it so entries never alias across
  /// databases (every version snapshot is a fresh instance).
  std::uint64_t instance_id() const { return instance_id_; }

  // --- Object creation and update -----------------------------------------

  /// Creates an independent object of `cls` with unique `name`.
  Result<ObjectId> CreateObject(ClassId cls, std::string name,
                                const CreateOptions& opts = {});

  /// Creates a dependent object under `parent` in role `role` (the role
  /// must resolve on the parent's class or a generalization ancestor).
  /// Multi-valued roles get the next free index.
  Result<ObjectId> CreateSubObject(ObjectId parent, std::string_view role);

  /// Creates a relationship attribute (dependent object under a
  /// relationship, paper Fig. 3: `Write.NumberOfWrites`).
  Result<ObjectId> CreateSubObject(RelationshipId parent,
                                   std::string_view role);

  Status SetValue(ObjectId obj, Value value);
  Status ClearValue(ObjectId obj);

  /// Renames an independent object.
  Status Rename(ObjectId obj, std::string new_name);

  /// Deletes an object; cascades to its sub-objects and to all
  /// relationships it participates in, and on through their attributes.
  /// Items are tombstoned, not removed.
  Status DeleteObject(ObjectId obj);

  /// Re-classifies an object within its generalization hierarchy (paper:
  /// moving vague data down — or back up — the hierarchy as knowledge
  /// changes). The object keeps its identity.
  Status Reclassify(ObjectId obj, ClassId new_cls);

  // --- Relationships ---------------------------------------------------------

  /// Creates a relationship of `assoc` with `end0` filling role 0 and
  /// `end1` filling role 1.
  Result<RelationshipId> CreateRelationship(AssociationId assoc,
                                            ObjectId end0, ObjectId end1,
                                            const CreateOptions& opts = {});

  /// Deletes a relationship with the same cascade as DeleteObject, from
  /// its attribute sub-objects on.
  Status DeleteRelationship(RelationshipId rel);

  /// Re-classifies a relationship within the association generalization
  /// hierarchy (paper: specializing an `Access` into a `Write`).
  Status ReclassifyRelationship(RelationshipId rel, AssociationId new_assoc);

  // --- Retrieval -------------------------------------------------------------

  /// Resolves a dotted path (`Alarms.Text.Body.Keywords[1]`) to an object.
  /// Patterns are invisible here.
  Result<ObjectId> FindObjectByName(std::string_view path) const;

  /// The live non-pattern independent object named exactly `name`, or an
  /// invalid id: one lookup in the name index, no path parsing. A name
  /// only a pattern holds gives an invalid id, as patterns are outside
  /// every ObjectsOfClass extent.
  ObjectId ObjectNamed(const std::string& name) const;

  /// Resolves a dotted path among pattern items.
  Result<ObjectId> FindPatternByName(std::string_view path) const;

  Result<const ObjectItem*> GetObject(ObjectId id) const;
  Result<const RelationshipItem*> GetRelationship(RelationshipId id) const;

  /// Composed display name ("Alarms.Text.Body.Keywords[1]").
  std::string FullName(ObjectId id) const;

  /// Live non-pattern objects whose class is `cls` (or a specialization,
  /// when `include_specializations`).
  std::vector<ObjectId> ObjectsOfClass(
      ClassId cls, bool include_specializations = true) const;

  /// Live non-pattern relationships of `assoc` (or specializations).
  std::vector<RelationshipId> RelationshipsOfAssociation(
      AssociationId assoc, bool include_specializations = true) const;

  /// Live relationships `obj` participates in; restricted to the family of
  /// `assoc` when valid, and to `role` when >= 0.
  std::vector<RelationshipId> RelationshipsOf(
      ObjectId obj, AssociationId assoc = AssociationId(),
      int role = -1) const;

  /// Live *pattern* relationships `obj` participates in (the overlay data
  /// the pattern layer projects into inheritor contexts), restricted to the
  /// family of `assoc` when valid.
  std::vector<RelationshipId> PatternRelationshipsOf(
      ObjectId obj, AssociationId assoc = AssociationId()) const;

  /// Live sub-objects of `parent` in `role` (all roles when empty),
  /// ordered by index.
  std::vector<ObjectId> SubObjects(ObjectId parent,
                                   std::string_view role = {}) const;
  std::vector<ObjectId> SubObjects(RelationshipId parent,
                                   std::string_view role = {}) const;

  /// The live objects whose consistency rules read object `id`: those
  /// that name it as their parent or list it among their children,
  /// whether or not the lists agree with the parent links. Sorted.
  std::vector<ObjectId> ObjectsLinkedTo(ObjectId id) const;
  /// The live attributes that name relationship `id` as their parent,
  /// listed by it or not. Sorted.
  std::vector<ObjectId> ObjectsLinkedTo(RelationshipId id) const;

  /// All live non-pattern independent objects.
  std::vector<ObjectId> AllIndependentObjects() const;
  /// All live pattern items (independent roots only).
  std::vector<ObjectId> AllPatternRoots() const;

  void ForEachObject(const std::function<void(const ObjectItem&)>& fn) const;
  void ForEachRelationship(
      const std::function<void(const RelationshipItem&)>& fn) const;

  size_t num_live_objects() const { return live_objects_; }
  size_t num_live_relationships() const { return live_relationships_; }

  // --- Secondary attribute indexes ------------------------------------------

  /// Creates a secondary index over the extent of `spec.cls` keyed by the
  /// objects' own values (`spec.role` empty) or by the values of their
  /// sub-objects in `spec.role` — or, when `spec.assoc` is set, over the
  /// relationships of the association keyed by their attribute sub-objects
  /// in `spec.role` (paper Fig. 3: `Write.NumberOfWrites`). Backfills from
  /// current contents. The index is maintained incrementally through every
  /// mutation path (create, update, delete, reclassify, restore) and
  /// survives save/load. Undefined values are never indexed.
  Status CreateAttributeIndex(index::IndexSpec spec);

  /// Drops every attribute index on exactly (cls, role); an empty `role`
  /// names the own-value index (it is a key, not a wildcard — role-keyed
  /// indexes on the class survive).
  Status DropAttributeIndex(ClassId cls, std::string_view role = {});
  /// Drops every relationship-extent index on (assoc, role). Unlike the
  /// class overload, an empty `role` is a wildcard dropping all of the
  /// association's indexes — relationship indexes always carry a role, so
  /// an own-value reading would never match anything.
  Status DropAttributeIndex(AssociationId assoc, std::string_view role = {});

  /// Read access for the query planner and for stats.
  const index::IndexManager& attribute_indexes() const {
    return attr_indexes_;
  }

  /// Incrementally maintained live-population counts per class extent and
  /// association extent — the planner's cost-model input.
  const ExtentCounters& extent_counters() const { return extent_counters_; }

  /// Trusted mutable access: register index specs here before the first
  /// WriteItemStates() on an empty database so its pass derives their
  /// entries too.
  index::IndexManager& attribute_indexes_mutable() {
    ++write_seq_;
    return attr_indexes_;
  }

  // --- Checking -------------------------------------------------------------

  /// Full consistency audit over the whole database. Always clean after
  /// any sequence of accepted updates; exposed for tests, recovery and
  /// schema migration.
  Report AuditConsistency() const;

  /// Consistency audit of the items a bulk write touched and of the items
  /// whose rules read them: the objects that name a touched object as
  /// their parent or list it as a child, the attributes of touched
  /// relationships, the relationships of touched objects; the role maxima
  /// of every touched object and touched relationship end; a cycle search
  /// from each touched edge in an acyclic family; name clashes through the
  /// name index. It is sound only if the database was clean before the
  /// write: then it finds a violation exactly when AuditConsistency()
  /// does. The multiuser check-in relies on that, since it audits every
  /// commit.
  Report AuditNeighbourhood(
      const std::vector<ObjectId>& objects,
      const std::vector<RelationshipId>& relationships) const;

  /// Explicit completeness check (minimum cardinalities, covering
  /// conditions, undefined values). Reports, never vetoes.
  Report CheckCompleteness() const;

  /// Completeness check restricted to one object (and its subtree).
  Report CheckCompleteness(ObjectId root) const;

  // --- Attached procedures ---------------------------------------------------

  void AttachProcedure(ClassId cls, AttachedProcedure proc);
  void AttachProcedure(AssociationId assoc, AttachedProcedure proc);
  void DetachProcedures(ClassId cls);
  void DetachProcedures(AssociationId assoc);

  // --- Change tracking (consumed by the version layer) -----------------------

  /// Object/relationship ids touched (created, updated, deleted) since the
  /// last ClearChangeTracking().
  const std::unordered_set<ObjectId>& changed_objects() const {
    return changed_objects_;
  }
  const std::unordered_set<RelationshipId>& changed_relationships() const {
    return changed_relationships_;
  }
  void ClearChangeTracking();

  // --- Schema evolution ------------------------------------------------------

  /// Swaps in an evolved schema (same element ids for existing elements).
  /// Fails if existing data would become inconsistent under the new schema.
  Status MigrateToSchema(schema::SchemaPtr new_schema);

  // --- Internal access for sibling layers (version, pattern, multiuser) ------

  /// Raw item tables, including tombstones. Read-only.
  const std::map<ObjectId, ObjectItem>& objects_raw() const {
    return objects_;
  }
  const std::map<RelationshipId, RelationshipItem>& relationships_raw()
      const {
    return relationships_;
  }

  /// The one bulk write path, for a fresh database and a live one alike:
  /// version views and restores, Load, checkout import, check-in and its
  /// rollback, the tombstones of a delete and the undo of a vetoed
  /// update. Adopts `states.schema` when set, erases the listed ids and
  /// writes every state over the same-id item. The derived state follows
  /// incrementally: the old live states of the written and erased ids
  /// leave the retrieval maps, extent counters and attribute indexes, the
  /// new ones enter them, and so do the attribute entries of the owners of
  /// written sub-objects and the degree counts of untouched relationships
  /// whose end changed class. The work is O(batch) plus one pass over
  /// each class, association, end and link list an item leaves; on an
  /// empty database it is the single id-ordered pass of RebuildIndexes(). A
  /// batch that adopts a different schema re-derives everything instead.
  /// Erased ids must not also be written. Written ids count as changed
  /// (callers building a fresh database clear change tracking), erased
  /// ids no longer do; id generators reserve through every id the write
  /// adds and never move back.
  /// Bypasses consistency checks; callers are trusted layers that audit
  /// afterwards where it matters.
  void WriteItemStates(ItemStates states);

  /// Single-item writes for callers that batch their own; follow them
  /// with RebuildIndexes(), which re-derives every retrieval map, extent
  /// counter and attribute-index entry from the raw items from scratch
  /// (the reference the incremental WriteItemStates() must equal).
  void RestoreObject(ObjectItem item);
  void RestoreRelationship(RelationshipItem item);
  void RebuildIndexes();

  /// A copy of the raw items, id watermarks and every derived structure,
  /// made without re-deriving anything. It has a fresh identity (see
  /// TakeFreshIdentity); each attribute index starts with a fresh
  /// histogram.
  std::unique_ptr<Database> Copy() const;

  /// Gives this database the identity Copy() gives a copy: a fresh
  /// instance_id (plan cache entries never alias), empty change tracking
  /// and no attached procedures. The multiuser server calls it on a
  /// released snapshot it has brought forward to the master's state.
  void TakeFreshIdentity();

  /// Monotone count of writes: every item a mutation touches, every bulk
  /// write, attribute index definition change and schema migration bumps
  /// it. Equal values at two instants mean nothing was written between
  /// them, which is how the multiuser server tells its own writes to the
  /// master from direct ones.
  std::uint64_t write_seq() const { return write_seq_; }

  /// Id generators, exposed so persistence can save/restore watermarks.
  IdGenerator<ObjectId>& object_ids() { return object_ids_; }
  IdGenerator<RelationshipId>& relationship_ids() {
    return relationship_ids_;
  }
  const IdGenerator<ObjectId>& object_ids() const { return object_ids_; }
  const IdGenerator<RelationshipId>& relationship_ids() const {
    return relationship_ids_;
  }

 private:
  // -- Incremental consistency helpers (database_checks.cc) --
  Status CheckIndependentName(const std::string& name, bool pattern,
                              ObjectId ignore) const;
  Status CheckValueConforms(const schema::ObjectClass& cls,
                            const Value& value) const;
  /// Number of live children of `parent_children` with class `cls`.
  size_t CountChildrenOfClass(const std::vector<ObjectId>& children,
                              ClassId cls) const;
  std::uint32_t NextChildIndex(const std::vector<ObjectId>& children,
                               ClassId cls) const;
  /// Live participation count of `obj` in role `role` over the family of
  /// `assoc` (specializations included), excluding pattern relationships.
  size_t CountParticipation(ObjectId obj, AssociationId assoc,
                            int role) const;
  /// Checks the maximum participation bounds that adding one relationship
  /// of `assoc` with the given ends would have to respect.
  Status CheckParticipationMaxima(AssociationId assoc, ObjectId end0,
                                  ObjectId end1) const;
  /// True if a live non-pattern relationship assoc(end0, end1) exists.
  bool DuplicateExists(AssociationId assoc, ObjectId end0, ObjectId end1,
                       RelationshipId ignore) const;
  /// Would edge end0 -> end1 close a cycle in the family graph of `root`?
  bool WouldCreateCycle(AssociationId root, ObjectId from, ObjectId to,
                        RelationshipId ignore) const;
  /// Runs ACYCLIC checks for every acyclic association in the
  /// generalization chain of `assoc`.
  Status CheckAcyclicity(AssociationId assoc, ObjectId end0, ObjectId end1,
                         RelationshipId ignore) const;
  /// Runs attached procedures for `cls` and its ancestors.
  Status RunProcedures(ClassId cls, const UpdateEvent& event) const;
  Status RunProcedures(AssociationId assoc, const UpdateEvent& event) const;

  // -- Consistency audit rules, one item each (database_checks.cc) --
  /// Name -> first holder seen, for an audit that walks every object.
  using NameHolders = std::unordered_map<std::string, ObjectId>;
  /// Class membership, name, parent, maximum cardinality and value rules
  /// of one live object. A name's holder comes from `names` when set (the
  /// first object seen with it), otherwise from the name index.
  void AuditObject(const ObjectItem& obj, NameHolders* names,
                   Report* report) const;
  /// Association, end and duplicate rules of one live relationship.
  void AuditRelationship(const RelationshipItem& rel, Report* report) const;
  /// Maximum participation of `obj` in `role` of `assoc`.
  void AuditRoleMaximum(const schema::Association& info, AssociationId assoc,
                        int role, ObjectId obj, Report* report) const;
  static void AddCycleViolation(const schema::Association& info,
                                Report* report);

  // -- Completeness helpers (database_checks.cc) --
  void CheckObjectCompleteness(const ObjectItem& obj, Report* report) const;
  void CheckRelationshipCompleteness(const RelationshipItem& rel,
                                     Report* report) const;

  // -- Index maintenance --
  struct ListRemovals;
  void IndexObject(const ObjectItem& obj);
  /// The item's removal from by_class_ / by_assoc_ / rels_by_object_ and
  /// the link indexes is recorded in `gone` for one EraseListed() pass.
  void UnindexObject(const ObjectItem& obj, ListRemovals* gone);
  void IndexRelationship(const RelationshipItem& rel);
  void UnindexRelationship(const RelationshipItem& rel, ListRemovals* gone);
  void EraseListed(const ListRemovals& gone);
  /// Class of a relationship end, tombstoned or not (degree statistics
  /// must see the class an end had when the relationship was indexed).
  ClassId EndClass(ObjectId id) const;
  /// Moves the degree statistics of every live non-pattern relationship
  /// end filled by `obj` from `from_cls` to `to_cls` (object reclassify,
  /// and a bulk write that changes an end's class).
  void MoveParticipantCounts(ObjectId obj, ClassId from_cls, ClassId to_cls);
  /// Moves both ends' degree statistics of `rel` from `from_assoc` to
  /// `to_assoc` (relationship reclassify).
  void MoveParticipantCounts(const RelationshipItem& rel,
                             AssociationId from_assoc,
                             AssociationId to_assoc);
  void Touch(ObjectId id) {
    changed_objects_.insert(id);
    ++write_seq_;
  }
  void Touch(RelationshipId id) {
    changed_relationships_.insert(id);
    ++write_seq_;
  }
  /// Re-derives the attribute-index entries of `id` (post-mutation hook;
  /// idempotent). The WithParent variant also refreshes the owner when
  /// `id` is a dependent sub-object — the owning object, or the owning
  /// *relationship* when the sub-object is a relationship attribute —
  /// since the owner's role-keyed entries derive from its children's
  /// values. RefreshRelAttrIndexes is the relationship-extent hook
  /// (relationship reclassify, bulk writes and rebuilds).
  void RefreshAttrIndexes(ObjectId id);
  void RefreshAttrIndexesWithParent(ObjectId id);
  void RefreshRelAttrIndexes(RelationshipId id);

  /// A plain member-wise copy; Copy() then resets what a copy must not
  /// share.
  Database(const Database& other) = default;

  ObjectItem* MutableObject(ObjectId id);
  RelationshipItem* MutableRelationship(RelationshipId id);

  Result<ObjectId> CreateSubObjectImpl(ParentKind kind, ObjectId pobj,
                                       RelationshipId prel,
                                       std::string_view role);

  // -- Veto rollback --
  /// What undoes one update: `prior` holds the states of the items it
  /// overwrites and, as erased, the ids it creates; `unchanged_*` are
  /// the overwritten ids the change sets did not hold before it.
  struct Undo {
    ItemStates prior;
    std::vector<ObjectId> unchanged_objects;
    std::vector<RelationshipId> unchanged_relationships;
  };
  /// `prior` as an Undo, reading which of its items are unchanged off
  /// the change sets; call it before the update touches them.
  Undo UndoOf(ItemStates prior) const;
  /// True when some procedure is attached, so an update can be vetoed.
  bool CanVeto() const {
    return !class_procedures_.empty() || !assoc_procedures_.empty();
  }
  /// The current state of one item, as the Undo of an update of it; an
  /// empty Undo when nothing can veto the update.
  Undo Prior(ObjectId id) const;
  Undo Prior(RelationshipId id) const;
  /// On a veto, writes `undo.prior` back through WriteItemStates() and
  /// takes the unchanged ids out of the change sets again, so both sets
  /// hold what they held before the update; returns `veto` either way.
  Status UndoIfVetoed(Status veto, Undo undo);
  /// Tombstones the delete closure of the live object `obj` or, when it
  /// is invalid, of the live relationship `rel`: the sub-object trees of
  /// every collected item and every live relationship of every collected
  /// object, transitively. Returns the Undo of the closure.
  Undo TombstoneClosure(ObjectId obj, RelationshipId rel);

  schema::SchemaPtr schema_;
  std::uint64_t instance_id_ = 0;

  // Ordered maps so scans and serialization are deterministic.
  std::map<ObjectId, ObjectItem> objects_;
  std::map<RelationshipId, RelationshipItem> relationships_;

  IdGenerator<ObjectId> object_ids_;
  IdGenerator<RelationshipId> relationship_ids_;

  // Indexes over live items.
  std::unordered_map<std::string, ObjectId> name_index_;          // normal
  std::unordered_map<std::string, ObjectId> pattern_name_index_;  // patterns
  std::unordered_map<ClassId, std::vector<ObjectId>> by_class_;
  std::unordered_map<AssociationId, std::vector<RelationshipId>> by_assoc_;
  std::unordered_map<ObjectId, std::vector<RelationshipId>> rels_by_object_;

  /// Live children of an object parent keyed by (class, index), so dotted
  /// path resolution is O(1) per segment instead of O(children). The API
  /// keeps the pair unique among live children (NextChildIndex never hands
  /// out an index a live sibling of the same class holds); when a bulk
  /// write repeats one, the first holder indexed keeps the key.
  struct ChildKey {
    std::uint64_t cls_raw;
    std::uint32_t index;
    bool operator==(const ChildKey&) const = default;
  };
  struct ChildKeyHash {
    size_t operator()(const ChildKey& k) const {
      return std::hash<std::uint64_t>{}(k.cls_raw * 0x9E3779B97F4A7C15ull ^
                                        k.index);
    }
  };
  std::unordered_map<ObjectId,
                     std::unordered_map<ChildKey, ObjectId, ChildKeyHash>>
      children_by_key_;
  /// Finds the live child of `parent` with class `dep_cls` and `index`.
  ObjectId FindChildByKey(ObjectId parent, ClassId dep_cls,
                          std::uint32_t index) const;

  /// ObjectsLinkedTo() unsorted, so that a check-in can audit what a
  /// write reaches without walking the database (a parent's maximum
  /// cardinalities count the classes of the children it lists).
  std::unordered_multimap<ObjectId, ObjectId> linked_objects_;
  std::unordered_multimap<RelationshipId, ObjectId> attributes_of_;

  /// User-defined secondary attribute indexes (maintained through every
  /// mutation path; definitions persist, entries are derived data).
  index::IndexManager attr_indexes_;

  /// Live-population statistics per exact class / association, maintained
  /// from the same Index/Unindex hooks as the maps above; rebuilt whenever
  /// they are (RebuildIndexes).
  ExtentCounters extent_counters_;

  std::unordered_map<ClassId, std::vector<AttachedProcedure>>
      class_procedures_;
  std::unordered_map<AssociationId, std::vector<AttachedProcedure>>
      assoc_procedures_;

  std::unordered_set<ObjectId> changed_objects_;
  std::unordered_set<RelationshipId> changed_relationships_;

  size_t live_objects_ = 0;
  size_t live_relationships_ = 0;
  std::uint64_t write_seq_ = 0;
};

}  // namespace seed::core

#endif  // SEED_CORE_DATABASE_H_
