// IndexManager: the set of secondary attribute indexes of one Database.
//
// The manager owns the AttributeIndex instances and knows how to derive an
// item's index keys from the raw item tables, but holds no back-pointer
// into the database — every call takes the schema and the item maps, so
// the core layer can own a manager by value (Database is movable) and the
// version layer can rebuild entries under a historical schema.
//
// Maintenance contract: after any mutation that can change an object's
// extent membership (create, delete/undelete, reclassify, restore) or its
// keys (SetValue/ClearValue on the object or on one of its sub-objects),
// the database calls RefreshObject(id) — and RefreshObject(parent) when
// the mutated object is a dependent sub-object. Relationship-extent
// indexes mirror this: RefreshRelationship(id) runs after relationship
// create/delete/reclassify and after mutations of relationship-attribute
// sub-objects. Refresh recomputes the desired key set from scratch and
// diffs it against the indexed state, so the calls are idempotent and
// order-independent; a bulk write refreshes each written item and the
// owners of written sub-objects once (Database::WriteItemStates), and
// RebuildIndexes clears every entry and refreshes each live item once.
//
// Reclassification migrates entries between extents for free: the desired
// key set of an item is empty for every index whose coverage no longer
// includes the item's class/association, and the refresh diffs against
// all indexes of the matching extent kind, not just the covering ones.

#ifndef SEED_INDEX_INDEX_MANAGER_H_
#define SEED_INDEX_INDEX_MANAGER_H_

#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "common/coding.h"
#include "common/result.h"
#include "core/items.h"
#include "index/attribute_index.h"
#include "schema/schema.h"

namespace seed::index {

class IndexManager {
 public:
  using ObjectMap = std::map<ObjectId, core::ObjectItem>;
  using RelationshipMap = std::map<RelationshipId, core::RelationshipItem>;

  IndexManager() = default;
  /// Deep copy: every index with its entries (snapshot publication).
  IndexManager(const IndexManager& other);
  IndexManager& operator=(const IndexManager&) = delete;
  IndexManager(IndexManager&&) = default;
  IndexManager& operator=(IndexManager&&) = default;

  /// Fails when the class/association is unknown, when a non-empty role
  /// does not resolve on it under `schema`, or when a relationship spec
  /// has no role (relationships carry no own value to index).
  static Status ValidateSpec(const schema::Schema& schema,
                             const IndexSpec& spec);

  /// Registers an index. Fails if the spec duplicates an existing index
  /// or does not validate. The caller backfills entries (Database calls
  /// BackfillIndex).
  Status CreateIndex(const schema::Schema& schema, IndexSpec spec);

  /// Derives the entries of the index on `spec` from the live items
  /// (no-op for an unknown spec). Other indexes are untouched.
  void BackfillIndex(const schema::Schema& schema, const ObjectMap& objects,
                     const RelationshipMap& relationships,
                     const IndexSpec& spec);

  /// Drops indexes whose spec no longer validates (after a schema
  /// migration that removed a class or role); returns how many.
  size_t PruneInvalidSpecs(const schema::Schema& schema);

  /// Drops every object index on (cls, role); returns NotFound if none
  /// matched.
  Status DropIndex(ClassId cls, std::string_view role);
  /// Drops every relationship index on (assoc, role).
  Status DropIndex(AssociationId assoc, std::string_view role);

  /// The index matching `spec` exactly, or nullptr.
  const AttributeIndex* Find(const IndexSpec& spec) const;

  /// Picks an object index usable for a query over the extent of `cls`
  /// (include_specializations as in ClassExtent) keyed on `role`: its
  /// coverage must be a superset of the query extent. Prefers an exact
  /// match; a broader index (e.g. one on a generalization ancestor) is
  /// returned otherwise and the caller filters extent membership
  /// residually. Returns nullptr when no index qualifies.
  const AttributeIndex* BestFor(const schema::Schema& schema, ClassId cls,
                                bool include_specializations,
                                std::string_view role) const;

  /// Relationship-extent counterpart: an index over the relationships of
  /// `assoc` (or a generalization ancestor) keyed on attribute `role`.
  const AttributeIndex* BestForRelationships(const schema::Schema& schema,
                                             AssociationId assoc,
                                             bool include_specializations,
                                             std::string_view role) const;

  const std::vector<std::unique_ptr<AttributeIndex>>& indexes() const {
    return indexes_;
  }
  bool empty() const { return indexes_.empty(); }
  size_t size() const { return indexes_.size(); }
  bool has_relationship_indexes() const { return num_rel_indexes_ != 0; }

  /// Recomputes the key set of object `id` in every object index and
  /// applies the diff. Relationship indexes are untouched (their entries
  /// live in a different id space).
  void RefreshObject(const schema::Schema& schema, const ObjectMap& objects,
                     ObjectId id);

  /// Recomputes the key set of relationship `id` in every relationship
  /// index and applies the diff.
  void RefreshRelationship(const schema::Schema& schema,
                           const ObjectMap& objects,
                           const RelationshipMap& relationships,
                           RelationshipId id);

  /// Drops all entries but keeps the index definitions.
  void ClearEntries();

  /// The key set object `id` should be indexed under per `spec` right now
  /// (empty for relationship specs); the ground truth RefreshObject
  /// converges to (exposed for property tests).
  static std::vector<core::Value> DesiredKeys(const schema::Schema& schema,
                                              const ObjectMap& objects,
                                              const IndexSpec& spec,
                                              ObjectId id);

  /// Relationship counterpart (empty for object specs).
  static std::vector<core::Value> DesiredRelationshipKeys(
      const schema::Schema& schema, const ObjectMap& objects,
      const RelationshipMap& relationships, const IndexSpec& spec,
      RelationshipId id);

  // --- Persistence of index definitions ------------------------------------
  // Entries are derived data and are rebuilt on load; only specs persist.

  void EncodeSpecs(Encoder* enc) const;
  static Result<std::vector<IndexSpec>> DecodeSpecs(Decoder* dec);

  /// True when an index was created/dropped since the flag was cleared;
  /// the persistence layer uses this to re-save the spec catalog.
  bool specs_dirty() const { return specs_dirty_; }
  void ClearSpecsDirty() { specs_dirty_ = false; }

 private:
  std::vector<std::unique_ptr<AttributeIndex>> indexes_;
  size_t num_rel_indexes_ = 0;
  bool specs_dirty_ = false;
};

}  // namespace seed::index

#endif  // SEED_INDEX_INDEX_MANAGER_H_
