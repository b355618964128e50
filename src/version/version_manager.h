// Version management (paper, "Versions and Variants").
//
// Versions are explicit snapshots of the database: "When creating a version
// we do not save the complete database. We only store those objects and
// relationships that have been changed after the creation of the previous
// version. Items that have been deleted in this interval must also be
// recorded. This is made easy by marking items as deleted instead of
// removing them physically."
//
// The current (mutable) state lives in the attached Database; CreateVersion
// freezes the changed set under a new decimal id whose tree parent is the
// current basis. Alternatives branch by SelectVersion(historical) followed
// by updates and a new CreateVersion. Versions are immutable except for
// deletion. Each version records the schema version it was created under.

#ifndef SEED_VERSION_VERSION_MANAGER_H_
#define SEED_VERSION_VERSION_MANAGER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/database.h"
#include "version/version_id.h"

namespace seed::version {

/// Namespaced item key: objects and relationships share one delta map.
struct ItemKey {
  enum Kind : std::uint8_t { kObject = 2, kRelationship = 3 };
  std::uint64_t packed = 0;

  static ItemKey Object(ObjectId id) {
    return ItemKey{(static_cast<std::uint64_t>(kObject) << 56) | id.raw()};
  }
  static ItemKey Relationship(RelationshipId id) {
    return ItemKey{(static_cast<std::uint64_t>(kRelationship) << 56) |
                   id.raw()};
  }
  Kind kind() const { return static_cast<Kind>(packed >> 56); }
  std::uint64_t id_raw() const { return packed & 0x00FFFFFFFFFFFFFFull; }

  bool operator==(const ItemKey&) const = default;
  auto operator<=>(const ItemKey&) const = default;
};

/// One frozen version: parent link, creation sequence, schema version, and
/// the encoded states of every item changed since the parent.
struct VersionRecord {
  VersionId id;
  VersionId parent;  // invalid for the first version
  std::uint64_t sequence = 0;
  std::uint64_t schema_version = 0;
  /// Item key -> encoded item state (tombstoned items carry deleted=true).
  std::map<ItemKey, std::string> changes;
};

/// A hit in history navigation: the version and the item's encoded state.
struct HistoryHit {
  VersionId version;
  bool deleted = false;
};

/// History-sensitive consistency rule (paper, open problems: "rules that
/// impose constraints for the transition from a given version to its
/// successor"). Runs when a version is created, with the predecessor's view
/// and the state being frozen; a non-OK status vetoes version creation.
/// The predecessor is an empty database for the first version.
using TransitionRule = std::function<Status(
    const core::Database& predecessor, const core::Database& successor)>;

class VersionManager {
 public:
  /// Attaches to a live database. The manager consumes the database's
  /// change tracking; other writers must not clear it.
  explicit VersionManager(core::Database* db);

  core::Database* database() { return db_; }

  /// Version the next CreateVersion() will be a child of (the version the
  /// current working state is based on; invalid before the first version).
  const VersionId& current_basis() const { return basis_; }

  // --- Version creation ---------------------------------------------------

  /// Freezes the current changed set under an automatically numbered id:
  /// successor of the basis (last component + 1), or the first free branch
  /// child if that id is taken ("1.0" -> "1.1", branching "1.0" -> "1.0.1").
  Result<VersionId> CreateVersion();

  /// Same with an explicit fresh id (paper-style numbering, e.g. "2.0").
  Status CreateVersion(const VersionId& id);

  // --- History-sensitive consistency rules ----------------------------------

  /// Registers a transition rule under `name` (extension of the paper's
  /// open-problems sketch). All rules run on every CreateVersion; any veto
  /// aborts the freeze and leaves the working state untouched.
  void AddTransitionRule(std::string name, TransitionRule rule);
  void RemoveTransitionRule(const std::string& name);
  size_t num_transition_rules() const { return transition_rules_.size(); }

  // --- Alternatives -------------------------------------------------------

  /// Replaces the current working state with the view to `id` (the paper's
  /// alternative mechanism: select a historical version, update, save).
  /// Unsaved changes in the working state are discarded.
  Status SelectVersion(const VersionId& id);

  // --- Introspection --------------------------------------------------------

  std::vector<VersionId> AllVersions() const;
  bool HasVersion(const VersionId& id) const;
  Result<const VersionRecord*> GetRecord(const VersionId& id) const;
  Result<VersionId> ParentOf(const VersionId& id) const;
  std::vector<VersionId> ChildrenOf(const VersionId& id) const;
  size_t num_versions() const { return records_.size(); }

  /// Total bytes of stored delta payloads (for the Fig. 4 benchmark's
  /// delta-vs-full-copy comparison).
  std::uint64_t StoredBytes() const;

  // --- Views -----------------------------------------------------------------

  /// Materializes the read-only view to version `id`: items with the
  /// greatest version on the ancestor path <= id, minus tombstones. The
  /// view is built under the schema recorded for that version.
  Result<std::unique_ptr<core::Database>> MaterializeView(
      const VersionId& id) const;

  /// Refcounted variant of MaterializeView: the first pin of a version
  /// materializes it once and caches a weak reference, so further pins
  /// while any reader still holds the view are a refcount bump, not a
  /// rebuild. Versions are immutable, so a cached view never goes stale;
  /// DeleteVersion drops the cache entry. Not thread-safe — callers
  /// serialize access to the manager as with every other method.
  Result<std::shared_ptr<const core::Database>> PinView(
      const VersionId& id) const;

  // --- History retrieval ("find all versions of object X, from 2.0") ---------

  /// All versions in which the object changed, ascending, optionally
  /// starting at `from`.
  Result<std::vector<HistoryHit>> VersionsOfObject(
      std::string_view name, const VersionId& from = VersionId()) const;
  Result<std::vector<HistoryHit>> VersionsOfObject(
      ObjectId id, const VersionId& from = VersionId()) const;

  // --- Deletion --------------------------------------------------------------

  /// Versions cannot be modified, only deleted. A version with children or
  /// serving as the current basis cannot be deleted.
  Status DeleteVersion(const VersionId& id);

 private:
  friend class VersionPersistence;

  /// Chain of records from the root to `id` (inclusive).
  Result<std::vector<const VersionRecord*>> PathTo(const VersionId& id) const;

  /// The raw item states of version `id`, decoded under (and carrying)
  /// the schema it was frozen with.
  Result<core::ItemStates> DecodeVersion(const VersionId& id) const;

  Status FreezeAs(const VersionId& id);

  core::Database* db_;
  VersionId basis_;
  std::vector<std::pair<std::string, TransitionRule>> transition_rules_;
  std::uint64_t next_sequence_ = 1;
  std::map<VersionId, VersionRecord> records_;
  /// Schema bytes by schema version, so old views decode under old schemas.
  std::unordered_map<std::uint64_t, std::string> schema_blobs_;
  /// Weak cache of pinned views; entries outlive their last strong pin
  /// only as expired weak_ptrs, repopulated on the next pin.
  mutable std::map<VersionId, std::weak_ptr<const core::Database>>
      pinned_views_;
};

}  // namespace seed::version

#endif  // SEED_VERSION_VERSION_MANAGER_H_
