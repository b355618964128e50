// PlanCache: a process-global, shape-keyed cache of planning outcomes
// for the textual hot path.
//
// Every textual query re-parses, re-lowers, and re-runs the Selinger DP
// from scratch — fine for one shell, wasteful for a server pushing many
// reader sessions through the same handful of parameterized query
// shapes. The cache keys on the *shape* of a LogicalChain (database
// instance, classes, associations, roles, and the predicate tree with
// literals parameterized out — see Planner's shape-key builder) and
// stores a plan *skeleton*: per binder, the chosen access-path kind as
// its ordered legs (index specs, or the name index, plus which extracted
// sargable conjunct feeds each leg). On a hit the planner re-binds the live
// literals into the skeleton and skips index selection and access-path
// costing. The join order is never cached: hit or miss, the join-order
// DP runs once on the binders' actual sizes.
//
// Staleness is handled in two layers:
//  * Hard invalidation — an index referenced by the skeleton no longer
//    exists, or any captured statistics fingerprint (extent counts,
//    index entry counts) has drifted past `kDriftRatio` (2x, smoothed
//    so 0-vs-small never divides by zero). The entry is dropped and the
//    query planned fresh.
//  * Soft staleness — drift within the ratio. The skeleton is reused
//    as-is; estimate fields are recomputed from live statistics at
//    re-bind, so EXPLAIN output never shows stale numbers.
// Correctness never depends on either: the skeleton only fixes *which*
// access paths and join order to use, and every plan executes against
// live predicates and indexes (the differential suites pin cached ≡
// fresh ≡ brute force).
//
// Keys embed Database::instance_id(), so entries never alias across
// databases: version snapshots are fresh instances, and a superseded
// snapshot's entries simply age out of the LRU ring.
//
// Thread safety: the multiuser server calls Lookup/Insert/Invalidate
// from many sessions concurrently; one mutex guards the map and LRU
// list (entries are copied out under the lock).

#ifndef SEED_QUERY_PLAN_CACHE_H_
#define SEED_QUERY_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "index/attribute_index.h"

namespace seed::query {

/// The cached planning outcome for one chain shape. Pure skeleton: no
/// index pointers (specs are re-resolved at hit time), no literals
/// (re-bound from the live chain), no estimates (recomputed live).
struct CachedPlan {
  /// One access-path leg: probe/scan `spec` with the bounds of the
  /// binder's `sarg_ordinal`-th extracted sargable conjunct, or, when
  /// `by_name`, look that conjunct's name up in the name index (`spec`
  /// unused; such a leg adds no fingerprint).
  struct Leg {
    index::IndexSpec spec;
    size_t sarg_ordinal = 0;
    bool by_name = false;
  };
  /// One binder's access path. No legs = full scan; one leg = single
  /// index probe/range; several = index intersection in stored order.
  struct Select {
    std::vector<Leg> legs;
  };
  std::vector<Select> selects;
  /// Statistics captured at planning time, in the planner's canonical
  /// order (per binder: extent count; per index leg: index entry count;
  /// per hop: association extent count). The planner recomputes the live
  /// sequence on lookup and invalidates past the drift ratio.
  std::vector<std::uint64_t> fingerprints;
};

class PlanCache {
 public:
  /// The process-global instance every Planner consults.
  static PlanCache& Global();

  /// Copy of the entry for `key`, refreshing its LRU position. Does not
  /// count a hit: the caller still has to validate drift and re-resolve
  /// index specs before the entry is usable (NoteHit / Invalidate).
  std::optional<CachedPlan> Lookup(const std::string& key)
      SEED_EXCLUDES(mu_);

  /// Records a fresh planning outcome, evicting the LRU entry past
  /// capacity.
  void Insert(const std::string& key, CachedPlan plan) SEED_EXCLUDES(mu_);

  /// Drops a stale entry (drifted fingerprints or vanished index) and
  /// counts the invalidation.
  void Invalidate(const std::string& key) SEED_EXCLUDES(mu_);

  /// Metric taps; the planner calls exactly one of these per lookup.
  void NoteHit();
  void NoteMiss();

  /// Invalidation threshold: an entry dies when any live fingerprint
  /// `l` vs captured `c` has (l+1)/(c+1) or (c+1)/(l+1) > kDriftRatio.
  static constexpr double kDriftRatio = 2.0;

  void Clear() SEED_EXCLUDES(mu_);
  size_t size() const SEED_EXCLUDES(mu_);

 private:
  static constexpr size_t kMaxEntries = 1024;

  struct Slot {
    CachedPlan plan;
    std::list<std::string>::iterator lru;
  };

  mutable common::Mutex mu_;
  std::unordered_map<std::string, Slot> entries_ SEED_GUARDED_BY(mu_);
  /// Most-recently-used at the front; Insert evicts from the back.
  std::list<std::string> lru_ SEED_GUARDED_BY(mu_);
};

}  // namespace seed::query

#endif  // SEED_QUERY_PLAN_CACHE_H_
