// ExtentCounters: incrementally maintained live-population counts per
// exact class and per exact association — the base statistics the query
// planner's cost model reads to size extents without scanning them.
//
// The Database updates the counters from the same index-maintenance hook
// points that keep its name/class/association maps current (IndexObject /
// UnindexObject and the relationship twins), so the counts are exact at
// all times: after create, delete cascade, reclassify, veto rollback,
// version restore and persistence load (the bulk paths go through
// Database::WriteItemStates, which unindexes the old and indexes the new
// states through the same hooks). Pattern items are excluded — they are
// invisible to the query layer's extents.
//
// Degree statistics ride on the same hooks: per (association, role,
// class), the number of live non-pattern relationship ends filled by an
// object of exactly that class. They replace the planner's uniform
// assoc/extent degree guess — for a skewed graph the participation count
// of the *queried* class family says how many edges a join hop can
// actually touch. Relationship create/delete maintain both ends;
// reclassifying an object migrates its ends' counts between classes, and
// reclassifying a relationship migrates them between associations
// (Database::MoveParticipantCounts, run forward and on veto rollback).
//
// Family (generalization-closed) counts are summed on demand over the
// schema's class/association family, which is small; the per-extent
// counters themselves are O(1) to maintain.

#ifndef SEED_CORE_EXTENT_COUNTERS_H_
#define SEED_CORE_EXTENT_COUNTERS_H_

#include <array>
#include <cstddef>
#include <unordered_map>

#include "common/ids.h"
#include "schema/schema.h"

namespace seed::core {

class ExtentCounters {
 public:
  void AddObject(ClassId cls) { ++classes_[cls]; }
  void RemoveObject(ClassId cls);
  void AddRelationship(AssociationId assoc) { ++assocs_[assoc]; }
  void RemoveRelationship(AssociationId assoc);

  /// One relationship end: a live non-pattern relationship of exactly
  /// `assoc` whose role-`role` end is the object `obj` of exactly `cls`.
  /// The object identity feeds the per-cell degree distribution.
  void AddParticipant(AssociationId assoc, int role, ClassId cls,
                      ObjectId obj);
  void RemoveParticipant(AssociationId assoc, int role, ClassId cls,
                         ObjectId obj);

  void Clear();

  /// Live non-pattern objects of exactly `cls`.
  size_t CountClass(ClassId cls) const;
  /// Live non-pattern relationships of exactly `assoc`.
  size_t CountAssociation(AssociationId assoc) const;
  /// Relationship ends of exactly `assoc` at `role` filled by exactly
  /// `cls` objects.
  size_t CountParticipants(AssociationId assoc, int role, ClassId cls) const;

  /// Extent size as the query layer sees it: the class and, when
  /// `include_specializations`, its whole generalization family.
  size_t CountClassExtent(const schema::Schema& schema, ClassId cls,
                          bool include_specializations) const;
  size_t CountAssociationExtent(const schema::Schema& schema,
                                AssociationId assoc,
                                bool include_specializations) const;

  /// Participation as the join planner sees it: relationship ends over
  /// the association's whole family at `role` filled by objects of the
  /// `cls` family (or exactly `cls` when `include_specializations` is
  /// off). This is the numerator of the tracked-degree estimate.
  size_t CountParticipantsExtent(const schema::Schema& schema,
                                 AssociationId assoc, int role, ClassId cls,
                                 bool include_specializations = true) const;

  /// Degree-distribution summary over the association family at `role`,
  /// restricted to participant objects of the `cls` family: total ends,
  /// distinct participant objects, and an upper bound on the hottest
  /// object's degree read off the log2 degree buckets (so within 2x of
  /// the true maximum). `ends / distinct` is the mean degree;
  /// `max_degree_upper` against that mean is the planner's skew signal —
  /// near-uniform graphs stay below 2x by construction of the buckets.
  struct DegreeSummary {
    size_t ends = 0;
    size_t distinct = 0;
    size_t max_degree_upper = 0;
  };
  DegreeSummary DegreeStats(const schema::Schema& schema,
                            AssociationId assoc, int role, ClassId cls,
                            bool include_specializations = true) const;

 private:
  /// Per-(assoc, role, class) degree histogram: the exact per-object end
  /// count plus log2 buckets over it (buckets[i] counts objects with
  /// degree in [2^i, 2^(i+1))), maintained incrementally on every degree
  /// transition so DegreeStats never scans.
  struct DegreeDist {
    std::unordered_map<ObjectId, size_t> degree;
    std::array<size_t, 64> buckets{};
    size_t ends = 0;
  };

  std::unordered_map<ClassId, size_t> classes_;
  std::unordered_map<AssociationId, size_t> assocs_;
  /// participants_[assoc][role][cls] — roles of an association are
  /// exactly two, classes per role are few.
  std::unordered_map<AssociationId,
                     std::array<std::unordered_map<ClassId, size_t>, 2>>
      participants_;
  /// degrees_[assoc][role][cls] — same cell structure as participants_.
  std::unordered_map<AssociationId,
                     std::array<std::unordered_map<ClassId, DegreeDist>, 2>>
      degrees_;
};

}  // namespace seed::core

#endif  // SEED_CORE_EXTENT_COUNTERS_H_
