// The logical query algebra: one intermediate representation that every
// textual query form lowers into, and the single input of the planner's
// Run() entry point.
//
// A LogicalChain is a path of binder-named selections connected by join
// hops:
//
//   binders: [ b0, b1, ..., bn ]   one LogicalSelect per binder
//   hops:    [ h0, ..., hn-1 ]     hop i connects binder i to binder i+1
//
// The degenerate shapes cover the whole query surface:
//
//   * a plain object query      — one kObjects binder, no hops;
//   * a relationship query      — one kRelationships binder, no hops;
//   * a single join             — two binders, one hop;
//   * a join chain              — up to kMaxHops hops.
//
// Before the IR existed the textual layer had one entry point per shape
// (RunQuery / RunRelationshipQuery / RunJoinQuery / RunJoinChainQuery)
// and the planner one planning routine per shape, so every optimizer
// improvement had to be implemented four times. All four entry points
// now lower into a LogicalChain and execute through Planner::Run(chain)
// — the one place join ordering, bushy plans and access-path selection
// live.

#ifndef SEED_QUERY_LOGICAL_H_
#define SEED_QUERY_LOGICAL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/database.h"
#include "query/predicate.h"

namespace seed::query {

/// One conjunct of a relationship-extent selection: the relationship
/// matches when some attribute sub-object in `role` satisfies `inner`.
struct RelCondition {
  std::string role;
  Predicate inner;
};

/// One binder of a logical chain: a named selection over an object-class
/// extent or over a relationship (association) extent.
struct LogicalSelect {
  enum class Extent { kObjects, kRelationships };

  Extent extent = Extent::kObjects;
  /// The queried class (kObjects) or association (kRelationships).
  ClassId cls;
  AssociationId assoc;
  /// The binder name: the output column this selection contributes.
  std::string binder;
  /// Family extent unless false ('exact' in the textual layer).
  bool include_specializations = true;
  /// The selection predicate (kObjects; kTrue selects the extent).
  Predicate pred = Predicate::True();
  /// Conjunctive attribute conditions (kRelationships).
  std::vector<RelCondition> rel_conditions;

  static LogicalSelect Objects(ClassId cls, std::string binder,
                               Predicate pred = Predicate::True(),
                               bool include_specializations = true);
  static LogicalSelect Relationships(
      AssociationId assoc, std::string binder,
      std::vector<RelCondition> conditions = {},
      bool include_specializations = true);
};

/// One hop of a chain: binder i connects to binder i+1 through `assoc`,
/// with binder i bound at role `left_role` (1 expresses reverse joins).
struct LogicalJoinHop {
  AssociationId assoc;
  int left_role = 0;
};

/// The unified logical plan every textual query form lowers into.
struct LogicalChain {
  /// Hop ceiling of the textual grammar and the DP optimizer's bitset
  /// table. Raised from the PR-4 cap of 3 (exhaustive left-deep
  /// enumeration) — the DP is polynomial in the chain length, so the
  /// limit now only bounds parser output, not the plan search.
  static constexpr size_t kMaxHops = 6;

  std::vector<LogicalSelect> binders;  // hops.size() + 1 entries
  std::vector<LogicalJoinHop> hops;

  /// True for the relationship-extent shape (one kRelationships binder).
  bool relationship_form() const {
    return binders.size() == 1 &&
           binders[0].extent == LogicalSelect::Extent::kRelationships;
  }

  /// Shape checks shared by every consumer: binder/hop counts line up,
  /// binder names are non-empty and pairwise distinct, hop roles are 0
  /// or 1, relationship binders only appear in the no-hop form, and the
  /// chain stays within kMaxHops.
  Status Validate() const;
};

}  // namespace seed::query

#endif  // SEED_QUERY_LOGICAL_H_
