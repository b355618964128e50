#include "query/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "exec/worker_pool.h"
#include "query/stats.h"

namespace seed::query {

namespace {

using Kind = PredicateShape::Kind;

/// A sargable conjunct: an attribute (own value when `role` empty) probed
/// by equality keys or by an integer range, or, when `by_name`, a
/// top-level `name is keys[0]` served by the name index.
struct Sarg {
  std::string role;
  bool by_name = false;
  bool is_range = false;
  std::vector<core::Value> keys;  // equality probes
  core::Value lo, hi;             // range bounds
  bool lo_inclusive = true;
  bool hi_inclusive = true;
};

/// Flattens nested And shapes into a conjunct list.
void CollectConjuncts(const PredicateShape* shape,
                      std::vector<const PredicateShape*>* out) {
  if (shape == nullptr) return;
  if (shape->kind == Kind::kAnd) {
    for (const auto& child : shape->children) {
      CollectConjuncts(child.get(), out);
    }
    return;
  }
  out->push_back(shape);
}

/// True iff `shape` is an OR tree whose every leaf is ValueEquals;
/// collects the leaf keys.
bool CollectEqualityLeaves(const PredicateShape* shape,
                           std::vector<core::Value>* keys) {
  if (shape == nullptr) return false;
  if (shape->kind == Kind::kValueEquals) {
    keys->push_back(shape->value);
    return true;
  }
  if (shape->kind == Kind::kOr) {
    for (const auto& child : shape->children) {
      if (!CollectEqualityLeaves(child.get(), keys)) return false;
    }
    return !shape->children.empty();
  }
  return false;
}

/// Extracts the sargable form of one conjunct on the attribute `role`
/// (empty = the object's own value), if any.
bool ExtractSarg(const PredicateShape* shape, std::string role, Sarg* out) {
  std::vector<core::Value> keys;
  if (CollectEqualityLeaves(shape, &keys)) {
    out->role = std::move(role);
    out->is_range = false;
    out->keys = std::move(keys);
    return true;
  }
  if (shape->kind == Kind::kIntLess || shape->kind == Kind::kIntGreater) {
    out->role = std::move(role);
    out->is_range = true;
    if (shape->kind == Kind::kIntLess) {
      out->lo = core::Value::Int(std::numeric_limits<std::int64_t>::min());
      out->lo_inclusive = true;
      out->hi = core::Value::Int(shape->bound);
      out->hi_inclusive = false;
    } else {
      out->lo = core::Value::Int(shape->bound);
      out->lo_inclusive = false;
      out->hi = core::Value::Int(std::numeric_limits<std::int64_t>::max());
      out->hi_inclusive = true;
    }
    return true;
  }
  // OnSubObject(role, inner): sargable when we are at the top level (role
  // still empty) and the inner predicate is sargable on its own value.
  if (shape->kind == Kind::kOnSubObject && role.empty() &&
      !shape->children.empty()) {
    Sarg inner;
    if (!ExtractSarg(shape->children[0].get(), "", &inner)) return false;
    if (!inner.role.empty()) return false;  // no nested roles
    inner.role = shape->text;
    *out = std::move(inner);
    return true;
  }
  return false;
}

/// The binder's sargable conjuncts in extraction order — the ordinal
/// space Plan::Leg::sarg_ordinal indexes into. Counts *every* sargable
/// conjunct (indexed or not), so the ordinal of a conjunct is derivable
/// from the predicate alone when a cached skeleton is re-bound. Only a
/// top-level `name is` is a name sarg: under OnSubObject it would test a
/// dependent object, which has no name.
std::vector<Sarg> CollectObjectSargs(const Predicate& p) {
  std::vector<Sarg> out;
  if (p.shape() == nullptr) return out;
  std::vector<const PredicateShape*> conjuncts;
  CollectConjuncts(p.shape(), &conjuncts);
  for (const PredicateShape* conjunct : conjuncts) {
    Sarg sarg;
    if (conjunct->kind == Kind::kNameIs) {
      sarg.by_name = true;
      sarg.keys = {core::Value::String(conjunct->text)};
    } else if (!ExtractSarg(conjunct, "", &sarg)) {
      continue;
    }
    out.push_back(std::move(sarg));
  }
  return out;
}

/// True iff `id` is a live non-pattern object in the extent of `cls`
/// (specializations included when asked): membership as ObjectsOfClass
/// defines it.
bool InClassExtent(const core::Database& db, ObjectId id, ClassId cls,
                   bool include_specializations) {
  auto obj = db.GetObject(id);
  if (!obj.ok() || (*obj)->is_pattern) return false;
  return include_specializations
             ? db.schema()->IsSameOrSpecializationOf((*obj)->cls, cls)
             : (*obj)->cls == cls;
}

/// Same ordinal space for a relationship binder: one sarg per condition
/// whose inner predicate is sargable on the sub-object's own value.
std::vector<Sarg> CollectRelSargs(
    const std::vector<Planner::RelCondition>& conditions) {
  std::vector<Sarg> out;
  for (const auto& cond : conditions) {
    if (cond.inner.shape() == nullptr) continue;
    Sarg sarg;
    if (!ExtractSarg(cond.inner.shape(), "", &sarg) || !sarg.role.empty()) {
      continue;
    }
    out.push_back(std::move(sarg));
  }
  return out;
}

/// Serializes a predicate's *shape* — structure, roles and operators,
/// with every literal parameterized out — into the plan cache key. Two
/// predicates with the same serialization are planned identically
/// modulo the statistics of their literals, which the cached skeleton
/// re-estimates live at re-bind; residual evaluation always runs the
/// live predicate, so collapsing literals never affects results.
void AppendShapeKey(const PredicateShape* shape, std::string* out) {
  if (shape == nullptr) {
    *out += "?";
    return;
  }
  switch (shape->kind) {
    case Kind::kOpaque: *out += "?"; return;
    case Kind::kTrue: *out += "t"; return;
    case Kind::kHasValue: *out += "v"; return;
    case Kind::kValueEquals: *out += "="; return;
    case Kind::kValueContains: *out += "~"; return;
    case Kind::kIntLess: *out += "<"; return;
    case Kind::kIntGreater: *out += ">"; return;
    case Kind::kNameIs: *out += "n"; return;
    case Kind::kNameContains: *out += "N"; return;
    case Kind::kOfClass: *out += "k"; return;
    case Kind::kOnSubObject:
      // The role is structural: it selects the index, not a literal.
      *out += "s[" + shape->text + "](";
      AppendShapeKey(shape->children.empty() ? nullptr
                                             : shape->children[0].get(),
                     out);
      *out += ")";
      return;
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot: {
      *out += shape->kind == Kind::kAnd   ? "&("
              : shape->kind == Kind::kOr  ? "|("
                                          : "!(";
      for (const auto& child : shape->children) {
        AppendShapeKey(child.get(), out);
        *out += ",";
      }
      *out += ")";
      return;
    }
  }
  *out += "?";
}

/// Participation skew past this multiple of the mean degree inflates
/// the index-nested-loop degree estimate.
constexpr double kDegreeSkewThreshold = 8.0;

/// Degree-histogram correction for the INL driving degree: the uniform
/// participation/extent mean undercosts a driver that lands on hot
/// participants of a skewed association. When the tracked max-degree
/// upper bound (within 2x of the true max, from the log2 degree
/// buckets) exceeds kDegreeSkewThreshold x the mean participant
/// degree, the estimate moves to the geometric mean of the two — never
/// below the uniform estimate, never above the bound. Near-uniform
/// data (max < 2x mean by bucket construction) is untouched, so
/// existing plans and goldens only move under real skew.
double SkewAdjustedDegree(const core::ExtentCounters& counters,
                          const schema::Schema& schema, AssociationId assoc,
                          int role, ClassId cls, double uniform_degree) {
  const core::ExtentCounters::DegreeSummary deg =
      counters.DegreeStats(schema, assoc, role, cls);
  if (deg.distinct == 0) return uniform_degree;
  const double mean =
      static_cast<double>(deg.ends) / static_cast<double>(deg.distinct);
  const double max_upper = static_cast<double>(deg.max_degree_upper);
  if (mean <= 0.0 || max_upper <= mean * kDegreeSkewThreshold) {
    return uniform_degree;
  }
  const double inflated = std::sqrt(mean * max_upper);
  return std::max(uniform_degree, std::min(inflated, max_upper));
}

/// Tie-break rank at equal cost: name equality, index equality, range,
/// intersection, then the scan.
int KindRank(Planner::Plan::Kind kind) {
  switch (kind) {
    case Planner::Plan::Kind::kNameEquals: return 0;
    case Planner::Plan::Kind::kIndexEquals: return 1;
    case Planner::Plan::Kind::kIndexRange: return 2;
    case Planner::Plan::Kind::kIndexIntersect: return 3;
    case Planner::Plan::Kind::kFullScan: return 4;
  }
  return 5;
}

bool Cheaper(double cost_a, Planner::Plan::Kind kind_a, double cost_b,
             Planner::Plan::Kind kind_b) {
  if (cost_a != cost_b) return cost_a < cost_b;
  return KindRank(kind_a) < KindRank(kind_b);
}

std::string Rounded(double rows) {
  return std::to_string(static_cast<long long>(std::llround(rows)));
}

/// Sorted ascending raw candidate ids of one leg.
template <typename Id>
std::vector<Id> FetchLeg(const core::Database& db,
                         const Planner::Plan::Leg& leg) {
  std::vector<Id> out;
  if (leg.index == nullptr) {  // name-equals: at most one object
    if constexpr (std::is_same_v<Id, ObjectId>) {
      if (ObjectId id = db.ObjectNamed(leg.keys[0].as_string()); id.valid()) {
        out.push_back(id);
      }
    }
    return out;
  }
  if (leg.is_range) {
    if constexpr (std::is_same_v<Id, ObjectId>) {
      out = leg.index->Range(leg.lo, leg.lo_inclusive, leg.hi,
                             leg.hi_inclusive);
    } else {
      out = leg.index->RangeRels(leg.lo, leg.lo_inclusive, leg.hi,
                                 leg.hi_inclusive);
    }
    return out;  // Range output is sorted and deduplicated
  }
  for (const core::Value& key : leg.keys) {
    std::vector<Id> hits;
    if constexpr (std::is_same_v<Id, ObjectId>) {
      hits = leg.index->Lookup(key);
    } else {
      hits = leg.index->LookupRels(key);
    }
    out.insert(out.end(), hits.begin(), hits.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Candidate ids of the whole plan (sorted): the single leg's postings, or
/// the intersection of every leg's.
template <typename Id>
std::vector<Id> FetchCandidates(const core::Database& db,
                                const Planner::Plan& plan) {
  std::vector<Id> candidates = FetchLeg<Id>(db, plan.legs[0]);
  for (size_t i = 1; i < plan.legs.size() && !candidates.empty(); ++i) {
    std::vector<Id> next = FetchLeg<Id>(db, plan.legs[i]);
    std::vector<Id> merged;
    merged.reserve(std::min(candidates.size(), next.size()));
    std::set_intersection(candidates.begin(), candidates.end(), next.begin(),
                          next.end(), std::back_inserter(merged));
    candidates = std::move(merged);
  }
  return candidates;
}

}  // namespace

/// A sargable conjunct bound to a covering index, with its cardinality
/// estimate — the unit the cost comparison works on.
struct Planner::Candidate {
  Plan::Leg leg;
  size_t probes = 1;
  Plan::Kind kind = Plan::Kind::kIndexEquals;

  /// Binds `sarg` to `idx`: builds the leg and estimates its rows. The
  /// one place leg construction and cardinality estimation live, shared
  /// by object-extent and relationship-extent planning.
  static Candidate FromSarg(const index::AttributeIndex* idx, Sarg sarg);

  /// Binds a name sarg to the name index of `db`: exactly 1 row when the
  /// named object lies in the extent of `cls`, else 0.
  static Candidate FromName(const core::Database& db, ClassId cls,
                            bool include_specializations, Sarg sarg);
};

Planner::Candidate Planner::Candidate::FromSarg(
    const index::AttributeIndex* idx, Sarg sarg) {
  Candidate c;
  c.leg.index = idx;
  c.leg.is_range = sarg.is_range;
  if (sarg.is_range) {
    c.kind = Plan::Kind::kIndexRange;
    c.leg.lo = std::move(sarg.lo);
    c.leg.hi = std::move(sarg.hi);
    c.leg.lo_inclusive = sarg.lo_inclusive;
    c.leg.hi_inclusive = sarg.hi_inclusive;
    c.leg.est_rows = EstimateRangeRows(*idx, c.leg.lo, c.leg.lo_inclusive,
                                       c.leg.hi, c.leg.hi_inclusive);
    c.probes = 1;
  } else {
    c.kind = Plan::Kind::kIndexEquals;
    c.leg.keys = std::move(sarg.keys);
    c.leg.est_rows = EstimateEqualityRows(*idx, c.leg.keys);
    c.probes = c.leg.keys.size();
  }
  return c;
}

Planner::Candidate Planner::Candidate::FromName(const core::Database& db,
                                                ClassId cls,
                                                bool include_specializations,
                                                Sarg sarg) {
  Candidate c;
  c.kind = Plan::Kind::kNameEquals;
  c.leg.keys = std::move(sarg.keys);
  c.leg.est_rows =
      InClassExtent(db, db.ObjectNamed(c.leg.keys[0].as_string()), cls,
                    include_specializations)
          ? 1.0
          : 0.0;
  return c;
}

std::string Planner::Plan::ToString() const {
  auto leg_str = [](const Leg& leg) -> std::string {
    if (leg.index == nullptr) return "name-equals";
    if (leg.is_range) {
      return "index-range(" + leg.index->spec().ToString() + "), " +
             (leg.lo_inclusive ? "[" : "(") + leg.lo.ToString() + ", " +
             leg.hi.ToString() + (leg.hi_inclusive ? "]" : ")");
    }
    return "index-equals(" + leg.index->spec().ToString() + "), " +
           std::to_string(leg.keys.size()) + " key" +
           (leg.keys.size() == 1 ? "" : "s");
  };
  std::string tail = ", est ~" + Rounded(est_rows) + " of " +
                     Rounded(extent_rows) + " rows";
  switch (kind) {
    case Kind::kFullScan:
      return "scan, est ~" + Rounded(extent_rows) + " rows";
    case Kind::kNameEquals:
    case Kind::kIndexEquals:
    case Kind::kIndexRange:
      return leg_str(legs[0]) + tail;
    case Kind::kIndexIntersect: {
      std::string s = "index-intersect(";
      for (size_t i = 0; i < legs.size(); ++i) {
        if (i != 0) s += " & ";
        s += leg_str(legs[i]) + " ~" + Rounded(legs[i].est_rows);
      }
      return s + ")" + tail;
    }
  }
  return "?";
}

std::string Planner::Plan::ToAnalyzeString(bool mask_times) const {
  std::string s = ToString();
  if (actual_rows >= 0) s += ", actual " + std::to_string(actual_rows);
  if (elapsed_ns >= 0) {
    s += ", t=";
    s += mask_times ? "<t>"
                    : obs::FormatNanos(static_cast<std::uint64_t>(elapsed_ns));
  }
  return s;
}

Planner::Plan Planner::ChooseCheapest(std::vector<Candidate> candidates,
                                      double extent_rows) {
  Plan best;
  best.kind = Plan::Kind::kFullScan;
  best.est_rows = extent_rows;
  best.extent_rows = extent_rows;
  best.est_cost = CostModel::ScanCost(extent_rows);

  // Single-index plans: one per sargable conjunct.
  for (const Candidate& c : candidates) {
    double cost = CostModel::SingleIndexCost(c.probes, c.leg.est_rows);
    if (Cheaper(cost, c.kind, best.est_cost, best.kind)) {
      best.kind = c.kind;
      best.legs = {c.leg};
      best.est_rows = c.leg.est_rows;
      best.est_cost = cost;
    }
  }

  // Multi-index intersection: grow greedily from the most selective leg,
  // keeping each additional leg only if reading its postings costs less
  // than the residual evaluations it prunes.
  if (candidates.size() >= 2) {
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.leg.est_rows < b.leg.est_rows;
                     });
    std::vector<Candidate> chosen = {candidates[0]};
    double legs_cost =
        CostModel::IntersectLegCost(candidates[0].probes,
                                    candidates[0].leg.est_rows);
    double inter_rows = candidates[0].leg.est_rows;
    for (size_t i = 1; i < candidates.size(); ++i) {
      const Candidate& c = candidates[i];
      double new_legs_cost =
          legs_cost + CostModel::IntersectLegCost(c.probes, c.leg.est_rows);
      double new_inter_rows =
          CostModel::IntersectRows(inter_rows, c.leg.est_rows, extent_rows);
      if (new_legs_cost + CostModel::ResidualCost(new_inter_rows) <
          legs_cost + CostModel::ResidualCost(inter_rows)) {
        chosen.push_back(c);
        legs_cost = new_legs_cost;
        inter_rows = new_inter_rows;
      }
    }
    if (chosen.size() >= 2) {
      double cost = legs_cost + CostModel::ResidualCost(inter_rows);
      if (Cheaper(cost, Plan::Kind::kIndexIntersect, best.est_cost,
                  best.kind)) {
        best.kind = Plan::Kind::kIndexIntersect;
        best.legs.clear();
        for (Candidate& c : chosen) best.legs.push_back(std::move(c.leg));
        best.est_rows = inter_rows;
        best.est_cost = cost;
      }
    }
  }
  return best;
}

Planner::Plan Planner::PlanSelect(ClassId cls, const Predicate& p,
                                  bool include_specializations) const {
  const index::IndexManager& manager = db_->attribute_indexes();
  double extent_rows =
      static_cast<double>(db_->extent_counters().CountClassExtent(
          *db_->schema(), cls, include_specializations));
  // The ordinal counts *every* extracted sarg, indexed or not, so a
  // cached leg's ordinal re-derives from the predicate alone even if
  // the index set changed in between (the re-bind then re-resolves or
  // invalidates). Name sargs need no attribute index.
  std::vector<Sarg> sargs = CollectObjectSargs(p);
  std::vector<Candidate> candidates;
  for (size_t ordinal = 0; ordinal < sargs.size(); ++ordinal) {
    Sarg& sarg = sargs[ordinal];
    Candidate c;
    if (sarg.by_name) {
      c = Candidate::FromName(*db_, cls, include_specializations,
                              std::move(sarg));
    } else {
      const index::AttributeIndex* idx = manager.BestFor(
          *db_->schema(), cls, include_specializations, sarg.role);
      if (idx == nullptr) continue;
      c = Candidate::FromSarg(idx, std::move(sarg));
    }
    c.leg.sarg_ordinal = ordinal;
    candidates.push_back(std::move(c));
  }
  return ChooseCheapest(std::move(candidates), extent_rows);
}

namespace {

/// Filters `ids` by `keep`, preserving order: sequential below the
/// policy's partition threshold, otherwise morsels on the worker pool
/// with one output slot per morsel, concatenated in morsel order — the
/// result is exactly the sequential filter's. `keep` must be a pure
/// read of the (externally unmutated) database.
template <typename Id, typename Keep>
std::vector<Id> FilterIdsPartitioned(const exec::ExecPolicy& policy,
                                     const std::vector<Id>& ids,
                                     const Keep& keep) {
  std::vector<Id> out;
  if (!policy.ShouldPartition(ids.size())) {
    for (const Id& id : ids) {
      if (keep(id)) out.push_back(id);
    }
    return out;
  }
  const std::size_t grain = policy.morsel_rows;
  std::vector<std::vector<Id>> slots((ids.size() + grain - 1) / grain);
  exec::WorkerPool::Global().ParallelFor(
      policy.threads, ids.size(), grain,
      [&slots, &ids, &keep, grain](std::size_t begin, std::size_t end) {
        std::vector<Id>& slot = slots[begin / grain];
        for (std::size_t i = begin; i < end; ++i) {
          if (keep(ids[i])) slot.push_back(ids[i]);
        }
      });
  std::size_t total = 0;
  for (const auto& slot : slots) total += slot.size();
  out.reserve(total);
  for (const auto& slot : slots) {
    out.insert(out.end(), slot.begin(), slot.end());
  }
  return out;
}

}  // namespace

std::vector<ObjectId> Planner::ExecuteIndexPlan(
    const Plan& plan, ClassId cls, const Predicate& p,
    bool include_specializations) const {
  std::vector<ObjectId> candidates = FetchCandidates<ObjectId>(*db_, plan);

  // Residual: extent membership (the chosen index may cover a broader
  // family than the query, the name index every class) and the full
  // original predicate. Index candidates are few; re-evaluating keeps
  // both paths semantically identical by construction. Candidate lists
  // big enough to partition run as morsels (predicate evaluation only
  // reads the database).
  return FilterIdsPartitioned(policy_, candidates, [&](ObjectId id) {
    return InClassExtent(*db_, id, cls, include_specializations) &&
           p.Eval(*db_, id);
  });
}

namespace {

/// Tallies which access-path kind each executed selection used.
void CountPlanKind(bool uses_index) {
  static obs::Counter* index_plans =
      obs::MetricsRegistry::Global().GetCounter("query.plans.index.total");
  static obs::Counter* scan_plans =
      obs::MetricsRegistry::Global().GetCounter("query.plans.scan.total");
  (uses_index ? index_plans : scan_plans)->Increment();
}

}  // namespace

std::vector<ObjectId> Planner::SelectIds(ClassId cls, const Predicate& p,
                                         bool include_specializations,
                                         const Plan* precomputed) const {
  Plan plan = precomputed != nullptr
                  ? *precomputed
                  : PlanSelect(cls, p, include_specializations);
  CountPlanKind(plan.uses_index());
  if (plan.uses_index()) {
    return ExecuteIndexPlan(plan, cls, p, include_specializations);
  }
  // Full scan: the extent is morsel-partitioned when large enough.
  return FilterIdsPartitioned(
      policy_, db_->ObjectsOfClass(cls, include_specializations),
      [&](ObjectId id) { return p.Eval(*db_, id); });
}

// --- Relationship joins ------------------------------------------------------

Algebra::JoinOptions Planner::JoinPlan::options() const {
  Algebra::JoinOptions opts;
  opts.left_role = left_role;
  switch (strategy) {
    case Strategy::kHashBuildLeft:
      opts.method = Algebra::JoinOptions::Method::kHash;
      opts.build_side = Algebra::JoinOptions::Side::kLeft;
      break;
    case Strategy::kHashBuildRight:
      opts.method = Algebra::JoinOptions::Method::kHash;
      opts.build_side = Algebra::JoinOptions::Side::kRight;
      break;
    case Strategy::kIndexNestedLoopLeft:
      opts.method = Algebra::JoinOptions::Method::kIndexNestedLoop;
      opts.build_side = Algebra::JoinOptions::Side::kLeft;
      break;
    case Strategy::kIndexNestedLoopRight:
      opts.method = Algebra::JoinOptions::Method::kIndexNestedLoop;
      opts.build_side = Algebra::JoinOptions::Side::kRight;
      break;
  }
  return opts;
}

std::string Planner::JoinPlan::ToString() const {
  std::string s;
  switch (strategy) {
    case Strategy::kHashBuildLeft: s = "join-hash(build=left)"; break;
    case Strategy::kHashBuildRight: s = "join-hash(build=right)"; break;
    case Strategy::kIndexNestedLoopLeft:
      s = "join-index-nested-loop(drive=left)";
      break;
    case Strategy::kIndexNestedLoopRight:
      s = "join-index-nested-loop(drive=right)";
      break;
  }
  s += left_role == 0 ? ", forward" : ", reverse";
  s += ", " + Rounded(left_rows) + " x " + Rounded(right_rows) +
       " inputs, est ~" + Rounded(est_rows) + " rows (assoc ~" +
       Rounded(assoc_rows) + ")";
  return s;
}

Planner::JoinPlan Planner::PlanJoin(AssociationId assoc, size_t left_rows,
                                    size_t right_rows, int left_role,
                                    ClassId left_cls, ClassId right_cls) const {
  return PlanJoinEst(assoc, static_cast<double>(left_rows),
                     static_cast<double>(right_rows), left_role, left_cls,
                     right_cls);
}

Planner::JoinPlan Planner::PlanJoinEst(AssociationId assoc, double left_rows,
                                       double right_rows, int left_role,
                                       ClassId left_cls,
                                       ClassId right_cls) const {
  const schema::Schema& schema = *db_->schema();
  const core::ExtentCounters& counters = db_->extent_counters();
  JoinPlan plan;
  plan.left_role = left_role == 1 ? 1 : 0;
  plan.left_rows = left_rows;
  plan.right_rows = right_rows;
  plan.assoc_rows = static_cast<double>(
      counters.CountAssociationExtent(schema, assoc, true));

  // The classes the inputs were drawn from locate the extents and the
  // tracked participation counts for the degree estimates; they default
  // to the role targets, whose participation is the whole association
  // family (every end conforms to its role) — the old uniform estimate.
  // A join always spans the association family, so family counts apply.
  if (auto item = schema.GetAssociation(assoc); item.ok()) {
    if (!left_cls.valid()) left_cls = (*item)->roles[plan.left_role].target;
    if (!right_cls.valid()) {
      right_cls = (*item)->roles[1 - plan.left_role].target;
    }
  }
  double left_extent = static_cast<double>(
      counters.CountClassExtent(schema, left_cls, true));
  double right_extent = static_cast<double>(
      counters.CountClassExtent(schema, right_cls, true));
  double left_part = static_cast<double>(counters.CountParticipantsExtent(
      schema, assoc, plan.left_role, left_cls));
  double right_part = static_cast<double>(counters.CountParticipantsExtent(
      schema, assoc, 1 - plan.left_role, right_cls));
  // An edge can only match when both of its ends land in the input
  // classes — for a skewed graph this is far below the association size.
  double matchable = std::min(left_part, right_part);
  plan.est_rows = CostModel::JoinRows(matchable, plan.left_rows, left_extent,
                                      plan.right_rows, right_extent);

  struct Option {
    JoinPlan::Strategy strategy;
    double cost;
  };
  const Option options[] = {
      {JoinPlan::Strategy::kHashBuildRight,
       CostModel::HashJoinCost(plan.assoc_rows, plan.right_rows,
                               plan.left_rows, plan.est_rows)},
      {JoinPlan::Strategy::kHashBuildLeft,
       CostModel::HashJoinCost(plan.assoc_rows, plan.left_rows,
                               plan.right_rows, plan.est_rows)},
      {JoinPlan::Strategy::kIndexNestedLoopLeft,
       CostModel::IndexNestedLoopJoinCost(
           plan.left_rows,
           SkewAdjustedDegree(counters, schema, assoc, plan.left_role,
                              left_cls,
                              CostModel::JoinDegree(left_part, left_extent)),
           plan.right_rows, plan.est_rows)},
      {JoinPlan::Strategy::kIndexNestedLoopRight,
       CostModel::IndexNestedLoopJoinCost(
           plan.right_rows,
           SkewAdjustedDegree(counters, schema, assoc, 1 - plan.left_role,
                              right_cls,
                              CostModel::JoinDegree(right_part, right_extent)),
           plan.left_rows, plan.est_rows)},
  };
  plan.strategy = options[0].strategy;
  plan.est_cost = options[0].cost;
  for (const Option& option : options) {
    if (option.cost < plan.est_cost) {
      plan.strategy = option.strategy;
      plan.est_cost = option.cost;
    }
  }
  return plan;
}

// --- Plan trees --------------------------------------------------------------

std::string Planner::PhysicalPlan::Node::ToString(
    const std::vector<std::string>& binders) const {
  auto name = [&](int b) {
    return b >= 0 && b < static_cast<int>(binders.size())
               ? binders[b]
               : "b" + std::to_string(b);
  };
  std::string actual =
      actual_rows >= 0 ? ", actual " + std::to_string(actual_rows) : "";
  switch (kind) {
    case Kind::kInput:
      return name(binder);
    case Kind::kHopJoin:
      return "(hop" + std::to_string(hop + 1) + ": " +
             left->ToString(binders) + " * " + right->ToString(binders) +
             " | " + join.ToString() + actual + ")";
    case Kind::kTupleJoin:
      return "(merge@" + name(shared_binder) + ": " +
             left->ToString(binders) + " * " + right->ToString(binders) +
             " | est ~" + Rounded(est_rows) + " rows" + actual + ")";
  }
  return "?";
}

std::string Planner::PhysicalPlan::Node::ToAnalyzeString(
    const std::vector<std::string>& binders, bool mask_times) const {
  auto name = [&](int b) {
    return b >= 0 && b < static_cast<int>(binders.size())
               ? binders[b]
               : "b" + std::to_string(b);
  };
  // ", actual 4, in 3+5, t=1.2ms" — output rows, input rows (left+right),
  // inclusive wall-clock.
  std::string notes;
  if (actual_rows >= 0) notes += ", actual " + std::to_string(actual_rows);
  if (left != nullptr && right != nullptr && left->actual_rows >= 0 &&
      right->actual_rows >= 0) {
    notes += ", in " + std::to_string(left->actual_rows) + "+" +
             std::to_string(right->actual_rows);
  }
  if (elapsed_ns >= 0) {
    notes += ", t=";
    notes += mask_times
                 ? "<t>"
                 : obs::FormatNanos(static_cast<std::uint64_t>(elapsed_ns));
  }
  switch (kind) {
    case Kind::kInput: {
      // Leaves print their materialized size inline: "d[3]".
      std::string s = name(binder);
      if (actual_rows >= 0) s += "[" + std::to_string(actual_rows) + "]";
      return s;
    }
    case Kind::kHopJoin:
      return "(hop" + std::to_string(hop + 1) + ": " +
             left->ToAnalyzeString(binders, mask_times) + " * " +
             right->ToAnalyzeString(binders, mask_times) + " | " +
             join.ToString() + notes + ")";
    case Kind::kTupleJoin:
      return "(merge@" + name(shared_binder) + ": " +
             left->ToAnalyzeString(binders, mask_times) + " * " +
             right->ToAnalyzeString(binders, mask_times) + " | est ~" +
             Rounded(est_rows) + " rows" + notes + ")";
  }
  return "?";
}

bool Planner::PhysicalPlan::HasBushyJoin() const {
  auto walk = [](auto&& self, const Node* node) -> bool {
    if (node == nullptr) return false;
    if (node->is_bushy()) return true;
    return self(self, node->left.get()) || self(self, node->right.get());
  };
  return walk(walk, root.get());
}

long long Planner::PhysicalPlan::RowsVisited() const {
  long long total = 0;
  auto walk = [&total](auto&& self, const Node* node) -> void {
    if (node == nullptr) return;
    self(self, node->left.get());
    self(self, node->right.get());
    if (node->actual_rows > 0) total += node->actual_rows;
  };
  walk(walk, root.get());
  return total;
}

std::vector<int> Planner::PhysicalPlan::HopOrder() const {
  std::vector<int> order;
  auto walk = [&order](auto&& self, const Node* node) -> void {
    if (node == nullptr) return;
    self(self, node->left.get());
    self(self, node->right.get());
    if (node->kind == Node::Kind::kHopJoin) order.push_back(node->hop);
  };
  walk(walk, root.get());
  return order;
}

std::string Planner::PhysicalPlan::ToString() const {
  std::string s;
  for (size_t i = 0; i < selects.size(); ++i) {
    if (!s.empty()) s += "; ";
    // Plain object / relationship selections keep the bare access-path
    // string; chains prefix each binder's name.
    if (selects.size() > 1 && i < binders.size()) s += binders[i] + ": ";
    s += selects[i].ToString();
  }
  if (root != nullptr && root->kind != Node::Kind::kInput) {
    if (!s.empty()) s += "; ";
    s += root->ToString(binders);
  }
  return s;
}

std::string Planner::PhysicalPlan::ToAnalyzeString(bool mask_times) const {
  std::string s;
  for (size_t i = 0; i < selects.size(); ++i) {
    if (!s.empty()) s += "; ";
    if (selects.size() > 1 && i < binders.size()) s += binders[i] + ": ";
    s += selects[i].ToAnalyzeString(mask_times);
  }
  if (root != nullptr && root->kind != Node::Kind::kInput) {
    if (!s.empty()) s += "; ";
    s += root->ToAnalyzeString(binders, mask_times);
  }
  // Marked only on a hit, so a fresh execution renders unmarked.
  if (from_cache) s += "; plan-cache: hit";
  return s;
}

std::unique_ptr<Planner::Node> Planner::MakeLeaf(int binder, double rows) {
  auto node = std::make_unique<Node>();
  node->kind = Node::Kind::kInput;
  node->lo = node->hi = binder;
  node->binder = binder;
  node->est_rows = rows;
  node->est_cost = 0.0;
  return node;
}

std::unique_ptr<Planner::Node> Planner::MakeHopJoin(
    const std::vector<PipelineHop>& hops, int hop,
    std::unique_ptr<Node> left, std::unique_ptr<Node> right) const {
  const PipelineHop& h = hops[hop];
  auto node = std::make_unique<Node>();
  node->kind = Node::Kind::kHopJoin;
  node->lo = left->lo;
  node->hi = right->hi;
  node->hop = hop;
  // The lower binder segment is always the join's left input, binding
  // the hop's left role — execution replays exactly this orientation.
  node->join = PlanJoinEst(h.assoc, left->est_rows, right->est_rows,
                           h.left_role, h.left_cls, h.right_cls);
  node->est_rows = node->join.est_rows;
  node->est_cost = left->est_cost + right->est_cost + node->join.est_cost;
  node->left = std::move(left);
  node->right = std::move(right);
  return node;
}

std::unique_ptr<Planner::Node> Planner::MakeTupleJoin(
    int m, double shared_rows, std::unique_ptr<Node> left,
    std::unique_ptr<Node> right) const {
  auto node = std::make_unique<Node>();
  node->kind = Node::Kind::kTupleJoin;
  node->lo = left->lo;
  node->hi = right->hi;
  node->shared_binder = m;
  node->est_rows =
      CostModel::TupleJoinRows(left->est_rows, right->est_rows, shared_rows);
  node->est_cost = left->est_cost + right->est_cost +
                   CostModel::TupleJoinCost(
                       std::min(left->est_rows, right->est_rows),
                       std::max(left->est_rows, right->est_rows),
                       node->est_rows);
  node->left = std::move(left);
  node->right = std::move(right);
  return node;
}

std::unique_ptr<Planner::Node> Planner::LeftDeepTree(
    const std::vector<PipelineHop>& hops,
    const std::vector<double>& input_rows, int lo, int hi) const {
  if (lo == hi) return MakeLeaf(lo, input_rows[lo]);
  return MakeHopJoin(hops, hi - 1, LeftDeepTree(hops, input_rows, lo, hi - 1),
                     MakeLeaf(hi, input_rows[hi]));
}

// --- The DP optimizer --------------------------------------------------------

/// The best way to compute one connected subchain: its estimated rows and
/// cost plus the winning decision (hop-join split or tuple-join split),
/// from which the plan tree is reconstructed after the table is full.
struct Planner::DpEntry {
  double rows = 0.0;
  double cost = 0.0;
  enum class How { kHop, kTuple } how = How::kHop;
  int split = -1;
};

std::unique_ptr<Planner::Node> Planner::OptimizeJoinTree(
    const std::vector<PipelineHop>& hops,
    const std::vector<double>& input_rows) const {
  // 63 hops bounds the bitset key (and is far beyond any real chain);
  // ValidatePipelineInputs enforces the same ceiling on the executing
  // entry points.
  const int n = static_cast<int>(hops.size());
  if (n == 0 || n > 63 || input_rows.size() != hops.size() + 1) {
    return nullptr;
  }
  static obs::Counter* dp_runs =
      obs::MetricsRegistry::Global().GetCounter("planner.dp.runs.total");
  dp_runs->Increment();

  // Selinger-style DP over the chain's connected subchains, keyed by hop
  // bitset. For a chain the connected hop subsets are exactly the
  // contiguous ranges, so the binder segment [lo, hi] maps to the bits
  // of hops lo..hi-1; enumerating by segment width visits every subset
  // after all of its sub-subsets.
  std::unordered_map<std::uint64_t, DpEntry> best;
  auto bits = [](int lo, int hi) -> std::uint64_t {
    return ((std::uint64_t{1} << (hi - lo)) - 1) << lo;
  };
  auto seg_rows = [&](int lo, int hi) {
    return lo == hi ? input_rows[lo] : best.at(bits(lo, hi)).rows;
  };
  auto seg_cost = [&](int lo, int hi) {
    return lo == hi ? 0.0 : best.at(bits(lo, hi)).cost;
  };

  for (int len = 1; len <= n; ++len) {
    for (int lo = 0; lo + len <= n; ++lo) {
      const int hi = lo + len;  // binder segment [lo, hi]
      DpEntry entry;
      bool have = false;
      // Hop joins: adjacent segments [lo, m] and [m+1, hi] through hop
      // m. The split at hi-1 is enumerated first so that with all costs
      // tied the table reconstructs the textual left-deep tree; it also
      // provides the segment's canonical cardinality (below).
      for (int m = hi - 1; m >= lo; --m) {
        const PipelineHop& hop = hops[m];
        JoinPlan jp =
            PlanJoinEst(hop.assoc, seg_rows(lo, m), seg_rows(m + 1, hi),
                        hop.left_role, hop.left_cls, hop.right_cls);
        double cost = seg_cost(lo, m) + seg_cost(m + 1, hi) + jp.est_cost;
        if (!have) {
          // One plan-independent cardinality per subchain, Selinger
          // style: the segment computes the same relation whichever
          // plan wins, so its recorded row estimate comes from the
          // canonical (textual) split alone. Decisions below only
          // change the cost — a candidate's optimistic output estimate
          // cannot leak into how enclosing segments are costed.
          entry.rows = jp.est_rows;
        }
        if (!have || cost < entry.cost) {
          entry.cost = cost;
          entry.how = DpEntry::How::kHop;
          entry.split = m;
          have = true;
        }
      }
      // Bushy tuple joins: overlapping segments [lo, m] and [m, hi]
      // merged on the shared binder m — each side executes its own hops
      // independently, so neither drags the other's intermediate.
      for (int m = hi - 1; m > lo; --m) {
        double l_rows = seg_rows(lo, m);
        double r_rows = seg_rows(m, hi);
        double rows = CostModel::TupleJoinRows(l_rows, r_rows, input_rows[m]);
        double cost = seg_cost(lo, m) + seg_cost(m, hi) +
                      CostModel::TupleJoinCost(std::min(l_rows, r_rows),
                                               std::max(l_rows, r_rows), rows);
        if (cost < entry.cost) {
          entry.cost = cost;
          entry.how = DpEntry::How::kTuple;
          entry.split = m;
        }
      }
      best[bits(lo, hi)] = entry;
    }
  }

  // Reconstruct the winning tree from the decisions. Every node is
  // pinned to the table's canonical cardinality and winning cost after
  // construction: children therefore feed MakeHopJoin the exact row
  // estimates the DP costed candidates with, so the physical strategy
  // each hop node picks is the one the DP priced, and the tree's
  // est_rows/est_cost equal the table's — not a per-decomposition
  // recomputation that could silently diverge.
  auto build = [&](auto&& self, int lo, int hi) -> std::unique_ptr<Node> {
    if (lo == hi) return MakeLeaf(lo, input_rows[lo]);
    const DpEntry& e = best.at(bits(lo, hi));
    std::unique_ptr<Node> node;
    if (e.how == DpEntry::How::kHop) {
      node = MakeHopJoin(hops, e.split, self(self, lo, e.split),
                         self(self, e.split + 1, hi));
    } else {
      node = MakeTupleJoin(e.split, input_rows[e.split],
                           self(self, lo, e.split), self(self, e.split, hi));
    }
    node->est_rows = e.rows;
    node->est_cost = e.cost;
    return node;
  };
  return build(build, 0, n);
}

// --- Explicit shapes (tests and benches) -------------------------------------

std::vector<std::vector<int>> Planner::LeftDeepOrders(size_t num_hops) {
  std::vector<std::vector<int>> orders;
  if (num_hops == 0) return orders;
  const int n = static_cast<int>(num_hops);
  // Grow a contiguous hop segment [lo, hi] from every starting hop,
  // preferring the rightward extension so the textual order (start at
  // hop 0, always extend right) is enumerated first.
  std::vector<int> current;
  auto extend = [&](auto&& self, int lo, int hi) -> void {
    if (static_cast<int>(current.size()) == n) {
      orders.push_back(current);
      return;
    }
    if (hi + 1 < n) {
      current.push_back(hi + 1);
      self(self, lo, hi + 1);
      current.pop_back();
    }
    if (lo > 0) {
      current.push_back(lo - 1);
      self(self, lo - 1, hi);
      current.pop_back();
    }
  };
  for (int start = 0; start < n; ++start) {
    current = {start};
    extend(extend, start, start);
  }
  return orders;
}

Result<std::unique_ptr<Planner::Node>> Planner::TreeForOrder(
    const std::vector<PipelineHop>& hops,
    const std::vector<double>& input_rows,
    const std::vector<int>& order) const {
  if (hops.empty()) {
    return Status::InvalidArgument("join pipeline needs at least one hop");
  }
  if (input_rows.size() != hops.size() + 1) {
    return Status::InvalidArgument(
        "join pipeline wants one input per binder (hops + 1)");
  }
  if (order.size() != hops.size()) {
    return Status::InvalidArgument(
        "hop order must name every hop exactly once");
  }
  // The joined binder segment [lo, hi]; empty before the first step.
  std::unique_ptr<Node> cur;
  int lo = 0, hi = -1;
  for (int h : order) {
    if (h < 0 || h >= static_cast<int>(hops.size())) {
      return Status::InvalidArgument("hop index out of range");
    }
    if (hi < lo) {
      cur = MakeHopJoin(hops, h, MakeLeaf(h, input_rows[h]),
                        MakeLeaf(h + 1, input_rows[h + 1]));
      lo = h;
      hi = h + 1;
    } else if (h == hi) {
      cur = MakeHopJoin(hops, h, std::move(cur),
                        MakeLeaf(h + 1, input_rows[h + 1]));
      hi = h + 1;
    } else if (h + 1 == lo) {
      cur = MakeHopJoin(hops, h, MakeLeaf(h, input_rows[h]), std::move(cur));
      lo = h;
    } else {
      return Status::InvalidArgument(
          "hop order is not left-deep (a prefix is not contiguous)");
    }
  }
  return cur;
}

// --- Pipeline execution ------------------------------------------------------

Status Planner::ValidatePipelineInputs(
    const std::vector<QueryRelation>& inputs,
    const std::vector<PipelineHop>& hops) {
  if (hops.empty()) {
    return Status::InvalidArgument("join pipeline needs at least one hop");
  }
  if (hops.size() > 63) {
    return Status::InvalidArgument(
        "join pipelines support at most 63 hops (the DP bitset width)");
  }
  if (inputs.size() != hops.size() + 1) {
    return Status::InvalidArgument(
        "join pipeline wants one input relation per binder (hops + 1)");
  }
  for (const QueryRelation& in : inputs) {
    if (in.arity() != 1) {
      return Status::InvalidArgument(
          "join pipeline inputs must be unary binder relations");
    }
  }
  for (const PipelineHop& hop : hops) {
    if (hop.left_role != 0 && hop.left_role != 1) {
      return Status::InvalidArgument("join role must be 0 or 1");
    }
  }
  return Status::OK();
}

bool Planner::ShouldForkChildren(const Node& node) const {
  return policy_.parallel() && node.left != nullptr && node.right != nullptr &&
         node.left->kind != Node::Kind::kInput &&
         node.right->kind != Node::Kind::kInput &&
         std::min(node.left->est_cost, node.right->est_cost) >=
             policy_.min_parallel_cost;
}

namespace {

/// The q-error of an executed node (Moerkotte, Neumann and Steidl,
/// PVLDB 2009): the factor by which its actual rows miss its estimate in
/// either direction, +1-smoothed so empty-vs-tiny never divides by zero,
/// rounded up to a whole factor (1 = exact).
std::uint64_t QError(const Planner::PhysicalPlan::Node& node) {
  const double actual = static_cast<double>(node.actual_rows) + 1.0;
  const double est = node.est_rows + 1.0;
  return static_cast<std::uint64_t>(
      std::ceil(std::max(actual / est, est / actual)));
}

/// One sample per executed join node: how wrong the planner's estimates
/// run across a workload.
void RecordQError(const Planner::PhysicalPlan::Node& node) {
  static obs::Histogram* qerror =
      obs::MetricsRegistry::Global().GetHistogram("planner.estimate.qerror");
  qerror->Record(QError(node));
}

std::vector<double> InputSizes(const std::vector<QueryRelation>& inputs) {
  std::vector<double> sizes;
  sizes.reserve(inputs.size());
  for (const QueryRelation& in : inputs) {
    sizes.push_back(static_cast<double>(in.size()));
  }
  return sizes;
}

}  // namespace

Result<QueryRelation> Planner::ExecuteNode(
    Node* node, const std::vector<QueryRelation>& inputs,
    const std::vector<PipelineHop>& hops, obs::ExecContext* ctx) const {
  // Two steady_clock reads per *node* (never per row) when an
  // EXPLAIN ANALYZE context asked for operator timing; children are
  // timed inside the parent's window, so a node's clock is inclusive.
  // Under a forked sibling the windows of the two subtrees overlap, but
  // each node's stamps are written only by the one task executing that
  // subtree and are published to the parent at the Await barrier.
  const bool timed = ctx != nullptr && ctx->time_nodes;
  const std::uint64_t start = timed ? obs::NowNanos() : 0;
  // Executes a child into `storage` — except input leaves, which read
  // the materialized binder relation in place (no copy).
  auto child = [&](Node* n, QueryRelation* storage)
      -> Result<const QueryRelation*> {
    if (n->kind == Node::Kind::kInput) {
      n->actual_rows = static_cast<long long>(inputs[n->binder].size());
      if (timed) n->elapsed_ns = 0;  // read in place — no work to time
      return &inputs[n->binder];
    }
    SEED_ASSIGN_OR_RETURN(*storage, ExecuteNode(n, inputs, hops, ctx));
    return storage;
  };
  using Sides = std::pair<const QueryRelation*, const QueryRelation*>;
  // Resolves both children. When the policy allows it and the DP's own
  // cost estimates say both joined subtrees are substantial, the left
  // subtree executes as a concurrent task on the worker pool while this
  // thread runs the right — the bushy-plan concurrency the optimizer's
  // tree shape makes available.
  auto children = [&](QueryRelation* left_storage,
                      QueryRelation* right_storage) -> Result<Sides> {
    if (ShouldForkChildren(*node)) {
      std::optional<Result<QueryRelation>> left_result;
      exec::WorkerPool& pool = exec::WorkerPool::Global();
      pool.EnsureWorkers(policy_.threads - 1);
      exec::TaskGroup group;
      pool.Submit(&group, [&] {
        left_result.emplace(ExecuteNode(node->left.get(), inputs, hops, ctx));
      });
      Result<QueryRelation> right_result =
          ExecuteNode(node->right.get(), inputs, hops, ctx);
      pool.Await(&group);
      if (!left_result->ok()) return left_result->status();
      if (!right_result.ok()) return right_result.status();
      *left_storage = std::move(**left_result);
      *right_storage = std::move(right_result).value();
      return Sides(left_storage, right_storage);
    }
    SEED_ASSIGN_OR_RETURN(const QueryRelation* left,
                          child(node->left.get(), left_storage));
    SEED_ASSIGN_OR_RETURN(const QueryRelation* right,
                          child(node->right.get(), right_storage));
    return Sides(left, right);
  };
  auto run = [&]() -> Result<QueryRelation> {
    switch (node->kind) {
      case Node::Kind::kInput: {
        node->actual_rows =
            static_cast<long long>(inputs[node->binder].size());
        return inputs[node->binder];
      }
      case Node::Kind::kHopJoin: {
        QueryRelation left_storage, right_storage;
        SEED_ASSIGN_OR_RETURN(Sides sides,
                              children(&left_storage, &right_storage));
        // The left input ends at binder `hop`, the right starts at binder
        // `hop` + 1; empty inputs short-circuit inside RelationshipJoin.
        auto joined = algebra_.RelationshipJoin(
            *sides.first, inputs[node->hop].attributes[0],
            hops[node->hop].assoc, *sides.second,
            inputs[node->hop + 1].attributes[0], node->join.options());
        if (!joined.ok()) return joined.status();
        node->actual_rows = static_cast<long long>(joined->size());
        RecordQError(*node);
        return joined;
      }
      case Node::Kind::kTupleJoin: {
        QueryRelation left_storage, right_storage;
        SEED_ASSIGN_OR_RETURN(Sides sides,
                              children(&left_storage, &right_storage));
        auto merged = algebra_.TupleJoin(
            *sides.first, *sides.second,
            inputs[node->shared_binder].attributes[0]);
        if (!merged.ok()) return merged.status();
        node->actual_rows = static_cast<long long>(merged->size());
        RecordQError(*node);
        return merged;
      }
    }
    return Status::Internal("unplanned node");
  };
  Result<QueryRelation> result = run();
  if (timed) node->elapsed_ns = static_cast<long long>(obs::NowNanos() - start);
  return result;
}

namespace {
// Single registration site: the registry's rows-visited counter is the
// source of truth the benches and the CI plan-quality gate read; it
// matches PhysicalPlan::RowsVisited().
obs::Counter& RowsVisitedCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("query.rows.visited.total");
  return *counter;
}
}  // namespace

Result<QueryRelation> Planner::ExecuteJoin(
    const std::vector<QueryRelation>& inputs,
    const std::vector<PipelineHop>& hops, PhysicalPlan plan,
    PhysicalPlan* plan_out, obs::ExecContext* ctx) const {
  if (plan.root == nullptr) {
    plan.root = OptimizeJoinTree(hops, InputSizes(inputs));
  }
  SEED_ASSIGN_OR_RETURN(QueryRelation joined,
                        ExecuteNode(plan.root.get(), inputs, hops, ctx));
  RowsVisitedCounter().Increment(
      static_cast<std::uint64_t>(plan.RowsVisited()));
  // Report the estimates of the tree actually executed.
  plan.est_rows = plan.root->est_rows;
  plan.est_cost = plan.root->est_cost;
  for (const Plan& select : plan.selects) plan.est_cost += select.est_cost;
  // Back to the textual binder-column order (execution accumulated the
  // columns in tree order; a complete tree joins every binder).
  plan.binders.clear();
  for (const QueryRelation& in : inputs) {
    plan.binders.push_back(in.attributes[0]);
  }
  auto out = algebra_.Project(joined, plan.binders);
  if (!out.ok()) return out.status();
  if (plan_out != nullptr) *plan_out = std::move(plan);
  return out;
}

Planner::PhysicalPlan Planner::PlanJoinPipeline(
    const std::vector<PipelineHop>& hops,
    const std::vector<size_t>& input_rows) const {
  PhysicalPlan plan;
  std::vector<double> rows(input_rows.begin(), input_rows.end());
  plan.root = OptimizeJoinTree(hops, rows);
  if (plan.root != nullptr) {
    plan.est_rows = plan.root->est_rows;
    plan.est_cost = plan.root->est_cost;
  }
  return plan;
}

Result<QueryRelation> Planner::JoinPipeline(
    const std::vector<QueryRelation>& inputs,
    const std::vector<PipelineHop>& hops, PhysicalPlan* plan_out,
    obs::ExecContext* ctx) const {
  SEED_RETURN_IF_ERROR(ValidatePipelineInputs(inputs, hops));
  return ExecuteJoin(inputs, hops, PhysicalPlan(), plan_out, ctx);
}

Result<QueryRelation> Planner::JoinPipelineInOrder(
    const std::vector<QueryRelation>& inputs,
    const std::vector<PipelineHop>& hops, const std::vector<int>& order,
    PhysicalPlan* plan_out) const {
  SEED_RETURN_IF_ERROR(ValidatePipelineInputs(inputs, hops));
  PhysicalPlan plan;
  SEED_ASSIGN_OR_RETURN(plan.root,
                        TreeForOrder(hops, InputSizes(inputs), order));
  return ExecuteJoin(inputs, hops, std::move(plan), plan_out, nullptr);
}

Result<QueryRelation> Planner::JoinPipelineSplit(
    const std::vector<QueryRelation>& inputs,
    const std::vector<PipelineHop>& hops, int m, bool tuple_join,
    PhysicalPlan* plan_out) const {
  SEED_RETURN_IF_ERROR(ValidatePipelineInputs(inputs, hops));
  const int n = static_cast<int>(hops.size());
  const std::vector<double> sizes = InputSizes(inputs);
  PhysicalPlan plan;
  if (tuple_join) {
    if (m <= 0 || m >= n) {
      return Status::InvalidArgument(
          "tuple-join split must leave at least one hop on each side");
    }
    plan.root = MakeTupleJoin(m, sizes[m], LeftDeepTree(hops, sizes, 0, m),
                              LeftDeepTree(hops, sizes, m, n));
  } else {
    if (m < 0 || m >= n) {
      return Status::InvalidArgument("hop split out of range");
    }
    plan.root = MakeHopJoin(hops, m, LeftDeepTree(hops, sizes, 0, m),
                            LeftDeepTree(hops, sizes, m + 1, n));
  }
  return ExecuteJoin(inputs, hops, std::move(plan), plan_out, nullptr);
}

// --- The unified entry point -------------------------------------------------

std::vector<Planner::PipelineHop> Planner::LowerHops(
    const LogicalChain& chain) {
  std::vector<PipelineHop> hops;
  hops.reserve(chain.hops.size());
  for (size_t i = 0; i < chain.hops.size(); ++i) {
    hops.push_back({chain.hops[i].assoc, chain.hops[i].left_role,
                    chain.binders[i].cls, chain.binders[i + 1].cls});
  }
  return hops;
}

// --- Plan cache --------------------------------------------------------------

std::string Planner::BuildShapeKey(const LogicalChain& chain) const {
  std::string key = "db" + std::to_string(db_->instance_id());
  for (const LogicalSelect& b : chain.binders) {
    if (b.extent == LogicalSelect::Extent::kRelationships) {
      key += "|r" + std::to_string(b.assoc.raw());
      key += b.include_specializations ? "+" : "-";
      for (const RelCondition& cond : b.rel_conditions) {
        key += ",[" + cond.role + "]=";
        AppendShapeKey(cond.inner.shape(), &key);
      }
    } else {
      key += "|o" + std::to_string(b.cls.raw());
      key += b.include_specializations ? "+" : "-";
      key += ",p=";
      AppendShapeKey(b.pred.shape(), &key);
    }
  }
  // Binder names are deliberately not part of the key: they rename
  // output columns, never the plan; a hit re-labels from the live chain.
  for (const LogicalJoinHop& h : chain.hops) {
    key += "|h" + std::to_string(h.assoc.raw()) + ":" +
           std::to_string(h.left_role);
  }
  return key;
}

std::optional<std::vector<std::uint64_t>> Planner::LiveFingerprints(
    const LogicalChain& chain, const CachedPlan& cached) const {
  if (cached.selects.size() != chain.binders.size()) return std::nullopt;
  const schema::Schema& schema = *db_->schema();
  const core::ExtentCounters& counters = db_->extent_counters();
  const index::IndexManager& manager = db_->attribute_indexes();
  std::vector<std::uint64_t> fingerprints;
  for (size_t i = 0; i < chain.binders.size(); ++i) {
    const LogicalSelect& b = chain.binders[i];
    fingerprints.push_back(
        b.extent == LogicalSelect::Extent::kRelationships
            ? counters.CountAssociationExtent(schema, b.assoc,
                                              b.include_specializations)
            : counters.CountClassExtent(schema, b.cls,
                                        b.include_specializations));
    for (const CachedPlan::Leg& leg : cached.selects[i].legs) {
      if (leg.by_name) continue;
      const index::AttributeIndex* idx = manager.Find(leg.spec);
      if (idx == nullptr) return std::nullopt;
      fingerprints.push_back(idx->num_entries());
    }
  }
  for (const LogicalJoinHop& h : chain.hops) {
    fingerprints.push_back(counters.CountAssociationExtent(schema, h.assoc,
                                                           true));
  }
  return fingerprints;
}

std::optional<Planner::Plan> Planner::RebindSelect(
    const LogicalSelect& binder, const CachedPlan::Select& cached) const {
  const index::IndexManager& manager = db_->attribute_indexes();
  const bool rel = binder.extent == LogicalSelect::Extent::kRelationships;
  const double extent_rows = static_cast<double>(
      rel ? db_->extent_counters().CountAssociationExtent(
                *db_->schema(), binder.assoc, binder.include_specializations)
          : db_->extent_counters().CountClassExtent(
                *db_->schema(), binder.cls, binder.include_specializations));
  Plan plan;
  plan.extent_rows = extent_rows;
  if (cached.legs.empty()) {
    // The skeleton pinned the full-scan decision; estimates are live.
    plan.est_rows = extent_rows;
    plan.est_cost = CostModel::ScanCost(extent_rows);
    return plan;
  }
  const std::vector<Sarg> sargs = rel ? CollectRelSargs(binder.rel_conditions)
                                      : CollectObjectSargs(binder.pred);
  std::vector<Candidate> legs;
  for (const CachedPlan::Leg& cleg : cached.legs) {
    if (cleg.sarg_ordinal >= sargs.size() ||
        sargs[cleg.sarg_ordinal].by_name != cleg.by_name) {
      return std::nullopt;
    }
    Candidate c;
    if (cleg.by_name) {
      // The live literal is looked up again: a hit on another name
      // returns that name's object.
      c = Candidate::FromName(*db_, binder.cls, binder.include_specializations,
                              sargs[cleg.sarg_ordinal]);
    } else {
      const index::AttributeIndex* idx = manager.Find(cleg.spec);
      if (idx == nullptr) return std::nullopt;
      c = Candidate::FromSarg(idx, sargs[cleg.sarg_ordinal]);
    }
    c.leg.sarg_ordinal = cleg.sarg_ordinal;
    legs.push_back(std::move(c));
  }
  if (legs.size() == 1) {
    // Estimate and cost exactly as ChooseCheapest's single-index arm,
    // so an unchanged-statistics re-bind prints byte-identically to
    // the fresh plan.
    plan.kind = legs[0].kind;
    plan.est_rows = legs[0].leg.est_rows;
    plan.est_cost =
        CostModel::SingleIndexCost(legs[0].probes, legs[0].leg.est_rows);
    plan.legs.push_back(std::move(legs[0].leg));
    return plan;
  }
  // Intersection: the stored (greedy-chosen) leg order with live
  // estimates, folded with the same formulas ChooseCheapest costs with.
  plan.kind = Plan::Kind::kIndexIntersect;
  double legs_cost =
      CostModel::IntersectLegCost(legs[0].probes, legs[0].leg.est_rows);
  double inter_rows = legs[0].leg.est_rows;
  for (size_t i = 1; i < legs.size(); ++i) {
    legs_cost +=
        CostModel::IntersectLegCost(legs[i].probes, legs[i].leg.est_rows);
    inter_rows = CostModel::IntersectRows(inter_rows, legs[i].leg.est_rows,
                                          extent_rows);
  }
  plan.est_rows = inter_rows;
  plan.est_cost = legs_cost + CostModel::ResidualCost(inter_rows);
  for (Candidate& c : legs) plan.legs.push_back(std::move(c.leg));
  return plan;
}

std::optional<std::vector<Planner::Plan>> Planner::TryCachedSelects(
    const LogicalChain& chain, const std::string& key) const {
  PlanCache& cache = PlanCache::Global();
  std::optional<CachedPlan> cached = cache.Lookup(key);
  if (!cached.has_value()) {
    cache.NoteMiss();
    return std::nullopt;
  }
  bool usable = false;
  if (std::optional<std::vector<std::uint64_t>> live =
          LiveFingerprints(chain, *cached);
      live.has_value() && live->size() == cached->fingerprints.size()) {
    usable = true;
    for (size_t i = 0; i < live->size(); ++i) {
      const double l = static_cast<double>((*live)[i]) + 1.0;
      const double c = static_cast<double>(cached->fingerprints[i]) + 1.0;
      if (std::max(l / c, c / l) > PlanCache::kDriftRatio) {
        usable = false;
        break;
      }
    }
  }
  std::vector<Plan> selects;
  if (usable) {
    for (size_t i = 0; i < chain.binders.size(); ++i) {
      std::optional<Plan> select =
          RebindSelect(chain.binders[i], cached->selects[i]);
      if (!select.has_value()) {
        usable = false;
        break;
      }
      selects.push_back(std::move(*select));
    }
  }
  if (!usable) {
    cache.Invalidate(key);
    cache.NoteMiss();
    return std::nullopt;
  }
  cache.NoteHit();
  return selects;
}

void Planner::InsertInCache(const LogicalChain& chain, const std::string& key,
                            const std::vector<Plan>& selects) const {
  CachedPlan cached;
  for (const Plan& select : selects) {
    CachedPlan::Select s;
    for (const Plan::Leg& leg : select.legs) {
      s.legs.push_back(leg.index == nullptr
                           ? CachedPlan::Leg{{}, leg.sarg_ordinal, true}
                           : CachedPlan::Leg{leg.index->spec(),
                                             leg.sarg_ordinal, false});
    }
    cached.selects.push_back(std::move(s));
  }
  std::optional<std::vector<std::uint64_t>> fingerprints =
      LiveFingerprints(chain, cached);
  if (!fingerprints.has_value()) return;  // an index vanished mid-planning
  cached.fingerprints = std::move(*fingerprints);
  PlanCache::Global().Insert(key, std::move(cached));
}

std::vector<Planner::Plan> Planner::PlanAccessPaths(
    const LogicalChain& chain) const {
  std::vector<Plan> selects;
  for (const LogicalSelect& b : chain.binders) {
    selects.push_back(
        b.extent == LogicalSelect::Extent::kRelationships
            ? PlanSelectRelationships(b.assoc, b.rel_conditions,
                                      b.include_specializations)
            : PlanSelect(b.cls, b.pred, b.include_specializations));
  }
  return selects;
}

Result<Planner::ChainResult> Planner::Run(const LogicalChain& chain,
                                          PhysicalPlan* plan_out,
                                          obs::ExecContext* ctx) const {
  static obs::Counter* queries =
      obs::MetricsRegistry::Global().GetCounter("query.queries.total");
  queries->Increment();
  const bool timed = ctx != nullptr && ctx->time_nodes;

  PhysicalPlan plan;
  {
    obs::PhaseTimer timer(ctx, obs::QueryPhase::kOptimize);
    SEED_RETURN_IF_ERROR(chain.Validate());
    // The shape-keyed plan cache: a hit re-binds live literals into the
    // cached access-path skeleton, skipping index selection and
    // candidate costing. Either way the join tree is left to the DP
    // below, which needs the actual binder sizes.
    const std::string cache_key = BuildShapeKey(chain);
    if (std::optional<std::vector<Plan>> cached =
            TryCachedSelects(chain, cache_key)) {
      plan.selects = std::move(*cached);
      plan.from_cache = true;
    } else {
      plan.selects = PlanAccessPaths(chain);
      InsertInCache(chain, cache_key, plan.selects);
    }
    for (const LogicalSelect& b : chain.binders) {
      plan.binders.push_back(b.binder);
    }
    plan.relationship_form = chain.relationship_form();
    // Single-binder estimates; a hop chain's come from its executed tree.
    plan.est_rows = plan.selects[0].est_rows;
    for (const Plan& select : plan.selects) plan.est_cost += select.est_cost;
  }
  obs::PhaseTimer exec_timer(ctx, obs::QueryPhase::kExecute);

  ChainResult out;
  if (chain.relationship_form()) {
    const LogicalSelect& b = chain.binders[0];
    const std::uint64_t start = timed ? obs::NowNanos() : 0;
    out.relationships = SelectRelationshipIds(
        b.assoc, b.rel_conditions, b.include_specializations,
        &plan.selects[0]);
    plan.selects[0].actual_rows =
        static_cast<long long>(out.relationships.size());
    if (timed) {
      plan.selects[0].elapsed_ns =
          static_cast<long long>(obs::NowNanos() - start);
    }
    RowsVisitedCounter().Increment(out.relationships.size());
    if (plan_out != nullptr) *plan_out = std::move(plan);
    return out;
  }

  if (chain.hops.empty()) {
    // The single-binder shape returns the selection verbatim: the access
    // paths already emit ascending ids, so there is no tuple boxing and
    // no projection round-trip.
    const LogicalSelect& b = chain.binders[0];
    const std::uint64_t start = timed ? obs::NowNanos() : 0;
    out.ids = SelectIds(b.cls, b.pred, b.include_specializations,
                        &plan.selects[0]);
    plan.root = MakeLeaf(0, plan.selects[0].est_rows);
    plan.selects[0].actual_rows = static_cast<long long>(out.ids.size());
    plan.root->actual_rows = static_cast<long long>(out.ids.size());
    if (timed) {
      long long elapsed = static_cast<long long>(obs::NowNanos() - start);
      plan.selects[0].elapsed_ns = elapsed;
      plan.root->elapsed_ns = elapsed;
    }
    RowsVisitedCounter().Increment(out.ids.size());
    if (plan_out != nullptr) *plan_out = std::move(plan);
    return out;
  }

  // Materialize every binder through its planned access path.
  std::vector<QueryRelation> inputs;
  for (size_t i = 0; i < chain.binders.size(); ++i) {
    const LogicalSelect& b = chain.binders[i];
    QueryRelation rel;
    rel.attributes = {b.binder};
    const std::uint64_t start = timed ? obs::NowNanos() : 0;
    for (ObjectId id : SelectIds(b.cls, b.pred, b.include_specializations,
                                 &plan.selects[i])) {
      rel.tuples.push_back({id});
    }
    plan.selects[i].actual_rows = static_cast<long long>(rel.size());
    if (timed) {
      plan.selects[i].elapsed_ns =
          static_cast<long long>(obs::NowNanos() - start);
    }
    inputs.push_back(std::move(rel));
  }

  // The query's one DP runs in ExecuteJoin, on the *actual* binder
  // sizes, which are now known for free: a scan plan's pre-execution
  // estimate is the whole extent regardless of predicate selectivity,
  // and a join strategy chosen for a 100k-row estimate is badly wrong
  // for the 3 rows a selective residual actually kept. It is timed in
  // the execute phase, and the tree runs exactly as planned.
  SEED_ASSIGN_OR_RETURN(
      out.tuples,
      ExecuteJoin(inputs, LowerHops(chain), std::move(plan), plan_out, ctx));
  return out;
}

// --- Relationship extents ----------------------------------------------------

Planner::Plan Planner::PlanSelectRelationships(
    AssociationId assoc, const std::vector<RelCondition>& conditions,
    bool include_specializations) const {
  const index::IndexManager& manager = db_->attribute_indexes();
  double extent_rows =
      static_cast<double>(db_->extent_counters().CountAssociationExtent(
          *db_->schema(), assoc, include_specializations));
  std::vector<Candidate> candidates;
  // Ordinals over every sargable condition, as in PlanSelect: the
  // cached-skeleton re-bind recomputes the same list from the live
  // conditions (CollectRelSargs).
  size_t sarg_ordinal = 0;
  for (const RelCondition& cond : conditions) {
    if (cond.inner.shape() == nullptr) continue;
    Sarg sarg;
    // The inner predicate applies to the attribute sub-object's own value;
    // nested roles make no sense here.
    if (!ExtractSarg(cond.inner.shape(), "", &sarg) || !sarg.role.empty()) {
      continue;
    }
    const size_t ordinal = sarg_ordinal++;
    const index::AttributeIndex* idx = manager.BestForRelationships(
        *db_->schema(), assoc, include_specializations, cond.role);
    if (idx == nullptr) continue;
    Candidate c = Candidate::FromSarg(idx, std::move(sarg));
    c.leg.sarg_ordinal = ordinal;
    candidates.push_back(std::move(c));
  }
  return ChooseCheapest(std::move(candidates), extent_rows);
}

bool Planner::EvalRelConditions(
    RelationshipId rel, const std::vector<RelCondition>& conditions) const {
  for (const RelCondition& cond : conditions) {
    bool matched = false;
    for (ObjectId sub : db_->SubObjects(rel, cond.role)) {
      if (cond.inner.Eval(*db_, sub)) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;  // missing attribute matches nothing
  }
  return true;
}

std::vector<RelationshipId> Planner::ExecuteRelIndexPlan(
    const Plan& plan, AssociationId assoc,
    const std::vector<RelCondition>& conditions,
    bool include_specializations) const {
  std::vector<RelationshipId> candidates =
      FetchCandidates<RelationshipId>(*db_, plan);
  const schema::Schema& schema = *db_->schema();
  return FilterIdsPartitioned(policy_, candidates, [&](RelationshipId id) {
    auto rel = db_->GetRelationship(id);
    if (!rel.ok() || (*rel)->is_pattern) return false;
    bool in_extent =
        include_specializations
            ? schema.IsSameOrSpecializationOf((*rel)->assoc, assoc)
            : (*rel)->assoc == assoc;
    return in_extent && EvalRelConditions(id, conditions);
  });
}

std::vector<RelationshipId> Planner::SelectRelationshipIds(
    AssociationId assoc, const std::vector<RelCondition>& conditions,
    bool include_specializations, const Plan* precomputed) const {
  Plan plan = precomputed != nullptr
                  ? *precomputed
                  : PlanSelectRelationships(assoc, conditions,
                                            include_specializations);
  CountPlanKind(plan.uses_index());
  if (plan.uses_index()) {
    return ExecuteRelIndexPlan(plan, assoc, conditions,
                               include_specializations);
  }
  return FilterIdsPartitioned(
      policy_,
      db_->RelationshipsOfAssociation(assoc, include_specializations),
      [&](RelationshipId id) { return EvalRelConditions(id, conditions); });
}

}  // namespace seed::query
