// Planner: cost-based optimization of logical chains — the single IR all
// textual query forms lower into (query/logical.h) — plus the selection
// access-path machinery underneath it.
//
// For Select(ClassExtent(cls), p) the planner enumerates *all* sargable
// conjuncts of the predicate's shape tree — equality on the object's own
// value, integer range comparisons, an OR of equalities, or any of these
// behind OnSubObject(role, ...) — resolves each against the IndexManager,
// and costs every candidate access path with the statistics of
// query/stats.h: the full extent scan, a single index probe per sargable
// conjunct, and the multi-index intersection of two or more posting lists
// for AND-of-sargables. A top-level `name is X` conjunct is sargable
// without any attribute index: it probes the database's name index
// (Database::ObjectNamed), and its estimate is exact — 1 when the named
// object lies in the queried extent, else 0. The cheapest plan wins
// (deterministic tie-breaks: name equality, then index equality, range,
// intersection, scan). Estimated rows and the extent size travel in the
// Plan for EXPLAIN-style output.
//
// Relationship extents plan the same way: SelectRelationships filters the
// relationships of an association family by conjuncts over their attribute
// sub-objects (paper Fig. 3: `Write.NumberOfWrites > 3`), served by
// relationship-side indexes when they exist and by a RelationshipsOf-style
// extent scan otherwise.
//
// Join chains run through Run(LogicalChain): every binder's access path
// is planned (or re-bound from the plan cache) and materialized, then a
// Selinger-style dynamic program over the chain's connected subchains
// (DP table keyed by hop bitset) runs once on the actual binder sizes and
// produces a *plan tree*, not just a left-deep ordering. Two composition
// rules populate the table:
//
//   * a hop join — two adjacent segments [lo, m] and [m+1, hi] joined
//     through hop m's association via Algebra::RelationshipJoin, with
//     the physical strategy (hash either build side / index-nested-loop
//     either drive side) chosen by PlanJoin from the association
//     population and the tracked per-(association, role, class)
//     participation counts;
//   * a tuple join — two *overlapping* segments [lo, m] and [m, hi]
//     merged on their shared binder-m column via Algebra::TupleJoin, the
//     bushy (segment x segment) connector that needs no cartesian
//     product because the segments always share exactly one binder.
//
// The DP is polynomial in the chain length, which is what lifted the
// grammar's hop cap from 3 (exhaustive left-deep enumeration) to
// LogicalChain::kMaxHops. Ties keep the textual left-deep composition.
// The winning tree executes exactly as planned (no mid-chain
// re-planning; any subtree may fork), and every executed join node
// records its q-error in planner.estimate.qerror, so estimate quality
// stays visible without a debugger.
// LeftDeepOrders / JoinPipelineInOrder / JoinPipelineSplit execute
// explicit left-deep orderings and explicit bushy splits for the
// differential tests and benches; every shape computes the same relation.
//
// Every index plan runs a residual filter (full predicate re-eval + extent
// check) over its candidates, so the rewrite is an optimization only:
// results are identical to the scan path, including the paper's
// vague-value semantics — undefined values are absent from indexes and
// match nothing in scans.

#ifndef SEED_QUERY_PLANNER_H_
#define SEED_QUERY_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/database.h"
#include "index/attribute_index.h"
#include "obs/trace.h"
#include "query/algebra.h"
#include "query/logical.h"
#include "query/plan_cache.h"
#include "query/predicate.h"

namespace seed::query {

class Planner {
 public:
  /// The access path chosen for a selection over one extent.
  struct Plan {
    enum class Kind {
      kFullScan,
      kNameEquals,
      kIndexEquals,
      kIndexRange,
      kIndexIntersect,
    };

    /// One index access. Single-index plans have exactly one leg;
    /// intersection plans have two or more, cheapest first.
    struct Leg {
      /// Null for a name-equals leg, which looks keys[0] (a string) up in
      /// the database's name index.
      const index::AttributeIndex* index = nullptr;
      bool is_range = false;
      /// Probe keys when !is_range (one per OR-of-equalities branch).
      std::vector<core::Value> keys;
      /// Bounds when is_range.
      core::Value lo, hi;
      bool lo_inclusive = true;
      bool hi_inclusive = true;
      /// Estimated postings this leg yields.
      double est_rows = 0.0;
      /// Which of the binder's extracted sargable conjuncts (in
      /// extraction order over *all* sargables, indexed or not) feeds
      /// this leg — the literal-independent handle the plan cache uses
      /// to re-bind live bounds/keys into a cached skeleton.
      std::size_t sarg_ordinal = 0;
    };

    Kind kind = Kind::kFullScan;
    std::vector<Leg> legs;
    /// Estimated candidate rows fed to the residual filter (= extent size
    /// for a full scan).
    double est_rows = 0.0;
    /// Modeled cost in row-visit units (see query/stats.h).
    double est_cost = 0.0;
    /// Live size of the queried extent at planning time.
    double extent_rows = 0.0;

    /// Rows the executed access path actually produced (post-residual);
    /// -1 until executed.
    long long actual_rows = -1;
    /// Wall-clock the selection took, when an ExecContext asked for node
    /// timing; -1 otherwise.
    long long elapsed_ns = -1;

    bool uses_index() const { return kind != Kind::kFullScan; }
    /// "scan" / "name-equals, est ~1 of 100 rows" / "index-equals(...),
    /// 2 keys, est ~3 of 100 rows" — for tests, EXPLAIN output and logs.
    std::string ToString() const;
    /// ToString() plus actual rows and wall-clock — the EXPLAIN ANALYZE
    /// form. `mask_times` prints "<t>" instead of the duration so golden
    /// tests can pin structure and rows.
    std::string ToAnalyzeString(bool mask_times) const;
  };

  /// One conjunct of a relationship-extent selection (query/logical.h).
  using RelCondition = query::RelCondition;

  /// The physical strategy chosen for a relationship join (see
  /// Algebra::JoinOptions): which side the hash join builds from, or
  /// which side drives the index-nested-loop, plus the join direction.
  struct JoinPlan {
    enum class Strategy {
      kHashBuildLeft,
      kHashBuildRight,
      kIndexNestedLoopLeft,   // left input drives the per-tuple probes
      kIndexNestedLoopRight,
    };

    Strategy strategy = Strategy::kHashBuildRight;
    /// Role the left relation binds (0, or 1 for reverse-direction joins).
    int left_role = 0;
    /// Input sizes the plan was made for.
    double left_rows = 0.0;
    double right_rows = 0.0;
    /// Live population of the association family at planning time.
    double assoc_rows = 0.0;
    /// Estimated output rows and modeled cost (row-visit units).
    double est_rows = 0.0;
    double est_cost = 0.0;

    /// The Algebra execution options this plan denotes.
    Algebra::JoinOptions options() const;
    /// "join-hash(build=right), forward, est ~12 rows (assoc ~40)" — for
    /// tests, EXPLAIN output and logs.
    std::string ToString() const;
  };

  /// One hop of a join chain: binder i connects to binder i+1 through
  /// `assoc`, with binder i bound at role `left_role`. The binder classes
  /// feed the tracked degree statistics (invalid ids fall back to the
  /// association's role target classes).
  struct PipelineHop {
    AssociationId assoc;
    int left_role = 0;
    ClassId left_cls, right_cls;
  };

  /// The optimizer's output: one access-path Plan per binder plus the
  /// join plan tree the DP chose. For no-hop chains the tree is a single
  /// input leaf; for relationship chains selects[0] is the whole plan.
  struct PhysicalPlan {
    /// One node of the join plan tree, covering the contiguous binder
    /// segment [lo, hi].
    struct Node {
      enum class Kind {
        kInput,      // one binder's selection result
        kHopJoin,    // RelationshipJoin of [lo, m] and [m+1, hi] via hop m
        kTupleJoin,  // TupleJoin of [lo, m] and [m, hi] on binder m
      };

      Kind kind = Kind::kInput;
      int lo = 0, hi = 0;
      /// kInput: the binder index this leaf reads.
      int binder = -1;
      /// kHopJoin: the executed hop and its physical strategy (the lower
      /// segment is always the join's left input).
      int hop = -1;
      JoinPlan join;
      /// kTupleJoin: the shared binder the segments merge on.
      int shared_binder = -1;
      double est_rows = 0.0;
      double est_cost = 0.0;
      /// Rows the node actually produced; -1 until executed.
      long long actual_rows = -1;
      /// Inclusive wall-clock of executing this node (children included),
      /// when an ExecContext asked for node timing; -1 otherwise.
      long long elapsed_ns = -1;
      std::unique_ptr<Node> left, right;

      /// A join whose inputs are both joined segments (rather than at
      /// least one base binder input) — the bushy shape left-deep
      /// enumeration could not express. Every tuple join qualifies by
      /// construction.
      bool is_bushy() const {
        return kind == Kind::kTupleJoin ||
               (kind == Kind::kHopJoin && left && right &&
                left->kind != Kind::kInput && right->kind != Kind::kInput);
      }
      /// "(hop1: d * a | join-hash(...), actual 3)" — nested plan-tree
      /// rendering; `binders` names the chain's binder columns.
      std::string ToString(const std::vector<std::string>& binders) const;
      /// EXPLAIN ANALYZE rendering: ToString plus per-node rows in
      /// (children's actual rows) and inclusive wall-clock.
      std::string ToAnalyzeString(const std::vector<std::string>& binders,
                                  bool mask_times) const;
    };

    /// Access path per binder, in textual order.
    std::vector<Plan> selects;
    /// Binder names, in textual order.
    std::vector<std::string> binders;
    /// The join tree (kInput leaf for single-binder chains); null only
    /// for relationship-form plans, where selects[0] is everything.
    std::unique_ptr<Node> root;
    bool relationship_form = false;
    /// Final output estimate and total modeled cost (selects + joins).
    double est_rows = 0.0;
    double est_cost = 0.0;
    /// True when the access paths came from the plan cache (the join
    /// tree is always re-derived from actual binder sizes). Surfaced by
    /// ToAnalyzeString only — the EXPLAIN golden surface is unchanged.
    bool from_cache = false;

    /// True when any node in the tree is a bushy join.
    bool HasBushyJoin() const;
    /// The hops in execution (post-)order — the analogue of the old
    /// left-deep step list, for tests and coverage counters.
    std::vector<int> HopOrder() const;
    /// Total rows the executed tree actually produced across its nodes
    /// — the "rows visited" number the benches and the CI plan-quality
    /// gate compare across plans. Zero before execution.
    long long RowsVisited() const;
    /// Full EXPLAIN body: every binder's access path, then the plan
    /// tree — "d: scan, est ~2 rows; a: ...; (hop1: d * a | ...)".
    std::string ToString() const;
    /// Full EXPLAIN ANALYZE body: every binder's access path with actual
    /// rows and wall-clock, then the plan tree with per-node rows in/out
    /// and inclusive wall-clock. `mask_times` prints "<t>" for every
    /// duration (golden tests pin structure + rows, not the clock).
    std::string ToAnalyzeString(bool mask_times = false) const;
  };

  /// Result of running a logical chain, ascending in every shape: flat
  /// object ids for the single-binder object form, relationship ids for
  /// the relationship form, joined binder tuples (textual binder-column
  /// order) for chains with hops.
  struct ChainResult {
    std::vector<ObjectId> ids;
    std::vector<RelationshipId> relationships;
    QueryRelation tuples;
  };

  /// Snapshots exec::ExecPolicy::Default() at construction (one policy
  /// per query: parser-layer entry points build a Planner per statement).
  explicit Planner(const core::Database* db) : db_(db), algebra_(db) {}

  /// Replaces the snapshotted execution policy, forwarded to the
  /// embedded Algebra so operators and plan-tree scheduling agree.
  void set_exec_policy(const exec::ExecPolicy& policy) {
    policy_ = policy;
    algebra_.set_exec_policy(policy);
  }
  const exec::ExecPolicy& exec_policy() const { return policy_; }

  // --- The unified entry point -----------------------------------------------

  /// Plans and executes `chain`; `plan_out` (optional) receives the
  /// executed plan with per-node actual rows. Every binder's access path
  /// comes from the process-global PlanCache or is planned fresh (the
  /// optimize phase); the binder selections are then materialized and
  /// the hop-bitset DP picks the cheapest join tree (hop joins and bushy
  /// tuple joins) from their *actual* sizes, so a selective residual a
  /// scan estimate could not see still gets the right join strategies.
  /// The DP runs once per query, is timed in the execute phase, and its
  /// tree executes exactly as planned. Results are identical to the
  /// brute-force reference for every chain shape and plan. `ctx`
  /// (optional) collects per-phase wall-clock and turns on per-node
  /// operator timing for EXPLAIN ANALYZE.
  Result<ChainResult> Run(const LogicalChain& chain,
                          PhysicalPlan* plan_out = nullptr,
                          obs::ExecContext* ctx = nullptr) const;

  // --- Selections ------------------------------------------------------------

  /// Chooses the access path for Select(ClassExtent(cls, _), _, p).
  Plan PlanSelect(ClassId cls, const Predicate& p,
                  bool include_specializations = true) const;

  /// Runs Select(ClassExtent(cls, _), _, p) through the chosen plan, as
  /// a plain ascending id list; identical to the scan path. Pass a
  /// precomputed `plan` (e.g. from an EXPLAIN display) to avoid planning
  /// twice.
  std::vector<ObjectId> SelectIds(ClassId cls, const Predicate& p,
                                  bool include_specializations = true,
                                  const Plan* plan = nullptr) const;

  /// Chooses the access path for filtering the relationships of `assoc`
  /// (family included unless disabled) by `conditions` (conjunctive).
  Plan PlanSelectRelationships(AssociationId assoc,
                               const std::vector<RelCondition>& conditions,
                               bool include_specializations = true) const;

  /// Relationships of the association extent satisfying every condition,
  /// ascending. Identical to iterating RelationshipsOfAssociation and
  /// evaluating the conditions per relationship.
  std::vector<RelationshipId> SelectRelationshipIds(
      AssociationId assoc, const std::vector<RelCondition>& conditions,
      bool include_specializations = true, const Plan* plan = nullptr) const;

  /// True iff the live relationship satisfies every condition (the
  /// relationship residual; exposed as the scan-path ground truth).
  bool EvalRelConditions(RelationshipId rel,
                         const std::vector<RelCondition>& conditions) const;

  // --- Single joins ----------------------------------------------------------

  /// Chooses the physical strategy for joining a `left_rows`-tuple
  /// relation (bound at role `left_role` of `assoc`) with a
  /// `right_rows`-tuple relation at the opposite role, using the
  /// association population, the tracked per-(association, role, class)
  /// participation counts and the input classes' extents. `left_cls` /
  /// `right_cls` name the classes the inputs were drawn from; invalid ids
  /// fall back to the association's role targets (for which the
  /// participation count degenerates to the uniform assoc/extent
  /// estimate). Deterministic tie-breaks: hash-build-right,
  /// hash-build-left, inl-left, inl-right. `left_role` is read as 1 or
  /// forward-otherwise; the pipeline entry points reject roles outside
  /// {0, 1} before planning.
  JoinPlan PlanJoin(AssociationId assoc, size_t left_rows, size_t right_rows,
                    int left_role = 0, ClassId left_cls = ClassId(),
                    ClassId right_cls = ClassId()) const;

  // --- Join pipelines --------------------------------------------------------

  /// Every left-deep ordering of an `num_hops`-hop chain: permutations
  /// whose every prefix is a contiguous hop range (anything else would
  /// need a cartesian product between disconnected segments). Textual
  /// order comes first; 2 orders for 2 hops, 4 for 3, 2^(n-1) for n.
  /// Kept as the explicit-shape generator for differential tests and
  /// benches; the optimizer itself searches the larger DP space.
  static std::vector<std::vector<int>> LeftDeepOrders(size_t num_hops);

  /// Runs the hop-bitset DP over the bare chain (no binder predicates):
  /// `input_rows` holds the hops.size()+1 binder input sizes. Reads only
  /// tracked counters; never scans an extent. On invalid shapes (no
  /// hops, mis-sized `input_rows`) the returned plan has no tree —
  /// JoinPipeline surfaces that as InvalidArgument; direct callers must
  /// check `root` before dereferencing.
  PhysicalPlan PlanJoinPipeline(const std::vector<PipelineHop>& hops,
                                const std::vector<size_t>& input_rows) const;

  /// Plans (via the DP) and runs the chain over the unary binder
  /// `inputs` (one per binder, attribute names distinct); returns the
  /// joined binder tuples in textual binder-column order, ascending.
  /// `plan_out` receives the executed plan with per-node actual rows. An
  /// empty intermediate short-circuits inside the physical operators.
  /// `ctx` (optional) turns on per-node operator timing. A one-hop
  /// pipeline is the single planned relationship join. Hop roles
  /// outside {0, 1} are InvalidArgument.
  Result<QueryRelation> JoinPipeline(const std::vector<QueryRelation>& inputs,
                                     const std::vector<PipelineHop>& hops,
                                     PhysicalPlan* plan_out = nullptr,
                                     obs::ExecContext* ctx = nullptr) const;

  /// Same, but executes an explicit left-deep hop `order` (for tests and
  /// benches comparing orderings); the result equals every other
  /// shape's.
  Result<QueryRelation> JoinPipelineInOrder(
      const std::vector<QueryRelation>& inputs,
      const std::vector<PipelineHop>& hops, const std::vector<int>& order,
      PhysicalPlan* plan_out = nullptr) const;

  /// Same, but executes an explicit bushy split (for tests and benches):
  /// the left segment covers binders [0, m] and the right segment
  /// [m, n] merged on binder m's column when `tuple_join` (else
  /// [m+1, n] joined through hop m), each segment itself left-deep in
  /// textual order. Requires 0 < m < hops.size() for a tuple join and
  /// 0 <= m < hops.size() otherwise.
  Result<QueryRelation> JoinPipelineSplit(
      const std::vector<QueryRelation>& inputs,
      const std::vector<PipelineHop>& hops, int m, bool tuple_join,
      PhysicalPlan* plan_out = nullptr) const;

 private:
  struct Candidate;  // sargable conjunct bound to an index (planner.cc)
  struct DpEntry;    // best (rows, cost, decision) per hop bitset

  using Node = PhysicalPlan::Node;

  /// PlanJoin with fractional input sizes (intermediate estimates).
  JoinPlan PlanJoinEst(AssociationId assoc, double left_rows,
                       double right_rows, int left_role, ClassId left_cls,
                       ClassId right_cls) const;

  /// The DP core: cheapest join tree over binder segment [0, n] given
  /// the base input estimates. Returns null when `hops` is empty and
  /// input_rows has a single binder (the leaf is built by the caller) —
  /// otherwise always a tree covering every hop exactly once, and the
  /// run counts once in planner.dp.runs.total.
  std::unique_ptr<Node> OptimizeJoinTree(
      const std::vector<PipelineHop>& hops,
      const std::vector<double>& input_rows) const;

  /// A leaf node reading binder `i`.
  static std::unique_ptr<Node> MakeLeaf(int binder, double rows);

  /// The textual left-deep tree over binder segment [lo, hi].
  std::unique_ptr<Node> LeftDeepTree(const std::vector<PipelineHop>& hops,
                                     const std::vector<double>& input_rows,
                                     int lo, int hi) const;

  /// A hop-join node joining `left` (ending at binder `hop`) with
  /// `right` (starting at binder `hop` + 1) through hop `hop`.
  std::unique_ptr<Node> MakeHopJoin(const std::vector<PipelineHop>& hops,
                                    int hop, std::unique_ptr<Node> left,
                                    std::unique_ptr<Node> right) const;

  /// A tuple-join node merging `left` and `right` on shared binder `m`.
  std::unique_ptr<Node> MakeTupleJoin(int m, double shared_rows,
                                      std::unique_ptr<Node> left,
                                      std::unique_ptr<Node> right) const;

  /// Builds a left-deep tree for an explicit hop order (old pipeline
  /// semantics); InvalidArgument when the order is not left-deep.
  Result<std::unique_ptr<Node>> TreeForOrder(
      const std::vector<PipelineHop>& hops,
      const std::vector<double>& input_rows,
      const std::vector<int>& order) const;

  /// Shape checks shared by the pipeline entry points.
  static Status ValidatePipelineInputs(
      const std::vector<QueryRelation>& inputs,
      const std::vector<PipelineHop>& hops);

  /// The one executor: runs `node` over the materialized binder inputs
  /// exactly as planned, recording per-node actual rows (and inclusive
  /// wall-clock when `ctx` asks for node timing) and one
  /// planner.estimate.qerror sample per join node. Any subtree may fork
  /// (ShouldForkChildren).
  Result<QueryRelation> ExecuteNode(Node* node,
                                    const std::vector<QueryRelation>& inputs,
                                    const std::vector<PipelineHop>& hops,
                                    obs::ExecContext* ctx) const;

  /// The one tail of every join: a `plan` without a tree gets the one DP
  /// over the inputs' actual sizes (explicit shapes arrive with theirs),
  /// then the tree executes, its rows visited are counted, the plan
  /// takes the estimates of the tree executed, and the result is
  /// projected back to textual binder-column order. `plan_out` receives
  /// the executed plan.
  Result<QueryRelation> ExecuteJoin(const std::vector<QueryRelation>& inputs,
                                    const std::vector<PipelineHop>& hops,
                                    PhysicalPlan plan, PhysicalPlan* plan_out,
                                    obs::ExecContext* ctx) const;

  // --- Plan cache (query/plan_cache.h) ---------------------------------------

  /// The chain's cache key: Database::instance_id() plus every binder's
  /// extent/predicate *shape* (literals parameterized out) and every
  /// hop's association/role.
  std::string BuildShapeKey(const LogicalChain& chain) const;

  /// The live statistics fingerprint sequence for `cached` against this
  /// database, in the canonical capture order (per binder: extent
  /// count, then each index leg's entry count; per hop: association
  /// extent count). Nullopt when a cached index spec no longer
  /// resolves.
  std::optional<std::vector<std::uint64_t>> LiveFingerprints(
      const LogicalChain& chain, const CachedPlan& cached) const;

  /// Re-binds one binder's live sargable literals into a cached access
  /// path skeleton, recomputing every estimate from live statistics
  /// (so a rebound plan prints exactly like a fresh one while the
  /// statistics are unchanged). Nullopt when the skeleton no longer
  /// matches the live chain or indexes.
  std::optional<Plan> RebindSelect(const LogicalSelect& binder,
                                   const CachedPlan::Select& cached) const;

  /// The cache hit path: lookup by `key`, validate fingerprints against
  /// the drift ratio, re-bind every binder's access path. Counts the
  /// hit/miss and invalidates stale entries.
  std::optional<std::vector<Plan>> TryCachedSelects(
      const LogicalChain& chain, const std::string& key) const;

  /// The miss path's second half: strips `selects` to their skeleton,
  /// captures the statistics fingerprints and inserts under `key`.
  void InsertInCache(const LogicalChain& chain, const std::string& key,
                     const std::vector<Plan>& selects) const;

  /// The miss path's first half: every binder's access path, planned
  /// from the statistics alone (nothing executes, no extent is scanned).
  std::vector<Plan> PlanAccessPaths(const LogicalChain& chain) const;

  /// Lowers the chain's hops into PipelineHops (binder classes attached).
  static std::vector<PipelineHop> LowerHops(const LogicalChain& chain);

  /// Costs scan / single-leg / intersection over `candidates` and returns
  /// the cheapest plan for an extent of `extent_rows`.
  static Plan ChooseCheapest(std::vector<Candidate> candidates,
                             double extent_rows);

  std::vector<ObjectId> ExecuteIndexPlan(const Plan& plan, ClassId cls,
                                         const Predicate& p,
                                         bool include_specializations) const;
  std::vector<RelationshipId> ExecuteRelIndexPlan(
      const Plan& plan, AssociationId assoc,
      const std::vector<RelCondition>& conditions,
      bool include_specializations) const;

  /// True when `node`'s children should execute as concurrent plan-tree
  /// tasks: both are joined segments (leaf inputs are materialized and
  /// cost nothing to "execute") and both clear the policy's cost floor.
  bool ShouldForkChildren(const Node& node) const;

  const core::Database* db_;
  Algebra algebra_;
  exec::ExecPolicy policy_ = exec::ExecPolicy::Default();
};

}  // namespace seed::query

#endif  // SEED_QUERY_PLANNER_H_
