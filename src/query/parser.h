// A small textual query language over the ER algebra, for the interactive
// shell and for tools that want string-driven retrieval. (The 1986
// prototype had no query language — "retrieval with complex queries is not
// supported" — this is a deliberate extension on top of the algebra.)
//
// Grammar (case-sensitive keywords, strings in double quotes):
//
//   query  := 'find' CLASS ['exact'] [ 'where' cond ('and' cond)* ]
//   relq   := 'find' 'rel' ASSOC ['exact']
//             [ 'where' relcond ('and' relcond)* ]
//   joinq  := 'find' CLASS BINDER ['exact'] hop+        (up to 6 hops)
//             [ 'where' BINDER cond ('and' BINDER cond)* ]
//   hop    := 'join' ['reverse'] 'via' ASSOC 'to' CLASS BINDER ['exact']
//   cond   := 'name' 'is' IDENT
//           | 'name' 'contains' STRING-or-IDENT
//           | 'value' 'is' literal
//           | 'value' 'contains' STRING-or-IDENT
//           | 'value' ('>' | '<') INT
//           | 'has' ROLE
//           | ROLE 'is' literal
//           | ROLE 'contains' STRING-or-IDENT
//           | ROLE ('>' | '<') INT
//   relcond:= 'has' ROLE
//           | ROLE 'is' literal
//           | ROLE 'contains' STRING-or-IDENT
//           | ROLE ('>' | '<') INT
//   literal := INT | DATE(YYYY-MM-DD) | true | false | STRING | IDENT
//
// 'exact' restricts the extent to the class/association itself (no
// specializations). '>' / '<' compare integer values and must be
// whitespace-separated. 'rel' is a reserved word after 'find': a class
// literally named "rel" cannot be queried textually. Examples:
//   find Data where name contains "Alarm"
//   find Action where Description contains "sensor" and has Revised
//   find Reading where value > 990
//   find rel Write where NumberOfWrites > 3
//   find Data d join via Access to Action a where d name contains "Alarm"
//
// Join queries bind each side to a name (BINDER) and return the joined
// binder tuples: objects of adjacent binder classes connected by existing
// relationships of each hop's association (family included). Up to
// LogicalChain::kMaxHops (6) hops chain, e.g.
//   find Data d join via Access to Action a join via Contained to Action c
// Binder names must be pairwise distinct. Each hop's direction — which
// role its left binder binds — is inferred from the role classes;
// 'reverse' forces that hop's left binder onto role 1 (needed for
// self-associations, where both roles accept the same class). 'where'
// conditions name the binder they constrain.
//
// Every query form lowers into the logical IR (query/logical.h) and
// executes through the one planner entry point, Planner::Run: each
// binder's selection plans through the cost-based access paths (sargable
// conditions use a matching attribute index — single probe or multi-index
// intersection — when estimated cheaper than the extent scan), and join
// chains run the plan *tree* the hop-bitset DP chooses from the actual
// binder sizes and the tracked degree statistics: left-deep or bushy
// (segment x segment), with a selective hop written last still running
// first. The query runs that one DP, and the tree executes exactly as
// planned. 'explain find ...' prints every binder's selection plan plus
// the nested plan tree with per-join strategy and estimated vs. actual
// rows. `find rel` filters
// the relationships of an association by their attribute sub-objects
// (paper Fig. 3: `Write.NumberOfWrites`), served by relationship-side
// indexes the same way.

#ifndef SEED_QUERY_PARSER_H_
#define SEED_QUERY_PARSER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/database.h"
#include "obs/trace.h"
#include "query/planner.h"

namespace seed::query {

/// The EXPLAIN ANALYZE sink: when passed to an entry point it receives
/// the executed physical plan (per-node actual rows and inclusive
/// wall-clock) plus the per-phase timings of this one query. Move-only,
/// like the plan tree it carries.
struct QueryTrace {
  Planner::PhysicalPlan plan;
  obs::ExecContext ctx;

  /// The EXPLAIN ANALYZE body: the analyzed plan, then "; phases: parse
  /// <t>, lower <t>, optimize <t>, execute <t>". `mask_times` replaces
  /// every duration with "<t>" so golden tests pin structure and rows.
  std::string Render(bool mask_times = false) const;
};

/// Parses and runs `text` against `db`; returns matching object ids,
/// ascending. Undefined values match nothing, per the paper. When
/// `plan_out` is non-null it receives the chosen access path with its
/// estimated rows, followed by the actual row count (EXPLAIN-style:
/// "index-equals(...), est ~3 of 100 rows; actual 2"). When `trace` is
/// non-null the query runs with per-node and per-phase timing and the
/// trace receives the analyzed plan (EXPLAIN ANALYZE). Relationship
/// queries ('find rel ...') must go through RunRelationshipQuery.
Result<std::vector<ObjectId>> RunQuery(const core::Database& db,
                                       std::string_view text,
                                       std::string* plan_out = nullptr,
                                       QueryTrace* trace = nullptr);

/// Parses and runs a 'find rel <Assoc> ...' query; returns matching
/// relationship ids, ascending.
Result<std::vector<RelationshipId>> RunRelationshipQuery(
    const core::Database& db, std::string_view text,
    std::string* plan_out = nullptr, QueryTrace* trace = nullptr);

/// Parses and runs a single-hop 'find <Class> <b1> join via <Assoc> to
/// <Class> <b2> ...' query; returns the joined (left, right) object
/// pairs, ascending. `plan_out` receives both sides' selection plans and
/// the chosen join strategy with estimated vs. actual rows. Multi-hop
/// chains are rejected here — run them through RunJoinChainQuery.
Result<std::vector<std::pair<ObjectId, ObjectId>>> RunJoinQuery(
    const core::Database& db, std::string_view text,
    std::string* plan_out = nullptr, QueryTrace* trace = nullptr);

/// Result of a join-chain query: the binder names in textual order and
/// the joined binder tuples (ascending, deduplicated).
struct JoinChainResult {
  std::vector<std::string> binders;
  std::vector<std::vector<ObjectId>> tuples;
};

/// Parses and runs a join query with any number of hops (1 to
/// LogicalChain::kMaxHops); `plan_out` receives every binder's selection
/// plan plus the executed plan tree with estimated vs. actual rows.
Result<JoinChainResult> RunJoinChainQuery(const core::Database& db,
                                          std::string_view text,
                                          std::string* plan_out = nullptr,
                                          QueryTrace* trace = nullptr);

// --- Snapshot-pinned entry points -----------------------------------------
//
// Overloads taking shared ownership of the database, for callers reading
// an MVCC snapshot (version::PinDatabase): the pin is held for the whole
// parse/plan/execute span, so a concurrent commit publishing a newer
// snapshot can never free the state a running query reads. Semantics are
// identical to the borrowing overloads above.

Result<std::vector<ObjectId>> RunQuery(
    std::shared_ptr<const core::Database> db, std::string_view text,
    std::string* plan_out = nullptr, QueryTrace* trace = nullptr);

Result<std::vector<RelationshipId>> RunRelationshipQuery(
    std::shared_ptr<const core::Database> db, std::string_view text,
    std::string* plan_out = nullptr, QueryTrace* trace = nullptr);

Result<std::vector<std::pair<ObjectId, ObjectId>>> RunJoinQuery(
    std::shared_ptr<const core::Database> db, std::string_view text,
    std::string* plan_out = nullptr, QueryTrace* trace = nullptr);

Result<JoinChainResult> RunJoinChainQuery(
    std::shared_ptr<const core::Database> db, std::string_view text,
    std::string* plan_out = nullptr, QueryTrace* trace = nullptr);

}  // namespace seed::query

#endif  // SEED_QUERY_PARSER_H_
