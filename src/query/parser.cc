#include "query/parser.h"

#include <cctype>
#include <charconv>

#include "common/macros.h"
#include "common/strings.h"
#include "query/logical.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "schema/types.h"

namespace seed::query {

namespace {

struct Token {
  std::string text;
  bool quoted = false;
};

Result<std::vector<Token>> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < text.size()) {
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    if (text[i] == '"') {
      size_t end = text.find('"', i + 1);
      if (end == std::string_view::npos) {
        return Status::InvalidArgument("unterminated string literal");
      }
      tokens.push_back(
          Token{std::string(text.substr(i + 1, end - i - 1)), true});
      i = end + 1;
      continue;
    }
    size_t end = i;
    while (end < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[end])) &&
           text[end] != '"') {
      ++end;
    }
    tokens.push_back(Token{std::string(text.substr(i, end - i)), false});
    i = end;
  }
  return tokens;
}

/// Parses `s` as an int64, rejecting non-digits and out-of-range
/// magnitudes (std::stoll would throw on the latter).
Result<std::int64_t> ParseInt(const std::string& s) {
  std::int64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("'" + s + "' is not a valid integer");
  }
  return value;
}

/// Builds an equality predicate for a literal token: quoted strings match
/// string values only; bare tokens try every plausible typed reading.
Predicate LiteralEquals(const Token& token) {
  if (token.quoted) {
    return Predicate::ValueEquals(core::Value::String(token.text));
  }
  Predicate p = Predicate::ValueEquals(core::Value::String(token.text))
                    .Or(Predicate::ValueEquals(core::Value::Enum(token.text)));
  if (auto as_int = ParseInt(token.text); as_int.ok()) {
    p = p.Or(Predicate::ValueEquals(core::Value::Int(*as_int)));
  }
  if (auto date = schema::Date::Parse(token.text); date.ok()) {
    p = p.Or(Predicate::ValueEquals(core::Value::OfDate(*date)));
  }
  if (token.text == "true") {
    p = p.Or(Predicate::ValueEquals(core::Value::Bool(true)));
  }
  if (token.text == "false") {
    p = p.Or(Predicate::ValueEquals(core::Value::Bool(false)));
  }
  return p;
}

class Parser {
 public:
  Parser(const core::Database& db, std::vector<Token> tokens,
         std::string* plan_out, QueryTrace* trace)
      : db_(db),
        tokens_(std::move(tokens)),
        plan_out_(plan_out),
        trace_(trace),
        ctx_(trace != nullptr ? &trace->ctx : nullptr) {}

  Result<std::vector<ObjectId>> RunObjects() {
    const std::uint64_t parse_start = obs::NowNanos();
    SEED_RETURN_IF_ERROR(Expect("find"));
    if (PeekIs("rel")) {
      return Status::InvalidArgument(
          "'find rel' queries return relationships; run them through "
          "RunRelationshipQuery");
    }
    if (LooksLikeJoin()) {
      return Status::InvalidArgument(
          "join queries return object pairs; run them through "
          "RunJoinQuery");
    }
    SEED_ASSIGN_OR_RETURN(Token cls_token, Next("class name"));
    auto cls = db_.schema()->FindIndependentClass(cls_token.text);
    if (!cls.ok()) return cls.status();

    bool exact = false;
    if (PeekIs("exact")) {
      ++pos_;
      exact = true;
    }

    Predicate pred = Predicate::True();
    if (pos_ < tokens_.size()) {
      SEED_RETURN_IF_ERROR(Expect("where"));
      SEED_ASSIGN_OR_RETURN(pred, ParseCondition());
      while (PeekIs("and")) {
        ++pos_;
        SEED_ASSIGN_OR_RETURN(Predicate next, ParseCondition());
        pred = pred.And(next);
      }
    }
    if (pos_ != tokens_.size()) {
      return Status::InvalidArgument("trailing input after query: '" +
                                     tokens_[pos_].text + "'");
    }

    // The cost-based optimizer rewrites the selection into an
    // attribute-index probe (or a multi-index intersection) when
    // estimated cheaper, otherwise it runs the same extent scan.
    SEED_ASSIGN_OR_RETURN(
        Planner::ChainResult result,
        LowerAndRun(parse_start, [&]() -> Result<LogicalChain> {
          LogicalChain chain;
          chain.binders.push_back(
              LogicalSelect::Objects(*cls, "x", std::move(pred), !exact));
          return chain;
        }));
    return std::move(result.ids);
  }

  Result<std::vector<RelationshipId>> RunRelationships() {
    const std::uint64_t parse_start = obs::NowNanos();
    SEED_RETURN_IF_ERROR(Expect("find"));
    SEED_RETURN_IF_ERROR(Expect("rel"));
    SEED_ASSIGN_OR_RETURN(Token assoc_token, Next("association name"));
    auto assoc = db_.schema()->FindAssociation(assoc_token.text);
    if (!assoc.ok()) return assoc.status();

    bool exact = false;
    if (PeekIs("exact")) {
      ++pos_;
      exact = true;
    }

    std::vector<Planner::RelCondition> conditions;
    if (pos_ < tokens_.size()) {
      SEED_RETURN_IF_ERROR(Expect("where"));
      SEED_ASSIGN_OR_RETURN(Planner::RelCondition cond, ParseRelCondition());
      conditions.push_back(std::move(cond));
      while (PeekIs("and")) {
        ++pos_;
        SEED_ASSIGN_OR_RETURN(Planner::RelCondition next,
                              ParseRelCondition());
        conditions.push_back(std::move(next));
      }
    }
    if (pos_ != tokens_.size()) {
      return Status::InvalidArgument("trailing input after query: '" +
                                     tokens_[pos_].text + "'");
    }

    // The relationship-extent shape of the logical IR: one binder over
    // the association, no hops.
    SEED_ASSIGN_OR_RETURN(
        Planner::ChainResult result,
        LowerAndRun(parse_start, [&]() -> Result<LogicalChain> {
          LogicalChain chain;
          chain.binders.push_back(LogicalSelect::Relationships(
              *assoc, "r", std::move(conditions), !exact));
          return chain;
        }));
    return std::move(result.relationships);
  }

  /// `pairs_only` rejects multi-hop chains right after parsing, before
  /// any selection or join executes (the pairs entry point's shape).
  Result<JoinChainResult> RunJoinChain(bool pairs_only = false) {
    const std::uint64_t parse_start = obs::NowNanos();
    SEED_RETURN_IF_ERROR(Expect("find"));
    SEED_ASSIGN_OR_RETURN(JoinSide head, ParseJoinSideHead());
    std::vector<JoinSide> sides;
    sides.push_back(std::move(head));
    struct Hop {
      bool reverse = false;
      AssociationId assoc;
    };
    std::vector<Hop> hops;
    while (PeekIs("join")) {
      ++pos_;
      if (hops.size() == LogicalChain::kMaxHops) {
        return Status::InvalidArgument(
            "join chains support at most " +
            std::to_string(LogicalChain::kMaxHops) + " hops");
      }
      Hop hop;
      if (PeekIs("reverse")) {
        ++pos_;
        hop.reverse = true;
      }
      SEED_RETURN_IF_ERROR(Expect("via"));
      SEED_ASSIGN_OR_RETURN(Token assoc_token, Next("association name"));
      auto assoc = db_.schema()->FindAssociation(assoc_token.text);
      if (!assoc.ok()) return assoc.status();
      hop.assoc = *assoc;
      SEED_RETURN_IF_ERROR(Expect("to"));
      // Duplicate binder names are caught by LogicalChain::Validate when
      // the lowered chain reaches the planner.
      SEED_ASSIGN_OR_RETURN(JoinSide side, ParseJoinSideHead());
      hops.push_back(hop);
      sides.push_back(std::move(side));
    }
    if (hops.empty()) {
      return Status::InvalidArgument(
          "expected 'join' after binder '" + sides[0].binder + "'");
    }

    if (pos_ < tokens_.size()) {
      SEED_RETURN_IF_ERROR(Expect("where"));
      SEED_RETURN_IF_ERROR(ParseJoinCondition(&sides));
      while (PeekIs("and")) {
        ++pos_;
        SEED_RETURN_IF_ERROR(ParseJoinCondition(&sides));
      }
    }
    if (pos_ != tokens_.size()) {
      return Status::InvalidArgument("trailing input after query: '" +
                                     tokens_[pos_].text + "'");
    }
    if (pairs_only && hops.size() > 1) {
      return Status::InvalidArgument(
          "multi-hop join chains return binder tuples; run them through "
          "RunJoinChainQuery");
    }

    // Each hop's direction comes from its adjacent binder classes. Every
    // binder's selection plans through the cost-based access paths, then
    // the hop-bitset DP picks the join tree — left-deep or bushy — from
    // the actual binder sizes, the association populations and the
    // tracked degree statistics.
    SEED_ASSIGN_OR_RETURN(
        Planner::ChainResult result,
        LowerAndRun(parse_start, [&]() -> Result<LogicalChain> {
          LogicalChain chain;
          for (size_t i = 0; i < hops.size(); ++i) {
            SEED_ASSIGN_OR_RETURN(
                int left_role,
                InferJoinDirection(hops[i].assoc, sides[i].cls,
                                   sides[i + 1].cls, hops[i].reverse));
            chain.hops.push_back({hops[i].assoc, left_role});
          }
          for (JoinSide& side : sides) {
            chain.binders.push_back(LogicalSelect::Objects(
                side.cls, side.binder, std::move(side.pred), !side.exact));
          }
          return chain;
        }));
    JoinChainResult out;
    for (const JoinSide& side : sides) out.binders.push_back(side.binder);
    out.tuples = std::move(result.tuples.tuples);
    return out;
  }

 private:
  /// The tail every query form shares: closes the parse phase begun at
  /// `parse_start`, times `lower` (which builds the logical chain) as the
  /// lower phase, runs the chain through the planner, reports the plan
  /// (the EXPLAIN string ends in the actual row count) and hands it to
  /// the trace.
  template <typename Lower>
  Result<Planner::ChainResult> LowerAndRun(std::uint64_t parse_start,
                                           Lower lower) {
    const std::uint64_t lower_start = obs::NowNanos();
    obs::RecordPhase(ctx_, obs::QueryPhase::kParse, lower_start - parse_start);
    SEED_ASSIGN_OR_RETURN(LogicalChain chain, lower());
    obs::RecordPhase(ctx_, obs::QueryPhase::kLower,
                     obs::NowNanos() - lower_start);
    Planner planner(&db_);
    Planner::PhysicalPlan plan;
    SEED_ASSIGN_OR_RETURN(Planner::ChainResult result,
                          planner.Run(chain, &plan, ctx_));
    if (plan_out_ != nullptr) {
      // Exactly one of the three result shapes is filled.
      *plan_out_ = plan.ToString() + "; actual " +
                   std::to_string(result.ids.size() +
                                  result.relationships.size() +
                                  result.tuples.size());
    }
    if (trace_ != nullptr) trace_->plan = std::move(plan);
    return result;
  }

  /// One side of a join query: its class extent, binder name, and the
  /// accumulated 'where' conjuncts.
  struct JoinSide {
    ClassId cls;
    std::string binder;
    bool exact = false;
    Predicate pred = Predicate::True();
    bool has_pred = false;
  };

  bool PeekIs(std::string_view word) const {
    return pos_ < tokens_.size() && !tokens_[pos_].quoted &&
           tokens_[pos_].text == word;
  }

  /// True when the tokens after 'find' look like '<Class> <binder>
  /// [exact] join' — the join grammar — rather than a plain object query.
  bool LooksLikeJoin() const {
    auto is = [&](size_t at, std::string_view word) {
      return at < tokens_.size() && !tokens_[at].quoted &&
             tokens_[at].text == word;
    };
    return is(pos_ + 2, "join") ||
           (is(pos_ + 2, "exact") && is(pos_ + 3, "join"));
  }

  /// Parses '<Class> <binder> [exact]' — the head of one join side.
  Result<JoinSide> ParseJoinSideHead() {
    SEED_ASSIGN_OR_RETURN(Token cls_token, Next("class name"));
    JoinSide side;
    auto cls = db_.schema()->FindIndependentClass(cls_token.text);
    if (!cls.ok()) return cls.status();
    side.cls = *cls;
    SEED_ASSIGN_OR_RETURN(Token binder, Next("binder name"));
    if (binder.quoted) {
      return Status::InvalidArgument("binder must be a bare name");
    }
    side.binder = binder.text;
    if (PeekIs("exact")) {
      ++pos_;
      side.exact = true;
    }
    return side;
  }

  /// Parses '<binder> cond' and conjoins it onto the named side.
  Status ParseJoinCondition(std::vector<JoinSide>* sides) {
    SEED_ASSIGN_OR_RETURN(Token binder, Next("binder name"));
    JoinSide* side = nullptr;
    if (!binder.quoted) {
      for (JoinSide& candidate : *sides) {
        if (candidate.binder == binder.text) side = &candidate;
      }
    }
    if (side == nullptr) {
      std::string known;
      for (size_t i = 0; i < sides->size(); ++i) {
        known += (i == 0 ? "'" : (i + 1 == sides->size() ? "' or '" : "', '"));
        known += (*sides)[i].binder;
      }
      return Status::InvalidArgument(
          "join conditions must start with a binder (" + known + "'), got '" +
          binder.text + "'");
    }
    SEED_ASSIGN_OR_RETURN(Predicate cond, ParseCondition());
    side->pred = side->has_pred ? side->pred.And(cond) : cond;
    side->has_pred = true;
    return Status::OK();
  }

  /// Which role the left class binds: inferred from the role classes
  /// (a side fits a role when its extent can overlap the role target's),
  /// forced — but still validated — to 1 by 'reverse'. Self-associations
  /// fit both ways and default to the forward direction.
  Result<int> InferJoinDirection(AssociationId assoc, ClassId left,
                                 ClassId right, bool reverse) const {
    const schema::Schema& schema = *db_.schema();
    auto item = schema.GetAssociation(assoc);
    if (!item.ok()) return item.status();
    auto fits = [&](ClassId cls, const schema::Role& role) {
      return schema.IsSameOrSpecializationOf(cls, role.target) ||
             schema.IsSameOrSpecializationOf(role.target, cls);
    };
    bool backward =
        fits(left, (*item)->roles[1]) && fits(right, (*item)->roles[0]);
    if (reverse) {
      if (!backward) {
        return Status::InvalidArgument(
            "'reverse' join classes do not fit the swapped roles of "
            "association '" + (*item)->name + "'");
      }
      return 1;
    }
    if (fits(left, (*item)->roles[0]) && fits(right, (*item)->roles[1])) {
      return 0;
    }
    if (backward) return 1;
    return Status::InvalidArgument(
        "join classes fit neither direction of association '" +
        (*item)->name + "'");
  }

  Status Expect(std::string_view word) {
    if (!PeekIs(word)) {
      return Status::InvalidArgument(
          "expected '" + std::string(word) + "'" +
          (pos_ < tokens_.size() ? ", got '" + tokens_[pos_].text + "'"
                                 : " at end of query"));
    }
    ++pos_;
    return Status::OK();
  }

  Result<Token> Next(std::string_view what) {
    if (pos_ >= tokens_.size()) {
      return Status::InvalidArgument("expected " + std::string(what) +
                                     " at end of query");
    }
    return tokens_[pos_++];
  }

  /// Value comparison for the '>' / '<' operators (integer only).
  Result<Predicate> ParseComparison(const std::string& op) {
    SEED_ASSIGN_OR_RETURN(Token operand, Next("integer bound"));
    if (operand.quoted) {
      return Status::InvalidArgument("'" + op +
                                     "' wants an integer bound, got '" +
                                     operand.text + "'");
    }
    auto bound = ParseInt(operand.text);
    if (!bound.ok()) {
      return Status::InvalidArgument("'" + op +
                                     "' wants an integer bound, got '" +
                                     operand.text + "'");
    }
    return op == ">" ? Predicate::IntGreater(*bound)
                     : Predicate::IntLess(*bound);
  }

  Result<Predicate> ParseCondition() {
    SEED_ASSIGN_OR_RETURN(Token subject, Next("condition subject"));
    if (subject.quoted) {
      return Status::InvalidArgument("condition must start with a name");
    }
    if (subject.text == "has") {
      SEED_ASSIGN_OR_RETURN(Token role, Next("role name"));
      return Predicate::OnSubObject(role.text, Predicate::True());
    }
    SEED_ASSIGN_OR_RETURN(Token op, Next("'is', 'contains', '>' or '<'"));
    if (op.text != "is" && op.text != "contains" && op.text != ">" &&
        op.text != "<") {
      return Status::InvalidArgument(
          "expected 'is', 'contains', '>' or '<', got '" + op.text + "'");
    }

    if (subject.text == "name") {
      SEED_ASSIGN_OR_RETURN(Token operand, Next("operand"));
      if (op.text == "is") return Predicate::NameIs(operand.text);
      if (op.text == "contains") return Predicate::NameContains(operand.text);
      return Status::InvalidArgument("'" + op.text +
                                     "' does not apply to names");
    }
    if (subject.text == "value") {
      if (op.text == ">" || op.text == "<") return ParseComparison(op.text);
      SEED_ASSIGN_OR_RETURN(Token operand, Next("operand"));
      return op.text == "is" ? LiteralEquals(operand)
                             : Predicate::ValueContains(operand.text);
    }
    // Otherwise the subject is a sub-object role.
    Predicate inner = Predicate::True();
    if (op.text == ">" || op.text == "<") {
      SEED_ASSIGN_OR_RETURN(inner, ParseComparison(op.text));
    } else {
      SEED_ASSIGN_OR_RETURN(Token operand, Next("operand"));
      inner = op.text == "is" ? LiteralEquals(operand)
                              : Predicate::ValueContains(operand.text);
    }
    return Predicate::OnSubObject(subject.text, inner);
  }

  /// One conjunct of a relationship query: a condition on the attribute
  /// sub-objects in a role ('has ROLE', 'ROLE is ...', 'ROLE > ...').
  Result<Planner::RelCondition> ParseRelCondition() {
    SEED_ASSIGN_OR_RETURN(Token subject, Next("condition subject"));
    if (subject.quoted) {
      return Status::InvalidArgument("condition must start with a role name");
    }
    if (subject.text == "has") {
      SEED_ASSIGN_OR_RETURN(Token role, Next("role name"));
      return Planner::RelCondition{role.text, Predicate::True()};
    }
    SEED_ASSIGN_OR_RETURN(Token op, Next("'is', 'contains', '>' or '<'"));
    if (op.text == ">" || op.text == "<") {
      SEED_ASSIGN_OR_RETURN(Predicate inner, ParseComparison(op.text));
      return Planner::RelCondition{subject.text, std::move(inner)};
    }
    if (op.text != "is" && op.text != "contains") {
      return Status::InvalidArgument(
          "expected 'is', 'contains', '>' or '<', got '" + op.text + "'");
    }
    SEED_ASSIGN_OR_RETURN(Token operand, Next("operand"));
    Predicate inner = op.text == "is"
                          ? LiteralEquals(operand)
                          : Predicate::ValueContains(operand.text);
    return Planner::RelCondition{subject.text, std::move(inner)};
  }

  const core::Database& db_;
  std::vector<Token> tokens_;
  std::string* plan_out_;
  QueryTrace* trace_;
  obs::ExecContext* ctx_;
  size_t pos_ = 0;
};

}  // namespace

std::string QueryTrace::Render(bool mask_times) const {
  return plan.ToAnalyzeString(mask_times) + "; phases: " +
         ctx.PhaseSummary(mask_times);
}

Result<std::vector<ObjectId>> RunQuery(const core::Database& db,
                                       std::string_view text,
                                       std::string* plan_out,
                                       QueryTrace* trace) {
  SEED_ASSIGN_OR_RETURN(auto tokens, Tokenize(text));
  if (tokens.empty()) return Status::InvalidArgument("empty query");
  return Parser(db, std::move(tokens), plan_out, trace).RunObjects();
}

Result<std::vector<RelationshipId>> RunRelationshipQuery(
    const core::Database& db, std::string_view text, std::string* plan_out,
    QueryTrace* trace) {
  SEED_ASSIGN_OR_RETURN(auto tokens, Tokenize(text));
  if (tokens.empty()) return Status::InvalidArgument("empty query");
  return Parser(db, std::move(tokens), plan_out, trace).RunRelationships();
}

Result<std::vector<std::pair<ObjectId, ObjectId>>> RunJoinQuery(
    const core::Database& db, std::string_view text, std::string* plan_out,
    QueryTrace* trace) {
  SEED_ASSIGN_OR_RETURN(auto tokens, Tokenize(text));
  if (tokens.empty()) return Status::InvalidArgument("empty query");
  // Multi-hop chains are rejected right after parsing, before anything
  // executes: their result has no pairs shape.
  SEED_ASSIGN_OR_RETURN(
      JoinChainResult chain,
      Parser(db, std::move(tokens), plan_out, trace)
          .RunJoinChain(/*pairs_only=*/true));
  std::vector<std::pair<ObjectId, ObjectId>> out;
  out.reserve(chain.tuples.size());
  for (const auto& tuple : chain.tuples) {
    out.emplace_back(tuple[0], tuple[1]);
  }
  return out;
}

Result<JoinChainResult> RunJoinChainQuery(const core::Database& db,
                                          std::string_view text,
                                          std::string* plan_out,
                                          QueryTrace* trace) {
  SEED_ASSIGN_OR_RETURN(auto tokens, Tokenize(text));
  if (tokens.empty()) return Status::InvalidArgument("empty query");
  return Parser(db, std::move(tokens), plan_out, trace).RunJoinChain();
}

// The shared_ptr overloads keep the pin on the stack across the whole
// call, then forward to the borrowing implementations.

Result<std::vector<ObjectId>> RunQuery(
    std::shared_ptr<const core::Database> db, std::string_view text,
    std::string* plan_out, QueryTrace* trace) {
  if (db == nullptr) return Status::InvalidArgument("null database pin");
  return RunQuery(*db, text, plan_out, trace);
}

Result<std::vector<RelationshipId>> RunRelationshipQuery(
    std::shared_ptr<const core::Database> db, std::string_view text,
    std::string* plan_out, QueryTrace* trace) {
  if (db == nullptr) return Status::InvalidArgument("null database pin");
  return RunRelationshipQuery(*db, text, plan_out, trace);
}

Result<std::vector<std::pair<ObjectId, ObjectId>>> RunJoinQuery(
    std::shared_ptr<const core::Database> db, std::string_view text,
    std::string* plan_out, QueryTrace* trace) {
  if (db == nullptr) return Status::InvalidArgument("null database pin");
  return RunJoinQuery(*db, text, plan_out, trace);
}

Result<JoinChainResult> RunJoinChainQuery(
    std::shared_ptr<const core::Database> db, std::string_view text,
    std::string* plan_out, QueryTrace* trace) {
  if (db == nullptr) return Status::InvalidArgument("null database pin");
  return RunJoinChainQuery(*db, text, plan_out, trace);
}

}  // namespace seed::query
