// The textual queries of an action page, shared by spec_query (on the
// in-memory spec) and team_checkin (on a freshly published snapshot).

#ifndef PERFBENCH_PAGES_H_
#define PERFBENCH_PAGES_H_

#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

inline std::size_t RowsOf(const std::vector<seed::ObjectId>& v) {
  return v.size();
}
inline std::size_t RowsOf(
    const std::vector<std::pair<seed::ObjectId, seed::ObjectId>>& v) {
  return v.size();
}
inline std::size_t RowsOf(const seed::query::JoinChainResult& r) {
  return r.tuples.size();
}

/// Runs `fn(QueryTrace*)` inside a "query" span; when traced, adds the
/// query's phase times and result rows to `phases`.
template <typename Fn>
auto TracedQuery(Tracer* tracer, QueryPhases* phases, const char* name,
                 Fn&& fn) {
  Span span(tracer, "query", name);
  seed::query::QueryTrace trace;
  auto result = fn(tracer != nullptr ? &trace : nullptr);
  if (tracer != nullptr && result.ok()) {
    phases->Add(trace, RowsOf(*result));
  }
  return result;
}

struct ActionPageAnswers {
  seed::Result<std::vector<seed::ObjectId>> by_name;
  seed::Result<std::vector<seed::ObjectId>> by_description;
  seed::Result<std::vector<std::pair<seed::ObjectId, seed::ObjectId>>> reads;
  seed::Result<seed::query::JoinChainResult> chain;

  bool ok() const {
    return by_name.ok() && by_description.ok() && reads.ok() && chain.ok();
  }
};

/// The action page's queries against `db` (a database or a pinned
/// snapshot): `action` by name, `description` through the Description
/// index, the input data `reads_of` reads, and the two containment
/// levels above `action`. `first` (when not null) receives the latency
/// of the first query.
template <typename Db>
ActionPageAnswers QueryActionPage(const Db& db, const std::string& action,
                                  const std::string& description,
                                  const std::string& reads_of,
                                  Tracer* tracer, QueryPhases* phases,
                                  Samples* first = nullptr) {
  using seed::query::QueryTrace;
  const std::uint64_t t0 = NowNs();
  auto by_name = TracedQuery(tracer, phases, "by_name", [&](QueryTrace* t) {
    return seed::query::RunQuery(db, "find Action where name is " + action,
                                 nullptr, t);
  });
  if (first != nullptr) first->Add(NowNs() - t0);
  return ActionPageAnswers{
      std::move(by_name),
      TracedQuery(tracer, phases, "by_description",
                  [&](QueryTrace* t) {
                    return seed::query::RunQuery(
                        db,
                        "find Action where Description is \"" + description +
                            "\"",
                        nullptr, t);
                  }),
      TracedQuery(tracer, phases, "reads_join",
                  [&](QueryTrace* t) {
                    return seed::query::RunJoinQuery(
                        db,
                        "find InputData d join via Read to Action a where a "
                        "name is " +
                            reads_of,
                        nullptr, t);
                  }),
      TracedQuery(tracer, phases, "containment_chain", [&](QueryTrace* t) {
        return seed::query::RunJoinChainQuery(
            db,
            "find Action c join via Contained to Action p join via Contained "
            "to Action g where c name is " +
                action,
            nullptr, t);
      })};
}

}  // namespace perfbench

#endif  // PERFBENCH_PAGES_H_
