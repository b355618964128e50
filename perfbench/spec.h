// The SPADES specification every workload runs on, generated by
// spades::RunSession from the benchmark's seed: N actions and N data
// items, three flows per action (every even data item ends up InputData
// and is read, every odd one OutputData and is written), a binary
// containment tree over the actions, and a description on every action.

#ifndef PERFBENCH_SPEC_H_
#define PERFBENCH_SPEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spades/spec_tool.h"

namespace perfbench {

struct Spec {
  std::unique_ptr<seed::spades::SeedSpecTool> tool;
  std::size_t actions = 0;

  seed::core::Database* db() const { return tool->database(); }
  const seed::spades::Fig3Ids& ids() const { return tool->ids(); }
};

std::string ActionName(std::size_t i);
std::string DataName(std::size_t j);
/// Description of action `i` after `rev` edits (rev 0 is the text the
/// generator writes).
std::string DescriptionText(std::size_t i, std::uint64_t rev);

/// Generates the spec and creates the attribute index on
/// `Action.Description`.
seed::Status GenerateSpec(std::size_t actions, std::uint64_t seed, Spec* out);

/// Copies every item of `from`, tombstones included, into the empty
/// database `to` through the public restore calls, then rebuilds its
/// indexes.
void CopyDatabase(const seed::core::Database& from, seed::core::Database* to);

/// Every (action, data) pair joined by a precise Read flow, read through
/// the spades API.
seed::Result<std::vector<std::pair<std::size_t, std::size_t>>> ReadFlows(
    Spec* spec);

/// Index of an "Action_<i>" / "Data_<j>" name.
std::size_t IndexOfName(const std::string& name);

/// Id of the flow between `data` and `action` in the Access family (Read
/// or vague Access), or an invalid id.
seed::RelationshipId FindFlow(const seed::core::Database& db,
                              const seed::spades::Fig3Ids& ids,
                              seed::ObjectId data, seed::ObjectId action);

/// Flips a flow between precise Read and vague Access (a refinement and
/// its undo; the item count does not change).
seed::Status ToggleFlow(seed::core::Database* db,
                        const seed::spades::Fig3Ids& ids,
                        seed::RelationshipId flow);

}  // namespace perfbench

#endif  // PERFBENCH_SPEC_H_
