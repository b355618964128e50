#include "spades/workload.h"

#include <string>
#include <vector>

#include "common/macros.h"
#include "common/random.h"

namespace seed::spades {

Result<SessionStats> RunSession(SpecTool* tool,
                                const SessionParams& params) {
  SessionStats stats;
  Random rng(params.seed);

  std::vector<std::string> actions;
  std::vector<std::string> data;
  actions.reserve(params.num_actions);
  data.reserve(params.num_data);

  // 1. Actions.
  for (std::size_t i = 0; i < params.num_actions; ++i) {
    actions.push_back("Action_" + std::to_string(i));
    SEED_RETURN_IF_ERROR(tool->AddAction(actions.back()));
    ++stats.mutations;
  }

  // 2. Data items; a fraction enters vaguely as Things.
  std::vector<bool> was_vague(params.num_data, false);
  for (std::size_t i = 0; i < params.num_data; ++i) {
    data.push_back("Data_" + std::to_string(i));
    if (rng.Bernoulli(params.vague_fraction)) {
      was_vague[i] = true;
      SEED_RETURN_IF_ERROR(tool->AddThing(data.back()));
    } else {
      SEED_RETURN_IF_ERROR(tool->AddData(data.back()));
    }
    ++stats.mutations;
  }

  // 3. The vague things become data (knowledge got more precise).
  for (std::size_t i = 0; i < params.num_data; ++i) {
    if (!was_vague[i]) continue;
    SEED_RETURN_IF_ERROR(tool->RefineThingToData(data[i]));
    ++stats.mutations;
  }

  // 4. Vague flows: distinct (action, data) pairs by construction.
  struct FlowRef {
    std::size_t action;
    std::size_t data;
  };
  std::vector<FlowRef> flows;
  for (std::size_t a = 0; a < params.num_actions; ++a) {
    // Only this action's own flows, the tail of `flows`, can repeat a pair.
    const std::size_t first = flows.size();
    for (std::size_t j = 0;
         j < params.flows_per_action && j < params.num_data; ++j) {
      std::size_t d = (a * 7 + j * 13) % params.num_data;
      bool duplicate = false;
      for (std::size_t k = first; k < flows.size(); ++k) {
        if (flows[k].data == d) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      SEED_RETURN_IF_ERROR(
          tool->AddFlow(actions[a], data[d], FlowKind::kUnknown));
      flows.push_back(FlowRef{a, d});
      ++stats.mutations;
    }
  }

  // 5. Data items touched by flows get refined to input (even index) or
  //    output (odd index); their flows are then specialized accordingly.
  std::vector<bool> data_refined(params.num_data, false);
  for (const FlowRef& f : flows) {
    if (data_refined[f.data]) continue;
    data_refined[f.data] = true;
    if (f.data % 2 == 0) {
      SEED_RETURN_IF_ERROR(tool->RefineDataToInput(data[f.data]));
    } else {
      SEED_RETURN_IF_ERROR(tool->RefineDataToOutput(data[f.data]));
    }
    ++stats.mutations;
  }
  for (const FlowRef& f : flows) {
    SEED_RETURN_IF_ERROR(tool->RefineFlow(
        actions[f.action], data[f.data],
        f.data % 2 == 0 ? FlowKind::kRead : FlowKind::kWrite));
    ++stats.mutations;
  }

  // 6. Containment tree over actions.
  for (std::size_t a = 1; a < params.num_actions; ++a) {
    SEED_RETURN_IF_ERROR(tool->Contain(actions[(a - 1) / 2], actions[a]));
    ++stats.mutations;
  }

  // 7. Descriptions.
  for (std::size_t a = 0; a < params.num_actions; ++a) {
    SEED_RETURN_IF_ERROR(tool->SetDescription(
        actions[a], "Handles step " + std::to_string(a) +
                        " of the alarm processing pipeline"));
    ++stats.mutations;
  }

  // 8. Interleaved retrieval.
  for (std::size_t q = 0; q < params.num_queries; ++q) {
    switch (q % 3) {
      case 0: {
        auto r = tool->DataReadBy(actions[q % params.num_actions]);
        SEED_RETURN_IF_ERROR(r.status());
        break;
      }
      case 1: {
        auto r = tool->ActionsAccessing(data[q % params.num_data]);
        SEED_RETURN_IF_ERROR(r.status());
        break;
      }
      default: {
        auto r = tool->GetDescription(actions[q % params.num_actions]);
        SEED_RETURN_IF_ERROR(r.status());
        break;
      }
    }
    ++stats.queries;
  }

  // 9. Final completeness check (free for the direct tool, a real scan for
  //    SEED).
  SEED_ASSIGN_OR_RETURN(stats.incomplete_findings, tool->CountIncomplete());
  return stats;
}

}  // namespace seed::spades
