#include "spec.h"

#include <cstdlib>

#include "spades/workload.h"

namespace perfbench {

std::string ActionName(std::size_t i) { return "Action_" + std::to_string(i); }

std::string DataName(std::size_t j) { return "Data_" + std::to_string(j); }

std::string DescriptionText(std::size_t i, std::uint64_t rev) {
  std::string text =
      "Handles step " + std::to_string(i) + " of the alarm processing pipeline";
  if (rev != 0) text += " (rev " + std::to_string(rev) + ")";
  return text;
}

seed::Status GenerateSpec(std::size_t actions, std::uint64_t seed,
                          Spec* out) {
  auto tool = seed::spades::SeedSpecTool::Create();
  if (!tool.ok()) return tool.status();
  seed::spades::SessionParams params;
  params.num_actions = actions;
  params.num_data = actions;
  params.flows_per_action = 3;
  params.num_queries = 0;
  params.seed = seed;
  auto stats = seed::spades::RunSession(tool->get(), params);
  if (!stats.ok()) return stats.status();
  seed::index::IndexSpec spec;
  spec.cls = (*tool)->ids().action;
  spec.role = "Description";
  seed::Status st = (*tool)->database()->CreateAttributeIndex(spec);
  if (!st.ok()) return st;
  out->tool = std::move(*tool);
  out->actions = actions;
  return seed::Status::OK();
}

void CopyDatabase(const seed::core::Database& from, seed::core::Database* to) {
  for (const auto& [id, obj] : from.objects_raw()) to->RestoreObject(obj);
  for (const auto& [id, rel] : from.relationships_raw()) {
    to->RestoreRelationship(rel);
  }
  to->RebuildIndexes();
}

std::size_t IndexOfName(const std::string& name) {
  std::size_t us = name.rfind('_');
  return static_cast<std::size_t>(
      std::strtoull(name.c_str() + us + 1, nullptr, 10));
}

seed::Result<std::vector<std::pair<std::size_t, std::size_t>>> ReadFlows(
    Spec* spec) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t a = 0; a < spec->actions; ++a) {
    auto reads = spec->tool->DataReadBy(ActionName(a));
    if (!reads.ok()) return reads.status();
    for (const std::string& d : *reads) out.emplace_back(a, IndexOfName(d));
  }
  return out;
}

seed::RelationshipId FindFlow(const seed::core::Database& db,
                              const seed::spades::Fig3Ids& ids,
                              seed::ObjectId data, seed::ObjectId action) {
  for (seed::RelationshipId rid : db.RelationshipsOf(data, ids.access, 0)) {
    auto rel = db.GetRelationship(rid);
    if (rel.ok() && (*rel)->ends[1] == action) return rid;
  }
  return seed::RelationshipId();
}

seed::Status ToggleFlow(seed::core::Database* db,
                        const seed::spades::Fig3Ids& ids,
                        seed::RelationshipId flow) {
  auto rel = db->GetRelationship(flow);
  if (!rel.ok()) return rel.status();
  return db->ReclassifyRelationship(
      flow, (*rel)->assoc == ids.read ? ids.access : ids.read);
}

}  // namespace perfbench
